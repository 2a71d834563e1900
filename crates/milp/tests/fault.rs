//! Fault-injection tests: prove the containment machinery with forced
//! failures. Compiled only under `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use std::time::Duration;

use columba_milp::fault::{self, Fault};
use columba_milp::{Model, Sense, SolveError, SolveParams, SolveStatus};

/// A knapsack with a fractional root LP, so branch & bound must expand
/// nodes (where the armed faults fire).
fn branching_model(n: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.bin_var()).collect();
    let mut weight = Model::expr();
    let mut value = Model::expr();
    for (i, &v) in vars.iter().enumerate() {
        weight = weight.term(2.0 + ((i * 7) % 5) as f64, v);
        value = value.term(3.0 + ((i * 11) % 7) as f64, v);
    }
    m.constraint(weight, Sense::Le, (2 * n) as f64 * 0.6 + 0.5);
    m.maximize(value);
    m
}

fn params(threads: usize) -> SolveParams {
    SolveParams {
        time_limit: Duration::from_secs(30),
        threads,
        rounding_heuristic: false,
        ..SolveParams::default()
    }
}

#[test]
fn injected_numerical_failure_is_a_structured_error() {
    let _g = fault::arm(Fault::SimplexNumerical, 0);
    let e = branching_model(10).solve(&params(1)).unwrap_err();
    let SolveError::Numerical(msg) = e else {
        panic!("expected Numerical, got {e}");
    };
    assert!(msg.contains("injected fault"), "{msg}");
}

#[test]
fn injected_worker_panic_degrades_but_never_crashes() {
    let _g = fault::arm(Fault::WorkerPanic, 0);
    // every expanded node panics; the process must survive, report the
    // contained panics, and refuse to claim optimality
    let r = branching_model(10)
        .solve(&params(2))
        .expect("no solver error");
    assert!(r.stats().worker_panics > 0, "{:?}", r.stats());
    assert_ne!(r.status(), SolveStatus::Optimal);
}

#[test]
fn injected_panic_after_progress_keeps_the_incumbent() {
    // let the search run for a while before the panics start, so an
    // incumbent exists; the degraded solve must still hand it back
    let _g = fault::arm(Fault::WorkerPanic, 40);
    let mut p = params(1);
    p.rounding_heuristic = true;
    let r = branching_model(14).solve(&p).expect("no solver error");
    if r.stats().worker_panics > 0 {
        assert_eq!(r.status(), SolveStatus::Feasible);
        assert!(r.solution().is_some());
    } else {
        // search finished inside 40 nodes: nothing to contain
        assert_eq!(r.status(), SolveStatus::Optimal);
    }
}

#[test]
fn injected_timeout_preserves_the_warm_start_incumbent() {
    // deterministic "limit fired mid-search": the very first node behaves
    // as if the budget expired, so the hint-seeded incumbent is the answer
    let _g = fault::arm(Fault::Timeout, 0);
    let mut m = Model::new();
    let a = m.bin_var();
    let b = m.bin_var();
    m.constraint(Model::expr().term(2.0, a).term(2.0, b), Sense::Le, 3.0);
    m.maximize(Model::expr().term(2.0, a).term(3.0, b));
    let r = m
        .solve_with_hint(&params(1), &[(a, 1.0), (b, 0.0)])
        .expect("no solver error");
    assert_eq!(r.status(), SolveStatus::Feasible, "incumbent + limit");
    let sol = r.solution().expect("warm-start incumbent survives");
    assert!((sol.objective() - 2.0).abs() < 1e-6);
}
