//! Oracle tests for the warm-started root relaxation: a solve with a hint
//! starts its root LP from the hint LP's optimal basis, a solve without one
//! starts it cold, and both must agree. Driven by the internal PRNG over
//! seeded random mixed-integer models, each built around a feasible
//! integral point that serves as the hint.

use columba_milp::{Model, Sense, SolveParams, SolveStatus, VarId};
use columba_obs::{AttrValue, SpanRecorder};
use columba_prng::Rng;

const CASES: usize = 240;

/// A random bounded MILP with binary, general-integer and continuous
/// columns; the integer part of a point that satisfies every row; and
/// whether that point puts a general integer strictly inside its bounds.
fn random_model(rng: &mut Rng) -> (Model, Vec<(VarId, f64)>, bool) {
    let mut m = Model::new();
    let n_int = rng.gen_range(2usize..7);
    let n_cont = rng.gen_range(1usize..5);
    let mut vars = Vec::new();
    let mut point = Vec::new();
    let mut hint = Vec::new();
    let mut interior = false;
    for i in 0..n_int {
        let (v, value) = if rng.gen_bool(0.6) {
            (m.bin_var(format!("b{i}")), rng.gen_range(0i64..=1) as f64)
        } else {
            let value = rng.gen_range(0i64..=3) as f64;
            interior |= value > 0.0 && value < 3.0;
            (m.int_var(format!("z{i}"), 0.0, 3.0), value)
        };
        vars.push(v);
        point.push(value);
        hint.push((v, value));
    }
    for i in 0..n_cont {
        vars.push(m.num_var(format!("x{i}"), 0.0, 10.0));
        point.push(rng.gen_range(0i64..=20) as f64 * 0.5);
    }
    let n_rows = rng.gen_range(2usize..8);
    for _ in 0..n_rows {
        let mut e = Model::expr();
        let mut act = 0.0;
        for (&v, &p) in vars.iter().zip(&point) {
            if rng.gen_bool(0.7) {
                let c = rng.gen_range(-5i64..=5) as f64;
                e = e.term(c, v);
                act += c * p;
            }
        }
        let slack = rng.gen_range(0i64..=4) as f64;
        match rng.gen_range(0usize..10) {
            0 => m.constraint(e, Sense::Eq, act),
            1..=5 => m.constraint(e, Sense::Le, act + slack),
            _ => m.constraint(e, Sense::Ge, act - slack),
        }
    }
    let mut obj = Model::expr();
    for &v in &vars {
        obj = obj.term(rng.gen_range(-5i64..=5) as f64, v);
    }
    m.minimize(obj);
    (m, hint, interior)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0)
}

/// The `milp.root` span attribute `key` of one recorded solve.
fn root_attr(rec: &SpanRecorder, key: &str) -> Option<AttrValue> {
    let root = (rec.finished().into_iter())
        .find(|e| e.name == "milp.root")
        .expect("milp.root span");
    root.attrs
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// At one node the best bound is the root relaxation's, so a warm root and
/// a cold root must report the same value. Zero gaps keep an incumbent
/// within tolerance of the root from closing the search at a bound that
/// differs from it. The root span says whether the hint LP's basis was
/// used: it must be, unless the hint puts a general integer strictly inside
/// its bounds, where no basis can hold it nonbasic.
#[test]
fn warm_and_cold_roots_report_the_same_bound() {
    let params = SolveParams {
        node_limit: 1,
        threads: 1,
        rel_gap: 0.0,
        abs_gap: 0.0,
        ..SolveParams::default()
    };
    let mut rng = Rng::seed_from_u64(0x3A17);
    let mut warm_starts = 0;
    for case in 0..CASES {
        let (m, hint, interior) = random_model(&mut rng);
        let rec = SpanRecorder::new(256);
        columba_obs::set_enabled(true);
        let guard = rec.install();
        let warm = m.solve_with_hint(&params, &hint).expect("hinted solve");
        drop(guard);
        columba_obs::set_enabled(false);
        let cold = m.solve(&params).expect("cold solve");
        assert!(
            warm.status().has_solution(),
            "case {case}: {:?}",
            warm.status()
        );
        assert!(
            close(warm.best_bound(), cold.best_bound()),
            "case {case}: warm root bound {} vs cold {}",
            warm.best_bound(),
            cold.best_bound()
        );
        if interior {
            assert_eq!(
                root_attr(&rec, "fallback"),
                Some(AttrValue::from("unmapped")),
                "case {case}"
            );
        } else {
            assert_eq!(root_attr(&rec, "fallback"), None, "case {case}");
            assert_eq!(
                root_attr(&rec, "warm_start"),
                Some(AttrValue::from(1usize)),
                "case {case}"
            );
            warm_starts += 1;
        }
    }
    assert!(warm_starts >= CASES / 4, "only {warm_starts} warm starts");
}

/// Run to completion, the warm-started search and the cold one prove the
/// same optimum.
#[test]
fn warm_and_cold_searches_prove_the_same_optimum() {
    let params = SolveParams {
        threads: 1,
        ..SolveParams::default()
    };
    let mut rng = Rng::seed_from_u64(0x3A17);
    for case in 0..CASES {
        let (m, hint, _) = random_model(&mut rng);
        let warm = m.solve_with_hint(&params, &hint).expect("hinted solve");
        let cold = m.solve(&params).expect("cold solve");
        assert_eq!(warm.status(), SolveStatus::Optimal, "case {case}");
        assert_eq!(cold.status(), SolveStatus::Optimal, "case {case}");
        let (a, b) = (
            warm.solution().unwrap().objective(),
            cold.solution().unwrap().objective(),
        );
        assert!((a - b).abs() < 1e-6, "case {case}: warm {a} vs cold {b}");
    }
}
