//! The parallel branch & bound returns the same objective as the
//! single-threaded search on the bundled benchmark cases.
//!
//! Node identity breaks every heap tie, so a complete search returns the
//! proven optimum for any worker count; under a budget, both configurations
//! keep the identical warm-start incumbent unless the search proves an
//! improvement, which it must then prove in both. The solves below exercise
//! the shared node pool with real §3.2.1 models.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use columba_layout::{generate_only, GeneratedLayout, LayoutOptions};
use columba_netlist::Netlist;
use columba_planar::planarize;

fn solve_case(case: &str, threads: usize) -> GeneratedLayout {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../cases/{case}.netlist"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let netlist = Netlist::parse(&text).expect("bundled case parses");
    let (planar, _) = planarize(&netlist);
    let options = LayoutOptions {
        threads,
        time_limit: Duration::from_secs(4),
        node_limit: 200,
        ..LayoutOptions::default()
    };
    let (_, generated) = generate_only(&planar, &options).expect("case generates");
    generated
}

/// The solves run under a wall-clock limit, so the cases take turns: two
/// of them sharing a small machine can starve a root LP past the limit
/// and leave the search nothing to run.
static SOLVE_LOCK: Mutex<()> = Mutex::new(());

fn assert_same_objective(case: &str) {
    let _turn = SOLVE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let seq = solve_case(case, 1);
    let par = solve_case(case, 4);
    assert!(
        seq.report.status.has_solution(),
        "{case} threads=1: {:?}",
        seq.report.status
    );
    assert!(
        par.report.status.has_solution(),
        "{case} threads=4: {:?}",
        par.report.status
    );
    let (a, b) = (seq.report.objective.unwrap(), par.report.objective.unwrap());
    assert!(
        (a - b).abs() < 1e-6,
        "{case}: threads=1 gives {a}, threads=4 gives {b}"
    );
    // the telemetry reflects the requested worker counts
    assert_eq!(seq.report.solve.threads, 1, "{case}");
    assert_eq!(seq.report.solve.worker_busy.len(), 1, "{case}");
    assert_eq!(par.report.solve.threads, 4, "{case}");
    assert_eq!(par.report.solve.worker_busy.len(), 4, "{case}");
    assert!(
        seq.report.solve.nodes_processed > 0,
        "{case}: search must run"
    );
    assert!(
        par.report.solve.nodes_processed > 0,
        "{case}: search must run"
    );
}

#[test]
fn chip4ip_parallel_matches_sequential() {
    assert_same_objective("chip4ip");
}

#[test]
fn columba2_21u_parallel_matches_sequential() {
    assert_same_objective("columba2_21u");
}
