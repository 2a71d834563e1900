//! The parallel branch & bound returns the same objective as the
//! single-threaded search on the bundled benchmark cases.
//!
//! Node identity breaks every heap tie, so a complete search returns the
//! proven optimum for any worker count; under a budget, both configurations
//! keep the identical warm-start incumbent unless the search proves an
//! improvement, which it must then prove in both. The solves below exercise
//! the shared node pool with real §3.2.1 models. Each is bounded by a node
//! count with no effective clock, so the outcome does not depend on how
//! loaded the machine is.

use std::path::PathBuf;
use std::time::Duration;

use columba_layout::{generate_only, GeneratedLayout, LayoutOptions};
use columba_netlist::Netlist;
use columba_planar::planarize;

/// Branch & bound nodes per solve: enough for the four workers to share
/// the pool, few enough to keep a debug build quick.
const NODE_LIMIT: usize = 24;

fn solve_case(case: &str, threads: usize) -> GeneratedLayout {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../cases/{case}.netlist"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let netlist = Netlist::parse(&text).expect("bundled case parses");
    let (planar, _) = planarize(&netlist);
    let options = LayoutOptions {
        threads,
        time_limit: Duration::from_secs(3600),
        node_limit: NODE_LIMIT,
        ..LayoutOptions::default()
    };
    let (_, generated) = generate_only(&planar, &options).expect("case generates");
    generated
}

fn assert_same_objective(case: &str) {
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
