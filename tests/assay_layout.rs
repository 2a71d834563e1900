//! Scheduled assays whose netlists no rung of the resilience ladder lays
//! out: the constructive placement fails its self-check on them, and the
//! one-node MILP finds no layout of its own. Nothing proves these netlists
//! unplaceable, so the error must say the layout was not found within
//! budget, never that none exists.

use columba_prng::Rng;
use columba_s::{Columba, LayoutError, LayoutOptions, SynthesisError, SynthesisOptions};
use columba_schedule::{generators::random_assay, schedule, ScheduleOptions};

/// `(seed, ops)` of the seeded random assays pinned here.
const CASES: [(u64, usize); 2] = [(3, 16), (1, 24)];

#[test]
fn unplaced_assays_do_not_claim_that_no_layout_exists() {
    let flow = Columba::with_options(SynthesisOptions {
        layout: LayoutOptions {
            threads: 1,
            node_limit: 1,
            time_limit: std::time::Duration::from_secs(3600),
            ..LayoutOptions::default()
        },
        ..SynthesisOptions::default()
    });
    for (seed, ops) in CASES {
        let assay = random_assay(&mut Rng::seed_from_u64(seed), ops);
        let report = schedule(&assay, &ScheduleOptions::default()).expect("assay schedules");
        let err = flow
            .synthesize_resilient(&report.netlist, None)
            .expect_err("no rung lays this assay out");
        assert!(
            !matches!(err, SynthesisError::Layout(LayoutError::Infeasible { .. })),
            "seed {seed} x {ops} ops: {err}"
        );
        let message = err.to_string();
        assert!(
            message.contains("within budget"),
            "seed {seed} x {ops} ops: {message}"
        );
        assert!(
            !message.contains("no layout exists"),
            "seed {seed} x {ops} ops: {message}"
        );
    }
}
