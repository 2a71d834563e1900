//! Scheduled assays whose netlists no rung of the resilience ladder lays
//! out: the constructive placement fails its self-check on them, and the
//! one-node MILP finds no layout of its own. Nothing proves these netlists
//! unplaceable, so the error must say the layout was not found within
//! budget, never that none exists. Every rung that runs does new work: at
//! `node_limit: 0` the heuristic rung would repeat the full MILP's solve,
//! so it is skipped.

use columba_prng::Rng;
use columba_s::planar::planarize;
use columba_s::{synthesize_resilient, AttemptOutcome, LayoutError, LayoutOptions, Rung};
use columba_schedule::{generators::random_assay, schedule, ScheduleOptions};

/// `(seed, ops)` of the seeded random assays pinned here.
const CASES: [(u64, usize); 2] = [(3, 16), (1, 24)];

#[test]
fn unplaced_assays_do_not_claim_that_no_layout_exists() {
    for (seed, ops) in CASES {
        let assay = random_assay(&mut Rng::seed_from_u64(seed), ops);
        let report = schedule(&assay, &ScheduleOptions::default()).expect("assay schedules");
        let (netlist, _) = planarize(&report.netlist);
        for (node_limit, heuristic) in [(1, "failed"), (0, "skipped")] {
            let case = format!("seed {seed} x {ops} ops, node_limit {node_limit}");
            let options = LayoutOptions {
                threads: 1,
                node_limit,
                time_limit: std::time::Duration::from_secs(3600),
                ..LayoutOptions::default()
            };
            let err = synthesize_resilient(&netlist, &options).expect_err("no rung lays it out");
            let trail: Vec<(Rung, &str)> = err
                .log
                .attempts
                .iter()
                .map(|a| {
                    let outcome = match a.outcome {
                        AttemptOutcome::Produced(_) => "produced",
                        AttemptOutcome::Failed(_) => "failed",
                        AttemptOutcome::Skipped(_) => "skipped",
                    };
                    (a.rung, outcome)
                })
                .collect();
            assert_eq!(
                trail,
                [
                    (Rung::FullMilp, "failed"),
                    (Rung::HeuristicOnly, heuristic),
                    (Rung::ConstructiveOnly, "failed"),
                ],
                "{case}: {}",
                err.log
            );
            assert!(
                !matches!(err.error, LayoutError::Infeasible { .. }),
                "{case}: {err}"
            );
            let message = err.to_string();
            assert!(message.contains("within budget"), "{case}: {message}");
            assert!(!message.contains("no layout exists"), "{case}: {message}");
        }
    }
}
