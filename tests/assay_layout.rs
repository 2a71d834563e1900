//! Scheduled assays through the resilience ladder. On many of them the
//! constructive placement fails its self-check, and the one-node MILP finds
//! no layout of its own. Nothing proves these netlists unplaceable, so the
//! error must say the layout was not found within budget, never that none
//! exists. Every rung that runs does new work: at `node_limit: 0` the
//! heuristic rung would repeat the full MILP's solve, so it is skipped, and
//! with no placement to polish a `node_limit: 0` model is never solved.

use std::time::Duration;

use columba_obs::SpanRecorder;
use columba_prng::Rng;
use columba_s::planar::planarize;
use columba_s::{synthesize_resilient, AttemptOutcome, LayoutError, LayoutOptions, Rung};
use columba_schedule::{generators::random_assay, schedule, ScheduleOptions, StoragePolicy};

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
                time_limit: Duration::from_secs(3600),
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

/// The seeded assay grid: seeds 1-6 x {12, 16, 24, 32} ops x every storage
/// policy, laid out in heuristic mode on one thread with a clock that
/// never fires. A ladder lays an assay out exactly when its constructive
/// placement passes the self-check: the full MILP then polishes it. When
/// the placement fails, no rung solves anything, and the ladder fails with
/// the self-check message.
#[test]
fn assay_grid_lays_out_exactly_the_self_checked_placements() {
    let options = LayoutOptions {
        threads: 1,
        time_limit: Duration::from_secs(3600),
        ..LayoutOptions::heuristic_only()
    };
    let mut laid_out = 0;
    columba_obs::set_enabled(true);
    for seed in 1..=6u64 {
        for ops in [12usize, 16, 24, 32] {
            for policy in [
                StoragePolicy::Dedicated,
                StoragePolicy::Distributed,
                StoragePolicy::Spill,
            ] {
                let case = format!("seed {seed} x {ops} ops, {}", policy.as_str());
                let assay = random_assay(&mut Rng::seed_from_u64(seed), ops);
                let schedule_options = ScheduleOptions {
                    policy,
                    ..ScheduleOptions::default()
                };
                let report = schedule(&assay, &schedule_options).expect("assay schedules");
                let (netlist, _) = planarize(&report.netlist);
                let recorder = SpanRecorder::new(4096);
                let guard = recorder.install();
                let outcome = synthesize_resilient(&netlist, &options);
                drop(guard);
                match outcome {
                    Ok(out) => {
                        assert_eq!(out.rung, Rung::FullMilp, "{case}: {}", out.log);
                        assert!(out.result.laygen.hint_used, "{case}");
                        laid_out += 1;
                    }
                    Err(err) => {
                        let message = err.to_string();
                        assert!(
                            message.contains("the constructive placement failed its self-check"),
                            "{case}: {message}"
                        );
                        let spans: Vec<&str> = recorder.finished().iter().map(|s| s.name).collect();
                        assert!(spans.contains(&"rung.full_milp"), "{case}: {spans:?}");
                        assert!(!spans.contains(&"milp.solve"), "{case}: {spans:?}");
                    }
                }
            }
        }
    }
    columba_obs::set_enabled(false);
    assert_eq!(laid_out, 19);
}
