//! Ladder tests under injected faults: prove every degradation rung fires.
//! Compiled only under `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use std::time::Duration;

use columba_layout::{synthesize_resilient, AttemptOutcome, LayoutOptions, Rung};
use columba_milp::fault::{self, Fault};
use columba_netlist::Netlist;
use columba_planar::planarize;

fn chip4ip() -> Netlist {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../cases/chip4ip.netlist"
    ))
    .expect("cases/chip4ip.netlist is checked in");
    let (n, _) = planarize(&Netlist::parse(&text).expect("case parses"));
    n
}

/// Budgeted options where only the heuristic rung can survive an armed
/// fault: warm starting is off for the MILP rungs, so a degraded search has
/// no incumbent of its own. The node budget binds; the 3600 s clock never
/// does, so every rung does the same work on any host.
fn brittle_options() -> LayoutOptions {
    LayoutOptions {
        warm_start: false,
        node_limit: 50,
        time_limit: Duration::from_secs(3600),
        threads: 2,
        ..LayoutOptions::default()
    }
}

#[test]
fn worker_panics_degrade_to_the_heuristic_rung() {
    let _g = fault::arm(Fault::WorkerPanic, 0);
    let out = synthesize_resilient(&chip4ip(), &brittle_options()).expect("ladder saves it");
    // the panicking full MILP failed; the heuristic rung (no node
    // expansion, so no armed fault fires) produced the layout
    assert_eq!(out.rung, Rung::HeuristicOnly, "{}", out.log);
    assert!(out.result.laygen.hint_used);
    assert!(out.result.drc.is_clean(), "{:?}", out.result.drc);
    let trail: Vec<_> = out
        .log
        .attempts
        .iter()
        .map(|a| (a.rung, &a.outcome))
        .collect();
    assert!(
        matches!(
            trail[..],
            [
                (Rung::FullMilp, AttemptOutcome::Failed(_)),
                (Rung::HeuristicOnly, AttemptOutcome::Produced(_)),
            ]
        ),
        "{}",
        out.log
    );
}

#[test]
fn numerical_failures_degrade_to_the_heuristic_rung() {
    let _g = fault::arm(Fault::SimplexNumerical, 0);
    let out = synthesize_resilient(&chip4ip(), &brittle_options()).expect("ladder saves it");
    assert_eq!(out.rung, Rung::HeuristicOnly, "{}", out.log);
    assert!(out.result.drc.is_clean());
    // the first rung's failure preserves the solver's structured message
    let AttemptOutcome::Failed(why) = &out.log.attempts[0].outcome else {
        panic!("first rung must fail: {}", out.log);
    };
    assert!(why.contains("injected fault"), "{why}");
}

#[test]
fn node_limit_exhaustion_degrades_but_stays_drc_clean() {
    // no injected fault needed: a 1-node budget with warm starting off
    // exhausts immediately, and the ladder walks down to a clean layout
    let options = LayoutOptions {
        node_limit: 1,
        ..brittle_options()
    };
    let out = synthesize_resilient(&chip4ip(), &options).expect("ladder saves it");
    assert_ne!(out.rung, Rung::FullMilp, "{}", out.log);
    assert!(out.result.drc.is_clean());
    assert!(out.log.produced_by().is_some());
}
