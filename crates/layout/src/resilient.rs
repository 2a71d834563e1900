//! Resilient synthesis: an escalation ladder over the MILP, and the only
//! place a synthesis degrades.
//!
//! [`synthesize_resilient`] places once, hands the placement to every
//! rung, and steps down when a rung fails — budget exhausted, solver
//! numerical failure, a contained worker panic that degraded the search:
//!
//! 1. **full MILP** with the caller's [`LayoutOptions`];
//! 2. **heuristic only**: the constructive incumbent polished by one LP,
//!    no branching (the scalable mode of [`LayoutOptions::heuristic_only`]).
//!    It is skipped when the caller's options already are that mode
//!    (`node_limit == 0` with `warm_start`), since it would repeat the
//!    first rung's solve exactly;
//! 3. **constructive only**: the placement laid out outright, no MILP.
//!    It always runs when the rungs above failed (and fails when the
//!    placement failed its self-check).
//!
//! Every rung is recorded in an [`AttemptLog`] so callers can see *which*
//! quality level (a MILP rung yields only MILP solutions) produced the
//! layout and why the better ones did not. A *proven infeasible* model
//! aborts the ladder instead — no rung can fix a design that does not fit
//! its chip-size budget, and the error then carries the diagnosed conflict.
//!
//! The options' [`cancel`](LayoutOptions::cancel) token spans the whole
//! ladder: a token built with a deadline is a wall-clock budget over all
//! attempts together. Once it has fired, the heuristic rung is skipped and
//! the constructive rung, which needs no solver time, still runs.

use std::fmt;
use std::time::{Duration, Instant};

use columba_milp::{CancelToken, SolveStats, SolveStatus};
use columba_netlist::Netlist;

use crate::error::LayoutError;
use crate::layval::LayoutResult;
use crate::{constructive, entities, laygen, layval, LayoutOptions};

/// A rung of the escalation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The full MILP with the caller's budgets.
    FullMilp,
    /// Constructive incumbent + LP polish, no branching.
    HeuristicOnly,
    /// The constructive placement outright, no MILP.
    ConstructiveOnly,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::FullMilp => "full MILP",
            Rung::HeuristicOnly => "heuristic only (no branching)",
            Rung::ConstructiveOnly => "constructive placement only",
        })
    }
}

/// What one rung did; its `Display` carries no timing.
#[derive(Debug, Clone)]
pub enum AttemptOutcome {
    /// The rung produced the returned layout, with this solver status.
    Produced(SolveStatus),
    /// The rung failed and the ladder moved on (or aborted, for a proven
    /// infeasibility).
    Failed(String),
    /// The rung did not run: the ladder budget was exhausted, or it would
    /// have repeated the previous rung's solve.
    Skipped(String),
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptOutcome::Produced(status) => write!(f, "produced the layout ({status})"),
            AttemptOutcome::Failed(why) => write!(f, "failed: {why}"),
            AttemptOutcome::Skipped(why) => write!(f, "skipped: {why}"),
        }
    }
}

/// One ladder rung's record.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Which rung ran.
    pub rung: Rung,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock time the rung took.
    pub elapsed: Duration,
    /// Solver telemetry, when the rung ran its MILP to a layout.
    pub solve: Option<SolveStats>,
}

/// The full trail of the ladder, one entry per rung tried.
#[derive(Debug, Clone, Default)]
pub struct AttemptLog {
    /// Attempts in ladder order.
    pub attempts: Vec<Attempt>,
    /// Total wall-clock time across all rungs.
    pub total: Duration,
}

impl AttemptLog {
    /// The rung that produced the returned layout, if any did.
    #[must_use]
    pub fn produced_by(&self) -> Option<Rung> {
        self.attempts
            .iter()
            .find(|a| matches!(a.outcome, AttemptOutcome::Produced(_)))
            .map(|a| a.rung)
    }

    /// Solver telemetry summed over every rung that ran a solve: work
    /// counters, contained panics and in-solver phase times. This is the
    /// per-job quantity a monitoring layer accumulates into lifetime
    /// counters (see [`SolveStats::absorb`]); the ladder's own wall clock
    /// is [`AttemptLog::total`], which also covers validation time outside
    /// the solver.
    #[must_use]
    pub fn aggregate_solve(&self) -> SolveStats {
        let mut agg = SolveStats::default();
        for a in &self.attempts {
            if let Some(s) = &a.solve {
                agg.absorb(s);
            }
        }
        agg
    }

    /// Runs one rung under its span and records how it ended.
    fn run(
        &mut self,
        rung: Rung,
        attempt: impl FnOnce() -> Result<LayoutResult, LayoutError>,
    ) -> Result<LayoutResult, LayoutError> {
        let t0 = Instant::now();
        let mut span = columba_obs::span(rung_span_name(rung));
        let outcome = attempt();
        let (attr, record) = match &outcome {
            Ok(result) => ("produced", AttemptOutcome::Produced(result.laygen.status)),
            Err(error @ LayoutError::Infeasible { .. }) => {
                ("infeasible", AttemptOutcome::Failed(error.to_string()))
            }
            Err(error) => ("failed", AttemptOutcome::Failed(error.to_string())),
        };
        span.attr("outcome", attr);
        self.attempts.push(Attempt {
            rung,
            outcome: record,
            elapsed: t0.elapsed(),
            solve: outcome.as_ref().ok().map(|r| r.laygen.solve.clone()),
        });
        outcome
    }
}

impl fmt::Display for AttemptLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attempts.iter().enumerate() {
            let sep = if i > 0 { "\n" } else { "" };
            write!(
                f,
                "{sep}rung {}: {} — {} [{:.1?}]",
                i + 1,
                a.rung,
                a.outcome,
                a.elapsed
            )?;
        }
        Ok(())
    }
}

/// A layout plus the ladder trail that produced it.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The synthesized layout.
    pub result: LayoutResult,
    /// The rung that produced it.
    pub rung: Rung,
    /// Every rung tried.
    pub log: AttemptLog,
}

/// Every rung failed (or the model is proven infeasible). Carries the
/// decisive error and the full trail.
#[derive(Debug)]
pub struct ResilientError {
    /// The error that ended the ladder: the infeasibility diagnosis when
    /// one was proven, otherwise the last rung's failure.
    pub error: LayoutError,
    /// Every rung tried.
    pub log: AttemptLog,
}

impl fmt::Display for ResilientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resilient synthesis failed after {} attempt(s): {}",
            self.log.attempts.len(),
            self.error
        )
    }
}

impl std::error::Error for ResilientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs the escalation ladder on a **planarized** netlist.
///
/// Returns the best layout any rung produced, together with the
/// [`AttemptLog`]. See the [module docs](self) for the ladder.
///
/// # Errors
///
/// Returns [`ResilientError`] when the placement model is proven
/// infeasible (the ladder aborts — degradation cannot fix a chip-size
/// budget the design does not fit) or when every rung failed; the error
/// is then the constructive rung's.
pub fn synthesize_resilient(
    netlist: &Netlist,
    options: &LayoutOptions,
) -> Result<ResilientOutcome, ResilientError> {
    let start = Instant::now();
    let mut log = AttemptLog::default();
    let outcome = ladder(netlist, options, &mut log);
    log.total = start.elapsed();
    match outcome {
        Ok((result, rung)) => Ok(ResilientOutcome { result, rung, log }),
        Err(error) => Err(ResilientError { error, log }),
    }
}

fn ladder(
    netlist: &Netlist,
    options: &LayoutOptions,
    log: &mut AttemptLog,
) -> Result<(LayoutResult, Rung), LayoutError> {
    let plan = entities::build_plan(netlist)?;
    let placement = constructive::place(&plan)?;
    let heuristic = LayoutOptions {
        node_limit: 0,
        warm_start: true,
        ..options.clone()
    };
    for (rung, opts) in [(Rung::FullMilp, options), (Rung::HeuristicOnly, &heuristic)] {
        if let Some(why) = skip_reason(rung, options) {
            log.attempts.push(Attempt {
                rung,
                outcome: AttemptOutcome::Skipped(why.into()),
                elapsed: Duration::ZERO,
                solve: None,
            });
            continue;
        }
        match log.run(rung, || {
            laygen::generate(&plan, placement.as_ref(), opts)
                .and_then(|g| layval::validate(netlist, &plan, &g))
        }) {
            Ok(result) => return Ok((result, rung)),
            // proven infeasible: no rung can produce a *valid* layout, so
            // abort with the diagnosis instead of degrading into a layout
            // that violates the chip budget
            Err(error @ LayoutError::Infeasible { .. }) => return Err(error),
            Err(_) => {}
        }
    }
    let result = log.run(Rung::ConstructiveOnly, || {
        let placement = placement.as_ref().ok_or_else(|| {
            LayoutError::milp(
                "no layout found within budget at any rung: the constructive placement failed its self-check",
            )
        })?;
        layval::validate(netlist, &plan, &laygen::constructive_layout(&plan, placement))
    })?;
    Ok((result, Rung::ConstructiveOnly))
}

/// Why the heuristic rung does not run, if it does not: it would repeat
/// the full MILP's solve, or the ladder's token has already fired (the
/// constructive rung needs no solver time, so it always runs).
fn skip_reason(rung: Rung, options: &LayoutOptions) -> Option<&'static str> {
    if rung != Rung::HeuristicOnly {
        None
    } else if options.node_limit == 0 && options.warm_start {
        Some("same options as the full MILP")
    } else if options
        .cancel
        .as_ref()
        .is_some_and(CancelToken::is_cancelled)
    {
        Some("ladder budget exhausted")
    } else {
        None
    }
}

/// Static span name for one ladder rung.
fn rung_span_name(rung: Rung) -> &'static str {
    match rung {
        Rung::FullMilp => "rung.full_milp",
        Rung::HeuristicOnly => "rung.heuristic_only",
        Rung::ConstructiveOnly => "rung.constructive_only",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_netlist::{generators, Endpoint, MixerSpec, MuxCount, Netlist, UnitSide};
    use columba_planar::planarize;

    /// Options whose search stops at `nodes` B&B nodes on one thread; the
    /// 3600 s clock never binds, so the result is the same on any host.
    fn pinned(nodes: usize) -> LayoutOptions {
        LayoutOptions {
            threads: 1,
            node_limit: nodes,
            time_limit: Duration::from_secs(3600),
            ..LayoutOptions::default()
        }
    }

    #[test]
    fn first_rung_produces_on_a_healthy_case() {
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let out = synthesize_resilient(&n, &pinned(64)).expect("synthesizes");
        assert_eq!(out.rung, Rung::FullMilp);
        assert_eq!(out.log.produced_by(), Some(Rung::FullMilp));
        assert_eq!(out.log.attempts.len(), 1);
        assert!(out.result.drc.is_clean(), "{:?}", out.result.drc);
        let text = out.log.to_string();
        assert!(text.contains("produced the layout"), "{text}");
    }

    #[test]
    fn aggregate_solve_sums_over_rungs() {
        let mut log = AttemptLog::default();
        let solved = |nodes: usize| SolveStats {
            nodes_processed: nodes,
            simplex_iterations: nodes * 10,
            ..SolveStats::default()
        };
        log.attempts.push(Attempt {
            rung: Rung::FullMilp,
            outcome: AttemptOutcome::Failed("budget".into()),
            elapsed: Duration::from_millis(5),
            solve: Some(solved(7)),
        });
        log.attempts.push(Attempt {
            rung: Rung::HeuristicOnly,
            outcome: AttemptOutcome::Skipped("budget".into()),
            elapsed: Duration::ZERO,
            solve: None,
        });
        log.attempts.push(Attempt {
            rung: Rung::ConstructiveOnly,
            outcome: AttemptOutcome::Produced(SolveStatus::Feasible),
            elapsed: Duration::from_millis(3),
            solve: Some(solved(2)),
        });
        let agg = log.aggregate_solve();
        assert_eq!(agg.nodes_processed, 9);
        assert_eq!(agg.simplex_iterations, 90);
    }

    #[test]
    fn cancelled_token_degrades_to_the_constructive_rung() {
        // the token fires before the solve: the hint LP stops before it
        // polishes anything, so the full MILP has no layout, the heuristic
        // rung is skipped on the dead token, and the constructive rung
        // lays out the same placement the hint came from
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let token = CancelToken::new();
        token.cancel();
        let options = LayoutOptions {
            cancel: Some(token),
            ..LayoutOptions::default()
        };
        let out = synthesize_resilient(&n, &options).expect("constructive layout");
        assert_eq!(out.rung, Rung::ConstructiveOnly, "{}", out.log);
        assert_eq!(out.result.laygen.status, SolveStatus::LimitReached);
        assert!(out.result.drc.is_clean(), "{:?}", out.result.drc);
        assert!(
            matches!(
                out.log.attempts[..],
                [
                    Attempt {
                        rung: Rung::FullMilp,
                        outcome: AttemptOutcome::Failed(_),
                        ..
                    },
                    Attempt {
                        rung: Rung::HeuristicOnly,
                        outcome: AttemptOutcome::Skipped(_),
                        ..
                    },
                    Attempt {
                        rung: Rung::ConstructiveOnly,
                        outcome: AttemptOutcome::Produced(SolveStatus::LimitReached),
                        ..
                    },
                ]
            ),
            "{}",
            out.log
        );
    }

    /// Two independent port→mixer→port chains whose blocks cannot be
    /// separated horizontally *or* vertically under the chip-size caps.
    fn two_chain_netlist() -> Netlist {
        let mut n = Netlist::new("two-chains");
        for i in 1..=2 {
            let m = n
                .add_mixer(
                    format!("m{i}"),
                    MixerSpec {
                        access: columba_netlist::ControlAccess::Bottom,
                        ..MixerSpec::default()
                    },
                )
                .expect("fresh name");
            let pin = n.add_port(format!("in{i}")).expect("fresh name");
            let pout = n.add_port(format!("out{i}")).expect("fresh name");
            n.connect(
                Endpoint::Port(pin),
                Endpoint::Unit {
                    component: m,
                    side: UnitSide::Left,
                },
            )
            .expect("valid");
            n.connect(
                Endpoint::Unit {
                    component: m,
                    side: UnitSide::Right,
                },
                Endpoint::Port(pout),
            )
            .expect("valid");
        }
        n
    }

    #[test]
    fn too_small_chip_is_diagnosed_not_degraded() {
        let n = two_chain_netlist();
        let plan = entities::build_plan(&n).expect("planarized");
        let w = plan.blocks.iter().map(|b| b.width).max().expect("blocks");
        let h = plan
            .blocks
            .iter()
            .map(|b| b.height.unwrap_or(b.min_height))
            .max()
            .expect("blocks");
        // fits either block alone (with room for the inlet pitch), but not
        // both side by side nor stacked
        let options = LayoutOptions {
            max_width_mm: Some(w.to_mm() * 1.5),
            max_height_mm: Some(h.to_mm() + 1.2),
            ..pinned(64)
        };
        let err = synthesize_resilient(&n, &options).expect_err("proven infeasible");
        let LayoutError::Infeasible { conflict, detail } = &err.error else {
            panic!("expected Infeasible, got {}", err.error);
        };
        assert!(
            conflict
                .iter()
                .any(|g| g.contains("chip confinement (eq 2)")),
            "{conflict:?}"
        );
        assert!(
            conflict.iter().any(|g| g.contains("non-overlap (eqs 3-5)")),
            "{conflict:?}"
        );
        assert!(detail.contains("eq 2"), "{detail}");
        // the ladder aborted at the first rung instead of degrading into a
        // layout that violates the chip budget
        assert_eq!(err.log.attempts.len(), 1);
        assert!(err.log.produced_by().is_none());
        assert!(err.to_string().contains("infeasible"), "{err}");
    }

    #[test]
    fn exhausted_budget_skips_milp_rungs_after_the_first_failure() {
        // warm start off: a cancelled solve has no incumbent, so the full
        // MILP fails and the heuristic rung is
        // skipped on the dead token; the constructive rung places without
        // the solver and still produces
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let token = CancelToken::new();
        token.cancel();
        let options = LayoutOptions {
            warm_start: false,
            cancel: Some(token),
            ..LayoutOptions::default()
        };
        let out = synthesize_resilient(&n, &options).expect("constructive rung saves it");
        assert_eq!(out.rung, Rung::ConstructiveOnly);
        assert!(!out.result.laygen.hint_used);
        assert!(out.result.drc.is_clean());
        // first rung failed, the heuristic rung was skipped on the dead token
        assert!(matches!(
            out.log.attempts[0].outcome,
            AttemptOutcome::Failed(_)
        ));
        assert!(out
            .log
            .attempts
            .iter()
            .any(|a| matches!(a.outcome, AttemptOutcome::Skipped(_))));
    }
}
