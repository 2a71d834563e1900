//! Resilient synthesis: an escalation ladder over the MILP.
//!
//! [`synthesize_resilient`] attempts the full synthesis and, when a rung
//! fails — budget exhausted, solver numerical failure, a contained worker
//! panic that degraded the search — steps down:
//!
//! 1. **full MILP** with the caller's budgets;
//! 2. **scaled retry**: the same MILP with the budgets scaled down, a
//!    fresh attempt that dodges transient failures cheaply;
//! 3. **heuristic only**: the constructive incumbent polished by one LP,
//!    no branching (the scalable mode of [`LayoutOptions::heuristic_only`]);
//! 4. **constructive only**: the row placer's layout outright, no MILP.
//!
//! Every rung is recorded in an [`AttemptLog`] so callers can see *which*
//! quality level produced the returned layout and why the better ones did
//! not. A *proven infeasible* model aborts the ladder instead — no rung can
//! fix a design that does not fit its chip-size budget, and the error then
//! carries the diagnosed constraint conflict.
//!
//! One [`CancelToken`] spans the whole ladder: the caller's token (or the
//! [`ResiliencePolicy::total_budget`] deadline) is threaded into every MILP
//! rung, so a chip-level wall-clock budget covers all attempts together.

use std::fmt;
use std::time::{Duration, Instant};

use columba_milp::{CancelToken, SolveStats, SolveStatus};
use columba_netlist::Netlist;

use crate::error::LayoutError;
use crate::layval::LayoutResult;
use crate::{entities, laygen, layval, LayoutOptions};

/// How far [`synthesize_resilient`] may degrade and on what budgets.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Options for the first (full-quality) rung. Its `cancel` token, when
    /// set, spans the *entire* ladder.
    pub options: LayoutOptions,
    /// Wall-clock budget across all rungs together. `None` leaves only the
    /// per-rung `time_limit`s and the caller's token.
    pub total_budget: Option<Duration>,
    /// Whether to retry the full MILP with scaled budgets before degrading
    /// to the heuristic rung.
    pub retry: bool,
    /// Budget scale of the retry rung (clamped to `0.05..=1.0`).
    pub retry_scale: f64,
    /// Whether the final constructive-only rung may run.
    pub allow_constructive: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            options: LayoutOptions::default(),
            total_budget: None,
            retry: true,
            retry_scale: 0.5,
            allow_constructive: true,
        }
    }
}

/// A rung of the escalation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The full MILP with the caller's budgets.
    FullMilp,
    /// The full MILP again with scaled-down budgets.
    RetryScaled,
    /// Constructive incumbent + LP polish, no branching.
    HeuristicOnly,
    /// The constructive placement outright, no MILP.
    ConstructiveOnly,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::FullMilp => "full MILP",
            Rung::RetryScaled => "scaled-budget retry",
            Rung::HeuristicOnly => "heuristic only (no branching)",
            Rung::ConstructiveOnly => "constructive placement only",
        })
    }
}

/// What one rung did.
#[derive(Debug, Clone)]
pub enum AttemptOutcome {
    /// The rung produced the returned layout, with this solver status.
    Produced(SolveStatus),
    /// The rung failed and the ladder moved on (or aborted, for a proven
    /// infeasibility).
    Failed(String),
    /// The rung did not run: budget exhausted or disabled by policy.
    Skipped(String),
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

    fn push(&mut self, rung: Rung, outcome: AttemptOutcome, elapsed: Duration) {
        self.attempts.push(Attempt {
            rung,
            outcome,
            elapsed,
            solve: None,
        });
    }
}

impl fmt::Display for AttemptLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "rung {}: {} — ", i + 1, a.rung)?;
            match &a.outcome {
                AttemptOutcome::Produced(status) => {
                    write!(f, "produced the layout ({status})")?;
                }
                AttemptOutcome::Failed(why) => write!(f, "failed: {why}")?,
                AttemptOutcome::Skipped(why) => write!(f, "skipped: {why}")?,
            }
            write!(f, " [{:.1?}]", a.elapsed)?;
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
/// budget the design does not fit) or when every permitted rung failed.
pub fn synthesize_resilient(
    netlist: &Netlist,
    policy: &ResiliencePolicy,
) -> Result<ResilientOutcome, ResilientError> {
    let start = Instant::now();
    let mut log = AttemptLog::default();

    // one token spans every rung; each MILP additionally caps it at its own
    // per-solve time_limit
    let base_token = policy.options.cancel.clone().unwrap_or_default();
    let token = match policy.total_budget {
        Some(budget) => base_token.capped(start + budget),
        None => base_token,
    };

    let plan = match entities::build_plan(netlist) {
        Ok(p) => p,
        Err(error) => {
            log.total = start.elapsed();
            return Err(ResilientError { error, log });
        }
    };

    let mut milp_rungs = vec![Rung::FullMilp];
    if policy.retry {
        milp_rungs.push(Rung::RetryScaled);
    }
    milp_rungs.push(Rung::HeuristicOnly);

    let mut last_err: Option<LayoutError> = None;
    for rung in milp_rungs {
        // budget exhausted: jump straight to the constructive rung, which
        // needs no solver time at all
        if token.is_cancelled() && !log.attempts.is_empty() {
            log.push(
                rung,
                AttemptOutcome::Skipped("ladder budget exhausted".into()),
                Duration::ZERO,
            );
            continue;
        }
        let opts = rung_options(policy, rung, &token);
        let t0 = Instant::now();
        let mut rung_span = columba_obs::span(rung_span_name(rung));
        match laygen::generate(&plan, &opts).and_then(|g| layval::validate(netlist, &plan, &g)) {
            Ok(result) => {
                rung_span.attr("outcome", "produced");
                let status = result.laygen.status;
                log.attempts.push(Attempt {
                    rung,
                    outcome: AttemptOutcome::Produced(status),
                    elapsed: t0.elapsed(),
                    solve: Some(result.laygen.solve.clone()),
                });
                log.total = start.elapsed();
                return Ok(ResilientOutcome { result, rung, log });
            }
            Err(error @ LayoutError::Infeasible { .. }) => {
                rung_span.attr("outcome", "infeasible");
                // proven infeasible: no rung can produce a *valid* layout,
                // so abort with the diagnosis instead of degrading into a
                // layout that violates the chip budget
                log.push(
                    rung,
                    AttemptOutcome::Failed(error.to_string()),
                    t0.elapsed(),
                );
                log.total = start.elapsed();
                return Err(ResilientError { error, log });
            }
            Err(error) => {
                rung_span.attr("outcome", "failed");
                log.push(
                    rung,
                    AttemptOutcome::Failed(error.to_string()),
                    t0.elapsed(),
                );
                last_err = Some(error);
            }
        }
    }

    if policy.allow_constructive {
        let t0 = Instant::now();
        let mut rung_span = columba_obs::span(rung_span_name(Rung::ConstructiveOnly));
        match laygen::generate_constructive(&plan)
            .and_then(|g| layval::validate(netlist, &plan, &g))
        {
            Ok(result) => {
                rung_span.attr("outcome", "produced");
                let status = result.laygen.status;
                log.attempts.push(Attempt {
                    rung: Rung::ConstructiveOnly,
                    outcome: AttemptOutcome::Produced(status),
                    elapsed: t0.elapsed(),
                    solve: Some(result.laygen.solve.clone()),
                });
                log.total = start.elapsed();
                return Ok(ResilientOutcome {
                    result,
                    rung: Rung::ConstructiveOnly,
                    log,
                });
            }
            Err(error) => {
                rung_span.attr("outcome", "failed");
                log.push(
                    Rung::ConstructiveOnly,
                    AttemptOutcome::Failed(error.to_string()),
                    t0.elapsed(),
                );
                last_err = Some(error);
            }
        }
    } else {
        log.push(
            Rung::ConstructiveOnly,
            AttemptOutcome::Skipped("disabled by policy".into()),
            Duration::ZERO,
        );
    }

    log.total = start.elapsed();
    let error = last_err
        .unwrap_or_else(|| LayoutError::Restore("no ladder rung was permitted to run".into()));
    Err(ResilientError { error, log })
}

/// Static span name for one ladder rung.
fn rung_span_name(rung: Rung) -> &'static str {
    match rung {
        Rung::FullMilp => "rung.full_milp",
        Rung::RetryScaled => "rung.retry_scaled",
        Rung::HeuristicOnly => "rung.heuristic_only",
        Rung::ConstructiveOnly => "rung.constructive_only",
    }
}

fn rung_options(policy: &ResiliencePolicy, rung: Rung, token: &CancelToken) -> LayoutOptions {
    let mut o = policy.options.clone();
    o.cancel = Some(token.clone());
    match rung {
        Rung::FullMilp | Rung::ConstructiveOnly => {}
        Rung::RetryScaled => {
            let scale = policy.retry_scale.clamp(0.05, 1.0);
            o.time_limit = o.time_limit.mul_f64(scale);
            o.node_limit = (o.node_limit as f64 * scale) as usize;
        }
        Rung::HeuristicOnly => {
            o.node_limit = 0;
            o.warm_start = true;
        }
    }
    o
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
        let policy = ResiliencePolicy {
            options: pinned(64),
            ..ResiliencePolicy::default()
        };
        let out = synthesize_resilient(&n, &policy).expect("synthesizes");
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
            rung: Rung::RetryScaled,
            outcome: AttemptOutcome::Skipped("budget".into()),
            elapsed: Duration::ZERO,
            solve: None,
        });
        log.attempts.push(Attempt {
            rung: Rung::HeuristicOnly,
            outcome: AttemptOutcome::Produced(SolveStatus::Feasible),
            elapsed: Duration::from_millis(3),
            solve: Some(solved(2)),
        });
        let agg = log.aggregate_solve();
        assert_eq!(agg.nodes_processed, 9);
        assert_eq!(agg.simplex_iterations, 90);
    }

    #[test]
    fn cancelled_token_still_returns_the_warm_start_incumbent() {
        // the token fires before the solve: branch & bound stops at once
        // with the constructive incumbent, and the first rung still hands
        // back a layout marked LimitReached + fallback
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let token = CancelToken::new();
        token.cancel();
        let policy = ResiliencePolicy {
            options: LayoutOptions {
                cancel: Some(token),
                ..LayoutOptions::default()
            },
            ..ResiliencePolicy::default()
        };
        let out = synthesize_resilient(&n, &policy).expect("fallback layout");
        assert_eq!(out.result.laygen.status, SolveStatus::LimitReached);
        assert!(out.result.laygen.used_fallback);
        assert!(out.result.drc.is_clean());
        let Some(Rung::FullMilp) = out.log.produced_by() else {
            panic!("expected the first rung to produce: {}", out.log);
        };
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
        let policy = ResiliencePolicy {
            options: LayoutOptions {
                max_width_mm: Some(w.to_mm() * 1.5),
                max_height_mm: Some(h.to_mm() + 1.2),
                ..pinned(64)
            },
            ..ResiliencePolicy::default()
        };
        let err = synthesize_resilient(&n, &policy).expect_err("proven infeasible");
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
        // warm start off: a cancelled solve has no incumbent and no
        // fallback, so MILP rungs fail/skip and the constructive rung
        // must *not* run either (warm start is off policy-wide, but the
        // constructive rung places independently — prove it still works)
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let token = CancelToken::new();
        token.cancel();
        let policy = ResiliencePolicy {
            options: LayoutOptions {
                warm_start: false,
                cancel: Some(token),
                ..LayoutOptions::default()
            },
            ..ResiliencePolicy::default()
        };
        let out = synthesize_resilient(&n, &policy).expect("constructive rung saves it");
        assert_eq!(out.rung, Rung::ConstructiveOnly);
        assert!(out.result.laygen.used_fallback);
        assert!(out.result.drc.is_clean());
        // first rung failed, later MILP rungs were skipped on the dead token
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

    #[test]
    fn constructive_rung_can_be_disabled() {
        let (n, _) = planarize(&generators::chip_ip(2, MuxCount::One));
        let token = CancelToken::new();
        token.cancel();
        let policy = ResiliencePolicy {
            options: LayoutOptions {
                warm_start: false,
                cancel: Some(token),
                ..LayoutOptions::default()
            },
            allow_constructive: false,
            ..ResiliencePolicy::default()
        };
        let err = synthesize_resilient(&n, &policy).expect_err("no rung allowed to produce");
        assert!(err
            .log
            .attempts
            .iter()
            .any(|a| matches!(a.outcome, AttemptOutcome::Skipped(_))));
        assert!(err.log.produced_by().is_none());
    }
}
