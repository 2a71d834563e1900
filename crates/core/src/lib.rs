//! Columba S: a scalable co-layout design automation tool for microfluidic
//! large-scale integration — a from-scratch Rust reproduction of the DAC
//! 2018 paper.
//!
//! Columba S turns a plain-text netlist of microfluidic functional units
//! into a manufacturing-ready two-layer chip design: placed module models,
//! straight flow/control channels, fluid inlets along the flow boundaries
//! and binary multiplexers that drive `n` independent valves from
//! `2·ceil(log2 n) + 1` pressure inlets. The full flow (paper Fig 5) is:
//!
//! ```text
//! netlist description ──► planarization ──► layout generation (MILP)
//!        ──► layout validation ──► MUX synthesis ──► DRC ──► CAD export
//! ```
//!
//! # Quick start
//!
//! ```
//! use columba_s::{Columba, Netlist};
//!
//! let netlist = Netlist::parse(
//!     "chip demo\nmux 1\nmixer m1\nchamber c1\nport feed\nport out\n\
//!      connect feed -> m1.left\nconnect m1.right -> c1.left\nconnect c1.right -> out\n",
//! )?;
//! let outcome = Columba::new().synthesize(&netlist)?;
//! assert!(outcome.drc.is_clean());
//! println!("{}", outcome.design.stats());
//! # Ok::<(), columba_s::SynthesisError>(())
//! ```
//!
//! The sub-crates are re-exported: [`netlist`], [`planar`], [`layout`],
//! [`design`], [`modules`], [`mux`], [`sim`], [`cad`], [`milp`],
//! [`baseline`], [`geom`].

use std::fmt;
use std::time::{Duration, Instant};

pub use columba_baseline as baseline;
pub use columba_cad as cad;
pub use columba_design as design;
pub use columba_geom as geom;
pub use columba_layout as layout;
pub use columba_milp as milp;
pub use columba_modules as modules;
pub use columba_mux as mux;
pub use columba_netlist as netlist;
pub use columba_planar as planar;
pub use columba_sim as sim;

pub use columba_design::{drc::DrcReport, Design, DesignStats};
pub use columba_layout::{
    synthesize_resilient, Attempt, AttemptLog, AttemptOutcome, LayoutError, LayoutOptions,
    ResilientError, ResilientOutcome, Rung,
};
pub use columba_milp::{CancelToken, SolveStats};
pub use columba_netlist::{Netlist, NetlistError};
pub use columba_planar::PlanarizeReport;

/// Error raised by [`Columba::synthesize`].
#[derive(Debug)]
pub enum SynthesisError {
    /// The input netlist is malformed.
    Netlist(NetlistError),
    /// Physical synthesis failed.
    Layout(LayoutError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Netlist(e) => write!(f, "netlist error: {e}"),
            SynthesisError::Layout(e) => write!(f, "layout error: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Netlist(e) => Some(e),
            SynthesisError::Layout(e) => Some(e),
        }
    }
}

impl From<NetlistError> for SynthesisError {
    fn from(e: NetlistError) -> SynthesisError {
        SynthesisError::Netlist(e)
    }
}

impl From<LayoutError> for SynthesisError {
    fn from(e: LayoutError) -> SynthesisError {
        SynthesisError::Layout(e)
    }
}

/// Synthesis configuration.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Physical-synthesis options (objective weights, solver budgets).
    pub layout: LayoutOptions,
    /// When `true`, designs above [`SynthesisOptions::scale_threshold`]
    /// functional units use the scalable heuristic mode (constructive
    /// placement + LP polish, no branching) automatically — this is what
    /// keeps 200+-unit designs within the paper's three-minute envelope.
    pub auto_scale: bool,
    /// Unit count at which auto-scaling kicks in.
    pub scale_threshold: usize,
}

impl Default for SynthesisOptions {
    fn default() -> SynthesisOptions {
        SynthesisOptions {
            layout: LayoutOptions::default(),
            auto_scale: true,
            scale_threshold: 24,
        }
    }
}

impl SynthesisOptions {
    /// Renders every option that can change the synthesized *design* into
    /// a stable, deterministic byte form — the options half of the
    /// content-addressed cache key used by `columba-service` (the netlist
    /// half is [`Netlist::canonical_text`]).
    ///
    /// Deliberately excluded, because they provably do not change the
    /// returned layout: `threads` (any worker count yields the same
    /// objective — see `crates/layout/tests/determinism.rs`) and the
    /// `cancel` token (a runtime handle).
    /// Budgets (`time_limit`, `node_limit`) *are* included: when a budget
    /// binds it selects the incumbent, so different budgets may
    /// legitimately yield different designs.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let l = &self.layout;
        format!(
            "alpha {}\nbeta {}\ngamma {}\nkappa {}\ntime_limit_us {}\nnode_limit {}\n\
             prune_ordered_pairs {}\nwarm_start {}\nmax_width_mm {}\nmax_height_mm {}\n\
             auto_scale {}\nscale_threshold {}\n",
            l.alpha,
            l.beta,
            l.gamma,
            l.kappa,
            l.time_limit.as_micros(),
            l.node_limit,
            l.prune_ordered_pairs,
            l.warm_start,
            l.max_width_mm.map_or("none".into(), |v| v.to_string()),
            l.max_height_mm.map_or("none".into(), |v| v.to_string()),
            self.auto_scale,
            self.scale_threshold,
        )
    }
}

/// Everything a synthesis run produces.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The manufacturing-ready design.
    pub design: Design,
    /// What planarization inserted.
    pub planarize: PlanarizeReport,
    /// Layout-generation diagnostics (MILP size, status, pruning, ...).
    pub layout: columba_layout::LaygenReport,
    /// Design-rule check over the final geometry.
    pub drc: DrcReport,
    /// End-to-end wall-clock time.
    pub elapsed: Duration,
}

impl SynthesisOutcome {
    fn new(
        result: columba_layout::LayoutResult,
        planarize: PlanarizeReport,
        start: Instant,
    ) -> SynthesisOutcome {
        SynthesisOutcome {
            design: result.design,
            planarize,
            layout: result.laygen,
            drc: result.drc,
            elapsed: start.elapsed(),
        }
    }

    /// The Table 1 feature values of the design.
    #[must_use]
    pub fn stats(&self) -> DesignStats {
        self.design.stats()
    }

    /// Renders the design as an AutoCAD `.scr` script (paper §3.3).
    ///
    /// # Errors
    ///
    /// Never fails on the in-memory writer; kept for API symmetry.
    pub fn to_autocad_script(&self) -> std::io::Result<String> {
        let mut out = Vec::new();
        columba_cad::write_scr(&self.design, &mut out)?;
        Ok(String::from_utf8(out).expect("writer emits UTF-8"))
    }

    /// Renders the design as an SVG.
    ///
    /// # Errors
    ///
    /// Never fails on the in-memory writer; kept for API symmetry.
    pub fn to_svg(&self) -> std::io::Result<String> {
        let mut out = Vec::new();
        columba_cad::write_svg(&self.design, &mut out)?;
        Ok(String::from_utf8(out).expect("writer emits UTF-8"))
    }
}

/// The Columba S design flow.
///
/// Construct with [`Columba::new`] (default options) or
/// [`Columba::with_options`], then call [`Columba::synthesize`].
#[derive(Debug, Clone, Default)]
pub struct Columba {
    options: SynthesisOptions,
}

impl Columba {
    /// A flow with default options.
    #[must_use]
    pub fn new() -> Columba {
        Columba::default()
    }

    /// A flow with explicit options.
    #[must_use]
    pub fn with_options(options: SynthesisOptions) -> Columba {
        Columba { options }
    }

    /// The active options.
    #[must_use]
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Runs the full design flow on a raw netlist: validation,
    /// planarization, layout generation, layout validation, MUX synthesis
    /// and DRC.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] when the netlist is invalid or physical
    /// synthesis fails, including a MILP that finds no layout within
    /// budget ([`Columba::synthesize_resilient`] degrades instead). A DRC
    /// violation is *not* an error — inspect [`SynthesisOutcome::drc`].
    pub fn synthesize(&self, input: &Netlist) -> Result<SynthesisOutcome, SynthesisError> {
        let start = Instant::now();
        let (planarized, planarize, layout_options) = self.prepare(input)?;
        let result = columba_layout::synthesize(&planarized, &layout_options)?;
        Ok(SynthesisOutcome::new(result, planarize, start))
    }

    /// The front half both flows share: validates the netlist, planarizes
    /// it, and picks the layout options — the configured ones, with the
    /// node budget dropped to zero (the scalable heuristic mode) when
    /// auto-scaling applies to the planarized unit count.
    fn prepare(
        &self,
        input: &Netlist,
    ) -> Result<(Netlist, PlanarizeReport, LayoutOptions), SynthesisError> {
        input.validate()?;
        let (planarized, planarize) = columba_planar::planarize(input);
        let mut layout_options = self.options.layout.clone();
        if self.options.auto_scale
            && planarized.functional_unit_count() > self.options.scale_threshold
        {
            layout_options.node_limit = 0;
        }
        Ok((planarized, planarize, layout_options))
    }

    /// Parses the plain-text netlist format and synthesizes it.
    ///
    /// # Errors
    ///
    /// Same as [`Columba::synthesize`], plus parse errors.
    pub fn synthesize_text(&self, text: &str) -> Result<SynthesisOutcome, SynthesisError> {
        let netlist = Netlist::parse(text)?;
        self.synthesize(&netlist)
    }

    /// Runs the full design flow through the resilient escalation ladder
    /// ([`synthesize_resilient`]): full MILP → heuristic only →
    /// constructive only, with the heuristic rung skipped when the options
    /// (auto-scaled or not) already are the heuristic mode. The optional
    /// [`CancelToken`] replaces the configured one and spans every rung.
    /// This is the entry point a long-running caller (the
    /// `columba-service` job workers) uses: a cancelled or
    /// deadline-expired token degrades the job instead of losing it, and
    /// the returned [`AttemptLog`] records which rung produced the layout.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] when the netlist is invalid, the model
    /// is proven infeasible, or every rung failed.
    pub fn synthesize_resilient(
        &self,
        input: &Netlist,
        cancel: Option<CancelToken>,
    ) -> Result<ResilientSynthesis, SynthesisError> {
        let start = Instant::now();
        let (planarized, planarize, mut layout_options) = self.prepare(input)?;
        if cancel.is_some() {
            layout_options.cancel = cancel;
        }
        let resilient = synthesize_resilient(&planarized, &layout_options)
            .map_err(|e| SynthesisError::Layout(e.error))?;
        Ok(ResilientSynthesis {
            outcome: SynthesisOutcome::new(resilient.result, planarize, start),
            rung: resilient.rung,
            log: resilient.log,
        })
    }
}

/// A [`SynthesisOutcome`] produced by the resilient ladder, plus the
/// trail of rungs that produced it.
#[derive(Debug)]
pub struct ResilientSynthesis {
    /// Everything the run produced.
    pub outcome: SynthesisOutcome,
    /// The ladder rung that produced the layout.
    pub rung: Rung,
    /// Every rung tried, with per-rung telemetry
    /// ([`AttemptLog::aggregate_solve`] sums it).
    pub log: AttemptLog,
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_netlist::{generators, MuxCount};

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
    fn quickstart_flow() {
        let n = generators::kinase_activity(MuxCount::One);
        let flow = Columba::with_options(SynthesisOptions {
            layout: pinned(4),
            ..SynthesisOptions::default()
        });
        let out = flow.synthesize(&n).expect("synthesis succeeds");
        assert!(out.drc.is_clean(), "{}", out.drc);
        assert_eq!(out.design.muxes.len(), 1);
        assert!(
            out.planarize.switches_added >= 1,
            "shared kinase inlet needs a switch"
        );
        let scr = out.to_autocad_script().unwrap();
        assert!(scr.contains("RECTANG"));
        let svg = out.to_svg().unwrap();
        assert!(svg.contains("<svg"));
    }

    #[test]
    fn auto_scale_switches_to_heuristic() {
        let n = generators::chip_ip(16, MuxCount::One);
        let flow = Columba::with_options(SynthesisOptions {
            scale_threshold: 10,
            ..SynthesisOptions::default()
        });
        let out = flow.synthesize(&n).unwrap();
        // heuristic mode reports Feasible (hint-polish), not Optimal
        assert_eq!(out.layout.status, columba_milp::SolveStatus::Feasible);
        assert!(out.drc.is_clean(), "{}", out.drc);
    }

    #[test]
    fn invalid_netlist_rejected() {
        let empty = Netlist::new("empty");
        assert!(matches!(
            Columba::new().synthesize(&empty),
            Err(SynthesisError::Netlist(_))
        ));
    }

    #[test]
    fn resilient_flow_produces_and_logs() {
        let n = generators::chip_ip(2, MuxCount::One);
        let flow = Columba::with_options(SynthesisOptions {
            layout: pinned(64),
            ..SynthesisOptions::default()
        });
        let out = flow.synthesize_resilient(&n, None).expect("synthesizes");
        assert!(out.outcome.drc.is_clean());
        assert_eq!(out.rung, Rung::FullMilp);
        assert_eq!(out.log.produced_by(), Some(Rung::FullMilp));
        assert!(out.log.aggregate_solve().simplex_iterations > 0);
        // a pre-cancelled token degrades instead of failing
        let token = CancelToken::new();
        token.cancel();
        let degraded = flow
            .synthesize_resilient(&n, Some(token))
            .expect("ladder still produces");
        assert!(degraded.outcome.drc.is_clean());
    }

    #[test]
    fn options_canonical_text_tracks_design_relevant_fields() {
        let base = SynthesisOptions::default().canonical_text();
        assert_eq!(base, SynthesisOptions::default().canonical_text());
        let mut other = SynthesisOptions::default();
        other.layout.threads = 7; // provably design-invariant: excluded
        assert_eq!(base, other.canonical_text());
        other.layout.kappa = 0.25;
        assert_ne!(base, other.canonical_text());
        let mut capped = SynthesisOptions::default();
        capped.layout.max_width_mm = Some(40.0);
        assert_ne!(base, capped.canonical_text());
        let mut scaled = SynthesisOptions {
            scale_threshold: 5,
            ..SynthesisOptions::default()
        };
        assert_ne!(base, scaled.canonical_text());
        scaled.scale_threshold = 24;
        assert_eq!(base, scaled.canonical_text());
    }

    #[test]
    fn text_round_trip() {
        let text = "chip t\nmixer m1\nport in1\nport out1\n\
                    connect in1 -> m1.left\nconnect m1.right -> out1\n";
        let out = Columba::new().synthesize_text(text).unwrap();
        assert_eq!(out.design.modules.len(), 1);
        assert!(out.drc.is_clean());
    }
}
