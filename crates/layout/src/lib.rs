//! Columba S physical synthesis: layout generation and layout validation
//! (paper §3.2).
//!
//! The synthesis runs in two phases:
//!
//! 1. **Layout generation**: the planarized netlist is reduced
//!    to rectangle *entities* — parallel functional units merged into single
//!    rectangles (Fig 6(a)), channels merged under the paper's three rules —
//!    and an MILP places them: rectangle coupling (eq 1), chip confinement
//!    (eq 2), four-way big-M non-overlap disjunctions (eqs 3–5), channel to
//!    chip boundary (eqs 6–11), switch extent coupling (eq 12), and the
//!    weighted objective of eq 13. Pairs whose relative order is already
//!    implied by the connection chains are pruned from the disjunctions,
//!    and a constructive row placer seeds branch & bound with a feasible
//!    incumbent, so large designs stay solvable without Gurobi.
//!
//! 2. **Layout validation**: restores the full geometry from
//!    the rectangle plan — places every module, instantiates its inner
//!    geometry via the module library, routes the straight flow and control
//!    channels, synthesizes fluid inlets along the flow boundaries and the
//!    multiplexers along the MUX boundaries, and records the control-line
//!    map used by the simulator.
//!
//! The result is a complete, DRC-checkable [`Design`].
//!
//! # Examples
//!
//! ```no_run
//! use columba_layout::{synthesize, LayoutOptions};
//! use columba_netlist::{generators, MuxCount};
//! use columba_planar::planarize;
//!
//! let (netlist, _) = planarize(&generators::chip_ip(4, MuxCount::One));
//! let result = synthesize(&netlist, &LayoutOptions::default())?;
//! println!("{}", result.design.stats());
//! # Ok::<(), columba_layout::LayoutError>(())
//! ```
//!
//! [`Design`]: columba_design::Design

// Library code must surface failures as values, never unwrap them away;
// the cfg(test) gate leaves unit tests free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod constructive;
mod entities;
mod error;
mod laygen;
mod layval;
mod resilient;

pub use entities::{Block, BlockId, BlockKind, ControlDir, FlowEntity, FlowKind, Plan};
pub use error::LayoutError;
pub use laygen::{GeneratedLayout, LaygenReport};
pub use layval::LayoutResult;
pub use resilient::{
    synthesize_resilient, Attempt, AttemptLog, AttemptOutcome, ResilientError, ResilientOutcome,
    Rung,
};

use columba_milp::CancelToken;
use columba_netlist::Netlist;

/// Objective weights and solver budgets for the synthesis.
#[derive(Debug, Clone)]
pub struct LayoutOptions {
    /// Weight `α` on the chip x dimension.
    pub alpha: f64,
    /// Weight `β` on the chip y dimension.
    pub beta: f64,
    /// Weight `γ` on `max(x, y)` (balances the aspect ratio).
    pub gamma: f64,
    /// Weight `κ` on the total channel length.
    pub kappa: f64,
    /// Branch & bound wall-clock budget for the layout-generation MILP.
    pub time_limit: std::time::Duration,
    /// Branch & bound node budget. `0` keeps only the constructive
    /// incumbent polished by one LP — the scalable mode used for very
    /// large designs; with no incumbent to polish it solves nothing.
    pub node_limit: usize,
    /// Drop non-overlap disjunctions between entity pairs whose
    /// left-to-right order is already implied by the connection chains.
    /// Disable only for ablation studies — the model grows sharply.
    pub prune_ordered_pairs: bool,
    /// Seed branch & bound with the constructive placement. Disable only
    /// for ablation studies — without it the search starts from nothing
    /// and the scalable heuristic mode cannot work (the ladder's
    /// constructive rung still lays out the placement).
    pub warm_start: bool,
    /// Worker threads for the branch & bound search. `0` (the default)
    /// uses the machine's available parallelism; `1` forces the sequential
    /// search, whose result is reproducible. Any count yields the same
    /// objective when the solve runs to completion; when the node or time
    /// budget stops it, more than one worker can keep a different
    /// incumbent, and so a different layout.
    pub threads: usize,
    /// Optional hard cap on the functional-region width in mm. The MILP
    /// becomes *provably infeasible* when the design cannot fit, which
    /// [`LayoutError::Infeasible`] then diagnoses.
    pub max_width_mm: Option<f64>,
    /// Optional hard cap on the functional-region height in mm.
    pub max_height_mm: Option<f64>,
    /// Cooperative cancellation token. Cancelling it (or passing one built
    /// with a deadline) aborts the solve promptly; the synthesis still
    /// returns the best layout found so far when one exists. The per-solve
    /// [`time_limit`](Self::time_limit) also applies — whichever fires
    /// first wins.
    pub cancel: Option<CancelToken>,
}

impl Default for LayoutOptions {
    fn default() -> LayoutOptions {
        LayoutOptions {
            alpha: 1.0,
            beta: 1.0,
            gamma: 2.0,
            kappa: 0.05,
            time_limit: std::time::Duration::from_secs(10),
            node_limit: 20_000,
            prune_ordered_pairs: true,
            warm_start: true,
            threads: 0,
            max_width_mm: None,
            max_height_mm: None,
            cancel: None,
        }
    }
}

impl LayoutOptions {
    /// The scalable preset: constructive placement + LP polish only, no
    /// branching. Used for the 129/257-unit test cases.
    #[must_use]
    pub fn heuristic_only() -> LayoutOptions {
        LayoutOptions {
            node_limit: 0,
            ..LayoutOptions::default()
        }
    }
}

/// Runs the full physical synthesis on a **planarized** netlist.
///
/// # Errors
///
/// Returns [`LayoutError`] when the netlist is not planarized, a connection
/// cannot be routed under the straight discipline, or the MILP fails or
/// finds no layout ([`synthesize_resilient`] degrades instead).
pub fn synthesize(netlist: &Netlist, options: &LayoutOptions) -> Result<LayoutResult, LayoutError> {
    let (plan, generated) = generate_only(netlist, options)?;
    layval::validate(netlist, &plan, &generated)
}

/// Runs only the §3.2.1 *layout generation* phase and returns the reduced
/// entity plan plus the rectangle layout — the intermediate result the
/// paper's Fig 6(b) visualises.
///
/// # Errors
///
/// Same conditions as [`synthesize`], minus validation failures.
pub fn generate_only(
    netlist: &Netlist,
    options: &LayoutOptions,
) -> Result<(Plan, GeneratedLayout), LayoutError> {
    let plan = entities::build_plan(netlist)?;
    let placement = constructive::place(&plan)?;
    let generated = laygen::generate(&plan, placement.as_ref(), options)?;
    Ok((plan, generated))
}
