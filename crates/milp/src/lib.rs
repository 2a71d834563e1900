//! A mixed-integer linear programming (MILP) solver.
//!
//! The Columba papers solve their physical-synthesis models with Gurobi; no
//! equivalent is available as an offline Rust crate, so this crate implements
//! the full solver stack from scratch:
//!
//! * a [`Model`] builder with continuous, integer and binary variables
//!   (unnamed: a variable is its [`VarId`], printed `x17`), linear
//!   constraints held in one flat row store, and a linear objective;
//! * a bounded-variable two-phase revised primal simplex for the LP
//!   relaxations: sparse `A`, an eta-file basis inverse factored in
//!   triangular order and refactored periodically, hypersparse BTRAN,
//!   tournament-tree Dantzig pricing with a Bland's-rule anti-cycling
//!   fallback; it can also factor a given basis and skip phase 1, and an
//!   LP of difference rows and big-M switch groups starts from its least
//!   solution's crash basis;
//! * branch & bound with best-bound node selection, most-fractional
//!   branching, warm-start incumbents, every relaxation started from the
//!   crash or, where the crash refuses, cold, and time/node limits;
//! * big-M style disjunctive constraints (the "exactly one relative
//!   position" pattern that dominates the layout models) expressed through
//!   ordinary binaries.
//!
//! # Examples
//!
//! ```
//! use columba_milp::{Model, Sense, SolveParams};
//!
//! // maximize x + 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0 integer
//! let mut m = Model::new();
//! let x = m.int_var(0.0, 3.0);
//! let y = m.int_var(0.0, 2.0);
//! m.constraint(Model::expr().term(1.0, x).term(1.0, y), Sense::Le, 4.0);
//! m.maximize(Model::expr().term(1.0, x).term(2.0, y));
//! let result = m.solve(&SolveParams::default())?;
//! let sol = result.solution().expect("feasible");
//! assert_eq!(sol.value(x).round() as i64 + 2 * sol.value(y).round() as i64, 6);
//! # Ok::<(), columba_milp::SolveError>(())
//! ```

// Library code must surface failures as values, never unwrap them away;
// the cfg(test) gate leaves unit tests free to unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod cancel;
mod crash;
mod diagnose;
mod expr;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod model;
mod rows;
mod simplex;
mod solution;
mod solver;
mod stats;

pub use cancel::CancelToken;
pub use diagnose::Diagnosis;
pub use expr::Expr;
pub use model::{GroupId, Model, ModelStats, Sense, VarId, VarKind};
pub use solution::{MipResult, Solution, SolveStatus};
pub use solver::{SolveError, SolveParams};
pub use stats::{IncumbentEvent, SolveStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_example_solves() {
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY);
        m.constraint(Model::expr().term(2.0, x), Sense::Le, 10.0);
        m.minimize(Model::expr().term(-1.0, x));
        let r = m.solve(&SolveParams::default()).unwrap();
        assert_eq!(r.status(), SolveStatus::Optimal);
        let sol = r.solution().unwrap();
        assert!((sol.value(x) - 5.0).abs() < 1e-6);
        assert!((sol.objective() + 5.0).abs() < 1e-6);
    }
}
