//! Solve results.

use std::fmt;
use std::time::Duration;

use crate::model::VarId;
use crate::stats::SolveStats;

/// Final status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Proven optimal solution found.
    Optimal,
    /// A feasible solution was found but a limit stopped the proof of
    /// optimality.
    Feasible,
    /// The model has no feasible solution.
    Infeasible,
    /// The LP relaxation is unbounded in the objective direction.
    Unbounded,
    /// A limit was hit before any feasible solution was found.
    LimitReached,
}

impl SolveStatus {
    /// `true` when a solution is available ([`SolveStatus::Optimal`] or
    /// [`SolveStatus::Feasible`]).
    #[must_use]
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Optimal => f.write_str("optimal"),
            SolveStatus::Feasible => f.write_str("feasible (limit reached)"),
            SolveStatus::Infeasible => f.write_str("infeasible"),
            SolveStatus::Unbounded => f.write_str("unbounded"),
            SolveStatus::LimitReached => f.write_str("no solution (limit reached)"),
        }
    }
}

/// A variable assignment satisfying all constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
}

impl Solution {
    /// Value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` comes from a different model.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Objective value in the *user's* sense (already negated back for
    /// maximisation models).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// All variable values, indexed by [`VarId::index`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Outcome of a MILP solve: status, best solution, bound and search stats.
#[derive(Debug, Clone)]
pub struct MipResult {
    pub(crate) status: SolveStatus,
    pub(crate) solution: Option<Solution>,
    pub(crate) best_bound: f64,
    pub(crate) stats: SolveStats,
}

impl MipResult {
    /// Final status.
    #[must_use]
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// The best solution found, if any.
    #[must_use]
    pub fn solution(&self) -> Option<&Solution> {
        self.solution.as_ref()
    }

    /// Best proven dual bound in the user's sense (a lower bound for
    /// minimisation, upper for maximisation). It equals the objective at
    /// [`SolveStatus::Optimal`], and is infinite (−∞ for a minimisation)
    /// when the solve stopped before the root relaxation bounded it: at a
    /// zero node budget, or on a root that timed out, is infeasible or is
    /// unbounded.
    #[must_use]
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Relative optimality gap `|obj - bound| / max(1, |obj|)`, or `None`
    /// when no solution exists.
    #[must_use]
    pub fn gap(&self) -> Option<f64> {
        let s = self.solution.as_ref()?;
        Some((s.objective - self.best_bound).abs() / s.objective.abs().max(1.0))
    }

    /// Number of branch & bound nodes processed.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.stats.nodes_processed
    }

    /// Total simplex iterations across all nodes.
    #[must_use]
    pub fn simplex_iterations(&self) -> usize {
        self.stats.simplex_iterations
    }

    /// Wall-clock solve time.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.stats.total_time
    }

    /// Full solver telemetry: counters, phase times, incumbent trajectory
    /// and worker utilization.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

impl fmt::Display for MipResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} nodes / {} simplex iterations in {:.3}s",
            self.status,
            self.stats.nodes_processed,
            self.stats.simplex_iterations,
            self.stats.total_time.as_secs_f64()
        )?;
        if let Some(s) = &self.solution {
            write!(f, "; objective {:.6}", s.objective())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::LimitReached.has_solution());
    }

    #[test]
    fn gap_computation() {
        let r = MipResult {
            status: SolveStatus::Feasible,
            solution: Some(Solution {
                values: vec![],
                objective: 10.0,
            }),
            best_bound: 9.0,
            stats: SolveStats {
                threads: 1,
                nodes_processed: 1,
                simplex_iterations: 1,
                total_time: Duration::from_millis(1),
                ..SolveStats::default()
            },
        };
        assert!((r.gap().unwrap() - 0.1).abs() < 1e-12);
        assert!(r.to_string().contains("feasible"));
    }
}
