//! Infeasibility diagnosis by deletion filtering over constraint groups.
//!
//! When a model is infeasible, knowing *which constraints conflict* matters
//! more than the bare status: "chip confinement (eq 2) conflicts with
//! non-overlap (eqs 3–5)" tells a designer to widen the chip, where "MILP
//! failed" tells them nothing. The classic deletion filter computes an
//! irreducible infeasible subsystem: walk the candidate set, drop one
//! member, and re-solve — if the rest is still infeasible the member was
//! not needed and stays dropped; otherwise it belongs to the conflict.
//!
//! Filtering individual rows would take one probe solve per constraint
//! (thousands for a layout model). Filtering the *labelled groups* from
//! [`Model::add_group`] needs only one probe per label and reports the
//! conflict in the builder's own vocabulary.

use std::fmt;
use std::time::{Duration, Instant};

use crate::model::{GroupId, Model};
use crate::solution::SolveStatus;
use crate::solver::{SolveError, SolveParams};

/// A minimal conflicting set of constraint groups, found by deletion
/// filtering an infeasible model.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Names of the groups in the conflict, in registration order. Empty
    /// when the infeasibility involves only ungrouped constraints and
    /// variable bounds.
    pub conflict: Vec<String>,
    /// Probe solves performed (including the initial confirmation).
    pub probes: usize,
    /// Wall-clock time spent diagnosing.
    pub elapsed: Duration,
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.conflict.as_slice() {
            [] => f.write_str("infeasible through ungrouped constraints or variable bounds alone"),
            [only] => write!(f, "constraint group `{only}` is infeasible on its own"),
            [first, rest @ ..] => {
                write!(f, "conflicting constraint groups: `{first}`")?;
                for g in rest {
                    write!(f, " + `{g}`")?;
                }
                Ok(())
            }
        }
    }
}

impl Model {
    /// Diagnoses an infeasible model: confirms infeasibility, then deletion-
    /// filters the labelled constraint groups down to a minimal conflicting
    /// set.
    ///
    /// Returns `Ok(None)` when the model is *not* proven infeasible under
    /// `params` (feasible, unbounded, or the budget ran out first) — pass a
    /// `params` with probe-sized budgets, since each probe is a full solve.
    /// A probe that cannot prove infeasibility keeps its group in the
    /// conflict (the result stays a correct conflict set, just possibly not
    /// minimal).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when a probe solve fails numerically.
    pub fn diagnose_infeasibility(
        &self,
        params: &SolveParams,
    ) -> Result<Option<Diagnosis>, SolveError> {
        let start = Instant::now();
        let mut probes = 1usize;
        if self.solve(params)?.status() != SolveStatus::Infeasible {
            return Ok(None);
        }

        // groups that actually tag at least one constraint, in id order
        let mut present: Vec<GroupId> = self.group.iter().flatten().copied().collect();
        present.sort_unstable();
        present.dedup();

        let mut excluded: Vec<GroupId> = Vec::new();
        for &candidate in &present {
            let keep =
                |g: &Option<GroupId>| g.is_none_or(|g| g != candidate && !excluded.contains(&g));
            let mut sub = self.clone();
            sub.rows = self.rows.filtered(|i| keep(&self.group[i]));
            sub.group.retain(keep);
            probes += 1;
            if sub.solve(params)?.status() == SolveStatus::Infeasible {
                // still infeasible without it: not part of the conflict
                excluded.push(candidate);
            }
        }

        let conflict = present
            .iter()
            .filter(|g| !excluded.contains(g))
            .map(|&g| self.group_name(g).to_string())
            .collect();
        Ok(Some(Diagnosis {
            conflict,
            probes,
            elapsed: start.elapsed(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    /// Probes pinned by their node count, with a clock that never fires.
    fn probe_params() -> SolveParams {
        SolveParams {
            time_limit: Duration::from_secs(3600),
            node_limit: 10_000,
            threads: 1,
            ..SolveParams::default()
        }
    }

    #[test]
    fn feasible_model_yields_none() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let g = m.add_group("bound");
        m.constraint_in(g, Model::expr().term(1.0, x), Sense::Le, 0.5);
        assert!(m
            .diagnose_infeasibility(&probe_params())
            .expect("solves")
            .is_none());
    }

    #[test]
    fn deletion_filter_finds_the_two_sided_conflict() {
        // x >= 3 (floor) conflicts with x <= 2 (ceiling); x <= 10 (slack)
        // is irrelevant and must be filtered out of the conflict.
        let mut m = Model::new();
        let x = m.num_var(0.0, 100.0);
        let floor = m.add_group("floor");
        let ceiling = m.add_group("ceiling");
        let slack = m.add_group("slack");
        m.constraint_in(floor, Model::expr().term(1.0, x), Sense::Ge, 3.0);
        m.constraint_in(ceiling, Model::expr().term(1.0, x), Sense::Le, 2.0);
        m.constraint_in(slack, Model::expr().term(1.0, x), Sense::Le, 10.0);
        let d = m
            .diagnose_infeasibility(&probe_params())
            .expect("solves")
            .expect("infeasible");
        assert_eq!(d.conflict, ["floor", "ceiling"]);
        assert_eq!(d.probes, 4, "one confirmation + one probe per group");
        let text = d.to_string();
        assert!(text.contains("floor") && text.contains("ceiling"), "{text}");
    }

    #[test]
    fn ungrouped_infeasibility_reports_empty_conflict() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        m.constraint(Model::expr().term(1.0, x), Sense::Ge, 2.0);
        let labelled = m.add_group("labelled but satisfiable");
        m.constraint_in(labelled, Model::expr().term(1.0, x), Sense::Ge, 0.0);
        let d = m
            .diagnose_infeasibility(&probe_params())
            .expect("solves")
            .expect("infeasible");
        assert!(d.conflict.is_empty(), "{:?}", d.conflict);
        assert!(d.to_string().contains("ungrouped"));
    }

    #[test]
    fn integer_only_conflict_is_diagnosed() {
        // feasible in the LP relaxation, infeasible over the integers: the
        // probes must run full branch & bound, not just the root LP
        let mut m = Model::new();
        let a = m.bin_var();
        let b = m.bin_var();
        let lo = m.add_group("at least 1.5 chosen");
        let hi = m.add_group("at most half chosen");
        m.constraint_in(lo, Model::expr().term(1.0, a).term(1.0, b), Sense::Ge, 1.5);
        m.constraint_in(hi, Model::expr().term(2.0, a).term(2.0, b), Sense::Le, 3.0);
        let d = m
            .diagnose_infeasibility(&probe_params())
            .expect("solves")
            .expect("infeasible");
        assert_eq!(d.conflict, ["at least 1.5 chosen", "at most half chosen"]);
    }
}
