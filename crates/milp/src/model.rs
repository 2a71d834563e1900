//! The MILP model builder.

use std::fmt;

use crate::expr::Expr;
use crate::rows::Rows;
use crate::solution::MipResult;
use crate::solver::{self, SolveError, SolveParams};

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The dense index of this variable in the model.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Variable integrality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued.
    Integer,
    /// Integer restricted to `{0, 1}`.
    Binary,
}

/// Constraint comparison sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `expr ≤ rhs`.
    Le,
    /// `expr = rhs`.
    Eq,
    /// `expr ≥ rhs`.
    Ge,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sense::Le => f.write_str("<="),
            Sense::Eq => f.write_str("="),
            Sense::Ge => f.write_str(">="),
        }
    }
}

/// Handle to a named constraint group (see [`Model::add_group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub(crate) u32);

impl GroupId {
    /// The dense index of this group in the model.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Summary counts for a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// Total number of variables.
    pub vars: usize,
    /// Number of binary variables.
    pub binaries: usize,
    /// Number of (non-binary) integer variables.
    pub integers: usize,
    /// Number of constraints.
    pub constraints: usize,
    /// Number of nonzero coefficients.
    pub nonzeros: usize,
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vars ({} bin, {} int), {} constraints, {} nonzeros",
            self.vars, self.binaries, self.integers, self.constraints, self.nonzeros
        )
    }
}

/// A mixed-integer linear program under construction.
///
/// The objective defaults to minimising zero; call [`Model::minimize`] or
/// [`Model::maximize`] to set it. Internally the solver always minimises, so
/// a maximisation objective is negated on entry and the reported objective is
/// negated back.
///
/// # Examples
///
/// ```
/// use columba_milp::{Model, Sense, SolveParams};
///
/// let mut m = Model::new();
/// let x = m.num_var(0.0, 4.0);
/// let b = m.bin_var();
/// // x <= 4b  (x can only be positive when b is chosen)
/// m.constraint(Model::expr().term(1.0, x).term(-4.0, b), Sense::Le, 0.0);
/// m.maximize(Model::expr().term(1.0, x).term(-0.5, b));
/// let r = m.solve(&SolveParams::default())?;
/// assert!((r.solution().expect("feasible").objective() - 3.5).abs() < 1e-6);
/// # Ok::<(), columba_milp::SolveError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Integrality class, dense by variable index.
    pub(crate) kind: Vec<VarKind>,
    /// Lower bounds (finite), dense by variable index.
    pub(crate) lb: Vec<f64>,
    /// Upper bounds, dense by variable index.
    pub(crate) ub: Vec<f64>,
    /// Every constraint row, its expression's terms merged and its
    /// constant folded into the right-hand side.
    pub(crate) rows: Rows,
    /// The constraint group of each row, if any. Groups carry the
    /// human-readable labels used by infeasibility diagnosis.
    pub(crate) group: Vec<Option<GroupId>>,
    /// Minimisation objective coefficients, dense by variable index.
    pub(crate) objective: Vec<f64>,
    /// Constant added to the (minimisation) objective.
    pub(crate) obj_constant: f64,
    /// `true` when the user asked to maximise (results are sign-flipped).
    pub(crate) maximize: bool,
    /// Human-readable names of the constraint groups, dense by [`GroupId`].
    pub(crate) groups: Vec<String>,
}

impl Model {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Model {
        Model::default()
    }

    /// Starts a fresh [`Expr`]. Purely a readability helper.
    #[must_use]
    pub fn expr() -> Expr {
        Expr::new()
    }

    /// Adds a continuous variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, `lb` is not finite (free variables are not
    /// supported; shift your model), or `lb`/`ub` is NaN.
    pub fn num_var(&mut self, lb: f64, ub: f64) -> VarId {
        self.add_var(VarKind::Continuous, lb, ub)
    }

    /// Adds an integer variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Model::num_var`].
    pub fn int_var(&mut self, lb: f64, ub: f64) -> VarId {
        self.add_var(VarKind::Integer, lb, ub)
    }

    /// Adds a binary variable.
    pub fn bin_var(&mut self) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0)
    }

    fn add_var(&mut self, kind: VarKind, lb: f64, ub: f64) -> VarId {
        let id = VarId(u32::try_from(self.kind.len()).expect("too many variables"));
        assert!(!lb.is_nan() && !ub.is_nan(), "variable {id} has NaN bound");
        assert!(lb <= ub, "variable {id} has lb {lb} > ub {ub}");
        assert!(
            lb.is_finite(),
            "variable {id} has infinite lower bound; shift the model so lb is finite"
        );
        self.kind.push(kind);
        self.lb.push(lb);
        self.ub.push(ub);
        self.objective.push(0.0);
        id
    }

    /// Adds the constraint `expr (≤ | = | ≥) rhs`.
    ///
    /// Any constant inside `expr` is moved to the right-hand side.
    pub fn constraint(&mut self, expr: Expr, sense: Sense, rhs: f64) {
        self.push_constraint(expr, sense, rhs, None);
    }

    /// Registers a named constraint group and returns its handle.
    ///
    /// Groups let the model builder tag constraints with a human-readable
    /// label (for the layout models: the paper equation they encode), which
    /// infeasibility diagnosis reports back instead of raw row indices.
    pub fn add_group(&mut self, name: impl Into<String>) -> GroupId {
        let id = GroupId(u32::try_from(self.groups.len()).expect("too many groups"));
        self.groups.push(name.into());
        id
    }

    /// Adds the constraint `expr (≤ | = | ≥) rhs` tagged with `group`.
    pub fn constraint_in(&mut self, group: GroupId, expr: Expr, sense: Sense, rhs: f64) {
        assert!(
            group.index() < self.groups.len(),
            "group {group:?} was not created by this model"
        );
        self.push_constraint(expr, sense, rhs, Some(group));
    }

    /// The one place a row's terms are merged: the expression's own terms
    /// are sorted in place and merged straight into the row store.
    fn push_constraint(&mut self, mut expr: Expr, sense: Sense, rhs: f64, group: Option<GroupId>) {
        let rhs = rhs - expr.constant();
        let terms = expr.sorted_terms().iter().map(|&(v, c)| (v.index(), c));
        self.rows.push_merged(terms, sense, rhs);
        self.group.push(group);
    }

    /// The name given to `group`.
    #[must_use]
    pub fn group_name(&self, group: GroupId) -> &str {
        &self.groups[group.index()]
    }

    /// Names of all registered constraint groups, dense by [`GroupId`].
    #[must_use]
    pub fn group_names(&self) -> &[String] {
        &self.groups
    }

    /// Sets a minimisation objective.
    pub fn minimize(&mut self, expr: Expr) {
        self.set_objective(expr, false);
    }

    /// Sets a maximisation objective.
    pub fn maximize(&mut self, expr: Expr) {
        self.set_objective(expr, true);
    }

    fn set_objective(&mut self, expr: Expr, maximize: bool) {
        self.maximize = maximize;
        let sign = if maximize { -1.0 } else { 1.0 };
        self.objective.iter_mut().for_each(|c| *c = 0.0);
        // summed in insertion order per variable, as a merged row would be
        for &(v, c) in expr.terms() {
            self.objective[v.index()] += sign * c;
        }
        self.obj_constant = sign * expr.constant();
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.kind.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// The current bounds of `var`.
    #[must_use]
    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        (self.lb[var.index()], self.ub[var.index()])
    }

    /// Summary counts.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let count = |kind: VarKind| self.kind.iter().filter(|&&k| k == kind).count();
        ModelStats {
            vars: self.kind.len(),
            binaries: count(VarKind::Binary),
            integers: count(VarKind::Integer),
            constraints: self.rows.len(),
            nonzeros: self.rows.nonzeros(),
        }
    }

    /// Solves the model.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the model is malformed (for example, a
    /// constraint references no variables but is unsatisfiable) or when the
    /// simplex detects numerical breakdown.
    pub fn solve(&self, params: &SolveParams) -> Result<MipResult, SolveError> {
        solver::solve(self, params, None)
    }

    /// Solves the model, seeding branch & bound with a hint that assigns a
    /// value to every integer variable.
    ///
    /// The hint is checked by fixing the integers and solving the remaining
    /// LP; when feasible it becomes the initial incumbent, which lets the
    /// search prune aggressively (and lets callers with a good constructive
    /// heuristic obtain a polished solution even under a zero node budget).
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`]. An infeasible hint is not an error; it is
    /// simply ignored.
    pub fn solve_with_hint(
        &self,
        params: &SolveParams,
        hint: &[(VarId, f64)],
    ) -> Result<MipResult, SolveError> {
        solver::solve(self, params, Some(hint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveStatus;

    #[test]
    fn var_accessors() {
        let mut m = Model::new();
        let x = m.num_var(-1.0, 2.0);
        let b = m.bin_var();
        let k = m.int_var(0.0, 9.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(x.to_string(), "x0");
        assert_eq!(m.var_bounds(b), (0.0, 1.0));
        assert_eq!(m.var_bounds(k), (0.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "variable x0 has lb")]
    fn inverted_bounds_panic() {
        let mut m = Model::new();
        let _ = m.num_var(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "infinite lower bound")]
    fn free_variable_rejected() {
        let mut m = Model::new();
        let _ = m.num_var(f64::NEG_INFINITY, 0.0);
    }

    #[test]
    fn constraint_folds_constant() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0);
        m.constraint(Model::expr().term(1.0, x).plus(3.0), Sense::Le, 5.0);
        assert_eq!(m.rows.row(0).rhs, 2.0);
        assert_eq!(m.rows.row(0).sense, Sense::Le);
    }

    #[test]
    fn maximize_flips_signs_internally() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0);
        m.maximize(Model::expr().term(2.0, x).plus(1.0));
        assert_eq!(m.objective[x.index()], -2.0);
        assert_eq!(m.obj_constant, -1.0);
        assert!(m.maximize);
    }

    #[test]
    fn groups_tag_constraints() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let g = m.add_group("chip confinement (eq 2)");
        m.constraint_in(g, Model::expr().term(1.0, x), Sense::Le, 0.5);
        m.constraint(Model::expr().term(1.0, x), Sense::Ge, 0.0);
        assert_eq!(m.group, [Some(g), None]);
        assert_eq!(m.group_name(g), "chip confinement (eq 2)");
        assert_eq!(m.group_names(), ["chip confinement (eq 2)"]);
    }

    #[test]
    fn stats_count_everything() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let b = m.bin_var();
        m.constraint(Model::expr().term(1.0, x).term(1.0, b), Sense::Le, 1.0);
        let s = m.stats();
        assert_eq!(s.vars, 2);
        assert_eq!(s.binaries, 1);
        assert_eq!(s.constraints, 1);
        assert_eq!(s.nonzeros, 2);
        assert!(s.to_string().contains("2 vars"));
    }

    /// A random expression over `vars`: repeated variables, terms that
    /// cancel, zero coefficients, non-integral coefficients, sometimes more
    /// terms than an expression holds inline, and a constant.
    fn random_expr(rng: &mut columba_prng::Rng, vars: &[VarId]) -> Expr {
        let mut e = Model::expr().plus(rng.gen_range(-8i64..=8) as f64 * 0.375);
        for _ in 0..rng.gen_range(0usize..10) {
            let v = vars[rng.gen_range(0..vars.len())];
            let c = match rng.gen_range(0usize..5) {
                0 => 0.0,
                1 => rng.gen_range(-4i64..=4) as f64,
                _ => rng.gen_range(-1000i64..=1000) as f64 / 7.0,
            };
            e = e.term(c, v);
            if rng.gen_bool(0.2) {
                e = e.term(-c, v); // cancels what came before
            }
        }
        if rng.gen_bool(0.2) {
            let other = Model::expr().term(1.5, vars[0]).plus(2.0);
            e = e.add_expr(&other);
        }
        e
    }

    #[test]
    fn stored_rows_match_the_compiled_expressions() {
        let mut rng = columba_prng::Rng::seed_from_u64(0x0005_70AE);
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..6).map(|_| m.num_var(0.0, 10.0)).collect();
        let g = m.add_group("g");
        let mut expected = Vec::new();
        let (mut dropped, mut spilled) = (0, 0);
        for k in 0..2000 {
            let e = random_expr(&mut rng, &vars);
            let sense = [Sense::Le, Sense::Eq, Sense::Ge][k % 3];
            let rhs = rng.gen_range(-50i64..=50) as f64 / 3.0;
            let compiled = e.compiled();
            dropped += usize::from(compiled.len() < e.terms().len());
            spilled += usize::from(e.terms().len() > 4);
            expected.push((compiled, sense, rhs - e.constant()));
            match k % 2 {
                0 => m.constraint(e, sense, rhs),
                _ => m.constraint_in(g, e, sense, rhs),
            }
        }
        assert!(
            dropped > 500 && spilled > 200,
            "{dropped} merged, {spilled} spilled"
        );
        assert_eq!(m.num_constraints(), expected.len());
        let bits = |c: &[f64]| c.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for (i, (compiled, sense, rhs)) in expected.iter().enumerate() {
            let row = m.rows.row(i);
            let cols: Vec<usize> = compiled.iter().map(|&(v, _)| v.index()).collect();
            let coefs: Vec<f64> = compiled.iter().map(|&(_, c)| c).collect();
            assert_eq!(row.cols, cols, "row {i}");
            assert_eq!(bits(row.coefs), bits(&coefs), "row {i}");
            assert_eq!(
                (row.sense, row.rhs.to_bits()),
                (*sense, rhs.to_bits()),
                "row {i}"
            );
        }
        assert_eq!(m.stats().nonzeros, expected.iter().map(|e| e.0.len()).sum());
    }

    #[test]
    fn repeated_terms_solve_like_their_merged_twin() {
        // the same knapsack-with-a-continuous-part, once with every row and
        // the objective written with repeated, cancelling and zero terms
        let build = |raw: bool| {
            let mut m = Model::new();
            let x = m.num_var(0.0, 4.0);
            let a = m.bin_var();
            let b = m.bin_var();
            let y = m.int_var(0.0, 5.0);
            let (r1, r2, obj) = match raw {
                true => (
                    Model::expr()
                        .term(1.0, x)
                        .term(2.0, a)
                        .term(1.0, a)
                        .term(0.0, y)
                        .term(4.0, b)
                        .term(1.0, y)
                        .term(-1.0, y)
                        .plus(1.0),
                    Model::expr()
                        .term(1.0, y)
                        .term(-3.0, x)
                        .term(2.0, x)
                        .term(2.0, b)
                        .term(-1.0, b)
                        .term(-1.0, b),
                    Model::expr()
                        .term(2.0, x)
                        .term(1.0, x)
                        .term(5.0, a)
                        .term(6.0, b)
                        .term(1.0, y)
                        .term(1.0, y),
                ),
                false => (
                    Model::expr().term(1.0, x).term(3.0, a).term(4.0, b),
                    Model::expr().term(1.0, y).term(-1.0, x),
                    Model::expr()
                        .term(3.0, x)
                        .term(5.0, a)
                        .term(6.0, b)
                        .term(2.0, y),
                ),
            };
            let rhs1 = if raw { 7.0 + 1.0 } else { 7.0 };
            m.constraint(r1, Sense::Le, rhs1);
            m.constraint(r2, Sense::Le, 1.5);
            m.maximize(obj);
            m
        };
        let (raw, merged) = (build(true), build(false));
        assert_eq!(raw.rows, merged.rows);
        assert_eq!(raw.objective, merged.objective);
        let params = SolveParams {
            threads: 1,
            ..SolveParams::default()
        };
        let (r, t) = (raw.solve(&params).unwrap(), merged.solve(&params).unwrap());
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.status(), t.status());
        let (rs, ts) = (r.solution().unwrap(), t.solution().unwrap());
        assert_eq!(rs.objective().to_bits(), ts.objective().to_bits());
        assert_eq!(rs.values(), ts.values());
        assert_eq!(
            (r.stats().simplex_iterations, r.stats().nodes_processed),
            (t.stats().simplex_iterations, t.stats().nodes_processed)
        );
    }
}
