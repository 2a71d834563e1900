//! Bounded-variable two-phase primal simplex.
//!
//! Operates on the *computational form* `min cᵀx  s.t.  Ax = b, l ≤ x ≤ u`
//! obtained by adding one slack column per constraint row. Phase 1 introduces
//! one artificial column per row and minimises their sum; phase 2 optimises
//! the true objective. Nonbasic variables rest at a finite bound; entering
//! variables may *bound-flip* without a basis change. Dantzig pricing is used
//! until a long degenerate streak triggers Bland's rule, which guarantees
//! termination.
//!
//! The tableau is dense, but its inner loops touch only entries that can
//! change: each iteration gathers the entering column's nonzeros once (the
//! ratio test, the basic-value update and the pivot all read that list), and
//! a pivot updates only the pivot row's nonzero columns of the rows the
//! entering column reaches. Skipping an exact zero is exact (`x - f·0 = x`),
//! so the pivot path and every value match the plain dense elimination.

use crate::cancel::CancelToken;
use crate::model::Sense;

/// Pivot magnitude tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: usize = 400;
/// `basic_row` entry of a nonbasic column.
const NONBASIC: usize = usize::MAX;

/// One constraint row in sparse form, already brought to `Σ aᵢxᵢ (sense) rhs`.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(usize, f64)>,
    pub sense: Sense,
    pub rhs: f64,
}

impl Row {
    /// How far `x` violates this row, when that exceeds the residual
    /// tolerance `1e-5 · (1 + max |coef| + |rhs|)`; `None` when the row holds.
    pub(crate) fn violation(&self, x: &[f64]) -> Option<f64> {
        let act: f64 = self.terms.iter().map(|&(j, c)| c * x[j]).sum();
        let scale =
            1.0 + self.terms.iter().map(|&(_, c)| c.abs()).fold(0.0, f64::max) + self.rhs.abs();
        let viol = match self.sense {
            Sense::Le => act - self.rhs,
            Sense::Ge => self.rhs - act,
            Sense::Eq => (act - self.rhs).abs(),
        };
        (viol > 1e-5 * scale).then_some(viol)
    }
}

/// An LP instance: structural columns with bounds and costs, plus rows.
#[derive(Debug, Clone)]
pub(crate) struct Lp {
    /// Lower bound per structural column (finite).
    pub lb: Vec<f64>,
    /// Upper bound per structural column (may be `f64::INFINITY`).
    pub ub: Vec<f64>,
    /// Minimisation cost per structural column.
    pub cost: Vec<f64>,
    pub rows: Vec<Row>,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Optimal with structural variable values and objective.
    Optimal {
        x: Vec<f64>,
        obj: f64,
    },
    Infeasible,
    Unbounded,
    /// The caller's deadline expired mid-solve.
    TimedOut,
    /// Numerical breakdown (cycling guard or residual check failed).
    Numerical(String),
}

/// Solves `lp`, returning the outcome and the iteration count. When
/// `cancel` is set, the solve aborts with [`LpOutcome::TimedOut`] once the
/// token fires — via its deadline or an explicit [`CancelToken::cancel`]
/// (checked every few hundred pivots).
pub(crate) fn solve_lp(lp: &Lp, cancel: Option<&CancelToken>) -> (LpOutcome, usize) {
    Tableau::new(lp).run(lp, cancel.cloned())
}

struct Tableau {
    m: usize,
    /// total columns: structural + slacks + artificials
    ncols: usize,
    n_struct: usize,
    /// dense row-major tableau, m x ncols (current B^-1 A)
    t: Vec<f64>,
    /// current basic-variable values per row
    beta: Vec<f64>,
    /// column basic in each row
    basis: Vec<usize>,
    /// row each column is basic in, [`NONBASIC`] otherwise
    basic_row: Vec<usize>,
    /// nonbasic-at-upper flag per column
    at_upper: Vec<bool>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// reduced costs per column (for the active phase objective)
    d: Vec<f64>,
    /// columns a pivot still updates: all of them in phase 1; in phase 2
    /// only those pricing can pick (a fixed column never enters again)
    live: Vec<usize>,
    /// `(row, value)` of the entering column's nonzeros, gathered once per
    /// iteration
    entering: Vec<(usize, f64)>,
    /// `(column, value)` of the scaled pivot row's live nonzeros, excluding
    /// the entering column
    pivot_row: Vec<(usize, f64)>,
    degenerate_streak: usize,
    iterations: usize,
    cancel: Option<CancelToken>,
}

impl Tableau {
    fn new(lp: &Lp) -> Tableau {
        let m = lp.rows.len();
        let n_struct = lp.lb.len();

        // nonbasic start: structural at the finite bound of smaller magnitude
        let mut x0 = vec![0.0; n_struct];
        let mut at_upper_struct = vec![false; n_struct];
        for (j, x) in x0.iter_mut().enumerate() {
            *x = lp.lb[j];
            if lp.ub[j].is_finite() && lp.ub[j].abs() < x.abs() {
                *x = lp.ub[j];
                at_upper_struct[j] = true;
            }
        }

        // residuals with slacks at their bound (0)
        let mut residual = vec![0.0; m];
        for (i, row) in lp.rows.iter().enumerate() {
            let mut act = 0.0;
            for &(j, c) in &row.terms {
                act += c * x0[j];
            }
            residual[i] = row.rhs - act;
        }

        // which rows can start feasibly on their own slack?
        // Le: slack = residual, needs residual >= 0
        // Ge: slack = -residual, needs residual <= 0
        // Eq: slack fixed at 0, needs residual == 0
        let slack_ok: Vec<bool> = lp
            .rows
            .iter()
            .zip(&residual)
            .map(|(row, &r)| match row.sense {
                Sense::Le => r >= 0.0,
                Sense::Ge => r <= 0.0,
                Sense::Eq => r == 0.0,
            })
            .collect();
        let n_art = slack_ok.iter().filter(|&&ok| !ok).count();
        let ncols = n_struct + m + n_art;

        let mut t = vec![0.0; m * ncols];
        let mut lb = Vec::with_capacity(ncols);
        let mut ub = Vec::with_capacity(ncols);
        lb.extend_from_slice(&lp.lb);
        ub.extend_from_slice(&lp.ub);
        for row in &lp.rows {
            lb.push(0.0);
            ub.push(match row.sense {
                Sense::Le | Sense::Ge => f64::INFINITY,
                Sense::Eq => 0.0,
            });
        }
        for _ in 0..n_art {
            lb.push(0.0);
            ub.push(f64::INFINITY);
        }

        let mut at_upper = vec![false; ncols];
        at_upper[..n_struct].copy_from_slice(&at_upper_struct);

        let mut basis = Vec::with_capacity(m);
        let mut basic_row = vec![NONBASIC; ncols];
        let mut beta = vec![0.0; m];
        let mut next_art = n_struct + m;
        for (i, row) in lp.rows.iter().enumerate() {
            let slack_col = n_struct + i;
            let slack_coef = match row.sense {
                Sense::Le | Sense::Eq => 1.0,
                Sense::Ge => -1.0,
            };
            let base = i * ncols;
            if slack_ok[i] {
                // basic slack; scale the row so the basic coefficient is +1
                let sigma = slack_coef; // 1/slack_coef for ±1
                for &(j, c) in &row.terms {
                    t[base + j] += sigma * c;
                }
                t[base + slack_col] = 1.0;
                basis.push(slack_col);
                basic_row[slack_col] = i;
                beta[i] = sigma * residual[i];
            } else {
                // artificial column with +1 after scaling by sign(residual)
                let sigma = if residual[i] >= 0.0 { 1.0 } else { -1.0 };
                for &(j, c) in &row.terms {
                    t[base + j] += sigma * c;
                }
                t[base + slack_col] = sigma * slack_coef;
                let art_col = next_art;
                next_art += 1;
                t[base + art_col] = 1.0;
                basis.push(art_col);
                basic_row[art_col] = i;
                beta[i] = residual[i].abs();
            }
        }

        Tableau {
            m,
            ncols,
            n_struct,
            t,
            beta,
            basis,
            basic_row,
            at_upper,
            lb,
            ub,
            d: vec![0.0; ncols],
            live: (0..ncols).collect(),
            entering: Vec::new(),
            pivot_row: Vec::new(),
            degenerate_streak: 0,
            iterations: 0,
            cancel: None,
        }
    }

    /// Recomputes the reduced-cost row `d = c - c_B^T T` for cost vector `c`
    /// (dense over all columns), one tableau row at a time in row order.
    fn load_costs(&mut self, c: &[f64]) {
        self.d.copy_from_slice(c);
        let n = self.ncols;
        for i in 0..self.m {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                for (dj, &tij) in self.d.iter_mut().zip(&self.t[i * n..(i + 1) * n]) {
                    *dj -= cb * tij;
                }
            }
        }
        for &b in &self.basis {
            self.d[b] = 0.0;
        }
    }

    /// Current value of a column (basic value or resting bound).
    fn col_value(&self, j: usize) -> f64 {
        let r = self.basic_row[j];
        if r != NONBASIC {
            self.beta[r]
        } else if self.at_upper[j] {
            self.ub[j]
        } else if self.lb[j].is_finite() {
            self.lb[j]
        } else {
            0.0
        }
    }

    /// Runs phase 1 then phase 2.
    fn run(mut self, lp: &Lp, cancel: Option<CancelToken>) -> (LpOutcome, usize) {
        let max_iters = 200 * (self.m + self.ncols) + 20_000;
        self.cancel = cancel;

        // ---- phase 1: minimise sum of artificials ----
        let mut p1_span = columba_obs::span("simplex.phase1");
        let mut c1 = vec![0.0; self.ncols];
        c1[(self.n_struct + self.m)..].fill(1.0);
        self.load_costs(&c1);
        match self.optimize(max_iters, true) {
            PhaseEnd::Ok => {}
            PhaseEnd::TimedOut => return (LpOutcome::TimedOut, self.iterations),
            PhaseEnd::Unbounded => {
                return (
                    LpOutcome::Numerical("phase-1 reported unbounded".into()),
                    self.iterations,
                )
            }
            PhaseEnd::IterLimit => {
                return (
                    LpOutcome::Numerical("phase-1 iteration limit (cycling?)".into()),
                    self.iterations,
                )
            }
        }
        let phase1_obj: f64 = ((self.n_struct + self.m)..self.ncols)
            .map(|j| self.col_value(j))
            .sum();
        if phase1_obj > 1e-6 {
            return (LpOutcome::Infeasible, self.iterations);
        }
        // pin artificials to zero and try to drive basic ones out
        for j in (self.n_struct + self.m)..self.ncols {
            self.ub[j] = 0.0;
        }
        self.drive_out_artificials();
        // fixed columns (equality slacks, the pinned artificials) never
        // enter again, so phase 2 stops updating them
        let (lb, ub) = (&self.lb, &self.ub);
        self.live.retain(|&j| lb[j] != ub[j]);
        p1_span.attr("iterations", self.iterations);
        drop(p1_span);

        // ---- phase 2: true objective ----
        let mut p2_span = columba_obs::span("simplex.phase2");
        let p2_start_iters = self.iterations;
        let mut c2 = vec![0.0; self.ncols];
        c2[..self.n_struct].copy_from_slice(&lp.cost);
        self.load_costs(&c2);
        self.degenerate_streak = 0;
        match self.optimize(max_iters, false) {
            PhaseEnd::Ok => {}
            PhaseEnd::TimedOut => return (LpOutcome::TimedOut, self.iterations),
            PhaseEnd::Unbounded => return (LpOutcome::Unbounded, self.iterations),
            PhaseEnd::IterLimit => {
                return (
                    LpOutcome::Numerical("phase-2 iteration limit (cycling?)".into()),
                    self.iterations,
                )
            }
        }
        p2_span.attr("iterations", self.iterations - p2_start_iters);
        drop(p2_span);

        // extract structural solution
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = self.col_value(j);
        }
        // verify against original rows (guards against tableau drift)
        for row in &lp.rows {
            if let Some(viol) = row.violation(&x) {
                return (
                    LpOutcome::Numerical(format!("residual {viol:.2e} exceeds tolerance")),
                    self.iterations,
                );
            }
        }
        let obj: f64 = x.iter().zip(&lp.cost).map(|(xi, ci)| xi * ci).sum();
        (LpOutcome::Optimal { x, obj }, self.iterations)
    }

    /// Degenerate pivots to remove artificials from the basis where possible.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.n_struct + self.m {
                continue;
            }
            // find a non-artificial, nonbasic column with a usable pivot
            let mut pick = None;
            for j in 0..(self.n_struct + self.m) {
                if self.basic_row[j] != NONBASIC {
                    continue;
                }
                let a = self.t[r * self.ncols + j];
                if a.abs() > 1e-7 {
                    pick = Some(j);
                    break;
                }
            }
            if let Some(j) = pick {
                // degenerate pivot: basic artificial sits at 0, so delta = 0
                self.gather_entering(j);
                self.pivot(r, j, self.col_value(j));
            }
        }
    }

    /// Collects the nonzeros of column `j` into `entering`, in row order.
    fn gather_entering(&mut self, j: usize) {
        self.entering.clear();
        for i in 0..self.m {
            let a = self.t[i * self.ncols + j];
            if a != 0.0 {
                self.entering.push((i, a));
            }
        }
    }

    /// Gauss-Jordan pivot bringing column `j` into the basis at row `r`.
    /// `new_value` is the entering variable's value after the step. Reads
    /// column `j` from `entering`, which must be current.
    fn pivot(&mut self, r: usize, j: usize, new_value: f64) {
        let n = self.ncols;
        let prow = &mut self.t[r * n..(r + 1) * n];
        let piv = prow[j];
        debug_assert!(piv.abs() > PIVOT_TOL * 1e-3, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        self.pivot_row.clear();
        for &col in &self.live {
            let x = prow[col];
            if x != 0.0 {
                let y = x * inv;
                prow[col] = y;
                if y != 0.0 && col != j {
                    self.pivot_row.push((col, y));
                }
            }
        }
        prow[j] = 1.0; // exact
        for &(i, f) in &self.entering {
            if i == r {
                continue;
            }
            let row = &mut self.t[i * n..(i + 1) * n];
            for &(col, y) in &self.pivot_row {
                row[col] -= f * y;
            }
            row[j] = 0.0;
        }
        // reduced costs
        let f = self.d[j];
        if f != 0.0 {
            for &(col, y) in &self.pivot_row {
                self.d[col] -= f * y;
            }
            self.d[j] = 0.0;
        }
        let old = self.basis[r];
        self.basic_row[old] = NONBASIC;
        self.basis[r] = j;
        self.basic_row[j] = r;
        self.beta[r] = new_value;
    }

    /// Primal iterations until optimal / unbounded / iteration limit.
    fn optimize(&mut self, max_iters: usize, phase1: bool) -> PhaseEnd {
        loop {
            if self.iterations >= max_iters {
                return PhaseEnd::IterLimit;
            }
            if self.iterations.is_multiple_of(256) {
                if let Some(cancel) = &self.cancel {
                    if cancel.is_cancelled() {
                        return PhaseEnd::TimedOut;
                    }
                }
            }
            let bland = self.degenerate_streak >= DEGENERATE_STREAK;
            // entering column
            let mut best: Option<(usize, f64, bool)> = None; // (col, score, increasing)
            let scan_end = if phase1 {
                self.ncols
            } else {
                self.n_struct + self.m
            };
            for j in 0..scan_end {
                if self.basic_row[j] != NONBASIC {
                    continue;
                }
                if self.lb[j] == self.ub[j] {
                    continue; // fixed column can never improve
                }
                let dj = self.d[j];
                let (eligible, increasing) = if self.at_upper[j] {
                    (dj > COST_TOL, false)
                } else {
                    (dj < -COST_TOL, true)
                };
                if !eligible {
                    continue;
                }
                if bland {
                    best = Some((j, dj.abs(), increasing));
                    break;
                }
                match best {
                    Some((_, s, _)) if s >= dj.abs() => {}
                    _ => best = Some((j, dj.abs(), increasing)),
                }
            }
            let Some((j, _, increasing)) = best else {
                return PhaseEnd::Ok; // optimal for this phase
            };

            self.gather_entering(j);

            // ratio test
            let range = self.ub[j] - self.lb[j]; // may be inf
            let mut t_max = range;
            // (row, leaves_at_upper, pivot element)
            let mut leave: Option<(usize, bool, f64)> = None;
            for &(i, a) in &self.entering {
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let bi = self.basis[i];
                let (l, u) = (self.lb[bi], self.ub[bi]);
                // direction the basic variable moves as entering moves by +t
                let downward = if increasing { a > 0.0 } else { a < 0.0 };
                let ti = if downward {
                    if l.is_finite() {
                        (self.beta[i] - l) / a.abs()
                    } else {
                        f64::INFINITY
                    }
                } else if u.is_finite() {
                    (u - self.beta[i]) / a.abs()
                } else {
                    f64::INFINITY
                };
                if !ti.is_finite() {
                    continue; // this row never blocks the entering variable
                }
                let ti = ti.max(0.0);
                let better = match leave {
                    None => ti < t_max - 1e-12,
                    Some((li, _, la)) => {
                        ti < t_max - 1e-12
                            || (ti <= t_max + 1e-12
                                && (if bland {
                                    self.basis[i] < self.basis[li]
                                } else {
                                    a.abs() > la.abs()
                                }))
                    }
                };
                if ti <= t_max + 1e-12 && better {
                    t_max = ti.min(t_max);
                    leave = Some((i, !downward, a));
                }
            }

            if t_max.is_infinite() {
                return PhaseEnd::Unbounded;
            }
            self.iterations += 1;
            if t_max <= 1e-10 {
                self.degenerate_streak += 1;
            } else {
                self.degenerate_streak = 0;
            }

            // move the basic variables; a pivot then overwrites the leaving
            // row's value with the entering variable's
            let delta = if increasing { t_max } else { -t_max };
            for &(i, a) in &self.entering {
                self.beta[i] -= a * delta;
            }
            match leave {
                None => {
                    // bound flip of the entering column
                    self.at_upper[j] = !self.at_upper[j];
                }
                Some((r, leaves_at_upper, _)) => {
                    let entering_value = if increasing {
                        (if self.at_upper[j] {
                            self.ub[j]
                        } else {
                            self.lb[j]
                        }) + t_max
                    } else {
                        self.ub[j] - t_max
                    };
                    let old = self.basis[r];
                    self.at_upper[old] = leaves_at_upper;
                    self.pivot(r, j, entering_value);
                    self.at_upper[j] = false;
                }
            }
        }
    }
}

enum PhaseEnd {
    Ok,
    Unbounded,
    IterLimit,
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(lb: &[f64], ub: &[f64], cost: &[f64], rows: Vec<Row>) -> Lp {
        Lp {
            lb: lb.to_vec(),
            ub: ub.to_vec(),
            cost: cost.to_vec(),
            rows,
        }
    }

    fn row(terms: &[(usize, f64)], sense: Sense, rhs: f64) -> Row {
        Row {
            terms: terms.to_vec(),
            sense,
            rhs,
        }
    }

    fn optimal(lp: &Lp) -> (Vec<f64>, f64) {
        match solve_lp(lp, None).0 {
            LpOutcome::Optimal { x, obj } => (x, obj),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_maximization_as_min() {
        // min -x - 2y s.t. x+y <= 4, x <= 3, y <= 2
        let p = lp(
            &[0.0, 0.0],
            &[3.0, 2.0],
            &[-1.0, -2.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj + 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + y s.t. x + y = 5, x - y = 1
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[1.0, 1.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 5.0),
                row(&[(0, 1.0), (1, -1.0)], Sense::Eq, 1.0),
            ],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj - 5.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2
        let p = lp(
            &[2.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[2.0, 3.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 10.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 10.0).abs() < 1e-6, "{x:?}");
        assert!((x[1]).abs() < 1e-6);
        assert!((obj - 20.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let p = lp(
            &[0.0],
            &[1.0],
            &[1.0],
            vec![row(&[(0, 1.0)], Sense::Ge, 2.0)],
        );
        assert!(matches!(solve_lp(&p, None).0, LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let p = lp(
            &[0.0],
            &[f64::INFINITY],
            &[-1.0],
            vec![row(&[(0, 1.0)], Sense::Ge, 0.0)],
        );
        assert!(matches!(solve_lp(&p, None).0, LpOutcome::Unbounded));
    }

    #[test]
    fn bound_flip_reaches_upper_bounds() {
        // min -x - y with only bounds: x <= 7, y <= 9, no rows binding
        let p = lp(
            &[0.0, 0.0],
            &[7.0, 9.0],
            &[-1.0, -1.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 100.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 7.0).abs() < 1e-6);
        assert!((x[1] - 9.0).abs() < 1e-6);
        assert!((obj + 16.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable_respected() {
        let p = lp(
            &[3.0, 0.0],
            &[3.0, f64::INFINITY],
            &[0.0, 1.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 5.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        assert!((obj - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degenerate corner: several constraints meet at origin
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[-0.75, 150.0],
            vec![
                row(&[(0, 0.25), (1, -8.0)], Sense::Le, 0.0),
                row(&[(0, 0.5), (1, -12.0)], Sense::Le, 0.0),
                row(&[(0, 0.0), (1, 1.0)], Sense::Le, 1.0),
            ],
        );
        // Beale-like cycling example (truncated); must terminate
        let (outcome, _) = solve_lp(&p, None);
        assert!(
            matches!(outcome, LpOutcome::Optimal { .. } | LpOutcome::Unbounded),
            "{outcome:?}"
        );
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -4  (i.e. x >= 4)
        let p = lp(
            &[0.0],
            &[f64::INFINITY],
            &[1.0],
            vec![row(&[(0, -1.0)], Sense::Le, -4.0)],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 4.0).abs() < 1e-6);
        assert!((obj - 4.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 stated twice: phase 1 leaves a basic artificial at 0
        let p = lp(
            &[0.0, 0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[1.0, 2.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
                row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
            ],
        );
        let (x, obj) = optimal(&p);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!(x[1].abs() < 1e-6);
        assert!((obj - 2.0).abs() < 1e-6);
    }
}
