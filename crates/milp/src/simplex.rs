//! Bounded-variable two-phase primal simplex.
//!
//! Operates on the *computational form* `min cᵀx  s.t.  Ax = b, l ≤ x ≤ u`
//! obtained by adding one slack column per constraint row. Phase 1 introduces
//! one artificial column per row whose slack cannot start within its bounds
//! and minimises their sum; phase 2 optimises the true objective. Given a
//! primal feasible start [`Basis`] (an earlier solve's optimal basis), the
//! solve pivots it in over the all-slack tableau and runs phase 2 alone.
//! Nonbasic variables rest at a finite bound; entering variables may
//! *bound-flip* without a basis change. Dantzig pricing is used until a long
//! degenerate streak triggers Bland's rule, which guarantees termination.
//!
//! The tableau is a dense column-major array, and next to it a row-occupancy
//! bitmap marks exactly its nonzero entries. The inner loops touch only
//! entries that can change: each iteration gathers the entering column's
//! nonzeros from one contiguous column (the ratio test, the basic-value
//! update and the pivot all read that list), and a pivot walks the pivot
//! row's set bits in ascending column order, then updates each of those
//! columns in the rows the entering column reaches. Skipping an exact zero
//! is exact (`x - f·0 = x`), and every entry gets the same operation the
//! plain dense row-major elimination gives it, so the pivot path and every
//! value match it bit for bit.

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

/// A simplex basis in an [`Lp`]'s own indices: the status of every
/// structural column, and whether each row's slack is basic. Exactly
/// `rows.len()` entries are basic in a basis [`solve_lp`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Basis {
    /// Per structural column.
    pub cols: Vec<ColStatus>,
    /// Per row: its slack is basic.
    pub slack_basic: Vec<bool>,
}

/// Where a structural column sits in a [`Basis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColStatus {
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// How a solve began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// Two-phase, from the slack/artificial basis.
    Cold,
    /// From the given basis, installed with `crash_pivots` pivots; phase 1
    /// skipped.
    Warm { crash_pivots: usize },
    /// The given basis was refused for the stated reason (`"singular"` or
    /// `"infeasible"`), and the solve ran cold.
    Fallback(&'static str),
}

/// What [`solve_lp`] returns.
#[derive(Debug)]
pub(crate) struct LpRun {
    pub outcome: LpOutcome,
    /// Every pivot made, crash pivots included.
    pub iterations: usize,
    /// The final basis, when the outcome is optimal.
    pub basis: Option<Basis>,
    pub start: Start,
}

/// Solves `lp`. Without `start`, runs the two-phase method from a
/// slack/artificial basis. With `start`, pivots that basis in over the
/// all-slack tableau, checks that it is primal feasible, and runs phase 2
/// alone; a singular or infeasible start falls back to the cold path.
/// When `cancel` is set, the solve aborts with [`LpOutcome::TimedOut`] once
/// the token fires — via its deadline or an explicit
/// [`CancelToken::cancel`] (checked every few hundred pivots).
pub(crate) fn solve_lp(lp: &Lp, cancel: Option<&CancelToken>, start: Option<&Basis>) -> LpRun {
    let cancel = cancel.cloned();
    let Some(basis) = start else {
        return Tableau::cold(lp).run(lp, cancel, Start::Cold);
    };
    match Tableau::warm(lp, basis) {
        Ok(t) => {
            let crash_pivots = t.iterations;
            t.run(lp, cancel, Start::Warm { crash_pivots })
        }
        Err((reason, crash_pivots)) => {
            let mut run = Tableau::cold(lp).run(lp, cancel, Start::Fallback(reason));
            run.iterations += crash_pivots;
            run
        }
    }
}

/// Smallest |pivot| a crash pivot accepts; below it the start basis is
/// treated as singular.
const CRASH_PIVOT_TOL: f64 = 1e-7;

/// `1e-7` relative slack on a bound, the primal feasibility a start basis
/// must meet.
fn bound_tol(bound: f64) -> f64 {
    1e-7 * (1.0 + bound.abs())
}

struct Tableau {
    m: usize,
    /// total columns: structural + slacks + artificials
    ncols: usize,
    n_struct: usize,
    /// dense column-major tableau, m x ncols (current B^-1 A): entry
    /// (i, j) is `t[j * m + i]`
    t: Vec<f64>,
    /// row-occupancy bitmap, `words` `u64`s per row: bit `j % 64` of word
    /// `i * words + j / 64` is set exactly when entry (i, j) is nonzero
    occupied: Vec<u64>,
    /// bitmap words per row, `ceil(ncols / 64)`
    words: usize,
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
    /// the row each artificial column was added for, in column order
    art_rows: Vec<usize>,
    /// reduced costs per column (for the active phase objective)
    d: Vec<f64>,
    /// per column: a pivot still updates it. All columns are live in
    /// phase 1; in phase 2 only those pricing can pick (a fixed column
    /// never enters again), and the others stay frozen, bits included.
    live: Vec<bool>,
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
    /// The cold start: every structural column nonbasic at its finite bound
    /// of smaller magnitude, each row on its slack where that is feasible
    /// and on an artificial otherwise.
    fn cold(lp: &Lp) -> Tableau {
        let mut x0 = lp.lb.clone();
        let mut at_upper = vec![false; x0.len()];
        for (j, x) in x0.iter_mut().enumerate() {
            if lp.ub[j].is_finite() && lp.ub[j].abs() < x.abs() {
                *x = lp.ub[j];
                at_upper[j] = true;
            }
        }
        Tableau::new(lp, &x0, &at_upper, true)
    }

    /// The tableau of `start`: the all-slack tableau with every nonbasic
    /// structural column at its bound, then one crash pivot per basic
    /// structural column, each on the row whose leaving slack gives the
    /// largest |pivot|. The right-hand side rides along, so `beta` ends as
    /// `B⁻¹(b − N·x_N)`. Refuses a basis that is singular or whose basic
    /// values leave their bounds; the error carries the crash pivots spent.
    fn warm(lp: &Lp, start: &Basis) -> Result<Tableau, (&'static str, usize)> {
        let (n, m) = (lp.lb.len(), lp.rows.len());
        let basics = start
            .cols
            .iter()
            .filter(|&&s| s == ColStatus::Basic)
            .count()
            + start.slack_basic.iter().filter(|&&b| b).count();
        if start.cols.len() != n || start.slack_basic.len() != m || basics != m {
            return Err(("singular", 0));
        }
        let mut x0 = vec![0.0; n];
        let mut at_upper = vec![false; n];
        for (j, status) in start.cols.iter().enumerate() {
            match status {
                ColStatus::Basic => {} // excluded from the right-hand side
                ColStatus::AtLower => x0[j] = lp.lb[j],
                ColStatus::AtUpper if lp.ub[j].is_finite() => {
                    x0[j] = lp.ub[j];
                    at_upper[j] = true;
                }
                ColStatus::AtUpper => return Err(("infeasible", 0)),
            }
        }
        let mut t = Tableau::new(lp, &x0, &at_upper, false);
        for j in (0..n).filter(|&j| start.cols[j] == ColStatus::Basic) {
            t.gather_entering(j);
            let leaving = |&&(i, _): &&(usize, f64)| {
                let b = t.basis[i];
                b >= n && !start.slack_basic[b - n]
            };
            let Some(&(r, a)) =
                (t.entering.iter().filter(leaving)).max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
            else {
                return Err(("singular", t.iterations));
            };
            if a.abs() < CRASH_PIVOT_TOL {
                return Err(("singular", t.iterations));
            }
            let value = t.beta[r] / a;
            for &(i, ai) in &t.entering {
                t.beta[i] -= ai * value;
            }
            t.pivot(r, j, value);
            t.iterations += 1;
        }
        let feasible = t.basis.iter().zip(&t.beta).all(|(&b, &v)| {
            let (l, u) = (t.lb[b], t.ub[b]);
            v >= l - bound_tol(l) && (!u.is_finite() || v <= u + bound_tol(u))
        });
        if !feasible {
            return Err(("infeasible", t.iterations));
        }
        Ok(t)
    }

    /// The tableau with structural column `j` nonbasic at `x0[j]` (at its
    /// upper bound where `at_upper[j]`) and one basic column per row: the
    /// row's slack, or, with `artificials` and where the slack would start
    /// out of bounds, a fresh artificial column.
    fn new(lp: &Lp, x0: &[f64], at_upper_struct: &[bool], artificials: bool) -> Tableau {
        let m = lp.rows.len();
        let n_struct = lp.lb.len();

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
            .map(|(row, &r)| {
                !artificials
                    || match row.sense {
                        Sense::Le => r >= 0.0,
                        Sense::Ge => r <= 0.0,
                        Sense::Eq => r == 0.0,
                    }
            })
            .collect();
        let n_art = slack_ok.iter().filter(|&&ok| !ok).count();
        let ncols = n_struct + m + n_art;

        let mut t = vec![0.0; m * ncols];
        let words = ncols.div_ceil(64);
        let mut occupied = vec![0u64; m * words];
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
        at_upper[..n_struct].copy_from_slice(at_upper_struct);

        let mut basis = Vec::with_capacity(m);
        let mut basic_row = vec![NONBASIC; ncols];
        let mut beta = vec![0.0; m];
        let mut art_rows = Vec::with_capacity(n_art);
        for (i, row) in lp.rows.iter().enumerate() {
            let slack_col = n_struct + i;
            let slack_coef = match row.sense {
                Sense::Le | Sense::Eq => 1.0,
                Sense::Ge => -1.0,
            };
            let basic_col = if slack_ok[i] {
                // basic slack; scale the row so the basic coefficient is +1
                let sigma = slack_coef; // 1/slack_coef for ±1
                for &(j, c) in &row.terms {
                    t[j * m + i] += sigma * c;
                }
                t[slack_col * m + i] = 1.0;
                beta[i] = sigma * residual[i];
                slack_col
            } else {
                // artificial column with +1 after scaling by sign(residual)
                let sigma = if residual[i] >= 0.0 { 1.0 } else { -1.0 };
                for &(j, c) in &row.terms {
                    t[j * m + i] += sigma * c;
                }
                t[slack_col * m + i] = sigma * slack_coef;
                let art_col = n_struct + m + art_rows.len();
                art_rows.push(i);
                t[art_col * m + i] = 1.0;
                beta[i] = residual[i].abs();
                art_col
            };
            basis.push(basic_col);
            basic_row[basic_col] = i;
            // a repeated term may have cancelled, so read the sums back
            let cols = row.terms.iter().map(|&(j, _)| j);
            for j in cols.chain([slack_col, basic_col]) {
                let (w, mask) = bit(words, i, j);
                if t[j * m + i] == 0.0 {
                    occupied[w] &= !mask;
                } else {
                    occupied[w] |= mask;
                }
            }
        }

        let tableau = Tableau {
            m,
            ncols,
            n_struct,
            t,
            occupied,
            words,
            beta,
            basis,
            basic_row,
            at_upper,
            lb,
            ub,
            art_rows,
            d: vec![0.0; ncols],
            live: vec![true; ncols],
            entering: Vec::new(),
            pivot_row: Vec::new(),
            degenerate_streak: 0,
            iterations: 0,
            cancel: None,
        };
        #[cfg(test)]
        tableau.check_occupancy();
        tableau
    }

    /// Nonzero entries of the tableau, a popcount of the bitmap.
    fn nonzeros(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Recomputes the reduced-cost row `d = c - c_B^T T` for cost vector `c`
    /// (over all columns), one tableau row at a time in row order, each
    /// over the row's nonzeros.
    fn load_costs(&mut self, c: &[f64]) {
        self.d.copy_from_slice(c);
        let (m, words) = (self.m, self.words);
        for i in 0..m {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                for j in set_bits(&self.occupied[i * words..(i + 1) * words]) {
                    self.d[j] -= cb * self.t[j * m + i];
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

    /// Runs phase 1, unless a warm `start` installed a feasible basis, and
    /// phase 2.
    fn run(mut self, lp: &Lp, cancel: Option<CancelToken>, start: Start) -> LpRun {
        let max_iters = 200 * (self.m + self.ncols) + 20_000;
        self.cancel = cancel;
        let fail = |outcome: LpOutcome, iterations: usize| LpRun {
            outcome,
            iterations,
            basis: None,
            start,
        };

        // ---- phase 1: minimise sum of artificials ----
        if !matches!(start, Start::Warm { .. }) {
            let mut p1_span = columba_obs::span("simplex.phase1");
            let mut c1 = vec![0.0; self.ncols];
            c1[(self.n_struct + self.m)..].fill(1.0);
            self.load_costs(&c1);
            match self.optimize(max_iters, true) {
                PhaseEnd::Ok => {}
                PhaseEnd::TimedOut => return fail(LpOutcome::TimedOut, self.iterations),
                PhaseEnd::Unbounded => {
                    return fail(
                        LpOutcome::Numerical("phase-1 reported unbounded".into()),
                        self.iterations,
                    )
                }
                PhaseEnd::IterLimit => {
                    return fail(
                        LpOutcome::Numerical("phase-1 iteration limit (cycling?)".into()),
                        self.iterations,
                    )
                }
            }
            let phase1_obj: f64 = ((self.n_struct + self.m)..self.ncols)
                .map(|j| self.col_value(j))
                .sum();
            if phase1_obj > 1e-6 {
                return fail(LpOutcome::Infeasible, self.iterations);
            }
            // pin artificials to zero and try to drive basic ones out
            for j in (self.n_struct + self.m)..self.ncols {
                self.ub[j] = 0.0;
            }
            self.drive_out_artificials();
            p1_span.attr("iterations", self.iterations);
        }
        // fixed columns (equality slacks, the pinned artificials) never
        // enter again, so phase 2 stops updating them
        for (live, (l, u)) in self.live.iter_mut().zip(self.lb.iter().zip(&self.ub)) {
            *live = l != u;
        }

        // ---- phase 2: true objective ----
        let mut p2_span = columba_obs::span("simplex.phase2");
        let p2_start_iters = self.iterations;
        let mut c2 = vec![0.0; self.ncols];
        c2[..self.n_struct].copy_from_slice(&lp.cost);
        self.load_costs(&c2);
        self.degenerate_streak = 0;
        match self.optimize(max_iters, false) {
            PhaseEnd::Ok => {}
            PhaseEnd::TimedOut => return fail(LpOutcome::TimedOut, self.iterations),
            PhaseEnd::Unbounded => return fail(LpOutcome::Unbounded, self.iterations),
            PhaseEnd::IterLimit => {
                return fail(
                    LpOutcome::Numerical("phase-2 iteration limit (cycling?)".into()),
                    self.iterations,
                )
            }
        }
        p2_span.attr("iterations", self.iterations - p2_start_iters);
        if p2_span.is_recording() {
            p2_span.attr("rows", self.m);
            p2_span.attr("cols", self.ncols);
            p2_span.attr("nonzeros", self.nonzeros());
        }
        drop(p2_span);

        // extract structural solution
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = self.col_value(j);
        }
        // verify against original rows (guards against tableau drift)
        for row in &lp.rows {
            if let Some(viol) = row.violation(&x) {
                return fail(
                    LpOutcome::Numerical(format!("residual {viol:.2e} exceeds tolerance")),
                    self.iterations,
                );
            }
        }
        let obj: f64 = x.iter().zip(&lp.cost).map(|(xi, ci)| xi * ci).sum();
        LpRun {
            outcome: LpOutcome::Optimal { x, obj },
            iterations: self.iterations,
            basis: Some(self.final_basis()),
            start,
        }
    }

    /// The current basis in the LP's own indices. A basic artificial is
    /// reported as its row's slack: the two columns are parallel, so the
    /// slack cannot be basic too, and the basis stays nonsingular.
    fn final_basis(&self) -> Basis {
        let cols = (0..self.n_struct)
            .map(|j| {
                if self.basic_row[j] != NONBASIC {
                    ColStatus::Basic
                } else if self.at_upper[j] {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                }
            })
            .collect();
        let mut slack_basic: Vec<bool> = (0..self.m)
            .map(|i| self.basic_row[self.n_struct + i] != NONBASIC)
            .collect();
        for (k, &i) in self.art_rows.iter().enumerate() {
            if self.basic_row[self.n_struct + self.m + k] != NONBASIC {
                slack_basic[i] = true;
            }
        }
        Basis { cols, slack_basic }
    }

    /// Degenerate pivots to remove artificials from the basis where possible.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.n_struct + self.m {
                continue;
            }
            // the first non-artificial, nonbasic column with a usable pivot
            let (m, words) = (self.m, self.words);
            let pick = set_bits(&self.occupied[r * words..(r + 1) * words])
                .take_while(|&j| j < self.n_struct + m)
                .find(|&j| self.basic_row[j] == NONBASIC && self.t[j * m + r].abs() > 1e-7);
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
        let column = &self.t[j * self.m..(j + 1) * self.m];
        let nonzeros = column.iter().enumerate().filter(|&(_, &a)| a != 0.0);
        self.entering.extend(nonzeros.map(|(i, &a)| (i, a)));
    }

    /// Gauss-Jordan pivot bringing column `j` into the basis at row `r`.
    /// `new_value` is the entering variable's value after the step. Reads
    /// column `j` from `entering`, which must be current.
    fn pivot(&mut self, r: usize, j: usize, new_value: f64) {
        let (m, words) = (self.m, self.words);
        let piv = self.t[j * m + r];
        debug_assert!(piv.abs() > PIVOT_TOL * 1e-3, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        // scale the pivot row's live nonzeros, ascending
        self.pivot_row.clear();
        for k in 0..words {
            let mut bits = self.occupied[r * words + k];
            while bits != 0 {
                let col = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.live[col] {
                    continue;
                }
                let y = self.t[col * m + r] * inv;
                self.t[col * m + r] = y;
                if y == 0.0 {
                    self.occupied[r * words + k] &= !(1 << (col % 64)); // underflow
                } else if col != j {
                    self.pivot_row.push((col, y));
                }
            }
        }
        self.t[j * m + r] = 1.0; // exact

        // eliminate column j from the other rows it reaches, one pivot-row
        // column at a time; a bit flips when its entry's zero-state does
        for &(col, y) in &self.pivot_row {
            let column = &mut self.t[col * m..(col + 1) * m];
            let (word, shift) = (col / 64, col % 64);
            for &(i, f) in &self.entering {
                if i == r {
                    continue;
                }
                let old = column[i];
                let new = old - f * y;
                column[i] = new;
                self.occupied[i * words + word] ^= u64::from((old == 0.0) != (new == 0.0)) << shift;
            }
        }
        let (w, mask) = (j / 64, 1u64 << (j % 64));
        for &(i, _) in &self.entering {
            if i != r {
                self.t[j * m + i] = 0.0;
                self.occupied[i * words + w] &= !mask;
            }
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
        #[cfg(test)]
        self.check_occupancy();
    }

    /// Asserts the bitmap invariant: bit (i, j) is set exactly when entry
    /// (i, j) is nonzero, for every column (live ones are kept current;
    /// the others are frozen with their bits).
    #[cfg(test)]
    fn check_occupancy(&self) {
        assert_eq!(self.occupied.len(), self.m * self.words);
        for j in 0..self.ncols {
            for i in 0..self.m {
                let (w, mask) = bit(self.words, i, j);
                assert_eq!(
                    self.occupied[w] & mask != 0,
                    self.t[j * self.m + i] != 0.0,
                    "bit ({i}, {j}) disagrees with entry {} (live: {})",
                    self.t[j * self.m + i],
                    self.live[j]
                );
            }
        }
        // and no bit is set past the last column
        let nonzeros = self.t.iter().filter(|&&a| a != 0.0).count();
        assert_eq!(self.nonzeros(), nonzeros);
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

/// Word index and mask of bit (i, j) in a bitmap of `words` words per row.
fn bit(words: usize, i: usize, j: usize) -> (usize, u64) {
    (i * words + j / 64, 1 << (j % 64))
}

/// The indices of the set bits of a bitmap row, ascending.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                k * 64 + b
            })
        })
    })
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
        match solve_lp(lp, None, None).outcome {
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
        assert!(matches!(
            solve_lp(&p, None, None).outcome,
            LpOutcome::Infeasible
        ));
    }

    #[test]
    fn unbounded_detected() {
        let p = lp(
            &[0.0],
            &[f64::INFINITY],
            &[-1.0],
            vec![row(&[(0, 1.0)], Sense::Ge, 0.0)],
        );
        assert!(matches!(
            solve_lp(&p, None, None).outcome,
            LpOutcome::Unbounded
        ));
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
        let outcome = solve_lp(&p, None, None).outcome;
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

    // -- the occupancy bitmap --

    /// A random LP with small integer coefficients, so that eliminations
    /// cancel to exact zeros and clear bits: fixed, boxed and
    /// upper-unbounded columns, repeated terms in a row, and mixed senses,
    /// each row held by one integral point within the bounds.
    fn random_lp(rng: &mut columba_prng::Rng) -> Lp {
        let n = rng.gen_range(1usize..9);
        let (mut lb, mut ub, mut point) = (vec![], vec![], vec![]);
        for _ in 0..n {
            let l = rng.gen_range(-2i64..=1) as f64;
            let x = l + rng.gen_range(0i64..=4) as f64;
            let (u, x) = match rng.gen_range(0usize..4) {
                0 => (l, l),
                1 => (f64::INFINITY, x),
                _ => (x, x),
            };
            lb.push(l);
            ub.push(u);
            point.push(x);
        }
        let cost = (0..n).map(|_| rng.gen_range(-3i64..=3) as f64).collect();
        let rows = (0..rng.gen_range(1usize..8))
            .map(|_| {
                let terms: Vec<(usize, f64)> = (0..rng.gen_range(1usize..=n + 1))
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(-2i64..=2) as f64))
                    .collect();
                let act: f64 = terms.iter().map(|&(j, c)| c * point[j]).sum();
                let slack = rng.gen_range(0i64..=3) as f64;
                let (sense, rhs) = match rng.gen_range(0usize..5) {
                    0 => (Sense::Eq, act),
                    1 | 2 => (Sense::Le, act + slack),
                    _ => (Sense::Ge, act - slack),
                };
                Row { terms, sense, rhs }
            })
            .collect();
        Lp { lb, ub, cost, rows }
    }

    #[test]
    fn occupancy_tracks_nonzeros_on_random_lps() {
        // every tableau checks its bitmap when built and after each pivot
        let mut rng = columba_prng::Rng::seed_from_u64(0x0cc0_b175);
        let (mut optimal, mut pivots) = (0, 0);
        for _ in 0..400 {
            let p = random_lp(&mut rng);
            let cold = solve_lp(&p, None, None);
            pivots += cold.iterations;
            if let Some(basis) = &cold.basis {
                optimal += 1;
                pivots += solve_lp(&p, None, Some(basis)).iterations;
            }
        }
        assert!(optimal >= 250, "only {optimal} optimal LPs");
        assert!(pivots >= 1000, "only {pivots} pivots");
    }

    // -- warm starts --

    /// Solves `p` cold, then again from its own optimal basis.
    fn restart(p: &Lp) -> (LpRun, LpRun) {
        let cold = solve_lp(p, None, None);
        assert_eq!(cold.start, Start::Cold);
        let basis = cold.basis.clone().expect("optimal solve returns its basis");
        let warm = solve_lp(p, None, Some(&basis));
        (cold, warm)
    }

    #[test]
    fn restart_from_own_optimal_basis_takes_no_phase2_pivots() {
        let lps = [
            // Ge row and a lower bound: phase 1 needs an artificial
            lp(
                &[2.0, 0.0],
                &[f64::INFINITY, f64::INFINITY],
                &[2.0, 3.0],
                vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 10.0)],
            ),
            // two equalities
            lp(
                &[0.0, 0.0],
                &[f64::INFINITY, f64::INFINITY],
                &[1.0, 1.0],
                vec![
                    row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 5.0),
                    row(&[(0, 1.0), (1, -1.0)], Sense::Eq, 1.0),
                ],
            ),
            // a duplicated equality leaves a basic artificial, exported as
            // its row's slack
            lp(
                &[0.0, 0.0],
                &[f64::INFINITY, f64::INFINITY],
                &[1.0, 2.0],
                vec![
                    row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
                    row(&[(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
                ],
            ),
            // a column nonbasic at its upper bound
            lp(
                &[0.0, 0.0, 0.0],
                &[3.0, 2.0, 5.0],
                &[-1.0, -2.0, 1.0],
                vec![
                    row(&[(0, 1.0), (1, 1.0), (2, -1.0)], Sense::Le, 4.0),
                    row(&[(0, 1.0), (2, 1.0)], Sense::Ge, 1.0),
                ],
            ),
        ];
        for (k, p) in lps.iter().enumerate() {
            let (cold, warm) = restart(p);
            let Start::Warm { crash_pivots } = warm.start else {
                panic!("lp {k}: start refused: {:?}", warm.start);
            };
            assert_eq!(warm.iterations, crash_pivots, "lp {k}: phase 2 pivoted");
            let (LpOutcome::Optimal { x: xc, .. }, LpOutcome::Optimal { x: xw, .. }) =
                (&cold.outcome, &warm.outcome)
            else {
                panic!("lp {k}: {:?} / {:?}", cold.outcome, warm.outcome);
            };
            for (a, b) in xc.iter().zip(xw) {
                assert!((a - b).abs() < 1e-9, "lp {k}: {xc:?} vs {xw:?}");
            }
            assert_eq!(warm.basis, cold.basis, "lp {k}");
        }
    }

    #[test]
    fn singular_start_falls_back_to_cold() {
        // the two columns are parallel, so they cannot both be basic
        let p = lp(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[-1.0, -1.0],
            vec![
                row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0),
                row(&[(0, 2.0), (1, 2.0)], Sense::Le, 10.0),
            ],
        );
        let parallel = Basis {
            cols: vec![ColStatus::Basic, ColStatus::Basic],
            slack_basic: vec![false, false],
        };
        // three basic entries for two rows
        let too_many = Basis {
            cols: vec![ColStatus::Basic, ColStatus::Basic],
            slack_basic: vec![true, false],
        };
        for start in [&parallel, &too_many] {
            let run = solve_lp(&p, None, Some(start));
            assert_eq!(run.start, Start::Fallback("singular"));
            match run.outcome {
                LpOutcome::Optimal { obj, .. } => assert!((obj + 4.0).abs() < 1e-9),
                other => panic!("expected optimal, got {other:?}"),
            }
        }
    }

    #[test]
    fn infeasible_start_falls_back_to_cold() {
        // all-slack start: x + y >= 2 is violated at x = y = 0
        let p = lp(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[1.0, 2.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Ge, 2.0)],
        );
        let slack = Basis {
            cols: vec![ColStatus::AtLower, ColStatus::AtLower],
            slack_basic: vec![true],
        };
        let run = solve_lp(&p, None, Some(&slack));
        assert_eq!(run.start, Start::Fallback("infeasible"));
        let (x, obj) = match run.outcome {
            LpOutcome::Optimal { x, obj } => (x, obj),
            other => panic!("expected optimal, got {other:?}"),
        };
        assert!((x[0] - 2.0).abs() < 1e-9 && x[1].abs() < 1e-9, "{x:?}");
        assert!((obj - 2.0).abs() < 1e-9);

        // a crash that puts a basic column past its bound: x basic in the
        // row x + y <= 4 with y at its upper bound 10 gives x = -6
        let q = lp(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[-1.0, -1.0],
            vec![row(&[(0, 1.0), (1, 1.0)], Sense::Le, 4.0)],
        );
        let past = Basis {
            cols: vec![ColStatus::Basic, ColStatus::AtUpper],
            slack_basic: vec![false],
        };
        let run = solve_lp(&q, None, Some(&past));
        assert_eq!(run.start, Start::Fallback("infeasible"));
        assert!(run.iterations >= 1, "the crash pivot counts as work");
        assert!(matches!(run.outcome, LpOutcome::Optimal { obj, .. } if (obj + 4.0).abs() < 1e-9));
    }
}
