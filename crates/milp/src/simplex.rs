//! Bounded-variable two-phase revised primal simplex.
//!
//! Operates on the *computational form* `min cᵀx  s.t.  Ax = b, l ≤ x ≤ u`
//! obtained by adding one slack column per constraint row. Phase 1 introduces
//! one artificial column per row whose slack cannot start within its bounds
//! and minimises their sum; phase 2 optimises the true objective. Given a
//! start [`Basis`] (an earlier solve's optimal basis, or the crash basis of
//! a difference system's least solution, [`crate::crash`]), the solve
//! factors it directly, checks that it is primal feasible and runs phase 2
//! alone; a singular or infeasible start runs the cold two phases.
//! Nonbasic variables rest at a finite bound; entering variables may
//! *bound-flip* without a basis change. Dantzig pricing is used until a long
//! degenerate streak triggers Bland's rule, which guarantees termination.
//!
//! Nothing of size rows × columns is stored; memory is linear in the
//! nonzeros. `A` is held by column and by row, and the basis inverse is a
//! product of eta matrices: a factorization of the basis followed by one
//! eta per pivot, refactored every [`REFACTOR_INTERVAL`] pivots (which also
//! recomputes the basic values and reduced costs). An iteration FTRANs the
//! entering column through the etas; a pivot BTRANs the leaving position's
//! unit vector to `ρ = e_rᵀB⁻¹`, forms the pivot row `ρᵀA` from the rows `ρ`
//! reaches, and updates the reduced costs of the columns that row touches.
//!
//! - **Triangular factorization.** Slacks and artificials take their own
//!   rows; the structural columns are then eliminated by row singletons,
//!   which gives etas with no fill. The layout bases are triangular, so this
//!   is the whole factorization in practice. A remainder (a *bump*) is
//!   factored column by column on the largest |pivot|.
//! - **Hypersparse BTRAN.** Each position keeps the list of etas with an
//!   entry in it. `ρ` starts as `e_r`; a nonzero `ρ_i` is scattered into the
//!   etas below it until the next eta that pivots on `i`, and touched etas
//!   are resolved from a max-heap in descending order. The work follows
//!   `ρ`'s few nonzeros, not the length of the eta file.
//! - **Tournament-tree pricing.** The leaves score `|d_j|` of each column
//!   that may enter; a pivot replays only the leaves whose reduced cost or
//!   status it changed. Ties go to the lower index, as a scan would pick.

use std::collections::BinaryHeap;

use crate::cancel::CancelToken;
use crate::model::Sense;

/// Pivot magnitude tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: usize = 400;
/// `basic_row` entry of a nonbasic column (and `basis` entry of a position
/// not yet assigned during a factorization).
const NONBASIC: usize = usize::MAX;
/// The link past the oldest entry of a position's chain in an [`EtaFile`].
const CHAIN_END: usize = usize::MAX;
/// Smallest |pivot| the factorization of a start basis accepts; below it
/// the start basis is treated as singular.
const START_PIVOT_TOL: f64 = 1e-7;
/// Pivots between two factorizations of the basis.
const REFACTOR_INTERVAL: usize = 64;

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
    /// Numerical breakdown (cycling guard, singular refactorization or
    /// residual check failed).
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
    /// From the given basis, factored with `factored` basic structural
    /// columns; phase 1 skipped.
    Warm { factored: usize },
    /// The given basis was refused for the stated reason (`"singular"` or
    /// `"infeasible"`; the caller also reports a start it could not build,
    /// such as a crash refusal, this way), and the solve ran cold.
    Fallback(&'static str),
}

/// What [`solve_lp`] returns.
#[derive(Debug)]
pub(crate) struct LpRun {
    pub outcome: LpOutcome,
    /// Simplex iterations: pivots and bound flips. Factoring a start basis
    /// is not an iteration.
    pub iterations: usize,
    /// The final basis, when the outcome is optimal.
    pub basis: Option<Basis>,
    pub start: Start,
}

/// Solves `lp`. Without `start`, runs the two-phase method from a
/// slack/artificial basis. With `start`, factors that basis, checks that it
/// is primal feasible, and runs phase 2 alone; a singular or infeasible
/// start falls back to the cold path. When `cancel` is set, the solve
/// aborts with [`LpOutcome::TimedOut`] once the token fires — via its
/// deadline or an explicit [`CancelToken::cancel`] (checked every few
/// hundred pivots).
pub(crate) fn solve_lp(lp: &Lp, cancel: Option<&CancelToken>, start: Option<&Basis>) -> LpRun {
    let cancel = cancel.cloned();
    let Some(basis) = start else {
        return Simplex::cold(lp).run(lp, cancel, Start::Cold);
    };
    match Simplex::warm(lp, basis) {
        Ok(s) => {
            let factored = s.factored;
            s.run(lp, cancel, Start::Warm { factored })
        }
        Err(reason) => Simplex::cold(lp).run(lp, cancel, Start::Fallback(reason)),
    }
}

/// `1e-7` relative slack on a bound, the primal feasibility a start basis
/// must meet.
fn bound_tol(bound: f64) -> f64 {
    1e-7 * (1.0 + bound.abs())
}

/// A sparse matrix in compressed form: line `k` (a column by column, a row
/// by row) holds `index[start[k]..start[k + 1]]`, ascending, with `value`
/// alongside.
#[derive(Debug, Clone)]
struct Sparse {
    start: Vec<usize>,
    index: Vec<usize>,
    value: Vec<f64>,
}

impl Sparse {
    fn line(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.start[k]..self.start[k + 1];
        let index = self.index[range.clone()].iter().copied();
        index.zip(self.value[range].iter().copied())
    }

    /// The same matrix with `lines` lines the other way.
    fn transpose(&self, lines: usize) -> Sparse {
        let mut start = vec![0; lines + 1];
        for &i in &self.index {
            start[i + 1] += 1;
        }
        for k in 0..lines {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut index = vec![0; self.index.len()];
        let mut value = vec![0.0; self.index.len()];
        for k in 0..self.start.len() - 1 {
            for (i, v) in self.line(k) {
                index[next[i]] = k;
                value[next[i]] = v;
                next[i] += 1;
            }
        }
        Sparse {
            start,
            index,
            value,
        }
    }
}

/// One eta matrix: the column it was made from, transformed by the etas
/// before it, with `pivot_value` in position `pivot` and its other entries
/// at `start..end` of the file's `index`/`value`. `slot` is its pivot
/// entry in the file's `chain`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    pivot: usize,
    pivot_value: f64,
    start: usize,
    end: usize,
    slot: usize,
}

/// The basis inverse as a product of eta matrices, `B⁻¹ = E_K ⋯ E_1`.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    etas: Vec<Eta>,
    index: Vec<usize>,
    value: Vec<f64>,
    /// Every entry once more, pivots included, chained per position from
    /// the newest eta down: `(eta, value, next)`, where `next` is the
    /// position's next older entry ([`CHAIN_END`] ends the chain) and
    /// `newest[i]` starts position `i`'s chain.
    chain: Vec<(usize, f64, usize)>,
    newest: Vec<usize>,
    /// BTRAN scratch, per eta: the accumulated new pivot entry and whether
    /// the eta waits in `heap`.
    acc: Vec<f64>,
    queued: Vec<bool>,
    heap: BinaryHeap<usize>,
}

impl EtaFile {
    fn new(m: usize) -> EtaFile {
        EtaFile {
            newest: vec![CHAIN_END; m],
            ..EtaFile::default()
        }
    }

    fn clear(&mut self) {
        self.etas.clear();
        self.index.clear();
        self.value.clear();
        self.chain.clear();
        self.newest.fill(CHAIN_END);
        self.acc.clear();
        self.queued.clear();
    }

    /// Stored entries, pivots included.
    fn nonzeros(&self) -> usize {
        self.index.len() + self.etas.len()
    }

    /// Appends the eta of a transformed column with nonzeros `entries`,
    /// pivoting on position `p`, whose entry is `pivot_value`.
    fn push(&mut self, p: usize, pivot_value: f64, entries: impl Iterator<Item = (usize, f64)>) {
        let (k, start) = (self.etas.len(), self.index.len());
        for (i, v) in entries.filter(|&(i, _)| i != p) {
            self.index.push(i);
            self.value.push(v);
            self.link(i, k, v);
        }
        self.etas.push(Eta {
            pivot: p,
            pivot_value,
            start,
            end: self.index.len(),
            slot: self.chain.len(),
        });
        self.link(p, k, pivot_value);
        self.acc.push(0.0);
        self.queued.push(false);
    }

    /// Puts eta `k`'s entry `v` in position `i` at the head of its chain.
    fn link(&mut self, i: usize, k: usize, v: f64) {
        self.chain.push((k, v, self.newest[i]));
        self.newest[i] = self.chain.len() - 1;
    }

    /// FTRAN, `v ← B⁻¹v`, skipping every eta whose pivot entry of `v` is
    /// zero. Appends to `nonzeros` each position that turns nonzero (a
    /// position may appear twice).
    fn ftran(&self, v: &mut [f64], nonzeros: &mut Vec<usize>) {
        for eta in &self.etas {
            let p = eta.pivot;
            if v[p] == 0.0 {
                continue;
            }
            let vp = v[p] / eta.pivot_value;
            v[p] = vp;
            for e in eta.start..eta.end {
                let i = self.index[e];
                if v[i] == 0.0 {
                    nonzeros.push(i);
                }
                v[i] -= self.value[e] * vp;
            }
        }
    }

    /// BTRAN of a dense vector, `uᵀ ← uᵀB⁻¹`.
    fn btran(&self, u: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut up = u[eta.pivot];
            for e in eta.start..eta.end {
                up -= u[self.index[e]] * self.value[e];
            }
            u[eta.pivot] = up / eta.pivot_value;
        }
    }

    /// Hypersparse BTRAN of the unit vector `e_r`: sets `out` to the
    /// nonzeros `(position, value)` of `e_rᵀB⁻¹`.
    fn btran_unit(&mut self, r: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        self.scatter(r, 1.0, self.newest[r], out);
        while let Some(k) = self.heap.pop() {
            self.queued[k] = false;
            let eta = self.etas[k];
            let v = std::mem::take(&mut self.acc[k]) / eta.pivot_value;
            if v != 0.0 {
                self.scatter(eta.pivot, v, self.chain[eta.slot].2, out);
            }
        }
    }

    /// Spreads `u_i = v` into the etas along position `i`'s chain from
    /// entry `from`, down to the next one that pivots on `i`, which takes
    /// `v` as its base. With no such eta, `v` is final.
    fn scatter(&mut self, i: usize, v: f64, from: usize, out: &mut Vec<(usize, f64)>) {
        let mut e = from;
        while e != CHAIN_END {
            let (k, a, next) = self.chain[e];
            e = next;
            if !self.queued[k] {
                self.queued[k] = true;
                self.heap.push(k);
            }
            if self.etas[k].pivot == i {
                self.acc[k] += v;
                return;
            }
            self.acc[k] -= v * a;
        }
        out.push((i, v));
    }
}

/// Dantzig pricing as a tournament tree. Leaf `j` scores column `j`: `|d_j|`
/// when it may enter, 0 otherwise. Each inner node holds its subtree's
/// winner: the higher score, and the lower index on a tie.
#[derive(Debug, Clone, Default)]
struct Pricer {
    leaves: usize,
    score: Vec<f64>,
    winner: Vec<usize>,
}

impl Pricer {
    fn new(n: usize) -> Pricer {
        let leaves = n.next_power_of_two();
        Pricer {
            leaves,
            score: vec![0.0; leaves],
            winner: (0..2 * leaves).map(|k| k.saturating_sub(leaves)).collect(),
        }
    }

    fn play(&self, node: usize) -> usize {
        let (a, b) = (self.winner[2 * node], self.winner[2 * node + 1]);
        if self.score[b] > self.score[a] {
            b
        } else {
            a
        }
    }

    fn rebuild(&mut self, score: impl Fn(usize) -> f64) {
        for j in 0..self.score.len() {
            self.score[j] = score(j);
        }
        for node in (1..self.leaves).rev() {
            self.winner[node] = self.play(node);
        }
    }

    fn set(&mut self, j: usize, score: f64) {
        self.score[j] = score;
        let mut node = (self.leaves + j) / 2;
        while node >= 1 {
            self.winner[node] = self.play(node);
            node /= 2;
        }
    }

    /// The column with the largest score, if any may enter.
    fn best(&self) -> Option<usize> {
        let w = self.winner[1];
        (self.score[w] > 0.0).then_some(w)
    }

    /// The lowest-index column that may enter (Bland's rule).
    fn lowest(&self) -> Option<usize> {
        self.best()?;
        let mut node = 1;
        while node < self.leaves {
            node = if self.score[self.winner[2 * node]] > 0.0 {
                2 * node
            } else {
                2 * node + 1
            };
        }
        Some(node - self.leaves)
    }
}

#[derive(Debug, Clone)]
struct Simplex {
    m: usize,
    /// total columns: structural + slacks + artificials
    ncols: usize,
    n_struct: usize,
    /// `A` by column and by row, slack and artificial columns included
    cols: Sparse,
    rows: Sparse,
    rhs: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// nonbasic-at-upper flag per column
    at_upper: Vec<bool>,
    /// column basic in each position
    basis: Vec<usize>,
    /// position each column is basic in, [`NONBASIC`] otherwise
    basic_row: Vec<usize>,
    /// current basic-variable values per position
    beta: Vec<f64>,
    /// the active phase's cost per column, and its reduced costs
    cost: Vec<f64>,
    d: Vec<f64>,
    /// the row each artificial column was added for, in column order
    art_rows: Vec<usize>,
    etas: EtaFile,
    pricer: Pricer,
    /// pivots since the last factorization
    updates: usize,
    /// factorizations after the first, and columns factored as a bump
    refactors: usize,
    bump_columns: usize,
    /// basic structural columns of a warm start basis
    factored: usize,
    /// `(position, value)` of B⁻¹ times the entering column, ascending
    entering: Vec<(usize, f64)>,
    /// nonzeros of `ρ = e_rᵀB⁻¹` for the pivot position `r`
    rho: Vec<(usize, f64)>,
    /// `(column, ρᵀa_j)` over the nonbasic columns the pivot row reaches
    pivot_row: Vec<(usize, f64)>,
    /// zeroed scratch: one slot per position, and one per column
    work: Vec<f64>,
    row_work: Vec<f64>,
    /// the positions of `work` an FTRAN made nonzero
    touched: Vec<usize>,
    degenerate_streak: usize,
    iterations: usize,
    cancel: Option<CancelToken>,
}

impl Simplex {
    /// The cold start: every structural column nonbasic at its finite bound
    /// of smaller magnitude, each row on its slack where that is feasible
    /// and on an artificial otherwise.
    fn cold(lp: &Lp) -> Simplex {
        let mut x0 = lp.lb.clone();
        let mut at_upper = vec![false; x0.len()];
        for (j, x) in x0.iter_mut().enumerate() {
            if lp.ub[j].is_finite() && lp.ub[j].abs() < x.abs() {
                *x = lp.ub[j];
                at_upper[j] = true;
            }
        }
        let mut s = Simplex::new(lp, &x0, &at_upper, true);
        if s.factor(PIVOT_TOL).is_err() {
            unreachable!("a slack/artificial basis is diagonal");
        }
        s.compute_beta();
        s
    }

    /// The simplex on `start`: its nonbasic structural columns at their
    /// bounds, its basic columns factored. Refuses a basis that is singular
    /// or whose basic values leave their bounds.
    fn warm(lp: &Lp, start: &Basis) -> Result<Simplex, &'static str> {
        let (n, m) = (lp.lb.len(), lp.rows.len());
        let basic = |j: usize| start.cols[j] == ColStatus::Basic;
        let factored = (0..start.cols.len()).filter(|&j| basic(j)).count();
        let basics = factored + start.slack_basic.iter().filter(|&&b| b).count();
        if start.cols.len() != n || start.slack_basic.len() != m || basics != m {
            return Err("singular");
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
                ColStatus::AtUpper => return Err("infeasible"),
            }
        }
        let mut s = Simplex::new(lp, &x0, &at_upper, false);
        let slacks = (0..m).filter(|&i| start.slack_basic[i]).map(|i| n + i);
        s.basis = (0..n).filter(|&j| basic(j)).chain(slacks).collect();
        s.factor(START_PIVOT_TOL)?;
        s.factored = factored;
        s.compute_beta();
        let feasible = s.basis.iter().zip(&s.beta).all(|(&b, &v)| {
            let (l, u) = (s.lb[b], s.ub[b]);
            v >= l - bound_tol(l) && (!u.is_finite() || v <= u + bound_tol(u))
        });
        if !feasible {
            return Err("infeasible");
        }
        Ok(s)
    }

    /// The simplex with structural column `j` nonbasic at `x0[j]` (at its
    /// upper bound where `at_upper[j]`) and one basic column per row: the
    /// row's slack, or, with `artificials` and where the slack would start
    /// out of bounds, a fresh artificial column. Not yet factored.
    fn new(lp: &Lp, x0: &[f64], at_upper_struct: &[bool], artificials: bool) -> Simplex {
        let m = lp.rows.len();
        let n_struct = lp.lb.len();
        let mut rows = Sparse {
            start: vec![0],
            index: Vec::new(),
            value: Vec::new(),
        };
        let mut basis = Vec::with_capacity(m);
        let mut art_rows = Vec::new();
        let mut lb = lp.lb.clone();
        let mut ub = lp.ub.clone();
        let mut terms = Vec::new();
        for (i, row) in lp.rows.iter().enumerate() {
            // residual with the slack at its bound (0): which rows can start
            // feasibly on their own slack? Le: slack = residual ≥ 0; Ge:
            // slack = −residual ≥ 0; Eq: slack fixed at 0, residual == 0
            let act: f64 = row.terms.iter().map(|&(j, c)| c * x0[j]).sum();
            let residual = row.rhs - act;
            let slack_ok = !artificials
                || match row.sense {
                    Sense::Le => residual >= 0.0,
                    Sense::Ge => residual <= 0.0,
                    Sense::Eq => residual == 0.0,
                };
            // a repeated term is summed, and may cancel
            terms.clone_from(&row.terms);
            terms.sort_by_key(|&(j, _)| j);
            terms.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            terms.retain(|&(_, c)| c != 0.0);
            let slack_coef = match row.sense {
                Sense::Le | Sense::Eq => 1.0,
                Sense::Ge => -1.0,
            };
            terms.push((n_struct + i, slack_coef));
            lb.push(0.0);
            ub.push(match row.sense {
                Sense::Le | Sense::Ge => f64::INFINITY,
                Sense::Eq => 0.0,
            });
            basis.push(if slack_ok {
                n_struct + i
            } else {
                // an artificial column, signed so it starts at |residual|
                let art_col = n_struct + m + art_rows.len();
                terms.push((art_col, if residual >= 0.0 { 1.0 } else { -1.0 }));
                art_rows.push(i);
                art_col
            });
            rows.index.extend(terms.iter().map(|&(j, _)| j));
            rows.value.extend(terms.iter().map(|&(_, c)| c));
            rows.start.push(rows.index.len());
        }
        let ncols = n_struct + m + art_rows.len();
        lb.resize(ncols, 0.0);
        ub.resize(ncols, f64::INFINITY);
        let mut at_upper = vec![false; ncols];
        at_upper[..n_struct].copy_from_slice(at_upper_struct);
        Simplex {
            m,
            ncols,
            n_struct,
            cols: rows.transpose(ncols),
            rows,
            rhs: lp.rows.iter().map(|r| r.rhs).collect(),
            lb,
            ub,
            at_upper,
            basis,
            basic_row: vec![NONBASIC; ncols],
            beta: vec![0.0; m],
            cost: vec![0.0; ncols],
            d: vec![0.0; ncols],
            art_rows,
            etas: EtaFile::new(m),
            pricer: Pricer::new(ncols),
            updates: 0,
            refactors: 0,
            bump_columns: 0,
            factored: 0,
            entering: Vec::new(),
            rho: Vec::new(),
            pivot_row: Vec::new(),
            work: vec![0.0; m],
            row_work: vec![0.0; ncols],
            touched: Vec::new(),
            degenerate_streak: 0,
            iterations: 0,
            cancel: None,
        }
    }

    /// Factors the set of columns in `basis` afresh into the eta file and
    /// gives each its position: a slack or artificial its own row, a
    /// structural column the row it pivots on. A row that one remaining
    /// structural column reaches (a row singleton) takes that column; with
    /// none, the column reaching the fewest open rows pivots on its largest
    /// entry there (a bump). Until the first bump pivot every eta is its
    /// column verbatim, with no fill; after it, a column is transformed by
    /// the etas before it when it reaches one of their rows. Slacks and
    /// artificials come last: `±e_i`, an eta only for `−1`. Refuses a
    /// singular basis, or any pivot below `tol`.
    fn factor(&mut self, tol: f64) -> Result<(), &'static str> {
        let (m, n) = (self.m, self.n_struct);
        self.etas.clear();
        self.updates = 0;
        let heads = std::mem::replace(&mut self.basis, vec![NONBASIC; m]);
        let mut structural = Vec::new();
        for c in heads {
            if c < n {
                structural.push(c);
                continue;
            }
            let (i, _) = self.cols.line(c).next().ok_or("singular")?;
            if self.basis[i] != NONBASIC {
                return Err("singular");
            }
            self.basis[i] = c;
        }
        // open rows each remaining column reaches, and remaining columns
        // each open row holds
        let mut reach = vec![0usize; n];
        let mut count = vec![0usize; m];
        for &c in &structural {
            for (i, _) in self
                .cols
                .line(c)
                .filter(|&(i, _)| self.basis[i] == NONBASIC)
            {
                reach[c] += 1;
                count[i] += 1;
            }
        }
        let mut active = vec![false; n];
        structural.iter().for_each(|&c| active[c] = true);
        let mut singles: Vec<usize> = (0..m)
            .filter(|&i| self.basis[i] == NONBASIC && count[i] == 1)
            .collect();
        let mut left = structural.len();
        while left > 0 {
            let single = singles.pop();
            let c = match single {
                Some(r) => match self.rows.line(r).find(|&(j, _)| j < n && active[j]) {
                    Some((c, _)) if self.basis[r] == NONBASIC => c,
                    _ => continue,
                },
                None => {
                    self.bump_columns += 1;
                    let remaining = structural.iter().filter(|&&c| active[c]);
                    *remaining.min_by_key(|&&c| reach[c]).ok_or("singular")?
                }
            };
            // the column through the etas so far, unless none touches it
            let verbatim = self.cols.line(c).all(|(i, _)| self.basis[i] >= n);
            if verbatim {
                self.entering.clear();
                self.entering.extend(self.cols.line(c));
            } else {
                self.ftran_column(c);
            }
            let open = self
                .entering
                .iter()
                .filter(|&&(i, _)| self.basis[i] == NONBASIC);
            let (r, piv) = match single {
                Some(r) => (r, open.filter(|e| e.0 == r).map(|e| e.1).sum()),
                None => open.fold((NONBASIC, 0.0), |best: (usize, f64), &e| {
                    if e.1.abs() > best.1.abs() {
                        e
                    } else {
                        best
                    }
                }),
            };
            if piv.abs() < tol {
                if single.is_some() {
                    continue; // left to the bump
                }
                return Err("singular");
            }
            self.etas.push(r, piv, self.entering.iter().copied());
            self.basis[r] = c;
            active[c] = false;
            left -= 1;
            for (i, _) in self
                .cols
                .line(c)
                .filter(|&(i, _)| self.basis[i] == NONBASIC)
            {
                count[i] -= 1;
                if count[i] == 1 {
                    singles.push(i);
                }
            }
            for (j, _) in self.rows.line(r).filter(|&(j, _)| j < n && active[j]) {
                reach[j] -= 1;
            }
        }
        for i in 0..m {
            let c = self.basis[i];
            if c >= n {
                if let Some((_, s)) = self.cols.line(c).next().filter(|&(_, s)| s != 1.0) {
                    self.etas.push(i, s, std::iter::empty());
                }
            }
        }
        self.basic_row.fill(NONBASIC);
        for (i, &c) in self.basis.iter().enumerate() {
            self.basic_row[c] = i;
        }
        Ok(())
    }

    /// Recomputes the basic values `β = B⁻¹(b − N·x_N)`.
    fn compute_beta(&mut self) {
        let mut v = std::mem::take(&mut self.beta);
        v.copy_from_slice(&self.rhs);
        for j in (0..self.ncols).filter(|&j| self.basic_row[j] == NONBASIC) {
            let x = self.col_value(j);
            if x != 0.0 {
                for (i, a) in self.cols.line(j) {
                    v[i] -= a * x;
                }
            }
        }
        self.etas.ftran(&mut v, &mut self.touched);
        self.touched.clear();
        self.beta = v;
    }

    /// Recomputes the reduced costs `d = c − (c_BᵀB⁻¹)A` and rebuilds the
    /// pricing tree.
    fn price(&mut self) {
        let mut y: Vec<f64> = self.basis.iter().map(|&b| self.cost[b]).collect();
        self.etas.btran(&mut y);
        for j in 0..self.ncols {
            self.d[j] = if self.basic_row[j] == NONBASIC {
                let dot: f64 = self.cols.line(j).map(|(i, a)| y[i] * a).sum();
                self.cost[j] - dot
            } else {
                0.0
            };
        }
        let mut pricer = std::mem::take(&mut self.pricer);
        pricer.rebuild(|j| if j < self.ncols { self.score(j) } else { 0.0 });
        self.pricer = pricer;
    }

    /// Column `j`'s pricing score: `|d_j|` when it may enter, else 0.
    fn score(&self, j: usize) -> f64 {
        if self.basic_row[j] != NONBASIC || self.lb[j] == self.ub[j] {
            return 0.0; // a fixed column can never improve
        }
        let dj = self.d[j];
        match self.at_upper[j] {
            true if dj > COST_TOL => dj,
            false if dj < -COST_TOL => -dj,
            _ => 0.0,
        }
    }

    fn reprice(&mut self, j: usize) {
        let score = self.score(j);
        self.pricer.set(j, score);
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
        let phase_fail = |end: PhaseEnd, phase: &str| match end {
            PhaseEnd::TimedOut => LpOutcome::TimedOut,
            PhaseEnd::Unbounded if phase == "phase-2" => LpOutcome::Unbounded,
            PhaseEnd::Unbounded => LpOutcome::Numerical("phase-1 reported unbounded".into()),
            PhaseEnd::IterLimit => {
                LpOutcome::Numerical(format!("{phase} iteration limit (cycling?)"))
            }
            PhaseEnd::Singular => {
                LpOutcome::Numerical(format!("{phase} basis singular at refactorization"))
            }
            PhaseEnd::Ok => unreachable!("not a failure"),
        };

        // ---- phase 1: minimise sum of artificials ----
        if !matches!(start, Start::Warm { .. }) {
            let mut p1_span = columba_obs::span("simplex.phase1");
            self.cost[(self.n_struct + self.m)..].fill(1.0);
            self.price();
            match self.optimize(max_iters) {
                PhaseEnd::Ok => {}
                end => return fail(phase_fail(end, "phase-1"), self.iterations),
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
            if self.drive_out_artificials().is_err() {
                return fail(phase_fail(PhaseEnd::Singular, "phase-1"), self.iterations);
            }
            p1_span.attr("iterations", self.iterations);
        }

        // ---- phase 2: true objective ----
        let mut p2_span = columba_obs::span("simplex.phase2");
        let p2_start_iters = self.iterations;
        self.cost.fill(0.0);
        self.cost[..self.n_struct].copy_from_slice(&lp.cost);
        self.price();
        self.degenerate_streak = 0;
        match self.optimize(max_iters) {
            PhaseEnd::Ok => {}
            end => return fail(phase_fail(end, "phase-2"), self.iterations),
        }
        p2_span.attr("iterations", self.iterations - p2_start_iters);
        if p2_span.is_recording() {
            p2_span.attr("rows", self.m);
            p2_span.attr("cols", self.ncols);
            p2_span.attr("refactors", self.refactors);
            p2_span.attr("eta_nonzeros", self.etas.nonzeros());
            p2_span.attr("bump_columns", self.bump_columns);
        }
        drop(p2_span);
        #[cfg(any(test, debug_assertions))]
        self.check_optimal();

        // extract structural solution
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = self.col_value(j);
        }
        // verify against original rows (guards against drift)
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

    /// Checks an optimal basis independently of the updates that reached
    /// it: factored from scratch, it gives the same basic values and
    /// dual-feasible reduced costs.
    #[cfg(any(test, debug_assertions))]
    fn check_optimal(&self) {
        let mut fresh = self.clone();
        assert!(fresh.factor(PIVOT_TOL).is_ok(), "optimal basis is singular");
        fresh.compute_beta();
        fresh.price();
        for (i, &c) in fresh.basis.iter().enumerate() {
            let (got, want) = (self.col_value(c), fresh.beta[i]);
            let tol = 1e-6 * (1.0 + want.abs());
            assert!(
                (got - want).abs() <= tol,
                "column {c}: β {got}, fresh {want}"
            );
        }
        let scale = 1.0 + self.cost.iter().fold(0.0, |s: f64, c| s.max(c.abs()));
        for j in 0..self.ncols {
            assert!(
                fresh.score(j) <= 1e-6 * scale,
                "column {j}: fresh reduced cost {} is not dual feasible",
                fresh.d[j]
            );
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
    fn drive_out_artificials(&mut self) -> Result<(), &'static str> {
        for r in 0..self.m {
            if self.basis[r] < self.n_struct + self.m {
                continue;
            }
            // the first non-artificial, nonbasic column with a usable pivot
            self.load_pivot_row(r);
            let usable = |&&(j, a): &&(usize, f64)| j < self.n_struct + self.m && a.abs() > 1e-7;
            let pick = self.pivot_row.iter().filter(usable).map(|&(j, _)| j).min();
            if let Some(j) = pick {
                self.ftran_column(j);
                let at_r = self.entering.binary_search_by_key(&r, |&(i, _)| i);
                if let Some(piv) = at_r.ok().map(|k| self.entering[k].1) {
                    // degenerate pivot: basic artificial sits at 0, so delta = 0
                    self.pivot(r, j, piv, self.col_value(j))?;
                }
            }
        }
        Ok(())
    }

    /// Sets `entering` to the nonzeros of `B⁻¹a_j`.
    fn ftran_column(&mut self, j: usize) {
        for (i, a) in self.cols.line(j) {
            self.work[i] = a;
            self.touched.push(i);
        }
        self.etas.ftran(&mut self.work, &mut self.touched);
        self.entering.clear();
        // a position listed twice is taken once; cancelled ones drop out
        for i in self.touched.drain(..) {
            let v = std::mem::take(&mut self.work[i]);
            if v != 0.0 {
                self.entering.push((i, v));
            }
        }
        self.entering.sort_unstable_by_key(|&(i, _)| i);
    }

    /// Sets `pivot_row` to `ρᵀa_j`, `ρ = e_rᵀB⁻¹`, for the nonbasic
    /// columns `j` it is nonzero in.
    fn load_pivot_row(&mut self, r: usize) {
        self.etas.btran_unit(r, &mut self.rho);
        self.pivot_row.clear();
        for &(i, p) in &self.rho {
            for (j, a) in self.rows.line(i) {
                if self.basic_row[j] == NONBASIC {
                    if self.row_work[j] == 0.0 {
                        self.pivot_row.push((j, 0.0));
                    }
                    self.row_work[j] += p * a;
                }
            }
        }
        // a sum that passed through zero listed its column twice; the
        // second copy takes 0 and is dropped
        for (j, v) in &mut self.pivot_row {
            *v = std::mem::take(&mut self.row_work[*j]);
        }
        self.pivot_row.retain(|&(_, v)| v != 0.0);
    }

    /// Brings column `q` into the basis at position `r`, whose entry of
    /// the entering column (`entering`, which must be current) is `piv`.
    /// `new_value` is the entering variable's value after the step.
    fn pivot(&mut self, r: usize, q: usize, piv: f64, new_value: f64) -> Result<(), &'static str> {
        debug_assert!(piv.abs() > PIVOT_TOL * 1e-3, "pivot too small: {piv}");
        self.load_pivot_row(r);
        // reduced costs
        let f = self.d[q] / piv;
        if f != 0.0 {
            for &(j, a) in &self.pivot_row {
                self.d[j] -= f * a;
            }
        }
        let old = self.basis[r];
        self.d[q] = 0.0;
        self.d[old] = -f;
        self.etas.push(r, piv, self.entering.iter().copied());
        self.basic_row[old] = NONBASIC;
        self.basis[r] = q;
        self.basic_row[q] = r;
        self.beta[r] = new_value;
        for k in 0..self.pivot_row.len() {
            self.reprice(self.pivot_row[k].0);
        }
        self.reprice(q);
        self.reprice(old);
        self.updates += 1;
        if self.updates >= REFACTOR_INTERVAL {
            self.refactors += 1;
            self.factor(PIVOT_TOL)?;
            self.compute_beta();
            self.price();
        }
        Ok(())
    }

    /// Primal iterations until optimal / unbounded / iteration limit.
    fn optimize(&mut self, max_iters: usize) -> PhaseEnd {
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
            let best = if bland {
                self.pricer.lowest()
            } else {
                self.pricer.best()
            };
            let Some(j) = best else {
                return PhaseEnd::Ok; // optimal for this phase
            };
            let increasing = !self.at_upper[j];

            self.ftran_column(j);

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
                    self.reprice(j);
                }
                Some((r, leaves_at_upper, piv)) => {
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
                    self.at_upper[j] = false;
                    if self.pivot(r, j, piv, entering_value).is_err() {
                        return PhaseEnd::Singular;
                    }
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
    /// A refactorization found the basis singular.
    Singular,
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

    // -- the independent check --

    /// A random LP with small integer coefficients (so eliminations cancel
    /// to exact zeros): fixed, boxed and upper-unbounded columns, repeated
    /// terms in a row, and mixed senses, each row held by one integral
    /// point within the bounds. Up to `n_max` columns and `m_max` rows.
    fn random_lp(rng: &mut columba_prng::Rng, n_max: usize, m_max: usize) -> Lp {
        let n = rng.gen_range(1usize..n_max);
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
        let rows = (0..rng.gen_range(1usize..m_max))
            .map(|_| {
                let terms: Vec<(usize, f64)> = (0..rng.gen_range(1usize..=n.min(8) + 1))
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

    /// A start for `p` other than its optimum: every slack basic except
    /// row `i`'s, which gives way to structural column `j`, and every other
    /// column at a random bound. Singular exactly when row `i` does not
    /// reach column `j`.
    fn swapped_start(rng: &mut columba_prng::Rng, p: &Lp, i: usize, j: usize) -> Basis {
        let cols = (0..p.lb.len())
            .map(|k| match k == j {
                true => ColStatus::Basic,
                false if p.ub[k].is_finite() && rng.gen_range(0usize..2) == 0 => ColStatus::AtUpper,
                false => ColStatus::AtLower,
            })
            .collect();
        let mut slack_basic = vec![true; p.rows.len()];
        slack_basic[i] = false;
        Basis { cols, slack_basic }
    }

    #[test]
    fn random_lps_pass_the_fresh_factorization_check() {
        // every optimal phase 2 refactors from scratch and checks β and the
        // reduced costs (`check_optimal`); the larger LPs pass through
        // periodic refactorizations and non-triangular bases
        let mut rng = columba_prng::Rng::seed_from_u64(0x0cc0_b175);
        let (mut optimal, mut pivots, mut longest) = (0, 0, 0);
        let mut starts = [0usize; 3]; // warm, singular, infeasible
        for k in 0..480 {
            let p = match k < 400 {
                true => random_lp(&mut rng, 9, 8),
                false => random_lp(&mut rng, 240, 160),
            };
            let cold = solve_lp(&p, None, None);
            pivots += cold.iterations;
            longest = longest.max(cold.iterations);
            let (Some(basis), LpOutcome::Optimal { obj, .. }) = (&cold.basis, &cold.outcome) else {
                continue;
            };
            optimal += 1;
            let warm = solve_lp(&p, None, Some(basis));
            assert!(
                matches!(warm.start, Start::Warm { .. }),
                "lp {k}: {:?}",
                warm.start
            );
            assert_eq!(warm.iterations, 0, "lp {k}: restart pivoted");
            let (i, j) = (rng.gen_range(0..p.rows.len()), rng.gen_range(0..p.lb.len()));
            let reaches = p.rows[i]
                .terms
                .iter()
                .filter(|t| t.0 == j)
                .map(|t| t.1)
                .sum::<f64>();
            let run = solve_lp(&p, None, Some(&swapped_start(&mut rng, &p, i, j)));
            match run.start {
                Start::Warm { factored } => {
                    assert_eq!(factored, 1, "lp {k}");
                    starts[0] += 1;
                }
                Start::Fallback("singular") => {
                    assert_eq!(reaches, 0.0, "lp {k}: a nonsingular start refused");
                    starts[1] += 1;
                }
                Start::Fallback("infeasible") => starts[2] += 1,
                other => panic!("lp {k}: {other:?}"),
            }
            match run.outcome {
                LpOutcome::Optimal { obj: o, .. } => {
                    assert!(
                        (o - obj).abs() <= 1e-9 * (1.0 + obj.abs()),
                        "lp {k}: {o} vs {obj}"
                    )
                }
                other => panic!("lp {k}: {other:?} from {:?}", run.start),
            }
        }
        assert!(optimal >= 300, "only {optimal} optimal LPs");
        assert!(pivots >= 3000, "only {pivots} pivots");
        assert!(
            longest > 2 * REFACTOR_INTERVAL,
            "no LP refactored: {longest}"
        );
        assert!(starts.iter().all(|&s| s >= 10), "start mix {starts:?}");
    }

    #[test]
    fn factorization_takes_a_bump_and_refuses_parallel_columns() {
        // at the optimum x = y = 4/3 both rows hold two basic structural
        // columns: no row singleton, so one column pivots as a bump, and
        // the other then pivots on the row left, transformed by its eta
        let p = lp(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[-1.0, -1.0],
            vec![
                row(&[(0, 1.0), (1, 2.0)], Sense::Le, 4.0),
                row(&[(0, 2.0), (1, 1.0)], Sense::Le, 4.0),
            ],
        );
        let basis = Basis {
            cols: vec![ColStatus::Basic, ColStatus::Basic],
            slack_basic: vec![false, false],
        };
        let s = Simplex::warm(&p, &basis).expect("nonsingular and feasible");
        assert_eq!((s.factored, s.bump_columns), (2, 1));
        for (&c, &v) in s.basis.iter().zip(&s.beta) {
            assert!((v - 4.0 / 3.0).abs() < 1e-12, "column {c} at {v}");
        }
        let run = solve_lp(&p, None, Some(&basis));
        assert_eq!(
            (run.start, run.iterations),
            (Start::Warm { factored: 2 }, 0)
        );

        // the same rows scaled to parallel columns cannot both be basic
        let q = lp(
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[-1.0, -1.0],
            vec![
                row(&[(0, 1.0), (1, 2.0)], Sense::Le, 4.0),
                row(&[(0, 2.0), (1, 4.0)], Sense::Le, 10.0),
            ],
        );
        assert_eq!(Simplex::warm(&q, &basis).err(), Some("singular"));
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
            let Start::Warm { factored } = warm.start else {
                panic!("lp {k}: start refused: {:?}", warm.start);
            };
            let basis = warm.basis.as_ref().expect("optimal");
            let basic = basis.cols.iter().filter(|&&s| s == ColStatus::Basic);
            assert_eq!(factored, basic.count(), "lp {k}");
            assert_eq!(warm.iterations, 0, "lp {k}: phase 2 pivoted");
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
        // factoring the refused start is not an iteration
        assert_eq!(run.iterations, solve_lp(&q, None, None).iterations);
        assert!(matches!(run.outcome, LpOutcome::Optimal { obj, .. } if (obj + 4.0).abs() < 1e-9));
    }
}
