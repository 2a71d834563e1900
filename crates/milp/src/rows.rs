//! The constraint rows of a model or an LP in one flat store.
//!
//! Every row a model holds, and every row a presolved LP keeps, lives in
//! one compressed sparse row store: three flat arrays for the entries and
//! one entry per row for its sense and right-hand side. A row is added by
//! appending its terms; nothing is allocated per row. Within a row the
//! columns ascend and are distinct, and no coefficient is zero:
//! [`Rows::push_merged`] establishes that once, when a model row is added,
//! and every later copy (the presolve, the simplex) keeps it.

use crate::model::Sense;

/// Rows `Σ coef·x_col (sense) rhs` in compressed sparse row form: row `i`
/// holds `col[row_start[i]..row_start[i + 1]]`, with `coef` alongside.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Rows {
    row_start: Vec<usize>,
    col: Vec<usize>,
    coef: Vec<f64>,
    sense: Vec<Sense>,
    rhs: Vec<f64>,
}

impl Default for Rows {
    fn default() -> Rows {
        Rows::with_capacity(0, 0)
    }
}

/// One row of a [`Rows`] store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// Ascending, distinct columns.
    pub cols: &'a [usize],
    /// The nonzero coefficient of each column.
    pub coefs: &'a [f64],
    pub sense: Sense,
    pub rhs: f64,
}

impl Row<'_> {
    /// The `(column, coefficient)` terms in column order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols.iter().copied().zip(self.coefs.iter().copied())
    }

    /// How far `x` violates this row, when that exceeds the residual
    /// tolerance `1e-5 · (1 + max |coef| + |rhs|)`; `None` when the row holds.
    pub(crate) fn violation(&self, x: &[f64]) -> Option<f64> {
        let act: f64 = self.terms().map(|(j, c)| c * x[j]).sum();
        let scale = 1.0 + self.coefs.iter().map(|c| c.abs()).fold(0.0, f64::max) + self.rhs.abs();
        let viol = match self.sense {
            Sense::Le => act - self.rhs,
            Sense::Ge => self.rhs - act,
            Sense::Eq => (act - self.rhs).abs(),
        };
        (viol > 1e-5 * scale).then_some(viol)
    }
}

impl Rows {
    /// An empty store with room for `rows` rows of `nonzeros` coefficients.
    pub(crate) fn with_capacity(rows: usize, nonzeros: usize) -> Rows {
        let mut row_start = Vec::with_capacity(rows + 1);
        row_start.push(0);
        Rows {
            row_start,
            col: Vec::with_capacity(nonzeros),
            coef: Vec::with_capacity(nonzeros),
            sense: Vec::with_capacity(rows),
            rhs: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.sense.len()
    }

    /// Number of stored coefficients over all rows.
    pub(crate) fn nonzeros(&self) -> usize {
        self.col.len()
    }

    /// The column of every stored coefficient, row after row.
    pub(crate) fn columns(&self) -> &[usize] {
        &self.col
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> Row<'_> {
        let range = self.row_start[i]..self.row_start[i + 1];
        Row {
            cols: &self.col[range.clone()],
            coefs: &self.coef[range],
            sense: self.sense[i],
            rhs: self.rhs[i],
        }
    }

    /// Every row in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Appends a term to the row under construction. The caller keeps the
    /// row's columns ascending and distinct and its coefficients nonzero.
    pub(crate) fn push_term(&mut self, col: usize, coef: f64) {
        self.col.push(col);
        self.coef.push(coef);
    }

    /// Closes the row under construction with `sense` and `rhs`.
    pub(crate) fn finish_row(&mut self, sense: Sense, rhs: f64) {
        self.row_start.push(self.col.len());
        self.sense.push(sense);
        self.rhs.push(rhs);
    }

    /// Drops the terms of the row under construction.
    pub(crate) fn discard_row(&mut self) {
        let open = self.row_start[self.len()];
        self.col.truncate(open);
        self.coef.truncate(open);
    }

    /// Appends the row `Σ c·x_j (sense) rhs` of `terms` sorted by column:
    /// the coefficients of a repeated column are summed in order, and a
    /// sum of zero is dropped, exactly as [`Expr::compiled`] merges.
    ///
    /// [`Expr::compiled`]: crate::Expr::compiled
    pub(crate) fn push_merged(
        &mut self,
        terms: impl IntoIterator<Item = (usize, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        let open = self.row_start[self.len()];
        for (j, c) in terms {
            let len = self.col.len();
            if len > open && self.col[len - 1] == j {
                self.coef[len - 1] += c;
            } else {
                self.push_term(j, c);
            }
        }
        let mut kept = open;
        for k in open..self.col.len() {
            if self.coef[k] != 0.0 {
                self.col[kept] = self.col[k];
                self.coef[kept] = self.coef[k];
                kept += 1;
            }
        }
        self.col.truncate(kept);
        self.coef.truncate(kept);
        self.finish_row(sense, rhs);
    }

    /// The rows `i` with `keep(i)`, in order.
    pub(crate) fn filtered(&self, mut keep: impl FnMut(usize) -> bool) -> Rows {
        let mut out = Rows::default();
        for row in (0..self.len()).filter(|&i| keep(i)).map(|i| self.row(i)) {
            row.terms().for_each(|(j, c)| out.push_term(j, c));
            out.finish_row(row.sense, row.rhs);
        }
        out
    }

    /// Renumbers every stored column `j` to `map[j]`. The map must keep
    /// the columns of each row ascending.
    pub(crate) fn renumber(&mut self, map: &[usize]) {
        self.col.iter_mut().for_each(|j| *j = map[*j]);
    }
}

/// Rows from `(terms, sense, rhs)` triples in any term order, merged as
/// [`Rows::push_merged`] merges.
#[cfg(test)]
impl FromIterator<(Vec<(usize, f64)>, Sense, f64)> for Rows {
    fn from_iter<I: IntoIterator<Item = (Vec<(usize, f64)>, Sense, f64)>>(rows: I) -> Rows {
        let mut out = Rows::default();
        for (mut terms, sense, rhs) in rows {
            terms.sort_by_key(|&(j, _)| j);
            out.push_merged(terms, sense, rhs);
        }
        out
    }
}
