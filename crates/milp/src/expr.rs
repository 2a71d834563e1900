//! Linear expressions.

use std::fmt;

use crate::model::VarId;

/// Terms an [`Expr`] holds without a heap allocation: every row of the
/// layout models fits.
const INLINE: usize = 4;

/// A linear expression `Σ cᵢ·xᵢ + constant`.
///
/// Built incrementally with [`Expr::term`]; duplicate variables are merged
/// when the expression is compiled into a constraint row. The first few
/// terms are held inline, so building a short row allocates nothing.
///
/// # Examples
///
/// ```
/// use columba_milp::{Expr, Model};
///
/// let mut m = Model::new();
/// let x = m.num_var(0.0, 1.0);
/// let e = Expr::new().term(2.0, x).term(3.0, x).plus(1.0);
/// assert_eq!(e.constant(), 1.0);
/// assert_eq!(e.compiled().as_slice(), &[(x, 5.0)]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Expr {
    /// The terms while there are at most [`INLINE`] of them; the slots
    /// past them keep their default, so derived equality compares terms.
    inline: [(VarId, f64); INLINE],
    /// Every term once there are more.
    spill: Vec<(VarId, f64)>,
    len: usize,
    constant: f64,
}

impl Default for Expr {
    fn default() -> Expr {
        Expr {
            inline: [(VarId(0), 0.0); INLINE],
            spill: Vec::new(),
            len: 0,
            constant: 0.0,
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Expr")
            .field("terms", &self.terms())
            .field("constant", &self.constant)
            .finish()
    }
}

impl Expr {
    /// Creates the zero expression.
    #[must_use]
    pub fn new() -> Expr {
        Expr::default()
    }

    /// Adds `coefficient · var` and returns the updated expression.
    #[must_use]
    pub fn term(mut self, coefficient: f64, var: VarId) -> Expr {
        self.push(var, coefficient);
        self
    }

    fn push(&mut self, var: VarId, coefficient: f64) {
        if self.len < INLINE {
            self.inline[self.len] = (var, coefficient);
        } else {
            if self.len == INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push((var, coefficient));
        }
        self.len += 1;
    }

    /// Adds a constant offset and returns the updated expression.
    #[must_use]
    pub fn plus(mut self, constant: f64) -> Expr {
        self.constant += constant;
        self
    }

    /// Adds every term of `other` (and its constant) to this expression.
    #[must_use]
    pub fn add_expr(mut self, other: &Expr) -> Expr {
        for &(v, c) in other.terms() {
            self.push(v, c);
        }
        self.constant += other.constant;
        self
    }

    /// The constant offset.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The raw (unmerged) terms in insertion order.
    #[must_use]
    pub fn terms(&self) -> &[(VarId, f64)] {
        match self.len <= INLINE {
            true => &self.inline[..self.len],
            false => &self.spill,
        }
    }

    /// The terms sorted by variable id, in place; equal ids keep their
    /// insertion order. A short expression sorts without allocating.
    pub(crate) fn sorted_terms(&mut self) -> &[(VarId, f64)] {
        let terms = match self.len <= INLINE {
            true => &mut self.inline[..self.len],
            false => &mut self.spill[..],
        };
        terms.sort_by_key(|&(v, _)| v);
        terms
    }

    /// The terms with duplicate variables merged, zero coefficients dropped,
    /// sorted by variable id.
    #[must_use]
    pub fn compiled(&self) -> Vec<(VarId, f64)> {
        let mut terms = self.terms().to_vec();
        terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        out
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.compiled() {
            if first {
                write!(f, "{c}*{v}")?;
                first = false;
            } else if c < 0.0 {
                write!(f, " - {}*{v}", -c)?;
            } else {
                write!(f, " + {c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0.0 {
            if self.constant < 0.0 {
                write!(f, " - {}", -self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::new().term(1.0, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    #[test]
    fn merging_and_zero_elimination() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let y = m.num_var(0.0, 1.0);
        let e = Expr::new().term(1.0, y).term(2.0, x).term(-1.0, y);
        assert_eq!(e.compiled(), vec![(x, 2.0)]);
    }

    #[test]
    fn add_expr_combines_constants() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let a = Expr::new().term(1.0, x).plus(2.0);
        let b = Expr::new().term(3.0, x).plus(-1.0);
        let c = a.add_expr(&b);
        assert_eq!(c.constant(), 1.0);
        assert_eq!(c.compiled(), vec![(x, 4.0)]);
    }

    #[test]
    fn from_var_is_identity_term() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let e: Expr = x.into();
        assert_eq!(e.compiled(), vec![(x, 1.0)]);
    }

    #[test]
    fn display_is_readable() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0);
        let y = m.num_var(0.0, 1.0);
        let e = Expr::new().term(1.0, x).term(-2.0, y).plus(3.0);
        let s = e.to_string();
        assert!(s.contains("- 2"));
        assert!(s.contains("+ 3"));
        assert_eq!(Expr::new().to_string(), "0");
    }
}
