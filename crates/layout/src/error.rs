//! Layout errors.

use std::fmt;

use columba_milp::SolveError;
use columba_netlist::NetlistError;

/// Error raised during physical synthesis.
#[derive(Debug)]
pub enum LayoutError {
    /// The input netlist is not planarized (run `columba_planar::planarize`
    /// first) or otherwise invalid.
    Netlist(NetlistError),
    /// A connection cannot be realised under the straight routing
    /// discipline (e.g. it joins two right-facing pins).
    Unroutable(String),
    /// The layout-generation MILP failed: numerically, or no feasible
    /// placement was found within the budgets.
    Milp {
        /// What the layout layer concluded.
        message: String,
        /// The solver error, preserved structurally when one occurred.
        source: Option<SolveError>,
    },
    /// The placement model is *proven* infeasible (typically a chip size
    /// budget too small for the design). Carries the conflicting
    /// constraint groups found by deletion-filter diagnosis.
    Infeasible {
        /// Names of the conflicting paper-equation constraint groups
        /// (empty when the diagnosis probe was inconclusive or failed).
        conflict: Vec<String>,
        /// Human-readable explanation.
        detail: String,
    },
    /// Internal inconsistency while restoring the layout.
    Restore(String),
}

impl LayoutError {
    /// A [`LayoutError::Milp`] with no underlying solver error.
    pub(crate) fn milp(message: impl Into<String>) -> LayoutError {
        LayoutError::Milp {
            message: message.into(),
            source: None,
        }
    }
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Netlist(e) => write!(f, "netlist not ready for synthesis: {e}"),
            LayoutError::Unroutable(m) => write!(f, "unroutable connection: {m}"),
            LayoutError::Milp { message, .. } => write!(f, "layout generation failed: {message}"),
            LayoutError::Infeasible { detail, .. } => {
                write!(f, "layout MILP proven infeasible: {detail}")
            }
            LayoutError::Restore(m) => write!(f, "layout validation failed: {m}"),
        }
    }
}

impl std::error::Error for LayoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LayoutError::Netlist(e) => Some(e),
            LayoutError::Milp {
                source: Some(e), ..
            } => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for LayoutError {
    fn from(e: NetlistError) -> LayoutError {
        LayoutError::Netlist(e)
    }
}

impl From<SolveError> for LayoutError {
    fn from(e: SolveError) -> LayoutError {
        LayoutError::Milp {
            message: e.to_string(),
            source: Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = LayoutError::from(NetlistError::Invalid("x".into()));
        assert!(e.to_string().contains("not ready"));
        assert!(e.source().is_some());
        assert!(LayoutError::Unroutable("a->b".into())
            .to_string()
            .contains("a->b"));
        assert!(LayoutError::milp("m").source().is_none());
    }

    #[test]
    fn solve_error_survives_as_structured_source() {
        use std::error::Error as _;
        let e = LayoutError::from(SolveError::Numerical("cycling guard".into()));
        let src = e.source().expect("solver error preserved");
        let solver: &SolveError = src.downcast_ref().expect("still a SolveError");
        assert_eq!(*solver, SolveError::Numerical("cycling guard".into()));
        assert!(e.to_string().contains("cycling guard"));
    }

    #[test]
    fn infeasible_carries_the_conflict() {
        let e = LayoutError::Infeasible {
            conflict: vec!["chip confinement (eq 2)".into()],
            detail: "chip confinement (eq 2) cannot hold".into(),
        };
        assert!(e.to_string().contains("proven infeasible"), "{e}");
        assert!(e.to_string().contains("eq 2"), "{e}");
    }
}
