//! Error types for circuit construction and simulation.

use std::fmt;

/// Any error produced by this crate.
///
/// Implements [`std::error::Error`] and is `Send + Sync + 'static`, so it can
/// be boxed, wrapped and transported across threads freely.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The netlist itself is malformed (dangling node, duplicate element
    /// name, non-positive component value, ...).
    Netlist(String),
    /// The nonlinear solver failed to converge.
    Convergence {
        /// Human-readable description of which analysis failed.
        context: String,
        /// Newton iterations spent in the final attempt.
        iterations: usize,
    },
    /// The MNA matrix became singular (e.g. a floating node).
    Singular {
        /// Index of the pivot row where elimination broke down.
        row: usize,
    },
    /// An analysis was requested with invalid parameters (e.g. negative
    /// stop time).
    InvalidAnalysis(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Netlist(msg) => write!(f, "invalid netlist: {msg}"),
            Error::Convergence {
                context,
                iterations,
            } => write!(
                f,
                "newton iteration did not converge during {context} (after {iterations} iterations)"
            ),
            Error::Singular { row } => {
                write!(f, "singular MNA matrix at pivot row {row} (floating node?)")
            }
            Error::InvalidAnalysis(msg) => write!(f, "invalid analysis request: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<neurofi_solver::SolverError> for Error {
    fn from(e: neurofi_solver::SolverError) -> Error {
        match e {
            neurofi_solver::SolverError::Singular { row } => Error::Singular { row },
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::Netlist("resistor R1 has non-positive value".into());
        let msg = e.to_string();
        assert!(msg.starts_with("invalid netlist"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn convergence_display_mentions_context() {
        let e = Error::Convergence {
            context: "transient step".into(),
            iterations: 50,
        };
        assert!(e.to_string().contains("transient step"));
        assert!(e.to_string().contains("50"));
    }
}
