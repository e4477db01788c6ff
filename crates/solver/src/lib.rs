//! # neurofi-solver
//!
//! Dependency-free linear-solver engines for modified nodal analysis,
//! plus the deterministic DC homotopy schedules that surround them.
//!
//! The crate exists so `neurofi-spice` can scale past the paper's
//! ~25-unknown neuron cells to whole-layer netlists (hundreds of
//! neurons, supply-rail parasitics) without giving up the bit-exact
//! dense path those small circuits are regression-locked to:
//!
//! * [`LinearSolver`] — the stamping abstraction every analysis driver
//!   writes into. The dense `SolverWorkspace` in `neurofi-spice`
//!   implements it by forwarding to its existing partial-pivot LU, so
//!   the dense engine performs byte-for-byte the same floating-point
//!   operations as before this trait existed.
//! * [`sparse::SparseWorkspace`] — sparse CSC assembly with a
//!   hand-rolled right-looking LU using Markowitz pivoting. The stamp
//!   *pattern* is learned on the first assembly and frozen, so later
//!   Newton iterations scatter in O(1) per stamp; the pivot order and
//!   fill pattern from the first factorisation are reused by a
//!   KLU-style numeric refactorisation on every subsequent solve.
//! * [`homotopy`] — the gmin-stepping and source-stepping schedules
//!   used by robust DC operating-point solves, as deterministic value
//!   iterators.
//!
//! No external dependencies, no unordered collections, no clocks: the
//! crate is part of the workspace determinism zone enforced by
//! `repro-lint`.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod homotopy;
pub mod sparse;

pub use homotopy::{GminSchedule, SourceSchedule};
pub use sparse::SparseWorkspace;

use std::fmt;

/// Error from a linear solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// Elimination found no acceptable pivot at step `row` — in MNA
    /// terms almost always a floating node or a loop of ideal voltage
    /// sources.
    Singular {
        /// Elimination step (pivot row) where factorisation broke down.
        row: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Singular { row } => {
                write!(f, "singular matrix at pivot row {row}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Cumulative counters a [`LinearSolver`] keeps about its own work,
/// surfaced in transient results and in the repo benchmark's `solver.*`
/// metrics (`benchmark/`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// System dimension (number of unknowns).
    pub dim: usize,
    /// Structural nonzeros in the assembled matrix (dense engines
    /// report `dim²`).
    pub nnz: usize,
    /// Nonzeros in the L+U factors including the diagonal — `lu_nnz -
    /// nnz` is the fill-in (dense engines report `dim²`).
    pub lu_nnz: usize,
    /// Times the stamp pattern changed and symbolic state was rebuilt.
    pub pattern_rebuilds: u64,
    /// Full factorisations with fresh pivoting.
    pub full_factorizations: u64,
    /// Numeric-only refactorisations reusing the recorded pivot order
    /// and fill pattern.
    pub refactorizations: u64,
    /// Completed solves.
    pub solves: u64,
}

impl SolverStats {
    /// Fill-in ratio `lu_nnz / nnz` (1.0 means no fill; 0.0 when
    /// nothing has been assembled yet).
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            self.lu_nnz as f64 / self.nnz as f64
        }
    }
}

/// The stamping abstraction circuit analyses write into.
///
/// One Newton iteration is exactly: [`begin`](LinearSolver::begin),
/// a sequence of [`add`](LinearSolver::add) /
/// [`rhs_add`](LinearSolver::rhs_add) / [`rhs_set`](LinearSolver::rhs_set)
/// stamps, then [`solve`](LinearSolver::solve). Implementations may
/// exploit that the stamp sequence is identical across iterations of
/// the same analysis (the sparse engine freezes the pattern after the
/// first assembly); they must tolerate the sequence changing between
/// analyses (DC stamps differ from transient stamps).
pub trait LinearSolver {
    /// The system dimension this solver is sized for.
    fn dim(&self) -> usize;

    /// Starts a fresh assembly: conceptually zeroes the matrix and the
    /// right-hand side.
    fn begin(&mut self);

    /// Adds `value` to matrix entry (`row`, `col`) — the stamp
    /// operation.
    fn add(&mut self, row: usize, col: usize, value: f64);

    /// Adds `value` to right-hand-side entry `row`.
    fn rhs_add(&mut self, row: usize, value: f64);

    /// Overwrites right-hand-side entry `row` (used by branch
    /// constraint rows, which are stamped exactly once).
    fn rhs_set(&mut self, row: usize, value: f64);

    /// Factors the assembled matrix and solves it against the
    /// assembled right-hand side, returning the solution vector.
    ///
    /// # Errors
    /// [`SolverError::Singular`] when elimination finds no acceptable
    /// pivot.
    fn solve(&mut self) -> Result<&[f64], SolverError>;

    /// Cumulative work counters.
    fn stats(&self) -> SolverStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_mentions_row() {
        let e = SolverError::Singular { row: 7 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SolverError>();
    }

    #[test]
    fn fill_ratio_handles_empty() {
        assert_eq!(SolverStats::default().fill_ratio(), 0.0);
        let s = SolverStats {
            nnz: 10,
            lu_nnz: 15,
            ..Default::default()
        };
        assert!((s.fill_ratio() - 1.5).abs() < 1e-12);
    }
}
