//! Dense matrix storage and LU factorisation for modified nodal analysis.
//!
//! The neuron circuits in this workspace have at most a few dozen unknowns,
//! a regime where a cache-friendly dense partial-pivot LU outperforms any
//! sparse approach. The Jacobian and right-hand side live in a
//! [`SolverWorkspace`] owned by the analysis drivers (DC operating point,
//! DC sweep, transient): the buffers are allocated once per analysis and
//! re-stamped in place on every Newton iteration of every timestep —
//! each [`DenseMatrix`] is zeroed without reallocating, so the solver hot
//! loop performs no heap allocation at all.
//!
//! The workspace implements [`neurofi_solver::LinearSolver`] by pure
//! forwarding — `begin` is `reset` + `fill(0.0)`, `add` is the dense
//! stamp, `solve` is the in-place LU — so the trait-generic analysis
//! drivers in [`crate::circuit`] monomorphise to exactly the
//! floating-point operation sequence this engine has always performed,
//! keeping all regression-locked vectors byte-identical.

use crate::error::{Error, Result};
use neurofi_solver::{LinearSolver, SolverError, SolverStats};

/// Reusable Newton-solver scratch: the MNA Jacobian and RHS vector.
///
/// The analysis drivers construct one workspace per analysis and thread it
/// through every Newton solve, so repeated solves (sweep points, transient
/// timesteps, step-halving retries) reuse the same allocation.
#[derive(Debug, Clone)]
pub struct SolverWorkspace {
    /// The stamped/linearised system matrix.
    pub a: DenseMatrix,
    /// The right-hand side; [`DenseMatrix::solve_in_place`] overwrites it
    /// with the solution.
    pub rhs: Vec<f64>,
    /// Completed solves, for [`LinearSolver::stats`].
    solves: u64,
}

impl SolverWorkspace {
    /// Creates a workspace for systems of `n` unknowns.
    pub fn new(n: usize) -> SolverWorkspace {
        SolverWorkspace {
            a: DenseMatrix::new(n),
            rhs: vec![0.0; n],
            solves: 0,
        }
    }

    /// The system dimension this workspace is sized for.
    pub fn dim(&self) -> usize {
        self.a.dim()
    }
}

impl LinearSolver for SolverWorkspace {
    fn dim(&self) -> usize {
        self.a.dim()
    }

    fn begin(&mut self) {
        self.a.reset();
        self.rhs.fill(0.0);
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.a.add(row, col, value);
    }

    #[inline]
    fn rhs_add(&mut self, row: usize, value: f64) {
        self.rhs[row] += value;
    }

    #[inline]
    fn rhs_set(&mut self, row: usize, value: f64) {
        self.rhs[row] = value;
    }

    fn solve(&mut self) -> std::result::Result<&[f64], SolverError> {
        self.a.solve_in_place(&mut self.rhs).map_err(|e| match e {
            Error::Singular { row } => SolverError::Singular { row },
            // solve_in_place only reports singularity.
            _ => SolverError::Singular { row: 0 },
        })?;
        self.solves += 1;
        Ok(&self.rhs)
    }

    fn stats(&self) -> SolverStats {
        let n = self.a.dim();
        SolverStats {
            dim: n,
            nnz: n * n,
            lu_nnz: n * n,
            pattern_rebuilds: 0,
            full_factorizations: self.solves,
            refactorizations: 0,
            solves: self.solves,
        }
    }
}

/// A dense, row-major square matrix used as the MNA Jacobian.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n`×`n` zero matrix.
    pub fn new(n: usize) -> DenseMatrix {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Zeroes every entry without reallocating.
    fn reset(&mut self) {
        self.data.fill(0.0);
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Adds `value` to the entry at (`row`, `col`) — the *stamp* operation.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Overwrites the entry at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Solves `A·x = b` in place (`b` becomes `x`) by partial-pivot Gaussian
    /// elimination, destroying the matrix contents.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] when no acceptable pivot exists, which in
    /// circuit terms almost always means a floating node or a loop of ideal
    /// voltage sources.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<()> {
        assert_eq!(b.len(), self.n, "rhs length must equal matrix dimension");
        let n = self.n;
        for col in 0..n {
            // Partial pivoting: pick the largest magnitude in this column.
            let mut pivot_row = col;
            let mut pivot_mag = self.get(col, col).abs();
            for row in (col + 1)..n {
                let mag = self.get(row, col).abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1.0e-300 {
                return Err(Error::Singular { row: col });
            }
            if pivot_row != col {
                for k in 0..n {
                    self.data.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let pivot = self.get(col, col);
            for row in (col + 1)..n {
                let factor = self.get(row, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                // Row update: row := row - factor * pivot_row.
                let (pivot_slice, row_slice) = {
                    let (head, tail) = self.data.split_at_mut(row * n);
                    (&head[col * n + col..col * n + n], &mut tail[col..n])
                };
                for (r, p) in row_slice.iter_mut().zip(pivot_slice.iter()) {
                    *r -= factor * p;
                }
                b[row] -= factor * b[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = b[col];
            for (k, bk) in b.iter().enumerate().take(n).skip(col + 1) {
                acc -= self.get(col, k) * bk;
            }
            b[col] = acc / self.get(col, col);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(a: &[&[f64]], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut m = DenseMatrix::new(n);
        for (i, row) in a.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                m.set(i, j, *v);
            }
        }
        let mut x = b.to_vec();
        m.solve_in_place(&mut x).unwrap();
        x
    }

    #[test]
    fn solves_identity() {
        let x = solve(&[&[1.0, 0.0], &[0.0, 1.0]], &[3.0, -4.0]);
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2() {
        // 2x + y = 5; x - y = 1  => x = 2, y = 1
        let x = solve(&[&[2.0, 1.0], &[1.0, -1.0]], &[5.0, 1.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry zero; naive elimination would divide by zero.
        let x = solve(&[&[0.0, 1.0], &[1.0, 0.0]], &[2.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = DenseMatrix::new(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut b),
            Err(Error::Singular { .. })
        ));
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = DenseMatrix::new(3);
        m.add(1, 2, 5.0);
        m.reset();
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn stamps_accumulate() {
        let mut m = DenseMatrix::new(2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs build the matrix
    fn larger_system_roundtrip() {
        // Build a random-ish diagonally dominant system, solve, verify Ax=b.
        let n = 12;
        let mut a = vec![vec![0.0f64; n]; n];
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            let mut rowsum = 0.0;
            for j in 0..n {
                if i != j {
                    a[i][j] = next();
                    rowsum += a[i][j].abs();
                }
            }
            a[i][i] = rowsum + 1.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[i][j] * x_true[j]).sum())
            .collect();
        let rows: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let x = solve(&rows, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
