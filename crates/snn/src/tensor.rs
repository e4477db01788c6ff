//! Minimal dense-matrix kernels for spike-driven networks.
//!
//! Spiking networks need very few linear-algebra primitives, but they need
//! them in the right access pattern. Spikes are sparse, so every per-step
//! operation is driven by a list of neuron indices and walks whole rows of
//! the row-major `[pre][post]` layout: the forward pass accumulates the
//! rows of spiking presynaptic neurons into a postsynaptic current vector
//! ([`Matrix::add_row_into`]), and STDP rewrites the rows of spiking and
//! traced presynaptic neurons in place ([`Matrix::row_mut`]). No per-step
//! operation walks a column; only the once-per-sample normalisation and
//! clamp sweep the whole matrix.

/// Row-major `f32` matrix with `rows` presynaptic and `cols` postsynaptic
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows (presynaptic neurons).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (postsynaptic neurons).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Element mutation.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Immutable view of one row.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// `out[c] += gain * self[row][c]` — the spike-propagation kernel.
    ///
    /// # Panics
    /// Panics if `out.len() != cols` or `row` is out of bounds.
    #[inline]
    pub fn add_row_into(&self, row: usize, gain: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "output length mismatch");
        for (o, w) in out.iter_mut().zip(self.row(row)) {
            *o += gain * w;
        }
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp_all(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "invalid clamp range");
        for w in &mut self.data {
            *w = w.clamp(lo, hi);
        }
    }

    /// Sum of each column (total incoming weight per postsynaptic neuron).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (s, w) in sums.iter_mut().zip(self.row(r)) {
                *s += *w;
            }
        }
        sums
    }

    /// Rescales each column so its sum equals `target` (columns with zero
    /// sum are left untouched) — Diehl&Cook weight normalisation.
    pub fn normalize_columns(&mut self, target: f32) {
        let sums = self.column_sums();
        let scales: Vec<f32> = sums
            .iter()
            .map(|&s| {
                if s.abs() > f32::EPSILON {
                    target / s
                } else {
                    1.0
                }
            })
            .collect();
        for r in 0..self.rows {
            for (w, scale) in self.row_mut(r).iter_mut().zip(&scales) {
                *w *= scale;
            }
        }
    }

    /// The raw data slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// The indices of the entries of `values` that `keep` accepts, ascending:
/// the index list a dense spike or trace vector stands for. Sixteen
/// entries are tested at once first, in a pass that vectorises, so a
/// sparse vector's silent stretches cost little more than their loads.
pub(crate) fn indices<'a>(
    values: &'a [f32],
    keep: impl Fn(f32) -> bool + Copy + 'a,
) -> impl Iterator<Item = usize> + 'a {
    const CHUNK: usize = 16;
    values
        .chunks(CHUNK)
        .enumerate()
        .filter(move |(_, chunk)| chunk.iter().fold(false, |any, &v| any | keep(v)))
        .flat_map(move |(c, chunk)| {
            (0..chunk.len())
                .filter(move |&k| keep(chunk[k]))
                .map(move |k| c * CHUNK + k)
        })
}

/// In-place exponential decay toward zero: `x *= factor` for every entry.
/// Shared by membrane traces; `factor = exp(-dt/tau)`.
#[inline]
pub fn decay(values: &mut [f32], factor: f32) {
    for v in values {
        *v *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn add_row_into_accumulates() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let mut out = vec![1.0f32; 3];
        m.add_row_into(1, 2.0, &mut out);
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn clamp() {
        let mut m = Matrix::from_fn(1, 4, |_, c| c as f32 - 1.5);
        m.clamp_all(0.0, 1.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalization_hits_target() {
        let mut m = Matrix::from_fn(4, 2, |r, _| (r + 1) as f32);
        m.normalize_columns(5.0);
        let sums = m.column_sums();
        for s in sums {
            assert!((s - 5.0).abs() < 1e-5);
        }
    }

    #[test]
    fn normalization_skips_zero_columns() {
        let mut m = Matrix::zeros(3, 2);
        m.set(0, 0, 2.0);
        m.normalize_columns(4.0);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.column_sums()[1], 0.0);
    }

    #[test]
    fn normalization_is_idempotent() {
        let mut m = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) % 7) as f32 * 0.1 + 0.05);
        m.normalize_columns(2.0);
        let once = m.clone();
        m.normalize_columns(2.0);
        for (a, b) in m.as_slice().iter().zip(once.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn indices_list_the_kept_entries_across_chunks() {
        let values: Vec<f32> = (0..40)
            .map(|i| if i % 7 == 3 { 1.0 } else { 0.0 })
            .collect();
        let listed: Vec<usize> = indices(&values, |v| v > 0.0).collect();
        assert_eq!(listed, [3, 10, 17, 24, 31, 38]);
        assert_eq!(indices(&[], |v| v > 0.0).count(), 0);
        assert_eq!(indices(&[2.0; 33], |v| v > 0.0).count(), 33);
    }

    #[test]
    fn decay_shrinks() {
        let mut v = vec![2.0f32, -4.0];
        decay(&mut v, 0.5);
        assert_eq!(v, vec![1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_rejected() {
        Matrix::zeros(0, 3);
    }
}
