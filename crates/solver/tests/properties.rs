//! Property-based tests of the solver crate: the sparse LU's residuals
//! under pattern reuse.

use proptest::prelude::*;

use neurofi_solver::{LinearSolver, SparseWorkspace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse LU solves random diagonally-dominant systems to tight
    /// residuals, including re-solves that exercise the frozen-pattern
    /// refactorisation path.
    #[test]
    fn sparse_lu_residual_small_with_pattern_reuse(
        n in 2usize..24,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // Random banded-ish sparse system: diagonal plus a few
        // off-diagonals per row.
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            let mut sum = 0.0;
            for dj in 1..4usize {
                let j = (i + dj * 3) % n;
                if j != i {
                    let v = next();
                    entries.push((i, j, v));
                    sum += v.abs();
                }
            }
            entries.push((i, i, sum + 1.0 + next().abs()));
        }
        let mut ws = SparseWorkspace::new(n);
        for round in 0..2 {
            // Second round: same pattern, perturbed values (refactor path).
            let scale = 1.0 + 0.25 * round as f64;
            ws.begin();
            for &(i, j, v) in &entries {
                ws.add(i, j, if i == j { v * scale } else { v });
            }
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            for (i, &bi) in b.iter().enumerate() {
                ws.rhs_add(i, bi);
            }
            let x = ws.solve().unwrap().to_vec();
            for (i, &bi) in b.iter().enumerate() {
                let mut row = 0.0;
                for &(r, c, v) in &entries {
                    if r == i {
                        row += if r == c { v * scale } else { v } * x[c];
                    }
                }
                prop_assert!((row - bi).abs() < 1e-8, "residual {} at row {i}", row - bi);
            }
        }
        let stats = ws.stats();
        prop_assert_eq!(stats.solves, 2);
        prop_assert_eq!(stats.pattern_rebuilds, 1);
        prop_assert_eq!(stats.refactorizations, 1);
    }
}
