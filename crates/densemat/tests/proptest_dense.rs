//! Property tests for the dense substrate: the blocked GEMM agrees with
//! the naive reference on arbitrary shapes, partitions tile exactly, and
//! block serialization round-trips.

use proptest::prelude::*;

use ovcomm_densemat::{gemm, gemm_naive, symmetric_with_spectrum, BlockGrid, Matrix, Partition1D};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-100.0..100.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| (((i * 31 + j * 17) as u64 + seed) % 100) as f64 / 9.0 - 5.0);
        let b = Matrix::from_fn(k, n, |i, j| (((i * 13 + j * 37) as u64 + seed) % 100) as f64 / 9.0 - 5.0);
        let fast = gemm(&a, &b);
        let slow = gemm_naive(&a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-8);
    }

    #[test]
    fn gemm_distributes_over_addition(ab in matrix(20, 20), c in matrix(20, 20)) {
        // (A + C)·A = A·A + C·A
        let mut sum = ab.clone();
        sum.axpy(1.0, &c);
        let lhs = gemm(&sum, &ab);
        let mut rhs = gemm(&ab, &ab);
        rhs.axpy(1.0, &gemm(&c, &ab));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-7);
    }

    #[test]
    fn partition_tiles_exactly(n in 0usize..10_000, p in 1usize..64) {
        let part = Partition1D::new(n, p);
        let mut next = 0;
        for i in 0..p {
            let (s, l) = part.range(i);
            prop_assert_eq!(s, next);
            next = s + l;
            prop_assert!(l <= part.max_len());
            prop_assert!(part.max_len() - l <= 1, "balanced within 1");
        }
        prop_assert_eq!(next, n);
    }

    #[test]
    fn grid_extract_assemble_roundtrip(n in 1usize..40, p in 1usize..6, seed in 0u64..100) {
        prop_assume!(p <= n);
        let grid = BlockGrid::new(n, p);
        let m = Matrix::from_fn(n, n, |i, j| ((i * n + j) as u64 + seed) as f64);
        let blocks: Vec<Matrix> = (0..p * p)
            .map(|idx| grid.extract(&m, idx / p, idx % p))
            .collect();
        let back = grid.assemble(&blocks);
        prop_assert_eq!(back.max_abs_diff(&m), 0.0);
    }

    #[test]
    fn spectrum_construction_preserves_invariants(
        eigs in prop::collection::vec(-50.0..50.0f64, 2..24),
        seed in 0u64..200,
    ) {
        let h = symmetric_with_spectrum(&eigs, seed);
        prop_assert!(h.is_symmetric(1e-8));
        let tr: f64 = eigs.iter().sum();
        prop_assert!((h.trace() - tr).abs() < 1e-6 * (1.0 + tr.abs()));
        let frob: f64 = eigs.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((h.frob_norm() - frob).abs() < 1e-6 * (1.0 + frob));
    }

    #[test]
    fn transpose_is_involution(m in 1usize..25, n in 1usize..25, seed in 0u64..50) {
        let a = Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 5) as u64 + seed) as f64);
        prop_assert_eq!(a.transpose().transpose().max_abs_diff(&a), 0.0);
    }
}
