//! Property-based tests over the sparse substrate's core invariants.

use dooc_sparse::{blockgrid::BlockGrid, fileio, genmat::GapGenerator, CsrMatrix};
use proptest::prelude::*;

/// Strategy producing an arbitrary valid CSR matrix via triplets.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1u64..40, 1u64..40).prop_flat_map(|(nr, nc)| {
        let triplet = (0..nr, 0..nc, -100.0f64..100.0);
        proptest::collection::vec(triplet, 0..200)
            .prop_map(move |ts| CsrMatrix::from_triplets(nr, nc, &ts).expect("triplets in bounds"))
    })
}

proptest! {
    #[test]
    fn file_roundtrip_identity(m in arb_matrix()) {
        let bytes = fileio::to_bytes(&m);
        let back = fileio::from_bytes(&bytes).expect("valid encoding");
        prop_assert_eq!(m, back);
    }

    #[test]
    fn transpose_involution(m in arb_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn spmv_linear_in_x(m in arb_matrix(), alpha in -10.0f64..10.0) {
        let n = m.ncols() as usize;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let ax: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let y1 = m.spmv(&ax).expect("dims");
        let mut y2 = m.spmv(&x).expect("dims");
        for v in &mut y2 { *v *= alpha; }
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn spmv_transpose_adjoint(m in arb_matrix()) {
        // <A x, y> == <x, A^T y>
        let x: Vec<f64> = (0..m.ncols() as usize).map(|i| (i as f64 + 1.0).ln()).collect();
        let y: Vec<f64> = (0..m.nrows() as usize).map(|i| (i as f64 * 0.9).sin()).collect();
        let ax = m.spmv(&x).expect("dims");
        let aty = m.transpose().spmv(&y).expect("dims");
        let lhs = dooc_sparse::dense::dot(&ax, &y);
        let rhs = dooc_sparse::dense::dot(&x, &aty);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * lhs.abs().max(1.0));
    }

    #[test]
    fn grid_cut_preserves_nnz(k in 1u64..5, extra in 0u64..17) {
        let n = k * 4 + extra;
        let m = GapGenerator::with_d(2).generate(n, n, 99);
        let grid = BlockGrid::new(k, n);
        let blocks = grid.cut(&m).expect("cut");
        let total: u64 = blocks.iter().map(|(_, b)| b.nnz()).sum();
        prop_assert_eq!(total, m.nnz());
    }

    #[test]
    fn generator_gaps_in_range(d in 1u64..8, seed in 0u64..1000) {
        let m = GapGenerator::with_d(d).generate(30, 100, seed);
        for r in 0..m.nrows() as usize {
            let (s, e) = (m.row_ptr()[r] as usize, m.row_ptr()[r + 1] as usize);
            for w in m.col_idx()[s..e].windows(2) {
                prop_assert!(w[1] - w[0] >= 1 && w[1] - w[0] <= 2 * d);
            }
        }
    }

    #[test]
    fn generating_into_a_used_matrix_is_generate(
        rows in 0u64..60,
        cols in 0u64..80,
        d in 1u64..9,
        seed in 0u64..1000,
        before in (0u64..60, 0u64..80),
    ) {
        // The matrix first holds another shape's arrays, larger or smaller.
        let gen = GapGenerator::with_d(d);
        let mut m = gen.generate(before.0, before.1, seed ^ 0x5a5a);
        gen.generate_into(rows, cols, seed, &mut m);
        prop_assert_eq!(m, gen.generate(rows, cols, seed));
    }

    #[test]
    fn balanced_partition_is_monotone_cover(m in arb_matrix(), p in 1usize..8) {
        let b = m.nnz_balanced_row_partition(p);
        prop_assert_eq!(b[0], 0);
        prop_assert_eq!(*b.last().unwrap(), m.nrows());
        prop_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }
}
