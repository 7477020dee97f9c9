//! Property tests for the unrolled compute kernels: the 8-wide dense kernels
//! and the pool's SpMV and slab-sum fan-outs must match their scalar
//! references — bitwise where the element math is unchanged (axpy/axpby, any
//! row partition of SpMV, any slab partition of a sum), ULP-bounded where
//! the kernel reassociates a reduction (dot/norm2) — across sizes, offsets
//! ("strides" into a larger buffer) and remainder lengths.

use bytes::Bytes;
use dooc_sparse::{dense, slab::SlabVec, ComputePool, CsrMatrix};
use proptest::prelude::*;
use std::sync::Arc;

/// Relative ULP-style bound for reassociated reductions: the unrolled and
/// reference sums differ only in association over <= ~2^20 terms of bounded
/// magnitude, so a few hundred ULPs of the result is generous.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-12 * scale.max(1.0)
}

/// Strategy producing a vector length that exercises every unroll remainder
/// (0..=7 mod 8) plus an offset to start the kernel mid-buffer.
fn arb_len_off() -> impl Strategy<Value = (usize, usize)> {
    (0usize..300, 0usize..9)
}

fn wave(n: usize, f: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * f).sin() * 3.0).collect()
}

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
    fn unrolled_dot_matches_reference((n, off) in arb_len_off(), f in 0.1f64..2.0) {
        let x = wave(n + off, f);
        let y = wave(n + off, f * 0.7 + 0.05);
        let (xs, ys) = (&x[off..], &y[off..]);
        let d = dense::dot(xs, ys);
        let r = dense::dot_ref(xs, ys);
        let scale: f64 = xs.iter().zip(ys).map(|(a, b)| (a * b).abs()).sum();
        prop_assert!(close(d, r, scale), "dot {d} vs ref {r} (n={n}, off={off})");
    }

    #[test]
    fn unrolled_norm2_matches_reference((n, off) in arb_len_off(), f in 0.1f64..2.0) {
        let x = wave(n + off, f);
        let xs = &x[off..];
        prop_assert!(close(dense::norm2(xs), dense::norm2_ref(xs), dense::norm2_ref(xs)));
    }

    #[test]
    fn unrolled_axpy_is_bitwise((n, off) in arb_len_off(), alpha in -5.0f64..5.0) {
        let x = wave(n + off, 0.37);
        let y = wave(n + off, 0.11);
        let mut y1 = y.clone();
        let mut y2 = y;
        dense::axpy(alpha, &x[off..], &mut y1[off..]);
        dense::axpy_ref(alpha, &x[off..], &mut y2[off..]);
        prop_assert_eq!(y1, y2);
    }

    #[test]
    fn unrolled_axpby_is_bitwise(
        (n, off) in arb_len_off(),
        alpha in -5.0f64..5.0,
        beta in -5.0f64..5.0,
    ) {
        let x = wave(n + off, 0.53);
        let y = wave(n + off, 0.19);
        let mut y1 = y.clone();
        let mut y2 = y;
        dense::axpby(alpha, &x[off..], beta, &mut y1[off..]);
        dense::axpby_ref(alpha, &x[off..], beta, &mut y2[off..]);
        prop_assert_eq!(y1, y2);
    }

    #[test]
    fn pool_fork_join_spmv_is_bitwise(m in arb_matrix(), par in 1usize..6) {
        let m = Arc::new(m);
        let x = Arc::new(wave(m.ncols() as usize, 0.3));
        let serial = m.spmv(&x).expect("dims");
        let pool = ComputePool::new(2);
        let mut y = vec![0.0; m.nrows() as usize];
        pool.spmv_fanout(&m, &x, &mut y, par);
        prop_assert_eq!(y, serial);
    }

    /// The slab fan-out every `sum` task takes: slabs moved out, summed on
    /// workers and restored must give the bits of the contiguous sum.
    #[test]
    fn pool_slab_sum_is_bitwise(
        (n, off) in arb_len_off(),
        slab_len in 1usize..40,
        par in 1usize..5,
    ) {
        let n = n + off; // plain length; slabs handle their own partitioning
        let x = wave(n, 0.41);
        let xle = Bytes::from(x.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        let y = wave(n, 0.23);
        let mut reference = y.clone();
        dense::add_assign(&mut reference, &x);
        let pool = ComputePool::new(2);
        let mut s = SlabVec::from_vec(y, slab_len);
        pool.add_le_slabs_fanout(&xle, &mut s, par);
        prop_assert_eq!(s.to_vec(), reference);
    }
}
