//! Property tests for the unrolled compute kernels: the 8-wide dense kernels
//! and the pool's SpMV and sum fan-outs must match their scalar references —
//! bitwise where the element math is unchanged (axpy/axpby, any row
//! partition of SpMV, any chunking of a sum), ULP-bounded where the kernel
//! reassociates a reduction (dot/norm2) — across sizes, offsets ("strides"
//! into a larger buffer) and remainder lengths.

use dooc_sparse::pool::{add_le_fanout, spmv_fanout};
use dooc_sparse::{dense, CsrMatrix};
use proptest::prelude::*;

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
    fn pool_fork_join_spmv_is_bitwise(m in arb_matrix(), par in 1usize..7) {
        let x = wave(m.ncols() as usize, 0.3);
        let serial = m.spmv(&x).expect("dims");
        let mut y = vec![0.0; m.nrows() as usize];
        spmv_fanout(m.view(), &x, &mut y, par).expect("dims");
        prop_assert_eq!(y, serial);
    }

    /// The split every long `sum` takes: `y` (as `f64`s or as its stored
    /// bytes) and the bytes of `x`, at any offset into their buffers, cut
    /// into equal chunks and summed on scoped threads, must give the bits
    /// of the contiguous sum — `-0.0` and NaN payloads included.
    #[test]
    fn pool_sum_fanout_is_bitwise(
        (n, off) in arb_len_off(),
        xoff in 0usize..8,
        par in 1usize..7,
    ) {
        let mut x = wave(n, 0.41);
        if n > 2 {
            x[0] = -0.0;
            x[n / 2] = f64::from_bits(0x7ff8_0000_dead_beef);
            x[n - 1] = f64::from_bits(0xfff0_0000_0000_0001);
        }
        let mut xbuf = vec![0xEEu8; xoff];
        xbuf.extend(x.iter().flat_map(|v| v.to_le_bytes()));
        let mut y = wave(n + off, 0.23);
        if n > 0 {
            y[off] = -0.0;
        }
        let mut reference = y.clone();
        dense::add_assign(&mut reference[off..], &x);
        // `y` as the bytes a sum accumulates in, at an odd address for
        // odd `xoff`, too.
        let mut ybuf = vec![0xEEu8; xoff];
        ybuf.extend(y[off..].iter().flat_map(|v| v.to_le_bytes()));
        add_le_fanout(ybuf[xoff..].as_chunks_mut::<8>().0, &xbuf[xoff..], par);
        add_le_fanout(&mut y[off..], &xbuf[xoff..], par);
        prop_assert_eq!(bits(&y), bits(&reference));
        let as_bytes: Vec<u8> = reference[off..].iter().flat_map(|v| v.to_le_bytes()).collect();
        prop_assert_eq!(&ybuf[xoff..], &as_bytes[..]);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
