//! Dense vector kernels.
//!
//! The Lanczos procedure's cost is "dominated by the associated sparse matrix
//! vector multiplications (SpMV) and (to a smaller extent) orthonormalization
//! of Lanczos vectors" (§II) — the orthonormalization is built from these
//! axpy/dot/norm kernels. They are serial; the compute pool
//! ([`crate::ComputePool`]) splits a long sum across threads.

use crate::csr::ElemMut;

/// Below this many elements the pool's sum ([`crate::ComputePool::add_le`])
/// runs inline on the caller. Its last calibration, on a 2-vCPU x86-64
/// host, had an AXPY split across threads ahead of the serial loop in every
/// run at 1 048 576 elements (1.4-1.8x) and in five of six at 262 144
/// (DESIGN.md, "Serial routing and the one-core collapse"), so the
/// crossover lies far below this value.
/// Moving it is a performance change for the end-to-end benchmark to judge,
/// not a constant to retune from a micro-benchmark.
pub const AXPY_SERIAL_MAX: usize = 4_194_304;

/// Reference `y += alpha * x`: the plain scalar loop the unrolled kernel is
/// property-tested against. AXPY has no cross-iteration dependence, so the
/// unrolled kernel is **bitwise** identical to this.
pub fn axpy_ref(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x`, unrolled 8-wide.
///
/// Each lane is an independent fused statement on fixed-size chunks
/// (`chunks_exact`), which is the shape the autovectorizer turns into
/// packed mul-adds without a `std::simd` dependency. Element math is
/// identical to [`axpy_ref`] (no reassociation), so results are bitwise
/// equal for every length and remainder.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal length");
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (ys, xs) in (&mut yc).zip(&mut xc) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
        ys[4] += alpha * xs[4];
        ys[5] += alpha * xs[5];
        ys[6] += alpha * xs[6];
        ys[7] += alpha * xs[7];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// Reference `y = alpha * x + beta * y` (see [`axpy_ref`]); the unrolled
/// kernel is bitwise identical.
pub fn axpby_ref(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby operands must have equal length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// `y = alpha * x + beta * y`, unrolled 8-wide (same lane structure as
/// [`axpy`]; bitwise equal to [`axpby_ref`]).
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby operands must have equal length");
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (ys, xs) in (&mut yc).zip(&mut xc) {
        ys[0] = alpha * xs[0] + beta * ys[0];
        ys[1] = alpha * xs[1] + beta * ys[1];
        ys[2] = alpha * xs[2] + beta * ys[2];
        ys[3] = alpha * xs[3] + beta * ys[3];
        ys[4] = alpha * xs[4] + beta * ys[4];
        ys[5] = alpha * xs[5] + beta * ys[5];
        ys[6] = alpha * xs[6] + beta * ys[6];
        ys[7] = alpha * xs[7] + beta * ys[7];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// Reference dot product: one running sum in index order. The unrolled
/// kernel reassociates, so it matches this to an ULP bound, not bitwise
/// (property-tested in `tests/kernel_proptests.rs`).
pub fn dot_ref(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot operands must have equal length");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Dot product `xᵀ y`, unrolled 8-wide with eight independent accumulators.
///
/// A single running sum serializes on the add latency (~4 cycles) and blocks
/// vectorization; eight separate accumulators expose the independent chains
/// the autovectorizer needs. The combine order (pairwise, then the scalar
/// tail) is fixed, so the result is deterministic for a given length.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot operands must have equal length");
    let mut a0 = 0.0f64;
    let mut a1 = 0.0f64;
    let mut a2 = 0.0f64;
    let mut a3 = 0.0f64;
    let mut a4 = 0.0f64;
    let mut a5 = 0.0f64;
    let mut a6 = 0.0f64;
    let mut a7 = 0.0f64;
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        a0 += xs[0] * ys[0];
        a1 += xs[1] * ys[1];
        a2 += xs[2] * ys[2];
        a3 += xs[3] * ys[3];
        a4 += xs[4] * ys[4];
        a5 += xs[5] * ys[5];
        a6 += xs[6] * ys[6];
        a7 += xs[7] * ys[7];
    }
    let mut tail = 0.0f64;
    for (xi, yi) in xc.remainder().iter().zip(yc.remainder()) {
        tail += xi * yi;
    }
    ((a0 + a4) + (a1 + a5)) + ((a2 + a6) + (a3 + a7)) + tail
}

/// Reference Euclidean norm (see [`dot_ref`]).
pub fn norm2_ref(x: &[f64]) -> f64 {
    dot_ref(x, x).sqrt()
}

/// Euclidean norm `‖x‖₂` over the unrolled [`dot`].
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Element-wise `y += x` (the paper's *sum* reduction task over partial
/// result vectors: `x^i_u = Σ_v x^i_{u,v}`).
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "add_assign operands must have equal length"
    );
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// Fused decode-and-add `y += x` where `x` is still little-endian `f64`
/// bytes (`8 * y.len()` of them, at any alignment): what a sum task does
/// with a partial straight out of its pinned storage block, instead of
/// decoding it into a `Vec<f64>` first. `y` is `f64`s, or the bytes of them
/// it is stored as — the output block a sum accumulates in ([`ElemMut`]).
/// Element math is `y[i] + x[i]`, so the result is **bitwise** that of
/// `axpy(1.0, decoded_x, y)` (`1.0 * x` is exact) and of [`add_assign`].
pub fn add_assign_le<Y: ElemMut<f64>>(y: &mut [Y], x_le: &[u8]) {
    let (xs, rest) = x_le.as_chunks::<8>();
    assert!(
        rest.is_empty() && xs.len() == y.len(),
        "add_assign_le operands must have equal length"
    );
    for (yi, xi) in y.iter_mut().zip(xs) {
        *yi = Y::of(yi.get() + f64::from_le_bytes(*xi));
    }
}

/// Sums a set of equal-length vectors into a fresh output. Panics if the set
/// is empty or lengths differ.
pub fn sum_vectors(parts: &[&[f64]]) -> Vec<f64> {
    let first = parts
        .first()
        .expect("sum_vectors needs at least one vector");
    let mut acc = first.to_vec();
    for p in &parts[1..] {
        add_assign(&mut acc, p);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn axpby_basic() {
        let mut y = vec![1.0, 2.0];
        axpby(2.0, &[3.0, 4.0], -1.0, &mut y);
        assert_eq!(y, vec![5.0, 6.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn scale_basic() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn add_assign_le_is_bitwise_axpy_one() {
        for n in [0usize, 1, 7, 8, 9, 1000] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.5).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            // One pad byte in front: the bytes need not be 8-aligned.
            let mut raw = vec![0u8];
            raw.extend(x.iter().flat_map(|v| v.to_le_bytes()));
            let mut fused = y.clone();
            add_assign_le(&mut fused, &raw[1..]);
            let mut reference = y.clone();
            axpy(1.0, &x, &mut reference);
            assert_eq!(fused, reference, "n={n}");
        }
    }

    #[test]
    fn sum_vectors_reduces() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let c = [100.0, 200.0];
        assert_eq!(sum_vectors(&[&a, &b, &c]), vec![111.0, 222.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn axpy_length_mismatch_panics() {
        let mut y = vec![0.0];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }

    #[test]
    fn unrolled_kernels_match_reference() {
        for n in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 100, 1023] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let mut y1 = y.clone();
            let mut y2 = y.clone();
            axpy(1.5, &x, &mut y1);
            axpy_ref(1.5, &x, &mut y2);
            assert_eq!(y1, y2, "axpy bitwise, n={n}");
            let mut y1 = y.clone();
            let mut y2 = y.clone();
            axpby(0.3, &x, -1.25, &mut y1);
            axpby_ref(0.3, &x, -1.25, &mut y2);
            assert_eq!(y1, y2, "axpby bitwise, n={n}");
            let d = dot(&x, &y);
            let r = dot_ref(&x, &y);
            assert!((d - r).abs() <= 1e-12 * r.abs().max(1.0), "dot ulp, n={n}");
            assert!((norm2(&x) - norm2_ref(&x)).abs() <= 1e-12 * norm2_ref(&x).max(1.0));
        }
    }
}
