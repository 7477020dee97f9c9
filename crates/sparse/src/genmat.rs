//! The paper's synthetic sparse-matrix generator.
//!
//! §V: "These submatrices have been generated randomly, such that the
//! separation between two consecutive nonzero entries on a row is uniformly
//! distributed in the interval `[1:2d]`, where `d` is a parameter. `d` is
//! chosen to yield a certain number of total non-zero elements in a
//! sub-matrix."
//!
//! With gaps uniform on `{1, …, 2d}` the expected gap is `(2d+1)/2 ≈ d`, so a
//! row of `ncols` columns carries `≈ ncols / d` non-zeros and
//! `d ≈ nrows·ncols / nnz_target` reproduces a requested density.

use crate::csr::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator of random CSR matrices with uniformly distributed gaps between
/// consecutive non-zeros of a row (the paper's §V workload generator).
#[derive(Clone, Debug)]
pub struct GapGenerator {
    /// The `d` parameter: gaps are uniform on `[1, 2d]`.
    d: u64,
    /// Values are drawn uniformly from this symmetric interval.
    value_range: (f64, f64),
}

impl GapGenerator {
    /// Creates a generator with an explicit `d` parameter (`d >= 1`).
    pub fn with_d(d: u64) -> Self {
        Self {
            d: d.max(1),
            value_range: (-1.0, 1.0),
        }
    }

    /// Chooses `d` so that an `nrows × ncols` matrix carries approximately
    /// `nnz_target` non-zeros — "d is chosen to yield a certain number of
    /// total non-zero elements".
    pub fn for_target_nnz(nrows: u64, ncols: u64, nnz_target: u64) -> Self {
        assert!(nnz_target > 0, "nnz_target must be positive");
        // Expected nnz per row with gap mean (2d+1)/2 is ncols/((2d+1)/2).
        // Solve 2*ncols/(2d+1) * nrows = nnz_target for d.
        let per_row = (nnz_target as f64 / nrows as f64).max(1e-9);
        let mean_gap = ncols as f64 / per_row;
        let d = ((2.0 * mean_gap - 1.0) / 2.0).round().max(1.0) as u64;
        Self::with_d(d)
    }

    /// The `d` parameter in use.
    pub fn d(&self) -> u64 {
        self.d
    }

    /// Sets the uniform range values are drawn from.
    pub fn value_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "value range must be non-empty");
        self.value_range = (lo, hi);
        self
    }

    /// Expected number of non-zeros of an `nrows × ncols` matrix under this
    /// generator (used by tests and by the workload planner).
    pub fn expected_nnz(&self, nrows: u64, ncols: u64) -> f64 {
        let mean_gap = (2.0 * self.d as f64 + 1.0) / 2.0;
        nrows as f64 * (ncols as f64 / mean_gap)
    }

    /// Generates a matrix deterministically from `seed`.
    pub fn generate(&self, nrows: u64, ncols: u64, seed: u64) -> CsrMatrix {
        let mut m = CsrMatrix::zeros(0, 0);
        self.generate_into(nrows, ncols, seed, &mut m);
        m
    }

    /// [`GapGenerator::generate`] into `m`, whose arrays are refilled in
    /// place: a caller generating one matrix after another into the same
    /// `m` allocates (and page-faults) its memory once, not per matrix.
    pub fn generate_into(&self, nrows: u64, ncols: u64, seed: u64, m: &mut CsrMatrix) {
        // The vectors are taken out of `m` so the loop pushes onto locals.
        let (mut row_ptr, mut col_idx, mut values) =
            std::mem::replace(m, CsrMatrix::zeros(0, 0)).into_cleared_parts();
        let mut rng = StdRng::seed_from_u64(seed);
        let est = self.expected_nnz(nrows, ncols) as usize;
        row_ptr.reserve(nrows as usize + 1);
        row_ptr.push(0u64);
        col_idx.reserve(est + est / 8);
        values.reserve(est + est / 8);
        let (lo, hi) = self.value_range;
        for _ in 0..nrows {
            // Walk along the row: start at a random offset in [0, 2d) so row
            // starts are decorrelated, then jump by uniform gaps in [1, 2d].
            let mut c = rng.gen_range(0..2 * self.d);
            while c < ncols {
                col_idx.push(c);
                values.push(rng.gen_range(lo..hi));
                c += rng.gen_range(1..=2 * self.d);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        *m = CsrMatrix::from_parts_unchecked(nrows, ncols, row_ptr, col_idx, values);
    }

    /// Generates a *symmetric-structure* diagonally dominant matrix: the gap
    /// construction on the upper triangle mirrored to the lower one, with the
    /// diagonal set to a value larger than the absolute row sum. Used by the
    /// Lanczos/CG tests, which need a symmetric (and for CG, SPD) operator
    /// akin to the nuclear Hamiltonians of §II.
    pub fn generate_spd(&self, n: u64, seed: u64) -> CsrMatrix {
        let upper = self.generate(n, n, seed);
        let mut triplets: Vec<(u64, u64, f64)> =
            Vec::with_capacity(2 * upper.nnz() as usize + n as usize);
        let mut row_abs_sum = vec![0.0f64; n as usize];
        for (r, c, v) in upper.triplets() {
            if r < c {
                triplets.push((r, c, v));
                triplets.push((c, r, v));
                row_abs_sum[r as usize] += v.abs();
                row_abs_sum[c as usize] += v.abs();
            }
        }
        for i in 0..n {
            triplets.push((i, i, row_abs_sum[i as usize] + 1.0));
        }
        CsrMatrix::from_triplets(n, n, &triplets).expect("construction is in-bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let g = GapGenerator::with_d(4);
        let a = g.generate(50, 80, 7);
        let b = g.generate(50, 80, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let g = GapGenerator::with_d(4);
        assert_ne!(g.generate(50, 80, 7), g.generate(50, 80, 8));
    }

    #[test]
    fn nnz_close_to_target() {
        let (nrows, ncols, target) = (2000u64, 2000u64, 400_000u64);
        let g = GapGenerator::for_target_nnz(nrows, ncols, target);
        let m = g.generate(nrows, ncols, 42);
        let ratio = m.nnz() as f64 / target as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "nnz {} vs target {target} (ratio {ratio})",
            m.nnz()
        );
    }

    #[test]
    fn gaps_bounded_by_2d() {
        let d = 5u64;
        let m = GapGenerator::with_d(d).generate(300, 500, 3);
        for r in 0..m.nrows() as usize {
            let (s, e) = (m.row_ptr()[r] as usize, m.row_ptr()[r + 1] as usize);
            let row = &m.col_idx()[s..e];
            if let Some(&first) = row.first() {
                assert!(first < 2 * d, "row start offset within [0, 2d)");
            }
            for w in row.windows(2) {
                let gap = w[1] - w[0];
                assert!((1..=2 * d).contains(&gap), "gap {gap} outside [1, 2d]");
            }
        }
    }

    #[test]
    fn gap_distribution_roughly_uniform() {
        // Chi-square-style sanity check: each gap value should appear with
        // frequency 1/(2d) ± 20% relative.
        let d = 3u64;
        let m = GapGenerator::with_d(d).generate(2000, 600, 11);
        let mut counts = vec![0u64; (2 * d) as usize + 1];
        let mut total = 0u64;
        for r in 0..m.nrows() as usize {
            let (s, e) = (m.row_ptr()[r] as usize, m.row_ptr()[r + 1] as usize);
            for w in m.col_idx()[s..e].windows(2) {
                counts[(w[1] - w[0]) as usize] += 1;
                total += 1;
            }
        }
        let expect = total as f64 / (2 * d) as f64;
        for (g, &count) in counts.iter().enumerate().take((2 * d) as usize + 1).skip(1) {
            let dev = (count as f64 - expect).abs() / expect;
            assert!(dev < 0.2, "gap {g}: count {count} vs expected {expect}");
        }
    }

    #[test]
    fn expected_nnz_matches_observation() {
        let g = GapGenerator::with_d(7);
        let m = g.generate(1500, 900, 5);
        let ratio = m.nnz() as f64 / g.expected_nnz(1500, 900);
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn values_within_range() {
        let m = GapGenerator::with_d(3)
            .value_range(2.0, 3.0)
            .generate(40, 40, 1);
        assert!(m.values().iter().all(|&v| (2.0..3.0).contains(&v)));
        assert!(m.nnz() > 0);
    }

    #[test]
    fn spd_matrix_is_symmetric_and_dominant() {
        let m = GapGenerator::with_d(4).generate_spd(60, 9);
        for (r, c, v) in m.triplets() {
            assert_eq!(m.get(c, r), v, "symmetry at ({r},{c})");
        }
        for r in 0..60u64 {
            let diag = m.get(r, r);
            let off: f64 = m
                .triplets()
                .filter(|&(rr, cc, _)| rr == r && cc != r)
                .map(|(_, _, v)| v.abs())
                .sum();
            assert!(diag > off, "row {r} not diagonally dominant");
        }
    }

    #[test]
    fn for_target_nnz_picks_sane_d() {
        // Paper scale (scaled down): 50M x 50M with 12.8G nnz per node block
        // implies ~256 nnz per row, d ~ nrows/256.
        let g = GapGenerator::for_target_nnz(50_000_000, 50_000_000, 12_800_000_000);
        let per_row_gap = (2.0 * g.d() as f64 + 1.0) / 2.0;
        let implied_nnz = 50_000_000.0 / per_row_gap * 50_000_000.0;
        let ratio = implied_nnz / 12_800_000_000.0;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }
}
