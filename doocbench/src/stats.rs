//! Order statistics over a handful of rounds.
//!
//! Every reported number is a median with its min, max and sample count; the
//! spread used by `check` is the inter-quartile distance as a share of the
//! median, with quartiles computed the way Python's
//! `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
//! reader can reproduce it from the per-round values in a result file.

/// Median, extremes, quartiles and count of one metric's per-round values.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none or one is not finite.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Inter-quartile distance as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// `(q1, q2, q3)` of an ascending slice: position `i·(n+1)/4` with linear
/// interpolation, clamped to the ends. One sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("summary");
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).expect("summary");
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(Summary::of(&[7.0]).map(|s| s.median), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("summary");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        let s = Summary::of(&[1.0, 2.0, 4.0]).expect("summary");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]).expect("summary");
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("summary");
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[5.0]).expect("summary").spread(), 0.0);
    }

    #[test]
    fn empty_and_non_finite_inputs_have_no_summary() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(Summary::of(&[f64::INFINITY]), None);
    }
}
