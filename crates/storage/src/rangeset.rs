//! Sets of disjoint byte ranges.
//!
//! Blocks may be written interval-by-interval; a [`RangeSet`] tracks which
//! byte ranges of a block have been *sealed* (write-released) so the storage
//! can answer "is this read interval fully available?" and "is the whole
//! block sealed (and therefore spillable)?".

/// A set of disjoint, coalesced half-open ranges `[start, end)` over `u64`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RangeSet {
    /// Sorted, pairwise-disjoint, non-adjacent ranges.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set holding one range (empty if `start >= end`).
    pub fn from_range(start: u64, end: u64) -> Self {
        let mut s = Self::new();
        s.insert(start, end);
        s
    }

    /// Inserts `[start, end)`, coalescing with neighbours. Returns `true` if
    /// any byte was newly covered (i.e. the insert was not fully redundant).
    pub fn insert(&mut self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        // Find insertion window: all ranges overlapping or adjacent.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return true;
        }
        let merged_start = start.min(self.ranges[lo].0);
        let merged_end = end.max(self.ranges[hi - 1].1);
        let newly_covered = {
            let covered: u64 = self.ranges[lo..hi].iter().map(|&(s, e)| e - s).sum();
            merged_end - merged_start > covered
        };
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, (merged_start, merged_end));
        newly_covered
    }

    /// Removes `[start, end)`, splitting ranges that partially overlap.
    /// Returns `true` if any byte was actually removed.
    pub fn remove(&mut self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        // Window of strictly overlapping ranges (adjacency is unaffected).
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let hi = self.ranges.partition_point(|&(s, _)| s < end);
        if lo == hi {
            return false;
        }
        let mut remnants = Vec::with_capacity(2);
        let (first_s, _) = self.ranges[lo];
        let (_, last_e) = self.ranges[hi - 1];
        if first_s < start {
            remnants.push((first_s, start));
        }
        if last_e > end {
            remnants.push((end, last_e));
        }
        self.ranges.splice(lo..hi, remnants);
        true
    }

    /// Splits the set at `point`: returns `(left, right)` where `left`
    /// covers exactly the set's bytes below `point` and `right` those at or
    /// above it. A range straddling `point` is cut in two.
    pub fn split_at(&self, point: u64) -> (Self, Self) {
        let mut left = self.clone();
        left.remove(point, u64::MAX);
        let mut right = self.clone();
        right.remove(0, point);
        (left, right)
    }

    /// Does the set fully cover `[start, end)`?
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        match self.ranges.get(i) {
            Some(&(s, e)) => s <= start && end <= e,
            None => false,
        }
    }

    /// Does the set intersect `[start, end)` at all?
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        match self.ranges.get(i) {
            Some(&(s, _)) => s < end,
            None => false,
        }
    }

    /// Total number of covered bytes.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The coalesced ranges, sorted.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_cover() {
        let mut s = RangeSet::new();
        assert!(s.insert(10, 20));
        assert!(s.covers(10, 20));
        assert!(s.covers(12, 15));
        assert!(!s.covers(5, 12));
        assert!(!s.covers(15, 25));
        assert!(s.covers(7, 7), "empty interval trivially covered");
    }

    #[test]
    fn coalesce_adjacent() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(10, 20);
        assert_eq!(s.ranges(), &[(0, 20)]);
        assert!(s.covers(0, 20));
    }

    #[test]
    fn coalesce_overlapping_and_bridging() {
        let mut s = RangeSet::new();
        s.insert(0, 5);
        s.insert(10, 15);
        s.insert(3, 12); // bridges both
        assert_eq!(s.ranges(), &[(0, 15)]);
    }

    #[test]
    fn redundant_insert_reports_false() {
        let mut s = RangeSet::from_range(0, 100);
        assert!(!s.insert(10, 20));
        assert!(!s.insert(0, 100));
        assert!(s.insert(100, 101), "extension is new coverage");
    }

    #[test]
    fn empty_insert_ignored() {
        let mut s = RangeSet::new();
        assert!(!s.insert(5, 5));
        assert!(s.is_empty());
    }

    #[test]
    fn covered_counts_bytes() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 25);
        assert_eq!(s.covered(), 15);
    }

    #[test]
    fn intersects_detects_partial_overlap() {
        let s = RangeSet::from_range(10, 20);
        assert!(s.intersects(15, 30));
        assert!(s.intersects(0, 11));
        assert!(!s.intersects(0, 10));
        assert!(!s.intersects(20, 30));
        assert!(!s.intersects(12, 12));
    }

    #[test]
    fn disjoint_inserts_stay_sorted() {
        let mut s = RangeSet::new();
        s.insert(30, 40);
        s.insert(0, 5);
        s.insert(10, 20);
        assert_eq!(s.ranges(), &[(0, 5), (10, 20), (30, 40)]);
    }

    #[test]
    fn remove_exact_overlap_empties_range() {
        let mut s = RangeSet::from_range(10, 20);
        assert!(s.remove(10, 20));
        assert!(s.is_empty());
        assert!(!s.remove(10, 20), "second removal is a no-op");
    }

    #[test]
    fn remove_splits_straddled_range() {
        let mut s = RangeSet::from_range(0, 100);
        assert!(s.remove(40, 60));
        assert_eq!(s.ranges(), &[(0, 40), (60, 100)]);
        assert_eq!(s.covered(), 80);
    }

    #[test]
    fn remove_spanning_multiple_ranges_keeps_outer_remnants() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        s.insert(40, 50);
        assert!(s.remove(5, 45));
        assert_eq!(s.ranges(), &[(0, 5), (45, 50)]);
    }

    #[test]
    fn remove_empty_or_disjoint_interval_is_noop() {
        let mut s = RangeSet::from_range(10, 20);
        assert!(!s.remove(15, 15), "empty interval");
        assert!(!s.remove(0, 10), "touching below is not overlap");
        assert!(!s.remove(20, 30), "touching above is not overlap");
        assert_eq!(s.ranges(), &[(10, 20)]);
        let mut empty = RangeSet::new();
        assert!(!empty.remove(0, 100));
    }

    #[test]
    fn split_at_cuts_straddling_range() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        let (l, r) = s.split_at(25);
        assert_eq!(l.ranges(), &[(0, 10), (20, 25)]);
        assert_eq!(r.ranges(), &[(25, 30)]);
    }

    proptest::proptest! {
        /// Splitting at any point and re-inserting both halves reconstructs
        /// the original set exactly (split -> merge is the identity).
        #[test]
        fn split_then_merge_is_identity(
            ivs in proptest::collection::vec((0u64..200, 1u64..40), 0..12),
            point in 0u64..250,
        ) {
            let mut s = RangeSet::new();
            for (start, len) in ivs {
                s.insert(start, start + len);
            }
            let (left, right) = s.split_at(point);
            let mut merged = RangeSet::new();
            for &(a, b) in left.ranges().iter().chain(right.ranges()) {
                merged.insert(a, b);
            }
            proptest::prop_assert_eq!(&merged, &s);
            // The halves partition the byte count.
            proptest::prop_assert_eq!(left.covered() + right.covered(), s.covered());
            // And respect the split point.
            proptest::prop_assert!(!left.intersects(point, u64::MAX));
            proptest::prop_assert!(!right.intersects(0, point));
        }

        /// Inserting an interval then removing it leaves at most the
        /// original bytes; removing then re-inserting covers the interval.
        #[test]
        fn remove_is_inverse_of_insert_on_coverage(
            ivs in proptest::collection::vec((0u64..200, 1u64..40), 0..12),
            start in 0u64..200,
            len in 1u64..50,
        ) {
            let mut s = RangeSet::new();
            for (a, l) in ivs {
                s.insert(a, a + l);
            }
            let end = start + len;
            let mut removed = s.clone();
            removed.remove(start, end);
            proptest::prop_assert!(!removed.intersects(start, end));
            let mut back = removed.clone();
            back.insert(start, end);
            proptest::prop_assert!(back.covers(start, end));
        }
    }
}
