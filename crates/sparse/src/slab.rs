//! Slab-partitioned dense vectors: the zero-copy currency of the fork-join pool.
//!
//! A [`SlabVec`] stores a logically contiguous `f64` vector as a sequence of
//! disjoint, individually *owned* cache-sized slabs. Because each slab is its
//! own `Vec<f64>`, the compute pool can move slabs into per-task result slots,
//! update them on worker threads, and move them back — transferring ownership
//! by pointer instead of copying element data. This is what lets a parallel
//! sum over a pool of `'static` workers stay zero-copy without `unsafe`
//! (`split_at_mut` borrows cannot cross into `'static` pool jobs; owned slabs
//! can).
//!
//! The iterated-solver accumulators in `dooc-linalg` hold their running sums
//! in `SlabVec` form so every `y += x` of the sum tree is eligible for the
//! pool's slab fan-out path.

/// Default slab length in elements (64 KiB of `f64`s): small enough that a
/// slab plus its operand stripe fits comfortably in L2, large enough that
/// per-slab bookkeeping is noise against the kernel work.
pub const DEFAULT_SLAB_LEN: usize = 8192;

/// A dense `f64` vector stored as disjoint owned slabs.
///
/// All slabs have length `slab_len` except the last, which holds the
/// remainder. Invariant: every slab is non-empty and the lengths sum to
/// `len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabVec {
    slabs: Vec<Vec<f64>>,
    slab_len: usize,
    len: usize,
}

impl SlabVec {
    /// An all-zero vector of `len` elements in slabs of `slab_len`.
    pub fn zeros(len: usize, slab_len: usize) -> Self {
        Self::from_fn(len, slab_len, |_| 0.0)
    }

    /// Build from a function of the global element index.
    pub fn from_fn(len: usize, slab_len: usize, f: impl Fn(usize) -> f64) -> Self {
        assert!(slab_len > 0, "slab_len must be positive");
        let mut slabs = Vec::with_capacity(len.div_ceil(slab_len));
        let mut start = 0;
        while start < len {
            let end = (start + slab_len).min(len);
            slabs.push((start..end).map(&f).collect());
            start = end;
        }
        SlabVec {
            slabs,
            slab_len,
            len,
        }
    }

    /// Re-chunk a contiguous vector into slabs. When `v` already fits in one
    /// slab the allocation is reused; otherwise this is the one copy paid at
    /// accumulator construction (amortized over every later zero-copy sum).
    pub fn from_vec(v: Vec<f64>, slab_len: usize) -> Self {
        assert!(slab_len > 0, "slab_len must be positive");
        let len = v.len();
        if len <= slab_len {
            return SlabVec {
                slabs: if len == 0 { Vec::new() } else { vec![v] },
                slab_len,
                len,
            };
        }
        let mut slabs = Vec::with_capacity(len.div_ceil(slab_len));
        let mut start = 0;
        while start < len {
            let end = (start + slab_len).min(len);
            slabs.push(v[start..end].to_vec());
            start = end;
        }
        SlabVec {
            slabs,
            slab_len,
            len,
        }
    }

    /// Decodes little-endian `f64` bytes (a whole number of them, at any
    /// alignment) straight into slabs — the accumulator of a sum task is
    /// born from its first partial's storage block with no flat `Vec<f64>`
    /// in between.
    pub fn from_le_bytes(raw: &[u8], slab_len: usize) -> Self {
        assert!(slab_len > 0, "slab_len must be positive");
        let (words, rest) = raw.as_chunks::<8>();
        assert!(rest.is_empty(), "byte length must be a multiple of 8");
        SlabVec {
            slabs: words
                .chunks(slab_len)
                .map(|c| c.iter().map(|w| f64::from_le_bytes(*w)).collect())
                .collect(),
            slab_len,
            len: words.len(),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slabs.
    pub fn nslabs(&self) -> usize {
        self.slabs.len()
    }

    /// Configured slab length (the last slab may be shorter).
    pub fn slab_len(&self) -> usize {
        self.slab_len
    }

    /// Global element range `[start, end)` covered by slab `i`.
    pub fn slab_range(&self, i: usize) -> (usize, usize) {
        let start = i * self.slab_len;
        (start, (start + self.slabs[i].len()).min(self.len))
    }

    /// Borrow the slabs.
    pub fn slabs(&self) -> &[Vec<f64>] {
        &self.slabs
    }

    /// Mutably borrow the slabs (lengths must not be changed by the caller).
    pub fn slabs_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.slabs
    }

    /// Move the slabs out for a pool fan-out; pair with [`Self::restore`].
    /// The `SlabVec` is left empty-slabbed but remembers its geometry, so a
    /// panic between take and restore leaves it structurally valid (len 0).
    pub fn take_slabs(&mut self) -> Vec<Vec<f64>> {
        self.len = 0;
        std::mem::take(&mut self.slabs)
    }

    /// Put back slabs previously removed with [`Self::take_slabs`].
    pub fn restore(&mut self, slabs: Vec<Vec<f64>>) {
        self.len = slabs.iter().map(Vec::len).sum();
        self.slabs = slabs;
    }

    /// Copy out into one contiguous vector.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for s in &self.slabs {
            out.extend_from_slice(s);
        }
        out
    }

    /// Read a single element (test/debug convenience; O(1)).
    pub fn get(&self, i: usize) -> f64 {
        self.slabs[i / self.slab_len][i % self.slab_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrips_and_chunks() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            let v: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let s = SlabVec::from_vec(v.clone(), 8);
            assert_eq!(s.len(), len);
            assert_eq!(s.to_vec(), v);
            for (i, slab) in s.slabs().iter().enumerate() {
                let (lo, hi) = s.slab_range(i);
                assert_eq!(slab.len(), hi - lo);
                assert!(!slab.is_empty());
            }
        }
    }

    #[test]
    fn single_slab_reuses_allocation() {
        let v = vec![1.0; 16];
        let ptr = v.as_ptr();
        let s = SlabVec::from_vec(v, 64);
        assert_eq!(s.nslabs(), 1);
        assert_eq!(s.slabs()[0].as_ptr(), ptr);
    }

    #[test]
    fn take_and_restore_preserve_contents() {
        let mut s = SlabVec::from_fn(20, 8, |i| i as f64);
        let slabs = {
            let mut m = s.take_slabs();
            assert_eq!(s.len(), 0);
            for slab in &mut m {
                for x in slab.iter_mut() {
                    *x += 1.0;
                }
            }
            m
        };
        s.restore(slabs);
        assert_eq!(s.len(), 20);
        assert_eq!(s.get(0), 1.0);
        assert_eq!(s.get(19), 20.0);
    }

    #[test]
    fn from_le_bytes_matches_from_vec() {
        for len in [0usize, 1, 9, 10, 33] {
            let v: Vec<f64> = (0..len).map(|i| (i as f64).sqrt() - 2.0).collect();
            let mut raw = vec![0xAAu8]; // odd offset: no alignment assumed
            raw.extend(v.iter().flat_map(|x| x.to_le_bytes()));
            assert_eq!(
                SlabVec::from_le_bytes(&raw[1..], 10),
                SlabVec::from_vec(v, 10)
            );
        }
    }

    #[test]
    fn from_fn_matches_from_vec() {
        let a = SlabVec::from_fn(33, 10, |i| (i * i) as f64);
        let b = SlabVec::from_vec((0..33).map(|i| (i * i) as f64).collect(), 10);
        assert_eq!(a, b);
    }
}
