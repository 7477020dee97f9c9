//! Array geometry and interval addressing.
//!
//! "In our current prototype, the storage subsystem exposes the data to the
//! filters as one dimensional arrays. … Arrays can be of arbitrary size, but
//! they are structured in blocks. If one needs to access data that span
//! across multiple blocks, it is required to use one interval per block."

use crate::{Result, StorageError};

/// Geometry of a distributed array: a byte length split into fixed-size
/// blocks (the last block may be shorter).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ArrayMeta {
    /// Cluster-unique array name.
    pub name: String,
    /// Total length in bytes.
    pub len: u64,
    /// Block size in bytes (> 0).
    pub block_size: u64,
}

impl ArrayMeta {
    /// Creates geometry, validating the block size.
    pub fn new(name: impl Into<String>, len: u64, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            name: name.into(),
            len,
            block_size,
        }
    }

    /// Number of blocks (`ceil(len / block_size)`; zero-length arrays have
    /// zero blocks).
    pub fn nblocks(&self) -> u64 {
        self.len.div_ceil(self.block_size)
    }

    /// Length in bytes of block `b`.
    pub fn block_len(&self, b: u64) -> u64 {
        debug_assert!(b < self.nblocks());
        if b + 1 == self.nblocks() && !self.len.is_multiple_of(self.block_size) {
            self.len % self.block_size
        } else {
            self.block_size
        }
    }

    /// Global byte offset where block `b` starts.
    pub fn block_start(&self, b: u64) -> u64 {
        b * self.block_size
    }

    /// Resolves a global interval to `(block, offset-within-block)`; errors
    /// if the interval is empty, out of bounds (its end past `u64::MAX`
    /// included), or spans a block boundary.
    pub fn locate(&self, iv: Interval) -> Result<(u64, u64)> {
        let bad = |reason: String| StorageError::BadInterval {
            array: self.name.clone(),
            reason,
        };
        if iv.len == 0 {
            return Err(bad("zero-length interval".into()));
        }
        let Some(end) = iv.offset.checked_add(iv.len) else {
            return Err(bad(format!(
                "interval of {} bytes at {} ends past u64::MAX",
                iv.len, iv.offset
            )));
        };
        if end > self.len {
            return Err(bad(format!(
                "interval [{}, {end}) exceeds array length {}",
                iv.offset, self.len
            )));
        }
        let block = iv.offset / self.block_size;
        let last_block = (end - 1) / self.block_size;
        if block != last_block {
            return Err(bad(format!(
                "interval [{}, {end}) spans blocks {block} and {last_block} — use one interval per block",
                iv.offset
            )));
        }
        Ok((block, iv.offset - block * self.block_size))
    }
}

/// A byte interval of an array (global coordinates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Interval {
    /// Creates an interval.
    pub fn new(offset: u64, len: u64) -> Self {
        Self { offset, len }
    }

    /// One-past-the-end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ArrayMeta {
        ArrayMeta::new("a", 100, 32)
    }

    #[test]
    fn nblocks_and_lengths() {
        let m = meta();
        assert_eq!(m.nblocks(), 4);
        assert_eq!(m.block_len(0), 32);
        assert_eq!(m.block_len(3), 4, "trailing partial block");
        let exact = ArrayMeta::new("b", 64, 32);
        assert_eq!(exact.nblocks(), 2);
        assert_eq!(exact.block_len(1), 32);
    }

    #[test]
    fn zero_length_array_has_no_blocks() {
        assert_eq!(ArrayMeta::new("z", 0, 8).nblocks(), 0);
    }

    #[test]
    fn locate_within_block() {
        let m = meta();
        assert_eq!(m.locate(Interval::new(0, 32)).expect("ok"), (0, 0));
        assert_eq!(m.locate(Interval::new(40, 8)).expect("ok"), (1, 8));
        assert_eq!(m.locate(Interval::new(96, 4)).expect("ok"), (3, 0));
    }

    #[test]
    fn locate_rejects_spanning() {
        let m = meta();
        assert!(matches!(
            m.locate(Interval::new(30, 4)),
            Err(StorageError::BadInterval { .. })
        ));
    }

    #[test]
    fn locate_rejects_out_of_bounds() {
        let m = meta();
        assert!(m.locate(Interval::new(98, 4)).is_err());
        assert!(m.locate(Interval::new(100, 1)).is_err());
    }

    #[test]
    fn locate_rejects_empty() {
        assert!(meta().locate(Interval::new(10, 0)).is_err());
    }

    #[test]
    fn locate_rejects_an_end_past_u64_max() {
        let m = ArrayMeta::new("a", 64, 64);
        for iv in [Interval::new(u64::MAX, 1), Interval::new(1, u64::MAX)] {
            assert!(matches!(
                m.locate(iv),
                Err(StorageError::BadInterval { .. })
            ));
        }
    }
}
