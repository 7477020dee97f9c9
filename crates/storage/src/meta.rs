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
    /// if the interval is empty, out of bounds, or spans a block boundary.
    pub fn locate(&self, iv: Interval) -> Result<(u64, u64)> {
        if iv.len == 0 {
            return Err(StorageError::BadInterval {
                array: self.name.clone(),
                reason: "zero-length interval".into(),
            });
        }
        if iv.offset + iv.len > self.len {
            return Err(StorageError::BadInterval {
                array: self.name.clone(),
                reason: format!(
                    "interval [{}, {}) exceeds array length {}",
                    iv.offset,
                    iv.offset + iv.len,
                    self.len
                ),
            });
        }
        let block = iv.offset / self.block_size;
        let last_block = (iv.offset + iv.len - 1) / self.block_size;
        if block != last_block {
            return Err(StorageError::BadInterval {
                array: self.name.clone(),
                reason: format!(
                    "interval [{}, {}) spans blocks {} and {} — use one interval per block",
                    iv.offset,
                    iv.offset + iv.len,
                    block,
                    last_block
                ),
            });
        }
        Ok((block, iv.offset - block * self.block_size))
    }

    /// Splits an arbitrary global `[offset, offset+len)` range into per-block
    /// intervals (the helper an application uses when a logical access spans
    /// blocks — "one can easily build an abstraction that allows to access
    /// memory independently of the block it is stored in").
    pub fn split(&self, offset: u64, len: u64) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let block = cur / self.block_size;
            let block_end = ((block + 1) * self.block_size).min(end);
            out.push(Interval {
                offset: cur,
                len: block_end - cur,
            });
            cur = block_end;
        }
        out
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

/// Identity of one block of one array.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// Array name.
    pub array: String,
    /// Block index.
    pub block: u64,
}

impl BlockKey {
    /// Creates a key.
    pub fn new(array: impl Into<String>, block: u64) -> Self {
        Self {
            array: array.into(),
            block,
        }
    }
}

impl std::fmt::Display for BlockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.array, self.block)
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
    fn split_covers_range_per_block() {
        let m = meta();
        let parts = m.split(30, 40); // spans blocks 0,1,2
        assert_eq!(
            parts,
            vec![
                Interval::new(30, 2),
                Interval::new(32, 32),
                Interval::new(64, 6)
            ]
        );
        let total: u64 = parts.iter().map(|p| p.len).sum();
        assert_eq!(total, 40);
        for p in parts {
            assert!(m.locate(p).is_ok(), "each part is single-block");
        }
    }

    #[test]
    fn split_of_aligned_range_is_single() {
        let m = meta();
        assert_eq!(m.split(32, 32), vec![Interval::new(32, 32)]);
        assert_eq!(m.split(0, 0), vec![]);
    }

    #[test]
    fn block_key_display() {
        assert_eq!(format!("{}", BlockKey::new("x", 3)), "x[3]");
    }
}
