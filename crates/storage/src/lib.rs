//! DOoC's distributed data storage layer (paper §III-B).
//!
//! "A distributed-memory data storage layer allows any computational task
//! (i.e., filter) to access data stored on any node. It supports prefetching,
//! automatic memory management and out-of-core operations. … Our technique
//! relies on *immutable arrays* which alleviates the need for a complex
//! communication protocol."
//!
//! The layer exposes data as one-dimensional arrays structured in fixed-size
//! blocks. Filters `request` read access to an `interval` of an array, which
//! may not span blocks, and write blocks. Under the immutable-object paradigm
//! a memory location is written at most once and cannot be read before it
//! has been written — this removes races and coherence protocols by
//! construction. The block is the unit of writing, as it is of loading,
//! spilling, eviction and peer fetches: a write is one message carrying one
//! whole block's bytes (the last block may be short), sent to the node that
//! created the array, and the block is sealed when the node answers. (The
//! paper's request–release write lends the filter storage memory to fill;
//! here the writer fills its own buffer, so there is nothing to request.) A
//! read may be any interval inside one block.
//!
//! Architecture (paper Fig. 2), reproduced filter-for-filter:
//!
//! * one **storage filter** per compute node ([`filterimpl::StorageFilter`])
//!   holding a [`node::StorageState`] — a synchronous, fully unit-testable
//!   protocol state machine;
//! * one (or more) **I/O filter** per node ([`filterimpl::IoFilter`]),
//!   connected only to its storage filter, performing all filesystem reads
//!   and writes asynchronously against the node's scratch directory;
//! * complete **peer-to-peer** connections between storage filters (an
//!   addressed stream); the global block map is *partitioned*, not
//!   replicated — a node that misses an interval asks a randomly selected
//!   peer, tracking in-flight requests so no interval is requested twice;
//! * client filters hold a bidirectional (request/reply) link to their local
//!   storage filter and speak the [`proto`] message protocol, usually through
//!   the blocking convenience handle [`client::StorageClient`].
//!
//! Memory is reclaimed by reference counting + LRU: when a node's resident
//! bytes exceed its budget, unpinned blocks that are safe on some disk are
//! evicted least-recently-used first; dirty blocks are spilled through the
//! I/O filter before their memory is reclaimed.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod filterimpl;
pub mod meta;
pub mod node;
pub mod pool;
pub mod proto;

pub use client::{ReadGuard, ReadTicket, SealTicket, StorageClient, Ticket};
pub use cluster::StorageCluster;
pub use filterimpl::RecoveryPolicy;
pub use meta::{ArrayMeta, Interval};
pub use node::{NodeConfig, StorageState};
pub use pool::{BlockPool, PoolBuf};

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named array is not known anywhere in the cluster.
    UnknownArray(String),
    /// An interval was rejected (spans blocks, out of bounds, zero length…).
    BadInterval {
        /// Array the interval addressed.
        array: String,
        /// Explanation.
        reason: String,
    },
    /// Immutability violation: double write, read-before-write on a location
    /// the protocol can prove will never be written, etc.
    Immutability(String),
    /// An array was created twice (array names are cluster-unique).
    AlreadyExists(String),
    /// The operation addressed a deleted array.
    Deleted(String),
    /// An I/O filter reported a filesystem error.
    Io(String),
    /// Internal protocol violation (malformed message, unknown request id).
    Protocol(String),
    /// An out-of-core read failed even after the I/O filter's bounded
    /// retries were exhausted (or retries were disabled). Unlike
    /// [`Self::Io`] — which reports a single filesystem error verbatim —
    /// this is the final verdict on a block the node could not produce.
    IoFailed(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownArray(a) => write!(f, "unknown array '{a}'"),
            StorageError::BadInterval { array, reason } => {
                write!(f, "bad interval on '{array}': {reason}")
            }
            StorageError::Immutability(m) => write!(f, "immutability violation: {m}"),
            StorageError::AlreadyExists(a) => write!(f, "array '{a}' already exists"),
            StorageError::Deleted(a) => write!(f, "array '{a}' was deleted"),
            StorageError::Io(m) => write!(f, "storage I/O error: {m}"),
            StorageError::Protocol(m) => write!(f, "storage protocol error: {m}"),
            StorageError::IoFailed(m) => write!(f, "storage read failed: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
