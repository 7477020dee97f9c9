//! A filter-stream dataflow middleware — the DataCutter substrate of DOoC.
//!
//! DataCutter (Beynon et al., *Parallel Computing* 2001) "implements
//! computations as a set of components, referred to as *filters*, that
//! exchange data through logical streams. A stream denotes a uni-directional
//! data flow from some filters (the producers) to others (the consumers).
//! Data flows along these streams in untyped data-buffers in order to
//! minimize various system overheads. A *layout* is a filter ontology which
//! describes the set of application tasks, streams, and the connections
//! required for the computation." (paper §III-A)
//!
//! This crate reproduces that model in-process:
//!
//! * [`filter::Filter`] — the component trait; the application author writes
//!   filter functions and a layout, exactly as in DataCutter;
//! * [`buffer::DataBuffer`] — untyped, cheaply cloneable data buffers
//!   ([`bytes::Bytes`] underneath) with a small tag word for app-level
//!   message discrimination;
//! * [`stream::Delivery`] — stream delivery policies: demand-driven
//!   round-robin across replicated consumers (data parallelism) or broadcast;
//! * [`layout::Layout`] — declarative description of filters, their
//!   *placement* on (simulated) compute nodes, replication, and stream
//!   connections;
//! * [`runtime::Runtime`] — spawns one thread per filter instance, wires the
//!   streams, runs to completion and reports per-stream traffic statistics
//!   (the paper extracts observed bandwidth "from the logs of the
//!   application" — these stats are those logs).
//!
//! ## Substituted hardware
//!
//! The original DataCutter rides on MPI across cluster nodes. Here a *node*
//! ([`NodeId`]) is a thread group with its own [`Transport`]: every filter
//! instance is pinned to a node, a buffer between two filters on one node
//! moves through a channel, and a buffer between nodes is a frame on the
//! sending node's transport, delivered by the receiving node's router. The
//! nodes of a run share one process over [`ChannelTransport`]
//! ([`Runtime::run`]) or are one process each over [`TcpTransport`]
//! ([`Runtime::run_distributed`]); the wiring is the same. Stream traffic is
//! accounted per stream, with the bytes that crossed node boundaries apart,
//! so the testbed simulator can charge network time for exactly those
//! bytes.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod buffer;
pub mod codec;
pub mod fault;
pub mod filter;
pub mod layout;
pub mod runtime;
pub mod stream;
pub mod tcp;
pub mod transport;

pub use buffer::DataBuffer;
pub use fault::{parse_seeds, Fault, FaultPlan, FaultSpec, Site};
pub use filter::{Filter, FilterContext};
pub use layout::{FilterId, Layout};
pub use runtime::{PortReport, Runtime, RuntimeReport};
pub use stream::{Delivery, SelectEvent, SelectOutcome, StreamReader, StreamSet, StreamWriter};
pub use tcp::{ClusterSpec, TcpTransport};
pub use transport::{ChannelTransport, FrameSink, Transport};

/// Identity of a (simulated) compute node filters are placed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors surfaced by the filter-stream middleware.
#[derive(Debug)]
pub enum FsError {
    /// A filter returned an application error from its `run` method.
    Filter {
        /// Filter name as declared in the layout.
        filter: String,
        /// Instance index (0-based replica number).
        instance: usize,
        /// The application's error message.
        message: String,
    },
    /// A filter panicked.
    FilterPanicked {
        /// Filter name as declared in the layout.
        filter: String,
        /// Instance index.
        instance: usize,
    },
    /// The layout was structurally invalid (message explains the problem).
    InvalidLayout(String),
    /// A filter referenced a port the layout never connected.
    UnknownPort {
        /// Filter name.
        filter: String,
        /// The port that was requested.
        port: String,
    },
    /// A send failed because every consumer of the stream has terminated.
    StreamClosed {
        /// The port the send was attempted on.
        port: String,
    },
    /// A wire-transport failure: framing violation, handshake mismatch,
    /// connect timeout, or a peer that went away mid-stream.
    Transport(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Filter {
                filter,
                instance,
                message,
            } => write!(f, "filter '{filter}'[{instance}] failed: {message}"),
            FsError::FilterPanicked { filter, instance } => {
                write!(f, "filter '{filter}'[{instance}] panicked")
            }
            FsError::InvalidLayout(m) => write!(f, "invalid layout: {m}"),
            FsError::UnknownPort { filter, port } => {
                write!(f, "filter '{filter}' has no port '{port}'")
            }
            FsError::StreamClosed { port } => {
                write!(f, "stream on port '{port}' is closed (all consumers gone)")
            }
            FsError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, FsError>;
