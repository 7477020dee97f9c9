//! DOoC's hierarchical data-aware task scheduler (paper §III-C).
//!
//! "DOoC features a hierarchical data-aware task scheduler … the hierarchy
//! is composed of two levels: *global scheduler* and *local scheduler*. At
//! the coarse level, global scheduler allocates tasks to the computing nodes
//! which have the capabilities to process them. At the fine level, local
//! scheduler decomposes the tasks to expose more parallelism when necessary,
//! and reorders the tasks to minimize the cost of memory transfers."
//!
//! * [`task`] — task specifications (input/output data declarations) and the
//!   DAG derived from them: "The input and output data information is used to
//!   derive a DAG of the tasks." Immutability makes the derivation trivial —
//!   each array has exactly one producer.
//! * [`global`] — the affinity heuristic: "Tasks are sent to the compute
//!   nodes which host most of the data required to process them."
//! * [`local`] — per-node ordering and prefetching: ready-task tracking,
//!   data-aware reordering (which reproduces the back-and-forth traversal of
//!   Fig. 5b without any application input), task splitting, and prefetch
//!   planning against the storage map.
//! * [`audit`] — static pre-run verification over the whole graph:
//!   peak-residency bounds and channel-capacity deadlock freedom, consumed
//!   by the runtime as an admission gate.
//!
//! The crate is pure policy — no threads, no I/O — so every scheduling
//! decision is deterministic and unit-testable; the `dooc-core` crate mounts
//! these policies onto the dataflow runtime, and the testbed simulator
//! replays their decisions against a hardware model.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod audit;
pub mod global;
pub mod local;
pub mod task;

pub use audit::{audit, AuditError, AuditReport, LaneSpec};
pub use dooc_filterstream::NodeId;
pub use global::{assign_affinity, assign_round_robin, Placement};
pub use local::{LocalScheduler, MemoryOracle, OrderPolicy};
pub use task::{DataRef, ReadyTracker, TaskGraph, TaskId, TaskSpec};

/// Errors surfaced by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Two tasks declare the same output array (violates immutability).
    DuplicateProducer {
        /// The array with two producers.
        array: String,
    },
    /// The task graph contains a dependency cycle.
    Cycle,
    /// A task id was out of range.
    UnknownTask(u64),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::DuplicateProducer { array } => {
                write!(
                    f,
                    "array '{array}' has two producers (immutability violation)"
                )
            }
            SchedError::Cycle => write!(f, "task graph contains a cycle"),
            SchedError::UnknownTask(t) => write!(f, "unknown task id {t}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SchedError>;
