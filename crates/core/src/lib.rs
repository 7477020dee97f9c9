//! DOoC — a Distributed Out-of-Core task runtime (the paper's contribution).
//!
//! This crate is the facade gluing the three subsystems together into the
//! middleware of paper §III:
//!
//! * the **filter-stream dataflow runtime** (`dooc-filterstream`) hosts every
//!   component as a filter exchanging untyped buffers;
//! * the **distributed storage layer** (`dooc-storage`) provides immutable,
//!   block-structured arrays with request/release semantics, prefetching,
//!   LRU reclamation and out-of-core spill;
//! * the **hierarchical data-aware scheduler** (`dooc-scheduler`) assigns
//!   tasks to nodes by input affinity and reorders them per node to minimize
//!   data movement.
//!
//! The application expresses its computation as a [`TaskGraph`] — tasks with
//! declared input/output arrays — plus a [`TaskExecutor`] that knows how to
//! run each task kind against the storage client. [`DoocRuntime::run`] then
//! builds the whole cluster (per-node storage, I/O and worker filters),
//! executes the DAG out-of-core, and returns a [`RunReport`] with per-node
//! storage counters, per-stream traffic, and a task execution trace.
//!
//! ```no_run
//! use dooc_core::{DoocConfig, DoocRuntime, ExecOutcome, TaskExecutor, WorkerContext};
//! use dooc_scheduler::{TaskGraph, TaskSpec};
//! use std::sync::Arc;
//!
//! struct Doubler;
//! impl TaskExecutor for Doubler {
//!     fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext) -> ExecOutcome {
//!         let input = ctx.read_array(&task.inputs[0].array)?;
//!         let out: Vec<u8> = input.iter().map(|b| b * 2).collect();
//!         ctx.write_array(&task.outputs[0].array, &out)?;
//!         Ok(())
//!     }
//! }
//!
//! let graph = TaskGraph::new(vec![
//!     TaskSpec::new("t", "double").input("in", 4).output("out", 4),
//! ]).unwrap();
//! let config = DoocConfig::in_temp_dirs("doubler-demo", 2).unwrap();
//! let report = DoocRuntime::new(config).run(graph, Default::default(), Arc::new(Doubler)).unwrap();
//! println!("moved {} bytes between nodes", report.streams.total_remote_bytes());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod config;
pub mod report;
pub mod runtime;
pub mod worker;

pub use config::DoocConfig;
pub use report::{render_trace_gantt, RunReport, TraceEvent};
pub use runtime::{geometry_table, runtime_lane_specs, DoocRuntime};
pub use worker::{ArrayView, ExecOutcome, TaskExecutor, WorkerContext};

// Re-export the pieces applications touch, so `dooc-core` is self-sufficient.
pub use dooc_filterstream::{FaultPlan, FaultSpec, Site};
pub use dooc_obs::metrics::{counter, Counter};
pub use dooc_scheduler::{
    AuditError, AuditReport, DataRef, LaneSpec, OrderPolicy, TaskGraph, TaskId, TaskSpec,
};
pub use dooc_storage::meta::Interval;
pub use dooc_storage::proto::NodeStats;
pub use dooc_storage::RecoveryPolicy;

/// Errors surfaced by the DOoC runtime.
#[derive(Debug)]
pub enum DoocError {
    /// Scheduling failed (bad task graph).
    Sched(dooc_scheduler::SchedError),
    /// A storage operation failed.
    Storage(dooc_storage::StorageError),
    /// The dataflow runtime failed (filter error/panic).
    Dataflow(dooc_filterstream::FsError),
    /// A task executor reported an application error.
    Task {
        /// Task name.
        task: String,
        /// Error description.
        message: String,
    },
    /// Configuration problem.
    Config(String),
    /// The pre-run static audit rejected the graph (overcommit or
    /// lane-capacity deadlock).
    Audit(dooc_scheduler::AuditError),
}

impl std::fmt::Display for DoocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoocError::Sched(e) => write!(f, "scheduling error: {e}"),
            DoocError::Storage(e) => write!(f, "storage error: {e}"),
            DoocError::Dataflow(e) => write!(f, "dataflow error: {e}"),
            DoocError::Task { task, message } => write!(f, "task '{task}' failed: {message}"),
            DoocError::Config(m) => write!(f, "configuration error: {m}"),
            DoocError::Audit(e) => write!(f, "static audit rejected the graph: {e}"),
        }
    }
}

impl std::error::Error for DoocError {}

impl From<dooc_scheduler::SchedError> for DoocError {
    fn from(e: dooc_scheduler::SchedError) -> Self {
        DoocError::Sched(e)
    }
}

impl From<dooc_scheduler::AuditError> for DoocError {
    fn from(e: dooc_scheduler::AuditError) -> Self {
        DoocError::Audit(e)
    }
}

impl From<dooc_storage::StorageError> for DoocError {
    fn from(e: dooc_storage::StorageError) -> Self {
        DoocError::Storage(e)
    }
}

impl From<dooc_filterstream::FsError> for DoocError {
    fn from(e: dooc_filterstream::FsError) -> Self {
        DoocError::Dataflow(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DoocError>;
