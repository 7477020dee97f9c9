//! Runtime configuration.

use crate::{DoocError, Result};
use dooc_filterstream::FaultPlan;
use dooc_scheduler::OrderPolicy;
use dooc_storage::RecoveryPolicy;
use std::path::PathBuf;

/// Configuration of a DOoC cluster run.
#[derive(Clone, Debug)]
pub struct DoocConfig {
    /// One scratch directory per node ("A directory in the filesystem is
    /// used by the storage filter as its scratch memory"). The number of
    /// directories defines the number of nodes.
    pub scratch_dirs: Vec<PathBuf>,
    /// Per-node memory budget in bytes for the storage layer's block cache.
    pub memory_budget: u64,
    /// Compute threads a worker uses for splittable tasks ("splits them …
    /// to match the parallelism available on the node").
    pub threads_per_node: usize,
    /// Local scheduler ordering policy (data-aware by default).
    pub order_policy: OrderPolicy,
    /// Number of planned tasks whose inputs the worker prefetches. The
    /// worker asks for prefetches before it picks its next task, so the
    /// window counts the task about to start: 1 looks no further than that
    /// task, and the default 2 looks one task ahead of it.
    pub prefetch_window: usize,
    /// Seed for the storage layer's random peer probing.
    pub seed: u64,
    /// Known array geometries `(name, len, block_size)` — hints registered
    /// on every node so interval→block mapping works before data arrives.
    /// Arrays not listed default to single-block geometry derived from the
    /// task graph's byte declarations.
    pub geometry: Vec<(String, u64, u64)>,
    /// Storage fault recovery: how often each node's I/O filter retries a
    /// failed disk read.
    /// Nothing times out: a request waits until its data exists.
    pub recovery: RecoveryPolicy,
    /// Faults injected into this run's storage I/O (empty by default). The
    /// TCP sites take theirs from the transport's
    /// [`ClusterSpec`](dooc_filterstream::ClusterSpec).
    pub faults: FaultPlan,
}

impl DoocConfig {
    /// A configuration over explicit scratch directories.
    pub fn new(scratch_dirs: Vec<PathBuf>) -> Self {
        Self {
            scratch_dirs,
            memory_budget: 256 << 20,
            threads_per_node: 1,
            order_policy: OrderPolicy::DataAware,
            prefetch_window: 2,
            seed: 0xD00C,
            geometry: Vec::new(),
            recovery: RecoveryPolicy::default(),
            faults: FaultPlan::default(),
        }
    }

    /// Creates `nnodes` fresh scratch directories under the system temp dir
    /// (each run gets a unique path; directories are left behind for
    /// inspection — callers may remove them).
    pub fn in_temp_dirs(tag: &str, nnodes: usize) -> Result<Self> {
        if nnodes == 0 {
            return Err(DoocError::Config("nnodes must be positive".into()));
        }
        let base = std::env::temp_dir().join(format!(
            "dooc-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        let dirs: Vec<PathBuf> = (0..nnodes).map(|i| base.join(format!("node{i}"))).collect();
        for d in &dirs {
            std::fs::create_dir_all(d)
                .map_err(|e| DoocError::Config(format!("mkdir {}: {e}", d.display())))?;
        }
        Ok(Self::new(dirs))
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.scratch_dirs.len()
    }

    /// Sets the per-node memory budget.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Sets worker thread parallelism.
    pub fn threads_per_node(mut self, t: usize) -> Self {
        self.threads_per_node = t.max(1);
        self
    }

    /// Sets the local ordering policy.
    pub fn order_policy(mut self, p: OrderPolicy) -> Self {
        self.order_policy = p;
        self
    }

    /// Sets the prefetch window: the number of planned tasks whose inputs
    /// the worker prefetches, counting the task about to start (the
    /// `prefetch_window` field says more).
    pub fn prefetch_window(mut self, w: usize) -> Self {
        self.prefetch_window = w;
        self
    }

    /// Sets the probing seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Registers a known array geometry.
    pub fn with_geometry(mut self, name: impl Into<String>, len: u64, block_size: u64) -> Self {
        self.geometry.push((name.into(), len, block_size));
        self
    }

    /// Sets the storage nodes' fault-recovery policy.
    pub fn recovery(mut self, r: RecoveryPolicy) -> Self {
        self.recovery = r;
        self
    }

    /// Sets the faults injected into the run's storage I/O.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}
