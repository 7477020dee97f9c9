//! Cluster wiring: mounts the storage architecture of paper Fig. 2 onto a
//! filter-stream layout.
//!
//! One storage filter instance and one I/O filter instance per node; storage
//! filters are fully peer-to-peer connected (an addressed self-loop stream);
//! each storage talks to its node's I/O filter over an aligned stream. Any
//! number of client filter declarations can then be attached with
//! [`StorageCluster::attach_clients`], which assigns each declaration a
//! contiguous global client-id range used as the reply address space.

use crate::filterimpl::{ports, ClientPortMap, IoFilter, RecoveryPolicy, StorageFilter};
use crate::node::NodeConfig;
use crate::pool::BlockPool;
use dooc_filterstream::{Delivery, FaultPlan, FilterId, Layout, NodeId};
use dooc_sync::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

/// Capacity of storage-related streams (requests can be large block
/// payloads; a modest bound keeps backpressure effective).
const STORAGE_STREAM_CAP: usize = 1024;

/// Handle to a storage cluster mounted in a layout.
pub struct StorageCluster {
    /// The storage filter declaration (one instance per node).
    pub storage: FilterId,
    /// The I/O filter declaration (one instance per node).
    pub io: FilterId,
    nnodes: usize,
    /// Each node's buffer pool, shared by its I/O filter and its clients.
    pools: Vec<BlockPool>,
    port_map: Arc<Mutex<ClientPortMap>>,
    next_client_port: usize,
    next_client_base: u64,
}

impl StorageCluster {
    /// Mounts storage + I/O filters for `scratch_dirs.len()` nodes into
    /// `layout`. Node `i` uses `scratch_dirs[i]` and `memory_budget` bytes of
    /// block cache. Blocks already present in a scratch directory are
    /// discovered at startup.
    pub fn build(
        layout: &mut Layout,
        scratch_dirs: Vec<PathBuf>,
        memory_budget: u64,
        seed: u64,
    ) -> Self {
        Self::build_with(
            layout,
            scratch_dirs,
            memory_budget,
            seed,
            RecoveryPolicy::default(),
            FaultPlan::default(),
        )
    }

    /// Like [`StorageCluster::build`] but with an explicit fault-recovery
    /// policy (the I/O-read retry budget) applied by every node's I/O
    /// filter, and the run's `faults` injected there.
    pub fn build_with(
        layout: &mut Layout,
        scratch_dirs: Vec<PathBuf>,
        memory_budget: u64,
        seed: u64,
        recovery: RecoveryPolicy,
        faults: FaultPlan,
    ) -> Self {
        let nnodes = scratch_dirs.len();
        assert!(nnodes > 0, "a cluster needs at least one node");
        let nodes: Vec<NodeId> = (0..nnodes).map(NodeId).collect();
        let port_map = Arc::new(Mutex::new(ClientPortMap::default()));

        let pm = Arc::clone(&port_map);
        let dirs = scratch_dirs.clone();
        let storage = layout.add_replicated("storage", nodes.clone(), move |i| {
            let cfg = NodeConfig {
                node: i as u64,
                nnodes: nnodes as u64,
                memory_budget,
                seed: seed.wrapping_add(i as u64),
            };
            // Snapshot the port map at spawn time (attach_clients must run
            // before Runtime::run, which is guaranteed since both consume
            // the layout by value).
            let snapshot = Arc::new(pm.lock().clone());
            Box::new(StorageFilter::recoverable(cfg, dirs[i].clone(), snapshot))
        });

        // The one place a node's pool is made: its I/O filter reads blocks
        // into it, its clients take their output buffers from it, and every
        // buffer finds its way back from wherever its last reference drops.
        let pools: Vec<BlockPool> = (0..nnodes)
            .map(|i| BlockPool::new(i as u64, memory_budget))
            .collect();
        let dirs = scratch_dirs;
        let io_pools = pools.clone();
        let io = layout.add_replicated("io", nodes, move |i| {
            Box::new(
                IoFilter::new(dirs[i].clone(), io_pools[i].clone()).with_faults(
                    NodeId(i),
                    faults.clone(),
                    recovery.clone(),
                ),
            )
        });

        // Peer-to-peer: addressed self-loop between storage instances.
        layout.connect_with(
            storage,
            ports::PEER_OUT,
            storage,
            ports::PEER_IN,
            Delivery::Addressed,
            STORAGE_STREAM_CAP,
        );
        // Storage <-> I/O, instance-aligned.
        layout.connect_with(
            storage,
            ports::IO_OUT,
            io,
            ports::IO_CMD,
            Delivery::Aligned,
            STORAGE_STREAM_CAP,
        );
        layout.connect_with(
            io,
            ports::IO_REPLY,
            storage,
            ports::IO_IN,
            Delivery::Aligned,
            STORAGE_STREAM_CAP,
        );

        Self {
            storage,
            io,
            nnodes,
            pools,
            port_map,
            next_client_port: 0,
            next_client_base: 0,
        }
    }

    /// Number of nodes in the cluster.
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// Node `node`'s buffer pool: what a client on that node fills its
    /// outputs in, so they recycle with the blocks the node loads.
    pub fn block_pool(&self, node: usize) -> &BlockPool {
        &self.pools[node]
    }

    /// Attaches a client filter declaration with `ninstances` instances.
    ///
    /// Wires `clients.{req_port} -> storage.clients` (addressed: instance `j`
    /// sends to its node's storage) and a dedicated addressed reply stream
    /// back to `clients.{rep_port}`. Returns the declaration's base global
    /// client id: instance `j` must identify itself as `base + j` in
    /// requests (pass `base + ctx.instance` to
    /// [`crate::StorageClient::new`]).
    pub fn attach_clients(
        &mut self,
        layout: &mut Layout,
        clients: FilterId,
        ninstances: usize,
        req_port: &str,
        rep_port: &str,
    ) -> u64 {
        let base = self.next_client_base;
        let reply_out = format!("to_clients_{}", self.next_client_port);
        self.next_client_port += 1;
        self.next_client_base += ninstances as u64;
        self.port_map
            .lock()
            .entries
            .push((reply_out.clone(), base, ninstances as u64));
        layout.connect_with(
            clients,
            req_port,
            self.storage,
            ports::CLIENTS_IN,
            Delivery::Addressed,
            STORAGE_STREAM_CAP,
        );
        layout.connect_with(
            self.storage,
            reply_out,
            clients,
            rep_port,
            Delivery::Addressed,
            STORAGE_STREAM_CAP,
        );
        base
    }
}
