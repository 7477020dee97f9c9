//! The storage and I/O filters (paper Fig. 2).
//!
//! [`StorageFilter`] wraps a [`StorageState`] in a dataflow filter: it
//! multiplexes three input ports (client requests, peer messages, I/O
//! completions), feeds them to the state machine, and performs the returned
//! actions on its output ports.
//!
//! [`IoFilter`] is "a separate I/O filter … only connected to the storage
//! filter", turning [`IoCmd`]s into filesystem operations against the node's
//! scratch directory so that "the interactions with the file system [are]
//! completely asynchronous".

use crate::meta::ArrayMeta;
use crate::node::{storage_obs, Action, DiscoveredBlock, NodeConfig, StorageState};
use crate::pool::BlockPool;
use crate::proto::{ClientMsg, IoCmd, IoReply, PeerMsg};
use bytes::Bytes;
use dooc_filterstream::stream::{SelectEvent, SelectOutcome, StreamSet};
use dooc_filterstream::{Fault, FaultPlan, Filter, FilterContext, NodeId, Site};
use dooc_obs::Category;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Port names used by the storage filter.
pub mod ports {
    /// Input: client requests (addressed fan-in).
    pub const CLIENTS_IN: &str = "clients";
    /// Input: peer messages.
    pub const PEER_IN: &str = "peer_in";
    /// Output: peer messages (addressed, self-loop on the storage filter).
    pub const PEER_OUT: &str = "peer_out";
    /// Input: I/O completions.
    pub const IO_IN: &str = "io_in";
    /// Output: I/O commands (aligned to the node's I/O filter).
    pub const IO_OUT: &str = "io_out";
    /// I/O filter input port.
    pub const IO_CMD: &str = "cmd";
    /// I/O filter output port.
    pub const IO_REPLY: &str = "reply";
}

/// Maps global client ids to (output port, local instance): several client
/// filter *declarations* can share one storage cluster; each declaration gets
/// a contiguous id range and its own reply port.
#[derive(Clone, Debug, Default)]
pub struct ClientPortMap {
    /// (port name, base id, instance count).
    pub entries: Vec<(String, u64, u64)>,
}

impl ClientPortMap {
    /// Resolves a global client id to `(port, local instance)`.
    pub fn resolve(&self, client: u64) -> Option<(&str, usize)> {
        self.entries
            .iter()
            .find(|(_, base, count)| client >= *base && client < base + count)
            .map(|(port, base, _)| (port.as_str(), (client - base) as usize))
    }
}

/// The per-node storage filter.
pub struct StorageFilter {
    cfg: NodeConfig,
    scratch: PathBuf,
    ports: Arc<ClientPortMap>,
}

impl StorageFilter {
    /// A node that starts from `cfg` and what a scan of its `scratch`
    /// directory finds there when it runs (arrays staged before the run,
    /// or persisted by an earlier one). A directory that cannot be read
    /// fails the run; a missing one is empty.
    pub fn recoverable(cfg: NodeConfig, scratch: PathBuf, ports: Arc<ClientPortMap>) -> Self {
        Self {
            cfg,
            scratch,
            ports,
        }
    }

    fn perform(
        &mut self,
        ctx: &mut FilterContext,
        actions: Vec<Action>,
    ) -> dooc_filterstream::Result<()> {
        for a in actions {
            match a {
                Action::Reply { client, reply } => {
                    let (port, inst) = self
                        .ports
                        .resolve(client)
                        .ok_or_else(|| ctx.error(format!("no client port for id {client}")))?;
                    let port = port.to_string();
                    ctx.output(&port)?.send_to(NodeId(inst), reply.encode())?;
                }
                Action::Peer { node, msg } => {
                    ctx.output(ports::PEER_OUT)?
                        .send_to(NodeId(node as usize), msg.encode())?;
                }
                Action::Io(cmd) => {
                    ctx.output(ports::IO_OUT)?.send(cmd.encode())?;
                }
            }
        }
        Ok(())
    }
}

impl Filter for StorageFilter {
    fn run(&mut self, ctx: &mut FilterContext) -> dooc_filterstream::Result<()> {
        let discovered = scan_scratch(&self.scratch).map_err(|e| {
            let dir = self.scratch.display();
            ctx.error(format!("scratch directory {dir} cannot be scanned: {e}"))
        })?;
        let mut state = StorageState::new(self.cfg.clone(), discovered);
        // Own the three input endpoints in one StreamSet: indices 0/1/2 are
        // clients/peers/io for the SelectEvent arms below.
        let mut set = StreamSet::new(vec![
            ctx.take_input(ports::CLIENTS_IN)?,
            ctx.take_input(ports::PEER_IN)?,
            ctx.take_input(ports::IO_IN)?,
        ]);
        loop {
            // While a fetch is stalled, poll with a short timeout and
            // re-probe on each tick.
            let timeout = state
                .needs_tick()
                .then(|| std::time::Duration::from_millis(2));
            let event = match set.event_timeout(timeout) {
                SelectOutcome::Event(ev) => ev,
                SelectOutcome::AllClosed => return Ok(()), // every input closed
                SelectOutcome::Timeout => {
                    let acts = state.on_tick();
                    self.perform(ctx, acts)?;
                    continue;
                }
            };
            let node = ctx.node.0 as i64;
            let actions = match event {
                SelectEvent::Buffer(0, buf) => {
                    let _span = dooc_obs::enabled().then(|| {
                        dooc_obs::span(dooc_obs::Category::Storage, "storage:client", node)
                    });
                    let msg = ClientMsg::decode(&buf)
                        .map_err(|e| ctx.error(format!("client decode: {e}")))?;
                    state.handle_client(msg)
                }
                SelectEvent::Buffer(1, buf) => {
                    let _span = dooc_obs::enabled()
                        .then(|| dooc_obs::span(dooc_obs::Category::Storage, "storage:peer", node));
                    // Messages that need an answer carry their reply address
                    // (Fetch's from_node); the others are source-agnostic.
                    let msg = PeerMsg::decode(&buf)
                        .map_err(|e| ctx.error(format!("peer decode: {e}")))?;
                    state.handle_peer(msg)
                }
                SelectEvent::Buffer(_, buf) => {
                    let _span = dooc_obs::enabled()
                        .then(|| dooc_obs::span(dooc_obs::Category::Storage, "storage:io", node));
                    let msg =
                        IoReply::decode(&buf).map_err(|e| ctx.error(format!("io decode: {e}")))?;
                    state.handle_io(msg)
                }
                SelectEvent::Closed(0) => {
                    // Every client link gone (driver finished or crashed):
                    // implicit shutdown so the cluster can quiesce.
                    state.force_local_done()
                }
                SelectEvent::Closed(_) => Vec::new(),
            };
            self.perform(ctx, actions)?;
            if state.ready_to_exit() {
                // The whole cluster is quiescent: no peer will fetch again.
                // Close outgoing links (cascading I/O filter exit and, once
                // every node does this, peer-stream closure), then drain
                // those two. The client link is not waited for: the local
                // client has sent its Shutdown, and a read guard the
                // application leaked would hold the link open forever.
                ctx.close_output(ports::PEER_OUT);
                ctx.close_output(ports::IO_OUT);
                while !(set.is_closed(1) && set.is_closed(2)) && set.event().is_some() {}
                return Ok(());
            }
        }
    }
}

/// Separator between array name and block index in scratch file names.
const SEP: char = '@';

fn block_path(scratch: &Path, array: &str, block: u64) -> PathBuf {
    scratch.join(format!("{array}{SEP}{block}"))
}

fn meta_path(scratch: &Path, array: &str) -> PathBuf {
    scratch.join(format!("{array}{SEP}meta"))
}

/// How hard the I/O filter retries a failed disk read before it answers
/// with the failure. Peer fetches have no knobs: a fetch may legitimately
/// wait forever for a producer task that has not run yet, and the streams
/// that carry probes and answers neither lose nor reorder them.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// How many times a failed *read* is tried again before the storage
    /// node's waiters get [`crate::StorageError::IoFailed`]. 0 disables
    /// retries.
    pub io_retry_max: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { io_retry_max: 2 }
    }
}

/// The per-node I/O filter: executes filesystem commands for its storage
/// filter until the command stream closes.
pub struct IoFilter {
    scratch: PathBuf,
    /// The node's buffer pool: every block is read into one of its buffers.
    pool: BlockPool,
    /// Arrays whose geometry sidecar this filter has already written (or
    /// found in place): later spills of the array skip the probe.
    sidecars: std::collections::HashSet<String>,
    /// The node this filter serves, the run's faults at its sites, and how
    /// often a failed read is tried again.
    node: NodeId,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
}

impl IoFilter {
    /// Creates an I/O filter rooted at `scratch` (created if missing) that
    /// reads blocks into buffers of `pool`.
    pub fn new(scratch: PathBuf, pool: BlockPool) -> Self {
        Self {
            scratch,
            pool,
            sidecars: std::collections::HashSet::new(),
            node: NodeId(0),
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The same filter, serving `node`, injecting `faults` at
    /// [`Site::IoRead`] and [`Site::IoWrite`], and retrying a failed read as
    /// `recovery` says.
    pub fn with_faults(
        mut self,
        node: NodeId,
        faults: FaultPlan,
        recovery: RecoveryPolicy,
    ) -> Self {
        self.node = node;
        self.faults = faults;
        self.recovery = recovery;
        self
    }

    /// Runs one command to its one answer. A write or a delete is tried
    /// once.
    fn exec(&mut self, cmd: IoCmd) -> IoReply {
        match cmd {
            IoCmd::Read { array, block, len } => match self.read_retrying(&array, block, len) {
                Ok(data) => IoReply::ReadDone { array, block, data },
                Err(message) => IoReply::Error {
                    array,
                    block,
                    message,
                },
            },
            IoCmd::Write {
                array,
                block,
                len,
                block_size,
                data,
            } => {
                let written = self
                    .fault(Site::IoWrite)
                    .and_then(|()| self.write_block(&array, block, len, block_size, &data));
                match written {
                    Ok(bytes) => IoReply::WriteDone {
                        array,
                        block,
                        bytes,
                    },
                    Err(e) => IoReply::Error {
                        array,
                        block,
                        message: e.to_string(),
                    },
                }
            }
            IoCmd::DeleteFiles { array, nblocks } => {
                let block = u64::MAX;
                match self
                    .fault(Site::IoWrite)
                    .and_then(|()| self.delete_files(&array, nblocks))
                {
                    Ok(()) => IoReply::WriteDone {
                        array,
                        block,
                        bytes: 0,
                    },
                    Err(e) => IoReply::Error {
                        array,
                        block,
                        message: e.to_string(),
                    },
                }
            }
        }
    }

    /// Reads a block, trying up to `1 + io_retry_max` times, each try at
    /// once: an injected fault is drawn per try, and no fault the code sees
    /// depends on time. The final error names how many tries it took.
    fn read_retrying(&self, array: &str, block: u64, len: u64) -> Result<Bytes, String> {
        let max = self.recovery.io_retry_max;
        let mut attempt = 1u64;
        loop {
            match self
                .fault(Site::IoRead)
                .and_then(|()| self.read_block(array, block, len))
            {
                Ok(data) => return Ok(data),
                Err(e) if attempt > u64::from(max) => {
                    return Err(format!("{e} ({attempt} attempts)"))
                }
                Err(e) => {
                    let node = self.node.0 as i64;
                    dooc_obs::instant_arg(Category::Fault, "storage:io_error", node, || {
                        format!("{array}@{block}: {e} (retry {attempt}/{max})")
                    });
                    storage_obs().io_retries.inc();
                    dooc_obs::instant_arg(Category::Fault, "storage:io_retry", node, || {
                        format!("{array}@{block} re-issued")
                    });
                }
            }
            attempt += 1;
        }
    }

    /// The run's fault at `site` for one try: an injected delay models a
    /// slow device and the try goes on; an injected error fails the try
    /// without touching the disk.
    fn fault(&self, site: Site) -> std::io::Result<()> {
        match self.faults.at(self.node, site) {
            Some(Fault::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(Fault::Error) => Err(std::io::Error::other(format!("injected fault at {site}"))),
            None => Ok(()),
        }
    }

    /// Reads one block file into the pooled buffer that becomes the block.
    /// The read is bounded by the expected length, so a file the disk lies
    /// about (longer or shorter than `len`) is a typed error that never
    /// buffers more than `len + 1` bytes. On every error the buffer drops
    /// here, which is its way back to the pool.
    fn read_block(&self, array: &str, block: u64, len: u64) -> std::io::Result<Bytes> {
        let mut path = block_path(&self.scratch, array, block);
        let f = match std::fs::File::open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Discovered single-file arrays live under their bare name.
                path = self.scratch.join(array);
                std::fs::File::open(&path)?
            }
            other => other?,
        };
        let mut buf = self.pool.take(len as usize + 1);
        // A recycled buffer must show nothing of its previous tenant.
        buf.clear();
        f.take(len + 1).read_to_end(&mut buf)?;
        if buf.len() as u64 != len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "block file {} is not {len} bytes long (read {})",
                    path.display(),
                    buf.len()
                ),
            ));
        }
        let data = buf.freeze();
        assert_eq!(
            data.len() as u64,
            len,
            "the block is exactly what was asked"
        );
        Ok(data)
    }

    fn write_block(
        &mut self,
        array: &str,
        block: u64,
        len: u64,
        block_size: u64,
        data: &Bytes,
    ) -> std::io::Result<u64> {
        std::fs::create_dir_all(&self.scratch)?;
        // Geometry sidecar first (idempotent).
        if !self.sidecars.contains(array) {
            let mpath = meta_path(&self.scratch, array);
            if !mpath.exists() {
                let mut mf = std::fs::File::create(&mpath)?;
                mf.write_all(&len.to_le_bytes())?;
                mf.write_all(&block_size.to_le_bytes())?;
            }
            self.sidecars.insert(array.to_string());
        }
        let path = block_path(&self.scratch, array, block);
        let tmp = path.with_extension("tmp");
        std::fs::File::create(&tmp)?.write_all(data)?;
        std::fs::rename(&tmp, &path)?;
        Ok(data.len() as u64)
    }

    /// Removes an array's files by name — block files `0..nblocks`, the
    /// geometry sidecar, the bare-name form of a staged single-file array —
    /// whichever of them exist. The directory is not listed: a delete costs
    /// the array's own files, not everyone's.
    fn delete_files(&mut self, array: &str, nblocks: u64) -> std::io::Result<()> {
        self.sidecars.remove(array);
        let paths = (0..nblocks)
            .map(|b| block_path(&self.scratch, array, b))
            .chain([meta_path(&self.scratch, array), self.scratch.join(array)]);
        for path in paths {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

impl Filter for IoFilter {
    fn run(&mut self, ctx: &mut FilterContext) -> dooc_filterstream::Result<()> {
        while let Some(buf) = ctx.input(ports::IO_CMD)?.recv() {
            let cmd = IoCmd::decode(&buf).map_err(|e| ctx.error(format!("cmd decode: {e}")))?;
            let reply = self.exec(cmd);
            // The storage may already be shutting down; a closed reply
            // stream then just ends this filter.
            if ctx.output(ports::IO_REPLY)?.send(reply.encode()).is_err() {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Scans a scratch directory at startup and reports every block found, with
/// geometry from sidecars (spilled arrays) or file sizes (externally staged
/// single-file arrays such as the SpMV sub-matrices).
pub fn scan_scratch(dir: &Path) -> std::io::Result<Vec<DiscoveredBlock>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    // First pass: sidecars.
    let mut geometry: std::collections::HashMap<String, (u64, u64)> =
        std::collections::HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(array) = name.strip_suffix(&format!("{SEP}meta")) {
            let mut f = std::fs::File::open(entry.path())?;
            let mut w = [0u8; 16];
            if f.read_exact(&mut w).is_ok() {
                let (mut lo, mut hi) = ([0u8; 8], [0u8; 8]);
                lo.copy_from_slice(&w[0..8]);
                hi.copy_from_slice(&w[8..16]);
                let len = u64::from_le_bytes(lo);
                let bs = u64::from_le_bytes(hi);
                if bs > 0 {
                    geometry.insert(array.to_string(), (len, bs));
                }
            }
        }
    }
    // Second pass: blocks and single-file arrays.
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        match name.rsplit_once(SEP) {
            Some((array, suffix)) => {
                if suffix == "meta" {
                    continue;
                }
                let Ok(block) = suffix.parse::<u64>() else {
                    continue; // stray .tmp or foreign file
                };
                let Some(&(len, bs)) = geometry.get(array) else {
                    continue; // block without sidecar: unusable
                };
                out.push(DiscoveredBlock {
                    meta: ArrayMeta::new(array, len, bs),
                    block,
                });
            }
            None => {
                // Whole-array single-block file.
                let len = entry.metadata()?.len();
                if len == 0 {
                    continue;
                }
                out.push(DiscoveredBlock {
                    meta: ArrayMeta::new(name, len, len),
                    block: 0,
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.meta.name, a.block).cmp(&(&b.meta.name, b.block)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Reply;
    use crate::StorageError;
    use dooc_filterstream::FaultSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dooc-io-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    /// A one-node storage over `dir` with a read of `len` bytes of `array`
    /// logged, and the load it issued.
    fn reading(dir: &Path, array: &str, len: u64) -> (StorageState, IoCmd) {
        let cfg = NodeConfig {
            node: 0,
            nnodes: 1,
            memory_budget: 1 << 20,
            seed: 1,
        };
        let mut st = StorageState::new(cfg, scan_scratch(dir).expect("scan"));
        let acts = st.handle_client(ClientMsg::ReadReq {
            req: 1,
            client: 0,
            array: array.into(),
            iv: crate::meta::Interval::new(0, len),
        });
        let [Action::Io(cmd)] = &acts[..] else {
            panic!("expected one load, got {acts:?}");
        };
        (st, cmd.clone())
    }

    /// An I/O filter over `dir` whose `site` misbehaves as `spec` says and
    /// that tries a failed read `1 + io_retry_max` times, with its plan.
    fn faulty(dir: &Path, site: Site, spec: FaultSpec, io_retry_max: u32) -> (IoFilter, FaultPlan) {
        let faults = FaultPlan::new(0).with(site, spec);
        let io = IoFilter::new(dir.to_path_buf(), BlockPool::new(0, 1 << 20)).with_faults(
            NodeId(0),
            faults.clone(),
            RecoveryPolicy { io_retry_max },
        );
        (io, faults)
    }

    /// A read that fails fewer times than its retry budget allows is tried
    /// again at once, and the node only ever sees the bytes.
    #[test]
    fn a_failed_read_is_tried_again_until_it_succeeds() {
        let dir = tmpdir("retry");
        std::fs::write(dir.join("m"), vec![6u8; 64]).expect("stage");
        for n in 1..=3 {
            let (mut io, faults) = faulty(&dir, Site::IoRead, FaultSpec::error().with_max(n), 3);
            let (mut st, cmd) = reading(&dir, "m", 64);
            let done = io.exec(cmd);
            assert!(matches!(done, IoReply::ReadDone { .. }), "{n}: {done:?}");
            assert_eq!(faults.injected(Site::IoRead), n);
            let acts = st.handle_io(done);
            assert!(
                matches!(
                    &acts[..],
                    [Action::Reply {
                        reply: Reply::ReadReady { req: 1, .. },
                        ..
                    }]
                ),
                "{n}: {acts:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A read that fails every try is one error naming how many tries it
    /// took, and the node's waiter gets it as its final, typed answer.
    #[test]
    fn a_read_that_fails_every_try_is_one_error_naming_its_attempts() {
        let dir = tmpdir("exhaust");
        std::fs::write(dir.join("m"), vec![6u8; 64]).expect("stage");
        for io_retry_max in [0, 2] {
            let (mut io, faults) = faulty(&dir, Site::IoRead, FaultSpec::error(), io_retry_max);
            let (mut st, cmd) = reading(&dir, "m", 64);
            let attempts = format!("({} attempts)", io_retry_max + 1);
            let failed = io.exec(cmd);
            assert!(
                matches!(&failed, IoReply::Error { message, .. } if message.ends_with(&attempts)),
                "{failed:?}"
            );
            assert_eq!(faults.injected(Site::IoRead), u64::from(io_retry_max) + 1);
            match &st.handle_io(failed)[..] {
                [Action::Reply {
                    reply:
                        Reply::Err {
                            req: 1,
                            error: StorageError::IoFailed(m),
                        },
                    ..
                }] => assert!(m.contains(&attempts), "attempt count in '{m}'"),
                other => panic!("expected IoFailed, got {other:?}"),
            }
            assert!(st.is_quiescent(), "no read left in flight");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write and a delete are tried once, whatever the read budget: their
    /// error goes straight back to the node.
    #[test]
    fn a_failed_write_or_delete_is_tried_once() {
        let dir = tmpdir("wfail");
        let (mut io, faults) = faulty(&dir, Site::IoWrite, FaultSpec::error(), 2);
        let wrote = io.exec(IoCmd::Write {
            array: "a".into(),
            block: 0,
            len: 8,
            block_size: 8,
            data: Bytes::from_static(&[1; 8]),
        });
        assert!(
            matches!(&wrote, IoReply::Error { message, .. } if message == "injected fault at storage.io.write"),
            "{wrote:?}"
        );
        assert_eq!(faults.injected(Site::IoWrite), 1);
        let deleted = io.exec(IoCmd::DeleteFiles {
            array: "a".into(),
            nblocks: 1,
        });
        assert!(
            matches!(
                deleted,
                IoReply::Error {
                    block: u64::MAX,
                    ..
                }
            ),
            "{deleted:?}"
        );
        assert_eq!(faults.injected(Site::IoWrite), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_write_then_read_roundtrip() {
        let dir = tmpdir("rt");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        let data = Bytes::from(vec![7u8; 64]);
        let rep = io.exec(IoCmd::Write {
            array: "arr".into(),
            block: 2,
            len: 300,
            block_size: 64,
            data: data.clone(),
        });
        assert_eq!(
            rep,
            IoReply::WriteDone {
                array: "arr".into(),
                block: 2,
                bytes: 64
            }
        );
        let rep = io.exec(IoCmd::Read {
            array: "arr".into(),
            block: 2,
            len: 64,
        });
        assert_eq!(
            rep,
            IoReply::ReadDone {
                array: "arr".into(),
                block: 2,
                data
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The zero-copy contract of the read path, hop by hop: the buffer the
    /// I/O filter read the file into crosses `IoReply`'s encode/decode,
    /// becomes the storage node's sealed block, and is what the waiting
    /// reader's `ReadReady` lends — one allocation, never copied.
    #[test]
    fn block_read_from_disk_reaches_the_reader_in_the_buffer_it_was_read_into() {
        let dir = tmpdir("ptr");
        std::fs::write(dir.join("A_0_0.crs"), vec![9u8; 4096]).expect("stage");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        let (mut st, cmd) = reading(&dir, "A_0_0.crs", 4096);
        let cmd = IoCmd::decode(&cmd.encode()).expect("cmd crosses the stream");
        let done = io.exec(cmd);
        let IoReply::ReadDone {
            data: read_into, ..
        } = &done
        else {
            panic!("read failed: {done:?}");
        };
        let over_the_stream = IoReply::decode(&done.encode()).expect("reply crosses the stream");
        let acts = st.handle_io(over_the_stream);
        let [Action::Reply { reply, .. }] = &acts[..] else {
            panic!("expected the waiter's reply, got {acts:?}");
        };
        match Reply::decode(&reply.encode()).expect("reply crosses the stream") {
            Reply::ReadReady { data, .. } => {
                assert_eq!(&data[..], &[9u8; 4096][..]);
                assert_eq!(data.as_ptr(), read_into.as_ptr(), "no hop copied the block");
            }
            other => panic!("expected ReadReady, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_read_missing_is_error() {
        let dir = tmpdir("miss");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        assert!(matches!(
            io.exec(IoCmd::Read {
                array: "ghost".into(),
                block: 0,
                len: 8
            }),
            IoReply::Error { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_read_length_mismatch_is_error() {
        let dir = tmpdir("len");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        io.exec(IoCmd::Write {
            array: "a".into(),
            block: 0,
            len: 8,
            block_size: 8,
            data: Bytes::from_static(&[1; 8]),
        });
        assert!(matches!(
            io.exec(IoCmd::Read {
                array: "a".into(),
                block: 0,
                len: 9
            }),
            IoReply::Error { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pool holding one idle buffer of `len`'s class, every byte `0xEE`:
    /// what a read finds when it recycles a larger, non-zero previous tenant.
    fn seeded_pool(len: usize) -> (BlockPool, usize) {
        let pool = BlockPool::new(0, 1 << 24);
        let mut dirty = pool.take(len);
        let cap = dirty.capacity();
        dirty.resize(cap, 0xEE);
        drop(dirty);
        assert_eq!(pool.retained_bytes(), cap);
        (pool, cap)
    }

    /// The lying disk against a recycled buffer: whatever the file turns out
    /// to be, the block is exactly the file's bytes or a typed error, the
    /// previous tenant's bytes never show, and the buffer is back in the
    /// pool the moment nobody holds it.
    #[test]
    fn recycled_read_buffer_never_leaks_its_previous_tenant_and_always_returns() {
        let dir = tmpdir("recycle");
        const LEN: u64 = 10_000;
        let (pool, cap) = seeded_pool(LEN as usize + 1);
        let io = IoFilter::new(dir.clone(), pool.clone());
        let file = dir.join("a@0");
        let expect_err = |what: &str| match io.read_block("a", 0, LEN) {
            Err(e) => assert!(e.to_string().contains(what), "{e}"),
            Ok(b) => panic!("expected an error, read {} bytes", b.len()),
        };

        // Missing: typed error before any buffer is taken.
        expect_err("No such file");
        assert_eq!(pool.retained_bytes(), cap);
        // Truncated and oversized: typed errors, the buffer comes back.
        std::fs::write(&file, vec![1u8; 9]).expect("short file");
        expect_err("(read 9)");
        assert_eq!(pool.retained_bytes(), cap);
        std::fs::write(&file, vec![2u8; 3 * LEN as usize]).expect("long file");
        expect_err(&format!("(read {})", LEN + 1));
        assert_eq!(pool.retained_bytes(), cap);

        // Intact: exactly `LEN` bytes, all the file's, in the recycled
        // allocation; the 0xEE beyond them is unreachable.
        std::fs::write(&file, vec![3u8; LEN as usize]).expect("intact file");
        let block = io.read_block("a", 0, LEN).expect("intact read");
        assert_eq!(pool.retained_bytes(), 0, "the seeded buffer was reused");
        assert_eq!(block.len() as u64, LEN);
        assert!(block.iter().all(|&b| b == 3), "previous tenant leaked");
        let reader = block.slice(100..200);
        drop(block);
        assert_eq!(pool.retained_bytes(), 0, "a reader still holds the block");
        drop(reader);
        assert_eq!(pool.retained_bytes(), cap);

        // A shorter block next, in the same buffer again.
        std::fs::write(dir.join("a@1"), vec![4u8; 9_500]).expect("second block");
        let block = io.read_block("a", 1, 9_500).expect("second read");
        assert_eq!(&block[..], &[4u8; 9_500][..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected `storage.io.read` fault fails each try before a buffer
    /// is taken, so there is none to give back.
    #[test]
    fn injected_read_fault_takes_no_buffer() {
        let dir = tmpdir("fault");
        let (pool, cap) = seeded_pool(8192);
        let faults = FaultPlan::new(0).with(Site::IoRead, FaultSpec::error());
        let mut io = IoFilter::new(dir.clone(), pool.clone()).with_faults(
            NodeId(0),
            faults,
            RecoveryPolicy::default(),
        );
        std::fs::write(dir.join("a@0"), vec![5u8; 8000]).expect("block");
        let reply = io.exec(IoCmd::Read {
            array: "a".into(),
            block: 0,
            len: 8000,
        });
        assert!(matches!(reply, IoReply::Error { .. }), "{reply:?}");
        assert_eq!(pool.retained_bytes(), cap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_finds_spilled_blocks_and_plain_files() {
        let dir = tmpdir("scan");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        io.exec(IoCmd::Write {
            array: "spilled".into(),
            block: 1,
            len: 100,
            block_size: 64,
            data: Bytes::from(vec![1u8; 36]),
        });
        io.exec(IoCmd::Write {
            array: "spilled".into(),
            block: 0,
            len: 100,
            block_size: 64,
            data: Bytes::from(vec![2u8; 64]),
        });
        std::fs::write(dir.join("plainfile"), vec![5u8; 42]).expect("stage file");
        let found = scan_scratch(&dir).expect("scan");
        assert_eq!(found.len(), 3);
        assert_eq!(found[0].meta.name, "plainfile");
        assert_eq!(found[0].meta.len, 42);
        assert_eq!(found[0].meta.block_size, 42);
        assert_eq!(found[1].meta.name, "spilled");
        assert_eq!(found[1].block, 0);
        assert_eq!(found[2].block, 1);
        assert_eq!(found[1].meta.len, 100);
        assert_eq!(found[1].meta.block_size, 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_ignores_orphan_blocks_and_empty_files() {
        let dir = tmpdir("orphan");
        std::fs::write(dir.join("orphan@3"), vec![1u8; 8]).expect("write");
        std::fs::write(dir.join("empty"), Vec::<u8>::new()).expect("write");
        let found = scan_scratch(&dir).expect("scan");
        assert!(found.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_files_removes_all_forms() {
        let dir = tmpdir("del");
        let mut io = IoFilter::new(dir.clone(), BlockPool::new(0, 1 << 20));
        io.exec(IoCmd::Write {
            array: "a".into(),
            block: 0,
            len: 8,
            block_size: 8,
            data: Bytes::from_static(&[1; 8]),
        });
        std::fs::write(dir.join("a"), vec![2u8; 4]).expect("stage");
        std::fs::write(dir.join("ab"), vec![2u8; 4]).expect("stage similar name");
        io.exec(IoCmd::DeleteFiles {
            array: "a".into(),
            nblocks: 1,
        });
        let names = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(&dir), vec!["ab"], "only the unrelated file remains");

        // Arrays sharing a prefix: `x_1_1` goes, block files and sidecar,
        // and `x_1_10` keeps every file of its own.
        for (array, blocks) in [("x_1_1", 2u64), ("x_1_10", 2)] {
            for block in 0..blocks {
                io.exec(IoCmd::Write {
                    array: array.into(),
                    block,
                    len: 16,
                    block_size: 8,
                    data: Bytes::from_static(&[3; 8]),
                });
            }
        }
        let reply = io.exec(IoCmd::DeleteFiles {
            array: "x_1_1".into(),
            nblocks: 2,
        });
        assert!(matches!(reply, IoReply::WriteDone { bytes: 0, .. }));
        assert_eq!(
            names(&dir),
            vec!["ab", "x_1_10@0", "x_1_10@1", "x_1_10@meta"],
            "the longer name's files survive"
        );
        // Deleting what is already gone is not an error.
        let again = io.exec(IoCmd::DeleteFiles {
            array: "x_1_1".into(),
            nblocks: 2,
        });
        assert!(matches!(again, IoReply::WriteDone { bytes: 0, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_port_map_resolution() {
        let m = ClientPortMap {
            entries: vec![("a".into(), 0, 2), ("b".into(), 2, 3)],
        };
        assert_eq!(m.resolve(0), Some(("a", 0)));
        assert_eq!(m.resolve(1), Some(("a", 1)));
        assert_eq!(m.resolve(2), Some(("b", 0)));
        assert_eq!(m.resolve(4), Some(("b", 2)));
        assert_eq!(m.resolve(5), None);
    }
}
