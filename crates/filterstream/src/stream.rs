//! Logical streams: unidirectional, untyped, possibly fanned out or in.
//!
//! A stream connects the producer instances of one filter to the consumer
//! instances of another. Delivery policies cover the parallelism styles of
//! DataCutter plus the addressed routing DOoC's storage layer needs:
//!
//! * [`Delivery::RoundRobin`] — demand-driven work sharing: all consumer
//!   instances pull from one shared queue (data parallelism for replicated,
//!   stateless filters);
//! * [`Delivery::Broadcast`] — every consumer instance receives every buffer
//!   (payloads are shared, not copied);
//! * [`Delivery::Aligned`] — producer instance *i* feeds consumer instance
//!   *i* (e.g. each node's storage filter to that node's I/O filter);
//! * [`Delivery::Addressed`] — the producer names the destination instance
//!   per buffer via [`StreamWriter::send_to`] (peer-to-peer storage traffic,
//!   replies to specific clients).
//!
//! Several streams may target the same *(consumer filter, input port)* pair
//! — fan-in — provided they agree on the delivery policy; their buffers are
//! merged into one inbox. The port closes once **all** producer endpoints of
//! **all** fanned-in streams have been dropped.
//!
//! Streams are bounded (default 256 buffers), giving natural backpressure: a
//! fast producer blocks rather than ballooning memory, as in the real
//! middleware.
//!
//! # Local and remote lanes
//!
//! Each consumer lane is either a channel in this process or an address on a
//! [`Transport`] ([`LaneTx`]). A writer routes per buffer: local lanes get
//! the `DataBuffer` directly (payload and bulk attachment moved through the
//! channel, never copied); remote lanes get a [`Frame`] whose payload and
//! bulk are the same shared [`bytes::Bytes`]. The delivery policy is applied
//! entirely on the producer side, so in-process and distributed runs make
//! identical routing decisions. When a writer with remote lanes drops, it
//! sends one `Close` frame per reachable remote lane; the receiving
//! runtime's router mirrors the producer-endpoint refcount and closes the
//! port once local drops and remote closes agree (see [`crate::runtime`]).

use crate::buffer::DataBuffer;
use crate::codec::Frame;
use crate::transport::Transport;
use crate::{FsError, NodeId, Result};
use dooc_obs::metrics::{counter, Counter};
use dooc_sync::atomic::{AtomicU64, Ordering};
use dooc_sync::channel::{bounded, Receiver, Select, Sender};
use std::sync::{Arc, OnceLock};

/// Stream-layer metric handles, resolved once (updates are gated relaxed
/// atomics, so the disabled cost per send/recv is one load and a branch).
struct FsObs {
    buffers_sent: &'static Counter,
    bytes_sent: &'static Counter,
    buffers_recv: &'static Counter,
    bytes_recv: &'static Counter,
}

fn fs_obs() -> &'static FsObs {
    static O: OnceLock<FsObs> = OnceLock::new();
    O.get_or_init(|| FsObs {
        buffers_sent: counter("fs.buffers_sent"),
        bytes_sent: counter("fs.bytes_sent"),
        buffers_recv: counter("fs.buffers_recv"),
        bytes_recv: counter("fs.bytes_recv"),
    })
}

/// Delivery policy of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Delivery {
    /// Each buffer goes to exactly one consumer instance, demand-driven.
    #[default]
    RoundRobin,
    /// Each buffer goes to every consumer instance.
    Broadcast,
    /// Producer instance `i` feeds consumer instance `i`; instance counts
    /// must match.
    Aligned,
    /// Producer picks the destination instance per buffer with
    /// [`StreamWriter::send_to`].
    Addressed,
}

/// Default bound on in-flight buffers per inbox lane.
pub const DEFAULT_CAPACITY: usize = 256;

/// Traffic counters of one stream, observable after the run (the
/// application "logs" the paper reads bandwidth from).
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Buffers sent by producers.
    pub buffers: AtomicU64,
    /// Total wire bytes sent by producers (before any broadcast fan-out).
    pub bytes: AtomicU64,
    /// Wire bytes that crossed a node boundary (sender node != receiver
    /// node). For broadcast this counts each remote replica.
    pub remote_bytes: AtomicU64,
}

impl StreamStats {
    /// Snapshot of (buffers, bytes, remote_bytes).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.buffers.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.remote_bytes.load(Ordering::Relaxed),
        )
    }
}

/// Enqueue/dequeue tally of one inbox, for the shutdown leak audit: every
/// buffer enqueued into a consumer lane (each broadcast replica counts as
/// one) should eventually be dequeued by a consumer; a shortfall at the end
/// of a run means buffers were abandoned in a lane. Byte totals use the
/// buffer wire size, so `bytes_enqueued == bytes_dequeued` at the end of a
/// clean run — the send/recv balance the obs tests assert. In distributed
/// runs the *receiving* process counts the enqueue (its router does the lane
/// insert), keeping the per-process balance exact.
#[derive(Debug, Default)]
pub struct PortCounters {
    /// Buffers enqueued into consumer lanes.
    pub enqueued: AtomicU64,
    /// Buffers dequeued by consumers.
    pub dequeued: AtomicU64,
    /// Wire bytes enqueued into consumer lanes.
    pub bytes_enqueued: AtomicU64,
    /// Wire bytes dequeued by consumers.
    pub bytes_dequeued: AtomicU64,
}

/// Producer-side address of one consumer lane: a channel in this process or
/// an `(inbox, lane)` slot on a remote node.
#[derive(Clone)]
pub(crate) enum LaneTx {
    Local(Sender<DataBuffer>),
    Remote { peer: NodeId, inbox: u16, lane: u32 },
}

/// The consumer-side channel set of one (filter, input port): either a
/// single shared queue or one lane per consumer instance.
#[derive(Clone)]
pub(crate) enum InboxLanes {
    Shared(LaneTx),
    PerConsumer(Vec<LaneTx>),
}

/// Inbox of one (consumer filter, input port): the receiving half that
/// consumer instances read from. Built once per port; every fanned-in stream
/// sends into the same lanes. In a distributed runtime only the lanes of
/// consumer instances placed in this process are backed by channels; the
/// rest are [`LaneTx::Remote`] addresses.
pub(crate) struct Inbox {
    pub delivery: Delivery,
    pub lanes: InboxLanes,
    readers: Vec<Option<StreamReader>>,
    pub consumer_nodes: Arc<[NodeId]>,
    pub counters: Arc<PortCounters>,
    transport: Option<Arc<dyn Transport>>,
}

impl Inbox {
    /// An all-local inbox (single-process runtime).
    pub fn new(
        delivery: Delivery,
        capacity: usize,
        consumer_nodes: &[NodeId],
        consumer_port: &str,
    ) -> Self {
        Self::build(delivery, capacity, consumer_nodes, consumer_port, None)
    }

    /// A distributed inbox: lanes for consumer instances placed on
    /// `transport.node()` are channels; the rest address `inbox_idx` on
    /// their owning node. For round-robin delivery every consumer must sit
    /// on one node (the runtime validates this before building inboxes).
    pub fn new_on(
        delivery: Delivery,
        capacity: usize,
        consumer_nodes: &[NodeId],
        consumer_port: &str,
        inbox_idx: u16,
        transport: Arc<dyn Transport>,
    ) -> Self {
        Self::build(
            delivery,
            capacity,
            consumer_nodes,
            consumer_port,
            Some((inbox_idx, transport)),
        )
    }

    fn build(
        delivery: Delivery,
        capacity: usize,
        consumer_nodes: &[NodeId],
        consumer_port: &str,
        remote: Option<(u16, Arc<dyn Transport>)>,
    ) -> Self {
        assert!(
            !consumer_nodes.is_empty(),
            "inbox needs at least one consumer"
        );
        let counters = Arc::new(PortCounters::default());
        let local = remote.as_ref().map(|(_, t)| t.node());
        let is_local = |n: NodeId| local.is_none_or(|me| me == n);
        let (lanes, readers) = match delivery {
            Delivery::RoundRobin => {
                if is_local(consumer_nodes[0]) {
                    debug_assert!(
                        consumer_nodes.iter().all(|&n| is_local(n)),
                        "round-robin consumers must share a node in distributed mode"
                    );
                    let (tx, rx) = bounded(capacity);
                    let readers = consumer_nodes
                        .iter()
                        .map(|_| {
                            Some(StreamReader {
                                port: consumer_port.to_string(),
                                rx: rx.clone(),
                                counters: Arc::clone(&counters),
                            })
                        })
                        .collect();
                    (InboxLanes::Shared(LaneTx::Local(tx)), readers)
                } else {
                    let inbox_idx = remote.as_ref().map(|(i, _)| *i).unwrap_or(0);
                    let lane = LaneTx::Remote {
                        peer: consumer_nodes[0],
                        inbox: inbox_idx,
                        lane: 0,
                    };
                    let readers = consumer_nodes.iter().map(|_| None).collect();
                    (InboxLanes::Shared(lane), readers)
                }
            }
            Delivery::Broadcast | Delivery::Aligned | Delivery::Addressed => {
                let mut txs = Vec::with_capacity(consumer_nodes.len());
                let mut readers = Vec::with_capacity(consumer_nodes.len());
                for (i, &n) in consumer_nodes.iter().enumerate() {
                    if is_local(n) {
                        let (tx, rx) = bounded(capacity);
                        txs.push(LaneTx::Local(tx));
                        readers.push(Some(StreamReader {
                            port: consumer_port.to_string(),
                            rx,
                            counters: Arc::clone(&counters),
                        }));
                    } else {
                        let inbox_idx = remote.as_ref().map(|(i, _)| *i).unwrap_or(0);
                        txs.push(LaneTx::Remote {
                            peer: n,
                            inbox: inbox_idx,
                            lane: i as u32,
                        });
                        readers.push(None);
                    }
                }
                (InboxLanes::PerConsumer(txs), readers)
            }
        };
        Self {
            delivery,
            lanes,
            readers,
            consumer_nodes: consumer_nodes.into(),
            counters,
            transport: remote.map(|(_, t)| t),
        }
    }

    /// Takes the reader of consumer instance `i` (exactly once; only local
    /// instances have one in distributed mode).
    pub fn take_reader(&mut self, i: usize) -> StreamReader {
        match self.readers[i].take() {
            Some(r) => r,
            None => panic!("reader {i} already taken — each consumer instance gets exactly one"),
        }
    }

    /// A sender clone for a local lane, used by the distributed runtime's
    /// router to feed frames from remote producers into the inbox. `None`
    /// for remote lanes.
    pub fn local_lane_sender(&self, lane: usize) -> Option<Sender<DataBuffer>> {
        match &self.lanes {
            InboxLanes::Shared(LaneTx::Local(tx)) if lane == 0 => Some(tx.clone()),
            InboxLanes::Shared(_) => None,
            InboxLanes::PerConsumer(lanes) => match lanes.get(lane) {
                Some(LaneTx::Local(tx)) => Some(tx.clone()),
                _ => None,
            },
        }
    }

    /// Creates a writer for producer instance `instance` placed on `node`.
    pub fn writer(
        &self,
        producer_port: &str,
        instance: usize,
        node: NodeId,
        stats: Arc<StreamStats>,
    ) -> StreamWriter {
        if self.delivery == Delivery::Aligned {
            assert!(
                instance < self.consumer_nodes.len(),
                "aligned stream requires consumer instance {instance} to exist"
            );
        }
        StreamWriter {
            port: producer_port.to_string(),
            delivery: self.delivery,
            lanes: self.lanes.clone(),
            stats,
            counters: Arc::clone(&self.counters),
            instance,
            from_node: node,
            consumer_nodes: Arc::clone(&self.consumer_nodes),
            transport: self.transport.clone(),
        }
    }
}

/// Producer endpoint of a stream. Dropping every producer endpoint of every
/// stream fanned into a port closes that port for consumers; endpoints with
/// remote lanes announce their drop with `Close` frames so the consumer-side
/// router can mirror the refcount.
pub struct StreamWriter {
    port: String,
    delivery: Delivery,
    lanes: InboxLanes,
    stats: Arc<StreamStats>,
    /// Inbox-level enqueue tally (shared by all streams fanned into the
    /// consumer port) for the shutdown leak audit.
    counters: Arc<PortCounters>,
    /// Producer instance index (selects the lane for aligned delivery).
    instance: usize,
    /// Node of the filter holding this writer.
    from_node: NodeId,
    /// Node of each consumer instance. For the shared (round-robin) lane the
    /// precise receiver of a buffer is unknowable before a demand-driven
    /// pull, so a buffer is charged as remote if *any* consumer sits on a
    /// different node — the pessimistic bound.
    consumer_nodes: Arc<[NodeId]>,
    /// Frame pipe for remote lanes; `None` in single-process runtimes.
    transport: Option<Arc<dyn Transport>>,
}

impl StreamWriter {
    /// Producer-side accounting shared by every delivery: global counters
    /// plus the per-stream stats. Local lane inserts additionally call
    /// [`Self::account_enqueued`].
    fn account_sent(&self, wire: u64, remote: bool) {
        fs_obs().buffers_sent.inc();
        fs_obs().bytes_sent.add(wire);
        self.stats.buffers.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(wire, Ordering::Relaxed);
        if remote {
            self.stats.remote_bytes.fetch_add(wire, Ordering::Relaxed);
        }
    }

    /// Leak-audit tally for a buffer placed into a *local* lane. Remote
    /// sends skip this: the receiving process's router counts the enqueue
    /// when it performs the lane insert, so each process balances on its
    /// own.
    fn account_enqueued(&self, wire: u64) {
        self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_enqueued
            .fetch_add(wire, Ordering::Relaxed);
    }

    fn send_remote(&self, peer: NodeId, inbox: u16, lane: u32, buf: &DataBuffer) -> Result<()> {
        let Some(t) = &self.transport else {
            return Err(FsError::Transport(format!(
                "port '{}' routes to {peer} but this writer has no transport",
                self.port
            )));
        };
        let frame = Frame::data(inbox, lane, buf.tag, buf.payload.clone());
        t.send(peer, frame.with_bulk(buf.bulk.clone()))
    }

    /// Sends a buffer. Blocks when the stream is at capacity. Fails if every
    /// consumer has terminated, or if this is an addressed stream (use
    /// [`StreamWriter::send_to`]).
    pub fn send(&self, buf: DataBuffer) -> Result<()> {
        let wire = buf.wire_size();
        match (&self.lanes, self.delivery) {
            (InboxLanes::Shared(LaneTx::Local(tx)), _) => {
                let remote = self.consumer_nodes.iter().any(|&n| n != self.from_node);
                tx.send(buf).map_err(|_| FsError::StreamClosed {
                    port: self.port.clone(),
                })?;
                self.account_enqueued(wire);
                self.account_sent(wire, remote);
            }
            (InboxLanes::Shared(LaneTx::Remote { peer, inbox, lane }), _) => {
                self.send_remote(*peer, *inbox, *lane, &buf)?;
                self.account_sent(wire, true);
            }
            (InboxLanes::PerConsumer(lanes), Delivery::Broadcast) => {
                let mut delivered = 0usize;
                for (i, lane) in lanes.iter().enumerate() {
                    match lane {
                        LaneTx::Local(tx) => {
                            if tx.send(buf.clone()).is_ok() {
                                delivered += 1;
                                self.account_enqueued(wire);
                                if self.consumer_nodes[i] != self.from_node {
                                    self.stats.remote_bytes.fetch_add(wire, Ordering::Relaxed);
                                }
                            }
                        }
                        LaneTx::Remote { peer, inbox, lane } => {
                            if self.send_remote(*peer, *inbox, *lane, &buf).is_ok() {
                                delivered += 1;
                                self.stats.remote_bytes.fetch_add(wire, Ordering::Relaxed);
                            }
                        }
                    }
                }
                if delivered == 0 {
                    return Err(FsError::StreamClosed {
                        port: self.port.clone(),
                    });
                }
                fs_obs().buffers_sent.inc();
                fs_obs().bytes_sent.add(wire);
                self.stats.buffers.fetch_add(1, Ordering::Relaxed);
                self.stats.bytes.fetch_add(wire, Ordering::Relaxed);
            }
            (InboxLanes::PerConsumer(lanes), Delivery::Aligned) => match &lanes[self.instance] {
                LaneTx::Local(tx) => {
                    let remote = self.consumer_nodes[self.instance] != self.from_node;
                    tx.send(buf).map_err(|_| FsError::StreamClosed {
                        port: self.port.clone(),
                    })?;
                    self.account_enqueued(wire);
                    self.account_sent(wire, remote);
                }
                LaneTx::Remote { peer, inbox, lane } => {
                    self.send_remote(*peer, *inbox, *lane, &buf)?;
                    self.account_sent(wire, true);
                }
            },
            (InboxLanes::PerConsumer(_), Delivery::Addressed) => {
                return Err(FsError::StreamClosed {
                    port: format!("{} (addressed stream requires send_to)", self.port),
                });
            }
            (InboxLanes::PerConsumer(_), Delivery::RoundRobin) => {
                unreachable!("round-robin inbox always uses a shared lane")
            }
        }
        Ok(())
    }

    /// Sends a buffer to consumer instance `dest` of an addressed stream.
    /// Destinations are [`NodeId`]s: every addressed stream in this codebase
    /// is consumed by a per-node filter whose instance *i* sits on node *i*,
    /// and the type forces callers to say which node they mean rather than
    /// do raw index arithmetic.
    pub fn send_to(&self, dest: NodeId, buf: DataBuffer) -> Result<()> {
        let wire = buf.wire_size();
        match &self.lanes {
            InboxLanes::PerConsumer(lanes) if self.delivery == Delivery::Addressed => {
                let lane = lanes.get(dest.0).ok_or_else(|| FsError::StreamClosed {
                    port: format!("{} (no consumer instance {dest})", self.port),
                })?;
                match lane {
                    LaneTx::Local(tx) => {
                        let remote = self.consumer_nodes[dest.0] != self.from_node;
                        tx.send(buf).map_err(|_| FsError::StreamClosed {
                            port: self.port.clone(),
                        })?;
                        self.account_enqueued(wire);
                        self.account_sent(wire, remote);
                    }
                    LaneTx::Remote { peer, inbox, lane } => {
                        self.send_remote(*peer, *inbox, *lane, &buf)?;
                        self.account_sent(wire, true);
                    }
                }
                Ok(())
            }
            _ => Err(FsError::StreamClosed {
                port: format!("{} (send_to requires an addressed stream)", self.port),
            }),
        }
    }

    /// One `Close` frame per remote lane this endpoint could have written
    /// to; the consumer-side router decrements its mirrored refcount.
    fn send_closes(&self) {
        let Some(t) = &self.transport else { return };
        let close = |peer: NodeId, inbox: u16, lane: u32| {
            // Best effort: the peer may already have shut down.
            let _ = t.send(peer, Frame::close(inbox, lane));
        };
        match (&self.lanes, self.delivery) {
            (InboxLanes::Shared(LaneTx::Remote { peer, inbox, lane }), _) => {
                close(*peer, *inbox, *lane);
            }
            (InboxLanes::Shared(LaneTx::Local(_)), _) => {}
            (InboxLanes::PerConsumer(lanes), Delivery::Aligned) => {
                if let Some(LaneTx::Remote { peer, inbox, lane }) = lanes.get(self.instance) {
                    close(*peer, *inbox, *lane);
                }
            }
            (InboxLanes::PerConsumer(lanes), _) => {
                for l in lanes {
                    if let LaneTx::Remote { peer, inbox, lane } = l {
                        close(*peer, *inbox, *lane);
                    }
                }
            }
        }
    }

    /// Number of consumer instances reachable through this writer.
    pub fn consumer_count(&self) -> usize {
        self.consumer_nodes.len()
    }

    /// The port name this writer was bound to.
    pub fn port(&self) -> &str {
        &self.port
    }
}

/// A dropped writer announces the endpoint drop to every remote lane.
impl Drop for StreamWriter {
    fn drop(&mut self) {
        self.send_closes();
    }
}

/// Consumer endpoint of one (filter instance, input port).
pub struct StreamReader {
    port: String,
    rx: Receiver<DataBuffer>,
    /// Inbox-level dequeue tally for the shutdown leak audit.
    counters: Arc<PortCounters>,
}

impl StreamReader {
    /// Consumer-side accounting for one received buffer: leak-audit tally
    /// (count + bytes) and the global recv counters. Every receive path —
    /// `recv`, `try_recv`, `recv_timeout`, `drain`, and [`StreamSet`]
    /// selection — funnels through this, so the send/recv byte totals
    /// balance no matter how the buffer was consumed.
    fn account_recv(&self, buf: &DataBuffer) {
        let wire = buf.wire_size();
        self.counters.dequeued.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_dequeued
            .fetch_add(wire, Ordering::Relaxed);
        let o = fs_obs();
        o.buffers_recv.inc();
        o.bytes_recv.add(wire);
    }

    /// Receives the next buffer; `None` once the port is closed (every
    /// producer endpoint dropped) and drained.
    pub fn recv(&self) -> Option<DataBuffer> {
        let b = self.rx.recv().ok();
        if let Some(b) = &b {
            self.account_recv(b);
        }
        b
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<DataBuffer> {
        let b = self.rx.try_recv().ok();
        if let Some(b) = &b {
            self.account_recv(b);
        }
        b
    }

    /// Receives with a timeout; `None` on timeout *or* closure — callers that
    /// must distinguish should use [`StreamReader::recv`].
    pub fn recv_timeout(&self, d: std::time::Duration) -> Option<DataBuffer> {
        let b = self.rx.recv_timeout(d).ok();
        if let Some(b) = &b {
            self.account_recv(b);
        }
        b
    }

    /// The port name this reader was bound to.
    pub fn port(&self) -> &str {
        &self.port
    }

    /// Drains everything currently queued without blocking.
    pub fn drain(&self) -> Vec<DataBuffer> {
        let mut out = Vec::new();
        while let Some(b) = self.try_recv() {
            out.push(b);
        }
        out
    }
}

/// One observation from [`StreamSet::event`].
#[derive(Debug)]
pub enum SelectEvent {
    /// Reader `usize` produced a buffer.
    Buffer(usize, DataBuffer),
    /// Reader `usize` closed (reported exactly once).
    Closed(usize),
}

/// Result of [`StreamSet::event_timeout`].
#[derive(Debug)]
pub enum SelectOutcome {
    /// A buffer arrived or a reader closed.
    Event(SelectEvent),
    /// The timeout elapsed with no event.
    Timeout,
    /// Every reader is closed and drained.
    AllClosed,
}

/// A set of stream endpoints with one entry point for multi-reader waiting.
///
/// Owns its readers and tracks which have closed, replacing the former
/// free-function trio (`select_recv` / `select_event` /
/// `select_event_timeout`) and the caller-managed `closed` slice. This is
/// how a storage filter multiplexes client requests, peer messages and I/O
/// completions from one loop:
///
/// ```ignore
/// let mut set = StreamSet::new(vec![clients, peers, io]);
/// loop {
///     match set.event_timeout(tick) {
///         SelectOutcome::Event(SelectEvent::Buffer(i, buf)) => handle(i, buf),
///         SelectOutcome::Event(SelectEvent::Closed(i)) => on_closed(i),
///         SelectOutcome::Timeout => on_tick(),
///         SelectOutcome::AllClosed => break,
///     }
/// }
/// ```
pub struct StreamSet {
    readers: Vec<StreamReader>,
    closed: Vec<bool>,
}

impl StreamSet {
    /// Wraps `readers` (indices in events match positions here).
    pub fn new(readers: Vec<StreamReader>) -> Self {
        let closed = vec![false; readers.len()];
        Self { readers, closed }
    }

    /// Builds a standalone point-to-point stream outside any layout: one
    /// producer instance feeding one consumer instance (both as instance 0
    /// on node 0) with [`Delivery::Addressed`] delivery — send with
    /// `send_to(NodeId(0), _)`. Test-only: production streams are wired by
    /// a [`crate::Runtime`] layout.
    #[cfg(test)]
    pub fn standalone(port: &str, capacity: usize) -> (StreamWriter, StreamReader) {
        let mut inbox = Inbox::new(Delivery::Addressed, capacity, &[NodeId(0)], port);
        let reader = inbox.take_reader(0);
        let writer = inbox.writer(port, 0, NodeId(0), Arc::new(StreamStats::default()));
        (writer, reader)
    }

    /// Number of readers in the set.
    pub fn len(&self) -> usize {
        self.readers.len()
    }

    /// Whether the set holds no readers.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty()
    }

    /// Borrows reader `i` (for `drain`, `port`, etc.).
    pub fn reader(&self, i: usize) -> &StreamReader {
        &self.readers[i]
    }

    /// Whether reader `i` has reported closure.
    pub fn is_closed(&self, i: usize) -> bool {
        self.closed[i]
    }

    /// Whether every reader has closed.
    pub fn all_closed(&self) -> bool {
        self.closed.iter().all(|&c| c)
    }

    /// Consumes the set, returning the readers.
    pub fn into_readers(self) -> Vec<StreamReader> {
        self.readers
    }

    /// Blocks for the next buffer or closure; `None` once every reader is
    /// closed and drained. Each closure is reported exactly once.
    pub fn event(&mut self) -> Option<SelectEvent> {
        match self.event_timeout(None) {
            SelectOutcome::Event(e) => Some(e),
            SelectOutcome::AllClosed => None,
            SelectOutcome::Timeout => unreachable!("no timeout configured"),
        }
    }

    /// [`StreamSet::event`] with an optional timeout — servers with
    /// retryable background work (e.g. stalled remote fetches) poll with a
    /// short timeout instead of blocking forever.
    pub fn event_timeout(&mut self, timeout: Option<std::time::Duration>) -> SelectOutcome {
        let open: Vec<usize> = (0..self.readers.len())
            .filter(|&i| !self.closed[i])
            .collect();
        if open.is_empty() {
            return SelectOutcome::AllClosed;
        }
        let mut sel = Select::new();
        for &i in &open {
            sel.recv(&self.readers[i].rx);
        }
        let op = match timeout {
            Some(d) => match sel.select_timeout(d) {
                Ok(op) => op,
                Err(_) => return SelectOutcome::Timeout,
            },
            None => sel.select(),
        };
        let slot = op.index();
        let idx = open[slot];
        match op.recv(&self.readers[idx].rx) {
            Ok(buf) => {
                self.readers[idx].account_recv(&buf);
                SelectOutcome::Event(SelectEvent::Buffer(idx, buf))
            }
            Err(_) => {
                self.closed[idx] = true;
                SelectOutcome::Event(SelectEvent::Closed(idx))
            }
        }
    }

    /// Blocking receive over the set: the index of the reader that produced
    /// the buffer, or `None` once **every** reader is closed and drained.
    pub fn recv(&mut self) -> Option<(usize, DataBuffer)> {
        loop {
            match self.event()? {
                SelectEvent::Buffer(i, b) => return Some((i, b)),
                SelectEvent::Closed(_) => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats() -> Arc<StreamStats> {
        Arc::new(StreamStats::default())
    }

    fn inbox(delivery: Delivery, consumers: usize) -> Inbox {
        Inbox::new(delivery, 8, &vec![NodeId(0); consumers], "in")
    }

    #[test]
    fn roundrobin_each_buffer_once() {
        let mut ib = inbox(Delivery::RoundRobin, 2);
        let r0 = ib.take_reader(0);
        let r1 = ib.take_reader(1);
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        for i in 0..6 {
            w.send(DataBuffer::tag_only(i)).expect("open");
        }
        drop(w);
        let mut seen: Vec<u64> = r0.drain().into_iter().map(|x| x.tag).collect();
        seen.extend(r1.drain().into_iter().map(|x| x.tag));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn broadcast_each_buffer_everywhere() {
        let mut ib = inbox(Delivery::Broadcast, 3);
        let readers: Vec<_> = (0..3).map(|i| ib.take_reader(i)).collect();
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        w.send(DataBuffer::tag_only(7)).expect("open");
        drop(w);
        for r in &readers {
            assert_eq!(r.recv().expect("delivered").tag, 7);
            assert!(r.recv().is_none(), "closed after producer drop");
        }
    }

    #[test]
    fn aligned_routes_instance_to_instance() {
        let mut ib = inbox(Delivery::Aligned, 2);
        let r0 = ib.take_reader(0);
        let r1 = ib.take_reader(1);
        let w0 = ib.writer("out", 0, NodeId(0), stats());
        let w1 = ib.writer("out", 1, NodeId(0), stats());
        drop(ib);
        w0.send(DataBuffer::tag_only(10)).expect("open");
        w1.send(DataBuffer::tag_only(11)).expect("open");
        drop((w0, w1));
        assert_eq!(r0.recv().expect("lane 0").tag, 10);
        assert!(r0.recv().is_none());
        assert_eq!(r1.recv().expect("lane 1").tag, 11);
        assert!(r1.recv().is_none());
    }

    #[test]
    fn addressed_routes_by_destination() {
        let mut ib = inbox(Delivery::Addressed, 3);
        let readers: Vec<_> = (0..3).map(|i| ib.take_reader(i)).collect();
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        w.send_to(NodeId(2), DataBuffer::tag_only(2)).expect("open");
        w.send_to(NodeId(0), DataBuffer::tag_only(0)).expect("open");
        assert!(
            w.send(DataBuffer::tag_only(9)).is_err(),
            "plain send rejected"
        );
        assert!(
            w.send_to(NodeId(5), DataBuffer::tag_only(9)).is_err(),
            "bad dest"
        );
        drop(w);
        assert_eq!(readers[0].recv().expect("to 0").tag, 0);
        assert!(readers[1].recv().is_none(), "nothing to 1");
        assert_eq!(readers[2].recv().expect("to 2").tag, 2);
    }

    #[test]
    fn fan_in_merges_writers() {
        let mut ib = inbox(Delivery::RoundRobin, 1);
        let r = ib.take_reader(0);
        let w1 = ib.writer("a", 0, NodeId(0), stats());
        let w2 = ib.writer("b", 0, NodeId(0), stats());
        drop(ib);
        w1.send(DataBuffer::tag_only(1)).expect("open");
        w2.send(DataBuffer::tag_only(2)).expect("open");
        drop(w1);
        let mut tags = vec![r.recv().expect("first").tag, r.recv().expect("second").tag];
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2]);
        assert!(
            r.recv_timeout(Duration::from_millis(10)).is_none(),
            "w2 still open"
        );
        drop(w2);
        assert!(
            r.recv().is_none(),
            "closed after all fan-in writers dropped"
        );
    }

    #[test]
    fn send_fails_when_all_consumers_gone() {
        let mut ib = inbox(Delivery::RoundRobin, 1);
        let r = ib.take_reader(0);
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        drop(r);
        assert!(matches!(
            w.send(DataBuffer::tag_only(0)),
            Err(FsError::StreamClosed { .. })
        ));
    }

    #[test]
    fn stats_count_buffers_and_bytes() {
        let st = stats();
        let mut ib = inbox(Delivery::RoundRobin, 1);
        let _r = ib.take_reader(0);
        let w = ib.writer("out", 0, NodeId(0), Arc::clone(&st));
        w.send(DataBuffer::from_u64s(0, &[1, 2])).expect("open");
        w.send(DataBuffer::tag_only(0)).expect("open");
        let (bufs, bytes, remote) = st.snapshot();
        assert_eq!(bufs, 2);
        assert_eq!(bytes, 32 + 16);
        assert_eq!(remote, 0, "same-node traffic is local");
    }

    #[test]
    fn remote_bytes_counted_across_nodes() {
        let st = stats();
        let mut ib = Inbox::new(Delivery::Broadcast, 4, &[NodeId(0), NodeId(1)], "in");
        let _r0 = ib.take_reader(0);
        let _r1 = ib.take_reader(1);
        let w = ib.writer("out", 0, NodeId(0), Arc::clone(&st));
        w.send(DataBuffer::tag_only(0)).expect("open");
        let (_, bytes, remote) = st.snapshot();
        assert_eq!(bytes, 16);
        assert_eq!(remote, 16, "only the NodeId(1) replica is remote");
    }

    #[test]
    fn addressed_remote_accounting_is_per_destination() {
        let st = stats();
        let mut ib = Inbox::new(Delivery::Addressed, 4, &[NodeId(0), NodeId(1)], "in");
        let _r0 = ib.take_reader(0);
        let _r1 = ib.take_reader(1);
        let w = ib.writer("out", 0, NodeId(0), Arc::clone(&st));
        w.send_to(NodeId(0), DataBuffer::tag_only(0))
            .expect("local");
        w.send_to(NodeId(1), DataBuffer::tag_only(0))
            .expect("remote");
        let (_, bytes, remote) = st.snapshot();
        assert_eq!(bytes, 32);
        assert_eq!(remote, 16);
    }

    #[test]
    fn backpressure_blocks_then_resumes() {
        let mut ib = Inbox::new(Delivery::RoundRobin, 2, &[NodeId(0)], "in");
        let r = ib.take_reader(0);
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        w.send(DataBuffer::tag_only(0)).expect("open");
        w.send(DataBuffer::tag_only(1)).expect("open");
        let h = std::thread::spawn(move || w.send(DataBuffer::tag_only(2)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(r.recv().expect("first").tag, 0);
        h.join().expect("no panic").expect("send succeeded");
        assert_eq!(r.recv().expect("second").tag, 1);
        assert_eq!(r.recv().expect("third").tag, 2);
    }

    #[test]
    fn stream_set_multiplexes_and_terminates() {
        let mut a = inbox(Delivery::RoundRobin, 1);
        let mut b = inbox(Delivery::RoundRobin, 1);
        let ra = a.take_reader(0);
        let rb = b.take_reader(0);
        let wa = a.writer("out", 0, NodeId(0), stats());
        let wb = b.writer("out", 0, NodeId(0), stats());
        drop((a, b));
        wa.send(DataBuffer::tag_only(1)).expect("open");
        wb.send(DataBuffer::tag_only(2)).expect("open");
        drop((wa, wb));
        let mut set = StreamSet::new(vec![ra, rb]);
        let mut got = Vec::new();
        while let Some((idx, buf)) = set.recv() {
            got.push((idx, buf.tag));
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (1, 2)]);
        assert!(set.all_closed());
    }

    #[test]
    fn stream_set_timeout_and_closure_reporting() {
        let mut a = inbox(Delivery::RoundRobin, 1);
        let mut b = inbox(Delivery::RoundRobin, 1);
        let ra = a.take_reader(0);
        let rb = b.take_reader(0);
        let wa = a.writer("out", 0, NodeId(0), stats());
        let wb = b.writer("out", 0, NodeId(0), stats());
        drop((a, b));
        let mut set = StreamSet::new(vec![ra, rb]);
        assert!(matches!(
            set.event_timeout(Some(Duration::from_millis(5))),
            SelectOutcome::Timeout
        ));
        drop(wa);
        match set.event_timeout(Some(Duration::from_millis(200))) {
            SelectOutcome::Event(SelectEvent::Closed(0)) => {}
            other => panic!("expected Closed(0), got {other:?}"),
        }
        assert!(set.is_closed(0) && !set.is_closed(1));
        wb.send(DataBuffer::tag_only(3)).expect("open");
        match set.event() {
            Some(SelectEvent::Buffer(1, buf)) => assert_eq!(buf.tag, 3),
            other => panic!("expected Buffer(1, _), got {other:?}"),
        }
        drop(wb);
        assert!(matches!(set.event(), Some(SelectEvent::Closed(1))));
        assert!(set.event().is_none(), "all closed");
    }

    /// Satellite check: every receive path (recv, drain, recv_timeout, and
    /// StreamSet selection) tallies bytes — payload and bulk — so a clean
    /// run's enqueue/dequeue byte totals balance exactly. The remote-lane
    /// twin is `port_byte_totals_balance_over_transports` in `runtime.rs`.
    #[test]
    fn port_byte_totals_balance() {
        let mut ib = inbox(Delivery::RoundRobin, 2);
        let counters = Arc::clone(&ib.counters);
        let r0 = ib.take_reader(0);
        let r1 = ib.take_reader(1);
        let w = ib.writer("out", 0, NodeId(0), stats());
        drop(ib);
        w.send(DataBuffer::from_u64s(1, &[1, 2, 3])).expect("open");
        w.send(DataBuffer::from_u64s(2, &[4])).expect("open");
        w.send(DataBuffer::tag_only(3)).expect("open");
        w.send(DataBuffer::from_f64s(4, &[0.5; 8])).expect("open");
        // A block riding beside an 8-byte head: both parts count.
        let mut with_bulk = DataBuffer::from_u64s(5, &[9]);
        with_bulk.bulk = bytes::Bytes::from(vec![7u8; 1000]);
        w.send(with_bulk).expect("open");
        drop(w);
        // Mix the receive paths deliberately.
        let first = r0.recv().expect("one buffered");
        assert!(first.tag >= 1);
        let _ = r0.recv_timeout(Duration::from_millis(5));
        let mut set = StreamSet::new(vec![r1]);
        while let Some((_, _b)) = set.recv() {}
        for r in set.into_readers() {
            let _ = r.drain();
        }
        let enq = counters.enqueued.load(Ordering::Relaxed);
        let deq = counters.dequeued.load(Ordering::Relaxed);
        let benq = counters.bytes_enqueued.load(Ordering::Relaxed);
        let bdeq = counters.bytes_dequeued.load(Ordering::Relaxed);
        assert_eq!(enq, 5);
        assert_eq!(deq, enq, "every enqueued buffer dequeued");
        assert_eq!(
            benq,
            16 * 5 + 24 + 8 + 64 + (8 + 1000),
            "wire bytes of the five sends, bulk included"
        );
        assert_eq!(bdeq, benq, "byte totals balance across mixed recv paths");
    }

    #[test]
    fn standalone_pair_roundtrips() {
        let (w, r) = StreamSet::standalone("p", 4);
        w.send_to(NodeId(0), DataBuffer::tag_only(5))
            .expect("send_to works");
        w.send_to(NodeId(0), DataBuffer::tag_only(6))
            .expect("send_to works");
        drop(w);
        assert_eq!(r.recv().expect("first").tag, 5);
        assert_eq!(r.recv().expect("second").tag, 6);
        assert!(r.recv().is_none());
    }
}
