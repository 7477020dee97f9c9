//! Logical streams: unidirectional, untyped, possibly fanned out or in.
//!
//! A stream connects the producer instances of one filter to the consumer
//! instances of another. Delivery policies cover the parallelism styles of
//! DataCutter plus the addressed routing DOoC's storage layer needs:
//!
//! * [`Delivery::RoundRobin`] — demand-driven work sharing: all consumer
//!   instances pull from one shared queue (data parallelism for replicated,
//!   stateless filters; the consumers share a node);
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
//! Each consumer lane is either a channel on the writer's node or an address
//! on another node ([`LaneTx`]). A writer routes per buffer: local lanes get
//! the `DataBuffer` directly (payload and bulk attachment moved through the
//! channel, never copied); remote lanes get a [`Frame`] on the writer's
//! [`Transport`] whose payload and bulk are the same shared
//! [`bytes::Bytes`]. The delivery policy is applied entirely on the producer
//! side. When a writer drops, it sends one `Close` frame per remote lane it
//! could reach; the receiving node's router holds the lane open until every
//! such frame has arrived (see [`crate::runtime`]).

use crate::buffer::DataBuffer;
use crate::codec::Frame;
use crate::transport::Transport;
use crate::{FsError, NodeId, Result};
use dooc_obs::metrics::{counter, Counter};
use dooc_sync::atomic::{AtomicU64, Ordering};
use dooc_sync::channel::{bounded, Receiver, Select, Sender};
use std::ops::Range;
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
    /// Wire bytes sent as frames to another node. For broadcast this counts
    /// each remote replica.
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
/// clean run — the send/recv balance the obs tests assert. A buffer from
/// another node is counted by the receiving node's router, which does the
/// lane insert, so each node's balance is exact on its own.
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

/// Producer-side address of one consumer lane: a channel on the writer's
/// node or an `(inbox, lane)` slot on another node.
#[derive(Clone)]
pub(crate) enum LaneTx {
    Local(Sender<DataBuffer>),
    Remote { peer: NodeId, inbox: u16, lane: u32 },
}

/// The lanes of an inbox with `nlanes` lanes that producer instance
/// `producer` can write to: its own lane under aligned delivery, every lane
/// otherwise (a round-robin inbox has one). A writer's `Close` frames and
/// the receiving router's refcount both follow this rule.
pub(crate) fn reachable_lanes(delivery: Delivery, producer: usize, nlanes: usize) -> Range<usize> {
    match delivery {
        Delivery::Aligned => producer..producer + 1,
        _ => 0..nlanes,
    }
}

/// Inbox of one (consumer filter, input port) as one node sees it: the
/// receiving half that consumer instances read from. Built once per port and
/// node; every fanned-in stream sends into the same lanes. Only the lanes of
/// consumer instances on this node are channels; the rest are
/// [`LaneTx::Remote`] addresses.
pub(crate) struct Inbox {
    delivery: Delivery,
    /// One lane per consumer instance, or for round-robin delivery a single
    /// lane every instance pulls from.
    lanes: Vec<LaneTx>,
    readers: Vec<Option<StreamReader>>,
    pub counters: Arc<PortCounters>,
}

impl Inbox {
    /// Lanes of consumers for which `is_local` holds are channels of
    /// `capacity` buffers; the rest address `inbox_idx` on their node. For
    /// round-robin delivery every consumer must sit on one node
    /// ([`crate::Layout::validate`] checks this). `counters` is the port's
    /// delivery tally, shared by its inbox on every node of the run.
    pub fn new(
        delivery: Delivery,
        capacity: usize,
        consumer_nodes: &[NodeId],
        consumer_port: &str,
        is_local: impl Fn(NodeId) -> bool,
        inbox_idx: u16,
        counters: Arc<PortCounters>,
    ) -> Self {
        let lane = |i: usize, n: NodeId| {
            if is_local(n) {
                let (tx, rx) = bounded(capacity);
                (LaneTx::Local(tx), Some(rx))
            } else {
                let remote = LaneTx::Remote {
                    peer: n,
                    inbox: inbox_idx,
                    lane: i as u32,
                };
                (remote, None)
            }
        };
        let (lanes, rxs): (Vec<_>, Vec<_>) = match delivery {
            Delivery::RoundRobin => {
                let (tx, rx) = lane(0, consumer_nodes[0]);
                (vec![tx], vec![rx; consumer_nodes.len()])
            }
            _ => consumer_nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| lane(i, n))
                .unzip(),
        };
        let readers = rxs
            .into_iter()
            .map(|rx| {
                rx.map(|rx| StreamReader {
                    port: consumer_port.to_string(),
                    rx,
                    counters: Arc::clone(&counters),
                })
            })
            .collect();
        Self {
            delivery,
            lanes,
            readers,
            counters,
        }
    }

    /// Takes the reader of consumer instance `i` (exactly once; only
    /// instances on this node have one).
    pub fn take_reader(&mut self, i: usize) -> StreamReader {
        match self.readers[i].take() {
            Some(r) => r,
            None => panic!("reader {i} already taken — each consumer instance gets exactly one"),
        }
    }

    /// A sender clone for lane `lane` if it is a channel on this node, used
    /// by the router to feed frames from other nodes into the inbox.
    pub fn local_lane_sender(&self, lane: usize) -> Option<Sender<DataBuffer>> {
        match self.lanes.get(lane) {
            Some(LaneTx::Local(tx)) => Some(tx.clone()),
            _ => None,
        }
    }

    /// Number of lanes (one per consumer instance, or one shared lane).
    pub fn nlanes(&self) -> usize {
        self.lanes.len()
    }

    /// Creates a writer for producer instance `instance`, sending to other
    /// nodes through its node's `transport`.
    pub fn writer(
        &self,
        producer_port: &str,
        instance: usize,
        stats: Arc<StreamStats>,
        transport: Arc<dyn Transport>,
    ) -> StreamWriter {
        StreamWriter {
            port: producer_port.to_string(),
            delivery: self.delivery,
            lanes: self.lanes.clone(),
            stats,
            counters: Arc::clone(&self.counters),
            instance,
            transport,
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
    lanes: Vec<LaneTx>,
    stats: Arc<StreamStats>,
    /// Inbox-level enqueue tally (shared by all streams fanned into the
    /// consumer port) for the shutdown leak audit.
    counters: Arc<PortCounters>,
    /// Producer instance index (selects the lane for aligned delivery).
    instance: usize,
    /// The frame pipe of this writer's node, for its remote lanes.
    transport: Arc<dyn Transport>,
}

impl StreamWriter {
    /// Delivers `buf` into one consumer lane. A local lane's enqueue is
    /// tallied here for the leak audit; a remote lane's is tallied by the
    /// receiving node's router when it performs the insert, so each node's
    /// books balance on their own.
    fn put(&self, lane: &LaneTx, buf: DataBuffer) -> Result<()> {
        let wire = buf.wire_size();
        match lane {
            LaneTx::Local(tx) => {
                tx.send(buf).map_err(|_| FsError::StreamClosed {
                    port: self.port.clone(),
                })?;
                self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_enqueued
                    .fetch_add(wire, Ordering::Relaxed);
            }
            LaneTx::Remote { peer, inbox, lane } => {
                let frame = Frame::data(*inbox, *lane, buf.tag, buf.payload);
                self.transport.send(*peer, frame.with_bulk(buf.bulk))?;
                self.stats.remote_bytes.fetch_add(wire, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Producer-side accounting of one sent buffer, once per send whatever
    /// the number of replicas: global counters plus the per-stream stats.
    fn account_sent(&self, wire: u64) {
        fs_obs().buffers_sent.inc();
        fs_obs().bytes_sent.add(wire);
        self.stats.buffers.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(wire, Ordering::Relaxed);
    }

    /// Sends a buffer. Blocks when the stream is at capacity. Fails if the
    /// consumers of its lane on this node have all terminated, or if this is
    /// an addressed stream (use [`StreamWriter::send_to`]). A frame for a
    /// consumer on another node that has terminated is dropped by that
    /// node's router.
    pub fn send(&self, buf: DataBuffer) -> Result<()> {
        let wire = buf.wire_size();
        match self.delivery {
            Delivery::RoundRobin => self.put(&self.lanes[0], buf)?,
            Delivery::Aligned => self.put(&self.lanes[self.instance], buf)?,
            Delivery::Broadcast => {
                // A replica whose consumers have gone is skipped; the send
                // fails only if no replica was delivered.
                let delivered = self
                    .lanes
                    .iter()
                    .filter(|lane| self.put(lane, buf.clone()).is_ok())
                    .count();
                if delivered == 0 {
                    return Err(FsError::StreamClosed {
                        port: self.port.clone(),
                    });
                }
            }
            Delivery::Addressed => {
                return Err(FsError::StreamClosed {
                    port: format!("{} (addressed stream requires send_to)", self.port),
                });
            }
        }
        self.account_sent(wire);
        Ok(())
    }

    /// Sends a buffer to consumer instance `dest` of an addressed stream.
    /// Destinations are [`NodeId`]s: every addressed stream in this codebase
    /// is consumed by a per-node filter whose instance *i* sits on node *i*,
    /// and the type forces callers to say which node they mean rather than
    /// do raw index arithmetic.
    pub fn send_to(&self, dest: NodeId, buf: DataBuffer) -> Result<()> {
        if self.delivery != Delivery::Addressed {
            return Err(FsError::StreamClosed {
                port: format!("{} (send_to requires an addressed stream)", self.port),
            });
        }
        let lane = self
            .lanes
            .get(dest.0)
            .ok_or_else(|| FsError::StreamClosed {
                port: format!("{} (no consumer instance {dest})", self.port),
            })?;
        let wire = buf.wire_size();
        self.put(lane, buf)?;
        self.account_sent(wire);
        Ok(())
    }

    /// The port name this writer was bound to.
    pub fn port(&self) -> &str {
        &self.port
    }
}

/// A dropped writer sends one `Close` frame per remote lane it could have
/// written to; the consumer-side router decrements its mirrored refcount.
impl Drop for StreamWriter {
    fn drop(&mut self) {
        let reachable = reachable_lanes(self.delivery, self.instance, self.lanes.len());
        for lane in &self.lanes[reachable] {
            if let LaneTx::Remote { peer, inbox, lane } = lane {
                // Best effort: the peer may already have shut down.
                let _ = self.transport.send(*peer, Frame::close(*inbox, *lane));
            }
        }
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
        let mut inbox = Inbox::new(
            Delivery::Addressed,
            capacity,
            &[NodeId(0)],
            port,
            |_| true,
            0,
            Arc::default(),
        );
        let reader = inbox.take_reader(0);
        let node = crate::ChannelTransport::cluster(1).remove(0);
        let writer = inbox.writer(port, 0, Arc::default(), Arc::new(node));
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

    /// The transports of an in-process cluster of `n` nodes. A frame toward
    /// a node is accepted while its transport is alive.
    fn nodes(n: usize) -> Vec<Arc<dyn Transport>> {
        crate::ChannelTransport::cluster(n)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport>)
            .collect()
    }

    fn local() -> Arc<dyn Transport> {
        nodes(1).remove(0)
    }

    /// An inbox whose every lane is a channel.
    fn inbox_of(delivery: Delivery, capacity: usize, consumers: &[NodeId]) -> Inbox {
        Inbox::new(
            delivery,
            capacity,
            consumers,
            "in",
            |_| true,
            0,
            Arc::default(),
        )
    }

    fn inbox(delivery: Delivery, consumers: usize) -> Inbox {
        inbox_of(delivery, 8, &vec![NodeId(0); consumers])
    }

    /// An inbox as node 0 sees it: lanes of consumers on node 0 are
    /// channels, the rest address other nodes.
    fn inbox_on_node0(delivery: Delivery, consumers: &[NodeId]) -> Inbox {
        Inbox::new(
            delivery,
            4,
            consumers,
            "in",
            |n| n == NodeId(0),
            0,
            Arc::default(),
        )
    }

    #[test]
    fn roundrobin_each_buffer_once() {
        let mut ib = inbox(Delivery::RoundRobin, 2);
        let r0 = ib.take_reader(0);
        let r1 = ib.take_reader(1);
        let w = ib.writer("out", 0, stats(), local());
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
        let w = ib.writer("out", 0, stats(), local());
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
        let w0 = ib.writer("out", 0, stats(), local());
        let w1 = ib.writer("out", 1, stats(), local());
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
        let w = ib.writer("out", 0, stats(), local());
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
        let w1 = ib.writer("a", 0, stats(), local());
        let w2 = ib.writer("b", 0, stats(), local());
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
        let w = ib.writer("out", 0, stats(), local());
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
        let w = ib.writer("out", 0, Arc::clone(&st), local());
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
        let cluster = nodes(2);
        let mut ib = inbox_on_node0(Delivery::Broadcast, &[NodeId(0), NodeId(1)]);
        let _r0 = ib.take_reader(0);
        let w = ib.writer("out", 0, Arc::clone(&st), Arc::clone(&cluster[0]));
        w.send(DataBuffer::tag_only(0)).expect("open");
        let (_, bytes, remote) = st.snapshot();
        assert_eq!(bytes, 16);
        assert_eq!(remote, 16, "only the NodeId(1) replica is remote");
    }

    #[test]
    fn addressed_remote_accounting_is_per_destination() {
        let st = stats();
        let cluster = nodes(2);
        let mut ib = inbox_on_node0(Delivery::Addressed, &[NodeId(0), NodeId(1)]);
        let _r0 = ib.take_reader(0);
        let w = ib.writer("out", 0, Arc::clone(&st), Arc::clone(&cluster[0]));
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
        let mut ib = inbox_of(Delivery::RoundRobin, 2, &[NodeId(0)]);
        let r = ib.take_reader(0);
        let w = ib.writer("out", 0, stats(), local());
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
        let wa = a.writer("out", 0, stats(), local());
        let wb = b.writer("out", 0, stats(), local());
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
        let wa = a.writer("out", 0, stats(), local());
        let wb = b.writer("out", 0, stats(), local());
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
        let w = ib.writer("out", 0, stats(), local());
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
