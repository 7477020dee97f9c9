//! The execution engine: threads, wiring, and run reports.
//!
//! [`Runtime::run`] validates a [`Layout`], builds one inbox per
//! *(consumer filter, input port)* — merging fanned-in streams — spawns one
//! OS thread per filter instance, waits for every filter to finish, and
//! returns a [`RuntimeReport`] with the per-stream traffic counters. Filter
//! errors and panics are collected and reported (the first error wins;
//! remaining filters unwind naturally as their streams close).
//!
//! [`Runtime::run_distributed`] is the same engine restricted to one node of
//! a cluster: every process runs the *same* layout, but only the filter
//! instances placed on its [`crate::Transport::node`] are spawned locally.
//! Inboxes for local consumers get real channel lanes; lanes of consumers
//! placed elsewhere become frame sends over the transport. Incoming frames
//! from remote producers are dispatched by a [`Router`] that mirrors the
//! producer-endpoint refcount: a local port closes once every local writer
//! has dropped *and* a `Close` frame has arrived for every remote producer
//! endpoint that could reach it — the exact closure rule of the in-process
//! runtime, split across processes.

use crate::buffer::DataBuffer;
use crate::codec::{Frame, FrameKind};
use crate::filter::FilterContext;
use crate::layout::Layout;
use crate::stream::{Delivery, Inbox, PortCounters, StreamStats};
use crate::transport::{FrameSink, Transport};
use crate::{FsError, NodeId, Result};
use dooc_sync::channel::Sender;
use dooc_sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Post-run traffic summary of one stream.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// `producer.port -> consumer.port` label.
    pub name: String,
    /// Buffers sent.
    pub buffers: u64,
    /// Total wire bytes sent.
    pub bytes: u64,
    /// Wire bytes that crossed node boundaries.
    pub remote_bytes: u64,
}

/// Post-run delivery tally of one (consumer filter, input port) inbox.
#[derive(Clone, Debug)]
pub struct PortReport {
    /// `consumer.port` label.
    pub name: String,
    /// Buffers enqueued into the port's lanes (each broadcast replica
    /// counts as one).
    pub delivered: u64,
    /// Buffers dequeued by consumer instances.
    pub received: u64,
    /// Wire bytes enqueued into the port's lanes.
    pub delivered_bytes: u64,
    /// Wire bytes dequeued by consumer instances.
    pub received_bytes: u64,
}

/// Result of a completed dataflow run.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-stream traffic.
    pub streams: Vec<StreamReport>,
    /// Per-port delivery tallies (for the shutdown leak audit).
    pub ports: Vec<PortReport>,
}

impl RuntimeReport {
    /// Total bytes sent over all streams.
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes).sum()
    }

    /// Total bytes that crossed node boundaries.
    pub fn total_remote_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.remote_bytes).sum()
    }

    /// Traffic of the stream with the given label, if present.
    pub fn stream(&self, name: &str) -> Option<&StreamReport> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Ports whose consumers dequeued fewer buffers than producers
    /// enqueued — buffers abandoned in a lane at shutdown. An empty result
    /// means every stream buffer was returned.
    pub fn undrained_ports(&self) -> Vec<&PortReport> {
        self.ports
            .iter()
            .filter(|p| p.received != p.delivered)
            .collect()
    }
}

/// Per-lane state of the [`Router`]: where incoming `Data` frames for the
/// lane go, and how many `Close` frames each remote producer node still owes
/// before the lane's sender clone can be released.
struct LaneState {
    tx: Option<Sender<DataBuffer>>,
    counters: Arc<PortCounters>,
    /// `peer node -> outstanding remote producer endpoints`. While non-empty
    /// the router keeps `tx` alive, holding the port open on behalf of the
    /// remote writers.
    refs: HashMap<usize, usize>,
}

/// Consumer-side dispatcher for frames arriving over a [`Transport`]: maps
/// `(inbox, lane)` to the matching local channel lane and mirrors the
/// producer-endpoint close protocol (see [`crate::stream::StreamWriter`]'s
/// drop impl, which emits the `Close` frames this router consumes).
pub(crate) struct Router {
    lanes: Mutex<HashMap<(u16, u32), LaneState>>,
}

impl Router {
    fn release(lanes: &mut HashMap<(u16, u32), LaneState>, key: (u16, u32), from: usize, n: usize) {
        if let Some(l) = lanes.get_mut(&key) {
            if let Some(c) = l.refs.get_mut(&from) {
                *c = c.saturating_sub(n);
                if *c == 0 {
                    l.refs.remove(&from);
                }
            }
            if l.refs.is_empty() {
                // Last remote producer endpoint gone: drop the sender clone
                // so the port can close once local writers are gone too.
                lanes.remove(&key);
            }
        }
    }
}

impl FrameSink for Router {
    fn on_frame(&self, from: NodeId, frame: Frame) {
        let key = (frame.inbox, frame.lane);
        match frame.kind {
            FrameKind::Data => {
                // Clone the sender out of the lock before the (possibly
                // blocking) lane insert, so backpressure on one lane never
                // stalls close handling for others… it does stall this pump
                // thread, which is exactly the socket-level backpressure we
                // want.
                let slot = {
                    let lanes = self.lanes.lock();
                    lanes
                        .get(&key)
                        .and_then(|l| l.tx.clone().map(|tx| (tx, Arc::clone(&l.counters))))
                };
                let Some((tx, counters)) = slot else {
                    // Consumers already exited (error shutdown) — drop the
                    // frame, as a local writer's failed send would.
                    dooc_obs::instant(
                        dooc_obs::Category::Filterstream,
                        "fs.router.orphan_frame",
                        from.0 as i64,
                    );
                    return;
                };
                let buf = DataBuffer {
                    tag: frame.tag,
                    payload: frame.payload,
                    bulk: frame.bulk,
                };
                let wire = buf.wire_size();
                if tx.send(buf).is_ok() {
                    use dooc_sync::atomic::Ordering;
                    counters.enqueued.fetch_add(1, Ordering::Relaxed);
                    counters.bytes_enqueued.fetch_add(wire, Ordering::Relaxed);
                }
            }
            FrameKind::Close => {
                let mut lanes = self.lanes.lock();
                Router::release(&mut lanes, key, from.0, 1);
            }
            FrameKind::Hello | FrameKind::Blob => {
                dooc_obs::instant(
                    dooc_obs::Category::Filterstream,
                    "fs.router.unexpected_frame",
                    from.0 as i64,
                );
            }
        }
    }

    fn on_peer_closed(&self, from: NodeId) {
        // The peer process is gone: whatever Close frames it still owed will
        // never arrive. Treat its remaining endpoints as closed so local
        // consumers unblock instead of hanging on a dead node.
        let mut lanes = self.lanes.lock();
        lanes.retain(|_, l| {
            l.refs.remove(&from.0);
            !l.refs.is_empty()
        });
    }
}

/// Checks the extra constraints a multi-process run imposes on a layout.
fn validate_distributed(layout: &Layout, nnodes: usize) -> Result<()> {
    for f in &layout.filters {
        for &n in &f.placements {
            if n.0 >= nnodes {
                return Err(FsError::InvalidLayout(format!(
                    "filter '{}' placed on {n} but the cluster has {nnodes} nodes",
                    f.name
                )));
            }
        }
    }
    for s in &layout.streams {
        if s.delivery == Delivery::RoundRobin {
            let consumers = &layout.filters[s.to.0].placements;
            if consumers.windows(2).any(|w| w[0] != w[1]) {
                return Err(FsError::InvalidLayout(format!(
                    "round-robin stream into '{}.{}' spans nodes — a shared \
                     demand-driven lane cannot cross processes; use aligned, \
                     broadcast or addressed delivery",
                    layout.filters[s.to.0].name, s.to_port
                )));
            }
        }
    }
    Ok(())
}

/// The filter-stream execution engine.
pub struct Runtime;

impl Runtime {
    /// Runs a layout to completion in this process (every node is a thread
    /// group; no transport involved).
    pub fn run(layout: Layout) -> Result<RuntimeReport> {
        Self::run_inner(layout, None)
    }

    /// Runs this node's share of a layout: spawns only the filter instances
    /// placed on `transport.node()`, routes streams toward other nodes
    /// through the transport, and dispatches incoming frames into local
    /// inboxes. Every participating process must call this with an
    /// *identical* layout (same filters, placements and stream declarations
    /// in the same order — inbox indices are assigned by declaration order
    /// and must agree across the cluster). The caller performs any pre-start
    /// [`Transport::exchange`] rounds; this method starts frame delivery and
    /// shuts the transport down after the local filters finish.
    ///
    /// The returned report covers *this process's* view: stream stats count
    /// local producers only, port tallies cover local lanes only.
    pub fn run_distributed(layout: Layout, transport: Arc<dyn Transport>) -> Result<RuntimeReport> {
        Self::run_inner(layout, Some(transport))
    }

    fn run_inner(layout: Layout, transport: Option<Arc<dyn Transport>>) -> Result<RuntimeReport> {
        layout.validate()?;
        if let Some(t) = &transport {
            validate_distributed(&layout, t.nnodes())?;
        }
        // `None` means "everything is local" (single-process run).
        let me: Option<NodeId> = transport.as_ref().map(|t| t.node());
        let is_local = |n: NodeId| me.is_none_or(|m| m == n);
        let Layout {
            mut filters,
            streams,
        } = layout;

        // One inbox per (consumer filter, input port); fanned-in streams
        // share it. Validation guaranteed delivery agreement. Inbox indices
        // follow first occurrence in stream declaration order, so identical
        // layouts yield identical wire addresses on every node.
        let mut inbox_idx: HashMap<(usize, String), u16> = HashMap::new();
        let mut inboxes: HashMap<(usize, String), Inbox> = HashMap::new();
        for s in &streams {
            let key = (s.to.0, s.to_port.clone());
            if inboxes.contains_key(&key) {
                continue;
            }
            let idx = u16::try_from(inbox_idx.len())
                .map_err(|_| FsError::InvalidLayout("more than 65535 input ports".into()))?;
            inbox_idx.insert(key.clone(), idx);
            let placements = &filters[s.to.0].placements;
            let inbox = match &transport {
                Some(t) => Inbox::new_on(
                    s.delivery,
                    s.capacity,
                    placements,
                    &s.to_port,
                    idx,
                    Arc::clone(t),
                ),
                None => Inbox::new(s.delivery, s.capacity, placements, &s.to_port),
            };
            inboxes.insert(key, inbox);
        }

        // Per-stream stats and per-producer-instance writers — writers exist
        // only for producer instances in this process (remote ones announce
        // themselves through the transport).
        let mut stream_stats: Vec<(String, Arc<StreamStats>)> = Vec::with_capacity(streams.len());
        // writers[fidx][inst] : Vec<(port, StreamWriter)>
        let mut writers: Vec<Vec<Vec<(String, crate::stream::StreamWriter)>>> = filters
            .iter()
            .map(|f| (0..f.placements.len()).map(|_| Vec::new()).collect())
            .collect();
        for s in &streams {
            let name = format!(
                "{}.{} -> {}.{}",
                filters[s.from.0].name, s.from_port, filters[s.to.0].name, s.to_port
            );
            let stats = Arc::new(StreamStats::default());
            stream_stats.push((name, Arc::clone(&stats)));
            let inbox = &inboxes[&(s.to.0, s.to_port.clone())];
            for (inst, &node) in filters[s.from.0].placements.iter().enumerate() {
                if !is_local(node) {
                    continue;
                }
                let w = inbox.writer(&s.from_port, inst, node, Arc::clone(&stats));
                writers[s.from.0][inst].push((s.from_port.clone(), w));
            }
        }

        // In distributed mode, build the router (it holds sender clones for
        // lanes remote producers can reach) and start frame delivery before
        // any local filter runs.
        if let Some(t) = &transport {
            let m = t.node();
            let mut lanes: HashMap<(u16, u32), LaneState> = HashMap::new();
            for s in &streams {
                let key = (s.to.0, s.to_port.clone());
                let idx = inbox_idx[&key];
                let inbox = &inboxes[&key];
                let consumers = &filters[s.to.0].placements;
                for &pnode in filters[s.from.0].placements.iter() {
                    if pnode == m {
                        continue;
                    }
                    // Lanes on this node the remote endpoint can reach —
                    // must mirror StreamWriter::send_closes exactly.
                    let reachable: Vec<u32> = match s.delivery {
                        Delivery::RoundRobin => {
                            if consumers[0] == m {
                                vec![0]
                            } else {
                                vec![]
                            }
                        }
                        Delivery::Aligned => Vec::new(), // filled below per-instance
                        Delivery::Broadcast | Delivery::Addressed => consumers
                            .iter()
                            .enumerate()
                            .filter(|(_, &n)| n == m)
                            .map(|(i, _)| i as u32)
                            .collect(),
                    };
                    for lane in reachable {
                        let entry = lanes.entry((idx, lane)).or_insert_with(|| LaneState {
                            tx: inbox.local_lane_sender(lane as usize),
                            counters: Arc::clone(&inbox.counters),
                            refs: HashMap::new(),
                        });
                        *entry.refs.entry(pnode.0).or_insert(0) += 1;
                    }
                }
                if s.delivery == Delivery::Aligned {
                    for (p, &pnode) in filters[s.from.0].placements.iter().enumerate() {
                        if pnode == m || consumers.get(p) != Some(&m) {
                            continue;
                        }
                        let lane = p as u32;
                        let entry = lanes.entry((idx, lane)).or_insert_with(|| LaneState {
                            tx: inbox.local_lane_sender(p),
                            counters: Arc::clone(&inbox.counters),
                            refs: HashMap::new(),
                        });
                        *entry.refs.entry(pnode.0).or_insert(0) += 1;
                    }
                }
            }
            let router = Arc::new(Router {
                lanes: Mutex::new(lanes),
            });
            t.start(router)?;
        }

        // Distribute readers (local consumer instances only); keep each
        // inbox's delivery tally for the post-run leak audit.
        // readers[fidx][inst] : Vec<(port, StreamReader)>
        let mut readers: Vec<Vec<Vec<(String, crate::stream::StreamReader)>>> = filters
            .iter()
            .map(|f| (0..f.placements.len()).map(|_| Vec::new()).collect())
            .collect();
        let mut port_counters: Vec<(String, Arc<PortCounters>)> = Vec::new();
        for ((fidx, port), mut inbox) in inboxes {
            port_counters.push((
                format!("{}.{}", filters[fidx].name, port),
                Arc::clone(&inbox.counters),
            ));
            for (inst, slot) in readers[fidx].iter_mut().enumerate() {
                if is_local(filters[fidx].placements[inst]) {
                    slot.push((port.clone(), inbox.take_reader(inst)));
                }
            }
        }
        port_counters.sort_by(|a, b| a.0.cmp(&b.0));

        // Spawn every local filter instance.
        let started = Instant::now();
        let mut handles = Vec::new();
        for (fidx, decl) in filters.iter_mut().enumerate().rev() {
            let replicas = decl.placements.len();
            for (inst, &node) in decl.placements.iter().enumerate().rev() {
                if !is_local(node) {
                    continue;
                }
                let inputs: HashMap<_, _> = readers[fidx].pop_if_last(inst);
                let outputs: HashMap<_, _> = writers[fidx].pop_if_last(inst);
                let mut ctx =
                    FilterContext::new(decl.name.clone(), node, inst, replicas, inputs, outputs);
                let mut filter = (decl.factory)(inst);
                let name = decl.name.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("{name}[{inst}]"))
                    .spawn(move || -> Result<()> {
                        let _span = dooc_obs::enabled().then(|| {
                            dooc_obs::span(
                                dooc_obs::Category::Filterstream,
                                dooc_obs::intern(&format!("filter:{}", ctx.name)),
                                ctx.node.0 as i64,
                            )
                        });
                        filter.run(&mut ctx)
                    })
                    .map_err(|e| {
                        FsError::InvalidLayout(format!(
                            "failed to spawn thread for {name}[{inst}]: {e}"
                        ))
                    })?;
                handles.push((name, inst, handle));
            }
        }
        // All endpoint collections were moved into threads; nothing in this
        // frame keeps a sender alive, so closure cascades correctly.
        drop(writers);
        drop(readers);

        let mut first_error: Option<FsError> = None;
        for (name, inst, handle) in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(_) => {
                    if first_error.is_none() {
                        first_error = Some(FsError::FilterPanicked {
                            filter: name,
                            instance: inst,
                        });
                    }
                }
            }
        }
        // Every local producer endpoint has dropped (and emitted its Close
        // frames) — flush, announce, and drain. Runs on the error path too,
        // so a failing node still tells its peers it is gone rather than
        // leaving them blocked on a silent socket.
        if let Some(t) = &transport {
            t.shutdown();
        }
        if let Some(e) = first_error {
            return Err(e);
        }

        let elapsed = started.elapsed();
        let streams = stream_stats
            .into_iter()
            .map(|(name, st)| {
                let (buffers, bytes, remote_bytes) = st.snapshot();
                StreamReport {
                    name,
                    buffers,
                    bytes,
                    remote_bytes,
                }
            })
            .collect();
        let ports = port_counters
            .into_iter()
            .map(|(name, c)| {
                use dooc_sync::atomic::Ordering;
                PortReport {
                    name,
                    delivered: c.enqueued.load(Ordering::Relaxed),
                    received: c.dequeued.load(Ordering::Relaxed),
                    delivered_bytes: c.bytes_enqueued.load(Ordering::Relaxed),
                    received_bytes: c.bytes_dequeued.load(Ordering::Relaxed),
                }
            })
            .collect();
        Ok(RuntimeReport {
            elapsed,
            streams,
            ports,
        })
    }
}

/// Helper: move instance `inst`'s endpoint list out of a per-filter vector,
/// leaving an empty slot (instances are consumed back-to-front).
trait PopIfLast<T> {
    fn pop_if_last(&mut self, inst: usize) -> HashMap<String, T>;
}

impl<T> PopIfLast<T> for Vec<Vec<(String, T)>> {
    fn pop_if_last(&mut self, inst: usize) -> HashMap<String, T> {
        std::mem::take(&mut self[inst]).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DataBuffer;
    use crate::layout::Layout;
    use crate::{Delivery, FilterContext, NodeId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn two_stage_pipeline_transfers_data() {
        let mut layout = Layout::new();
        let total = Arc::new(AtomicU64::new(0));
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 0..100u64 {
                    out.send(DataBuffer::from_u64s(0, &[i]))?;
                }
                Ok(())
            }),
        );
        let sum = Arc::clone(&total);
        let sink = layout.add_filter(
            "sink",
            NodeId(1),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(b) = inp.recv() {
                    sum.fetch_add(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        let report = Runtime::run(layout).expect("run ok");
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
        let s = report
            .stream("source.out -> sink.in")
            .expect("stream logged");
        assert_eq!(s.buffers, 100);
        assert_eq!(s.remote_bytes, s.bytes, "cross-node stream fully remote");
    }

    #[test]
    fn replicated_consumer_shares_work() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 0..64u64 {
                    out.send(DataBuffer::tag_only(i))?;
                }
                Ok(())
            }),
        );
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let c2 = Arc::clone(&counts);
        let workers = layout.add_replicated("worker", vec![NodeId(0); 4], move |_i| {
            let counts = Arc::clone(&c2);
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while inp.recv().is_some() {
                    counts[ctx.instance].fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect(src, "out", workers, "in");
        Runtime::run(layout).expect("run ok");
        let total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 64, "every buffer processed exactly once");
    }

    #[test]
    fn broadcast_reaches_every_replica() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(5))?;
                Ok(())
            }),
        );
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let s2 = Arc::clone(&seen);
        let workers = layout.add_replicated("w", vec![NodeId(0); 3], move |_| {
            let seen = Arc::clone(&s2);
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(b) = inp.recv() {
                    seen[ctx.instance].fetch_add(b.tag, Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect_with(src, "out", workers, "in", Delivery::Broadcast, 8);
        Runtime::run(layout).expect("run ok");
        for c in seen.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 5);
        }
    }

    #[test]
    fn addressed_replies_reach_requesting_instance() {
        // Workers send their instance id to a server; the server replies to
        // exactly that instance (the DOoC storage reply pattern).
        let mut layout = Layout::new();
        let nworkers = 3;
        let server = layout.add_filter(
            "server",
            NodeId(0),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("req")?;
                let out = ctx.output("rep")?;
                while let Some(b) = inp.recv() {
                    let who = b.as_u64s()[0] as usize;
                    out.send_to(NodeId(who), DataBuffer::from_u64s(0, &[who as u64 * 10]))?;
                }
                Ok(())
            }),
        );
        let oks: Arc<Vec<AtomicU64>> = Arc::new((0..nworkers).map(|_| AtomicU64::new(0)).collect());
        let o2 = Arc::clone(&oks);
        let workers = layout.add_replicated("worker", vec![NodeId(1); nworkers], move |_| {
            let oks = Arc::clone(&o2);
            Box::new(move |ctx: &mut FilterContext| {
                ctx.output("req")?
                    .send(DataBuffer::from_u64s(0, &[ctx.instance as u64]))?;
                ctx.close_output("req");
                let rep = ctx.input("rep")?.recv().expect("a reply");
                assert_eq!(rep.as_u64s()[0], ctx.instance as u64 * 10);
                oks[ctx.instance].fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
        });
        layout.connect(workers, "req", server, "req");
        layout.connect_with(server, "rep", workers, "rep", Delivery::Addressed, 8);
        Runtime::run(layout).expect("run ok");
        for c in oks.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fan_in_from_two_declarations() {
        let mut layout = Layout::new();
        let mk_src = |tag: u64| -> Box<dyn crate::Filter> {
            Box::new(move |ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(tag))?;
                Ok(())
            })
        };
        let a = layout.add_filter("a", NodeId(0), mk_src(1));
        let b = layout.add_filter("b", NodeId(0), mk_src(2));
        let total = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&total);
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(buf) = inp.recv() {
                    t.fetch_add(buf.tag, Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(a, "out", sink, "in");
        layout.connect(b, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
        assert_eq!(total.load(Ordering::Relaxed), 3, "both sources merged");
    }

    #[test]
    fn aligned_pairs_instances() {
        let mut layout = Layout::new();
        let nodes = vec![NodeId(0), NodeId(1)];
        let prod = layout.add_replicated("p", nodes.clone(), |_| {
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?
                    .send(DataBuffer::from_u64s(0, &[ctx.instance as u64]))?;
                Ok(())
            })
        });
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(99)).collect());
        let s2 = Arc::clone(&seen);
        let cons = layout.add_replicated("c", nodes, move |_| {
            let seen = Arc::clone(&s2);
            Box::new(move |ctx: &mut FilterContext| {
                if let Some(b) = ctx.input("in")?.recv() {
                    seen[ctx.instance].store(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect_with(prod, "out", cons, "in", Delivery::Aligned, 8);
        Runtime::run(layout).expect("run ok");
        assert_eq!(seen[0].load(Ordering::Relaxed), 0);
        assert_eq!(seen[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn filter_error_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "bad",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| Err(ctx.error("boom"))),
        );
        match Runtime::run(layout) {
            Err(FsError::Filter {
                filter, message, ..
            }) => {
                assert_eq!(filter, "bad");
                assert_eq!(message, "boom");
            }
            other => panic!("expected filter error, got {other:?}"),
        }
    }

    #[test]
    fn filter_panic_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "panics",
            NodeId(0),
            Box::new(|_: &mut FilterContext| -> Result<()> { panic!("kaboom") }),
        );
        assert!(matches!(
            Runtime::run(layout),
            Err(FsError::FilterPanicked { .. })
        ));
    }

    #[test]
    fn error_in_one_filter_cascades_shutdown() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| Err(ctx.error("early out"))),
        );
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while inp.recv().is_some() {}
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        assert!(matches!(Runtime::run(layout), Err(FsError::Filter { .. })));
    }

    #[test]
    fn three_stage_pipelined_parallelism() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "src",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 1..=10u64 {
                    out.send(DataBuffer::from_u64s(0, &[i]))?;
                }
                Ok(())
            }),
        );
        let mid = layout.add_filter(
            "double",
            NodeId(1),
            Box::new(|ctx: &mut FilterContext| {
                while let Some(b) = ctx.input("in")?.recv() {
                    let v = b.as_u64s()[0] * 2;
                    ctx.output("out")?.send(DataBuffer::from_u64s(0, &[v]))?;
                }
                Ok(())
            }),
        );
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        let sink = layout.add_filter(
            "sink",
            NodeId(2),
            Box::new(move |ctx: &mut FilterContext| {
                while let Some(b) = ctx.input("in")?.recv() {
                    g.fetch_add(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(src, "out", mid, "in");
        layout.connect(mid, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
        assert_eq!(got.load(Ordering::Relaxed), 2 * 55);
    }

    #[test]
    fn unknown_port_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "lost",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("nonexistent")?;
                Ok(())
            }),
        );
        assert!(matches!(
            Runtime::run(layout),
            Err(FsError::UnknownPort { .. })
        ));
    }

    /// The shutdown leak audit's input: a consumer that exits with buffers
    /// still in its lane is named by `undrained_ports`. The producer fills
    /// the `data` lane before it sends on `go`, and the consumer returns as
    /// soon as `go` arrives, so every data buffer is abandoned in every
    /// schedule.
    #[test]
    fn abandoned_buffers_are_reported_undrained() {
        const CAP: u64 = 4;
        let mut layout = Layout::new();
        let prod = layout.add_filter(
            "prod",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                for i in 0..CAP {
                    ctx.output("data")?.send(DataBuffer::tag_only(i))?;
                }
                ctx.output("go")?.send(DataBuffer::tag_only(0))?;
                Ok(())
            }),
        );
        let cons = layout.add_filter(
            "cons",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.input("go")?.recv();
                Ok(())
            }),
        );
        layout.connect_with(
            prod,
            "data",
            cons,
            "data",
            Delivery::RoundRobin,
            CAP as usize,
        );
        layout.connect(prod, "go", cons, "go");
        let report = Runtime::run(layout).expect("run ok");
        let undrained: Vec<_> = report
            .undrained_ports()
            .iter()
            .map(|p| (p.name.as_str(), p.delivered, p.received))
            .collect();
        assert_eq!(undrained, [("cons.data", CAP, 0)]);
    }

    /// A 2-node layout whose only stream crosses the node boundary: each
    /// `src` instance on node 0 ships `n` bulk-carrying buffers to `sink` on
    /// node 1, which checks that every producer's sequence arrives intact
    /// and in order. One producer uses a round-robin stream into a single
    /// sink; several are shaped like the storage `peer_out` stream — an
    /// `Addressed` stream into a sink with one instance per node, every
    /// producer sending to node 1.
    fn bulk_layout(n: u64, block: usize, producers: usize) -> Layout {
        let mut layout = Layout::new();
        let addressed = producers > 1;
        let src = layout.add_replicated("src", vec![NodeId(0); producers], move |p| {
            Box::new(move |ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 0..n {
                    let mut b = DataBuffer::from_u64s(i, &[p as u64, i, block as u64]);
                    b.bulk = bytes::Bytes::from(vec![(i + p as u64) as u8; block]);
                    if addressed {
                        out.send_to(NodeId(1), b)?;
                    } else {
                        out.send(b)?;
                    }
                }
                Ok(())
            })
        });
        let sinks = if addressed {
            vec![NodeId(0), NodeId(1)]
        } else {
            vec![NodeId(1)]
        };
        let sink = layout.add_replicated("sink", sinks, move |_| {
            Box::new(move |ctx: &mut FilterContext| {
                let mut next = vec![0u64; producers];
                while let Some(b) = ctx.input("in")?.recv() {
                    let words = b.as_u64s();
                    let p = words[0] as usize;
                    let i = next[p];
                    if words != [p as u64, i, block as u64]
                        || b.bulk != vec![(i + p as u64) as u8; block]
                    {
                        return Err(ctx.error(format!("producer {p}: buffer {i} arrived damaged")));
                    }
                    next[p] += 1;
                }
                let expect = if ctx.node == NodeId(1) { n } else { 0 };
                if next.iter().any(|&c| c != expect) {
                    return Err(ctx.error(format!("per-producer counts {next:?}, want {expect}")));
                }
                Ok(())
            })
        });
        if addressed {
            layout.connect_with(src, "out", sink, "in", Delivery::Addressed, 8);
        } else {
            layout.connect(src, "out", sink, "in");
        }
        layout
    }

    /// Runs [`bulk_layout`] as two processes' worth of runtimes over
    /// `transports` and checks each side's own books: the sender counted
    /// payload + bulk as sent, the receiver's router enqueued exactly what
    /// its consumer dequeued, and the leak audit is clean on both.
    fn check_bulk_balance(transports: Vec<Arc<dyn Transport>>, producers: usize) {
        let (n, block) = (6u64, 100_000usize); // blocks larger than a socket read chunk
        let total = n * producers as u64;
        let wire = total * (16 + 24 + block as u64);
        let reports: Vec<RuntimeReport> = transports
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    Runtime::run_distributed(bulk_layout(n, block, producers), t)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("node thread").expect("run ok"))
            .collect();
        let sent = reports[0].stream("src.out -> sink.in").expect("stream");
        assert_eq!(
            (sent.buffers, sent.bytes, sent.remote_bytes),
            (total, wire, wire)
        );
        let port = &reports[1].ports[0];
        assert_eq!((port.delivered, port.received), (total, total));
        assert_eq!(port.delivered_bytes, wire, "router counts payload + bulk");
        assert_eq!(port.received_bytes, wire);
        for r in &reports {
            assert!(r.undrained_ports().is_empty());
        }
        // The sending process enqueues nothing locally: each process
        // balances on its own.
        assert_eq!(reports[0].ports[0].delivered_bytes, 0);
    }

    fn channel_pair() -> Vec<Arc<dyn Transport>> {
        crate::ChannelTransport::cluster(2)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport>)
            .collect()
    }

    fn tcp_pair() -> Vec<Arc<dyn Transport>> {
        let listeners: Vec<_> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let spec = crate::ClusterSpec::new(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("addr").to_string())
                .collect(),
        );
        let fp = spec.fingerprint();
        let mesh: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, l)| {
                let spec = spec.clone();
                std::thread::spawn(move || crate::TcpTransport::with_listener(&spec, me, fp, l))
            })
            .collect();
        mesh.into_iter()
            .map(|h| Arc::new(h.join().expect("mesh thread").expect("mesh")) as Arc<dyn Transport>)
            .collect()
    }

    /// Also the contract the storage layer relies on: with three producers
    /// addressed to one consumer on another node, each producer's buffers
    /// arrive complete and in their own send order over both transports.
    #[test]
    fn port_byte_totals_balance_over_transports() {
        for producers in [1, 3] {
            check_bulk_balance(channel_pair(), producers);
            check_bulk_balance(tcp_pair(), producers);
        }
    }

    #[test]
    fn close_output_signals_downstream() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "src",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(1))?;
                ctx.close_output("out");
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(())
            }),
        );
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                assert_eq!(inp.recv().expect("one buffer").tag, 1);
                assert!(inp.recv().is_none(), "closed early via close_output");
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
    }
}
