//! The execution engine: threads, wiring, and run reports.
//!
//! One engine runs the nodes whose [`Transport`]s it is handed. For each
//! node it builds one inbox per *(consumer filter, input port)* — merging
//! fanned-in streams — whose lanes for consumers on that node are channels
//! and whose other lanes are frames on the node's transport. It starts the
//! node's [`Router`], which delivers incoming frames into the node's lanes,
//! and spawns one OS thread per filter instance placed on the node. Once
//! every local filter has finished it shuts the transports down together and
//! returns a [`RuntimeReport`] with the per-stream traffic counters. Filter
//! errors and panics are collected and reported (the first error wins;
//! remaining filters unwind naturally as their streams close).
//!
//! [`Runtime::run`] hands the engine every node of an in-process
//! [`ChannelTransport`] cluster; [`Runtime::run_distributed`] hands it the
//! one node of a cluster that this process runs. Either way a buffer between
//! two nodes is a frame on the sender's transport, and a lane fed from other
//! nodes closes once every local writer has dropped *and* a `Close` frame
//! has arrived from every remote producer endpoint that could reach it.

use crate::buffer::DataBuffer;
use crate::codec::{Frame, FrameKind};
use crate::filter::FilterContext;
use crate::layout::{FilterDecl, Layout, StreamDecl};
use crate::stream::{reachable_lanes, Delivery, Inbox, PortCounters, StreamStats};
use crate::transport::{ChannelTransport, FrameSink, Transport};
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
    tx: Sender<DataBuffer>,
    counters: Arc<PortCounters>,
    /// `peer node -> outstanding remote producer endpoints`. While non-empty
    /// the router keeps `tx` alive, holding the port open on behalf of the
    /// remote writers.
    refs: HashMap<usize, usize>,
}

/// Consumer-side dispatcher for frames arriving over a node's [`Transport`]:
/// maps `(inbox, lane)` to the matching local channel lane and holds it open
/// until every remote producer endpoint that can reach it has sent its
/// `Close` frame (see [`crate::stream::StreamWriter`]'s drop impl).
pub(crate) struct Router {
    lanes: Mutex<HashMap<(u16, u32), LaneState>>,
}

impl Router {
    /// The router of node `me`: one reference per producer instance on
    /// another node on every lane of `me` that instance can reach.
    /// `inboxes[port_of[s]]` is `me`'s inbox for stream `s`.
    fn new(
        me: NodeId,
        filters: &[FilterDecl],
        streams: &[StreamDecl],
        port_of: &[usize],
        inboxes: &[Inbox],
    ) -> Self {
        let mut lanes: HashMap<(u16, u32), LaneState> = HashMap::new();
        for (s, &port) in streams.iter().zip(port_of) {
            let inbox = &inboxes[port];
            for (inst, &pnode) in filters[s.from.0].placements.iter().enumerate() {
                if pnode == me {
                    continue;
                }
                for lane in reachable_lanes(s.delivery, inst, inbox.nlanes()) {
                    let Some(tx) = inbox.local_lane_sender(lane) else {
                        continue;
                    };
                    let entry =
                        lanes
                            .entry((port as u16, lane as u32))
                            .or_insert_with(|| LaneState {
                                tx,
                                counters: Arc::clone(&inbox.counters),
                                refs: HashMap::new(),
                            });
                    *entry.refs.entry(pnode.0).or_insert(0) += 1;
                }
            }
        }
        Router {
            lanes: Mutex::new(lanes),
        }
    }

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
                        .map(|l| (l.tx.clone(), Arc::clone(&l.counters)))
                };
                let Some((tx, counters)) = slot else {
                    // No open lane here for this address (its remote
                    // endpoints have all closed, or their node has gone):
                    // drop the frame.
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
                // A send fails once the lane's consumers have all returned;
                // the frame is dropped, as it would be over a wire.
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

/// One (consumer filter, input port) of a layout. The streams fanned into it
/// share its inbox on every node, its wire index and its delivery tally.
struct Port {
    filter: usize,
    name: String,
    delivery: Delivery,
    capacity: usize,
    counters: Arc<PortCounters>,
}

/// The filter-stream execution engine.
pub struct Runtime;

impl Runtime {
    /// Runs a layout to completion in this process: nodes 0 up to the
    /// highest node the layout places a filter on, each a node of one
    /// in-process [`ChannelTransport`] cluster, so streams between nodes
    /// ride frames and routers exactly as they do between processes.
    pub fn run(layout: Layout) -> Result<RuntimeReport> {
        let nnodes = layout
            .filters
            .iter()
            .flat_map(|f| &f.placements)
            .map(|n| n.0 + 1)
            .max()
            .unwrap_or(1);
        let transports = ChannelTransport::cluster(nnodes)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport>)
            .collect();
        Self::run_nodes(layout, transports)
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
        Self::run_nodes(layout, vec![transport])
    }

    /// The engine: runs the share of `layout` placed on the nodes of
    /// `transports`, which all belong to one cluster.
    fn run_nodes(layout: Layout, transports: Vec<Arc<dyn Transport>>) -> Result<RuntimeReport> {
        layout.validate()?;
        let nnodes = transports.first().map_or(0, |t| t.nnodes());
        for f in &layout.filters {
            if let Some(n) = f.placements.iter().find(|n| n.0 >= nnodes) {
                return Err(FsError::InvalidLayout(format!(
                    "filter '{}' placed on {n} but the cluster has {nnodes} nodes",
                    f.name
                )));
            }
        }
        let Layout {
            mut filters,
            streams,
        } = layout;

        // One port per (consumer filter, input port); fanned-in streams
        // share it. Validation guaranteed delivery agreement. Port indices
        // follow first occurrence in stream declaration order, so identical
        // layouts yield identical wire addresses on every node.
        let mut ports: Vec<Port> = Vec::new();
        let mut port_of: Vec<usize> = Vec::with_capacity(streams.len());
        for s in &streams {
            let found = ports
                .iter()
                .position(|p| p.filter == s.to.0 && p.name == s.to_port);
            let port = match found {
                Some(i) => i,
                None => {
                    u16::try_from(ports.len()).map_err(|_| {
                        FsError::InvalidLayout("more than 65535 input ports".into())
                    })?;
                    ports.push(Port {
                        filter: s.to.0,
                        name: s.to_port.clone(),
                        delivery: s.delivery,
                        capacity: s.capacity,
                        counters: Arc::default(),
                    });
                    ports.len() - 1
                }
            };
            port_of.push(port);
        }
        let stream_stats: Vec<(String, Arc<StreamStats>)> = streams
            .iter()
            .map(|s| {
                let name = format!(
                    "{}.{} -> {}.{}",
                    filters[s.from.0].name, s.from_port, filters[s.to.0].name, s.to_port
                );
                (name, Arc::default())
            })
            .collect();

        // Each filter instance's endpoints, [filter][instance] -> port ->
        // endpoint, wired by the node the instance is placed on. Every
        // router starts before any filter runs.
        let mut readers = per_instance(&filters);
        let mut writers = per_instance(&filters);
        for t in &transports {
            let me = t.node();
            let mut inboxes: Vec<Inbox> = ports
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let consumers = &filters[p.filter].placements;
                    let is_local = |n| n == me;
                    let counters = Arc::clone(&p.counters);
                    Inbox::new(
                        p.delivery, p.capacity, consumers, &p.name, is_local, i as u16, counters,
                    )
                })
                .collect();
            for ((s, &port), (_, stats)) in streams.iter().zip(&port_of).zip(&stream_stats) {
                for (inst, &node) in filters[s.from.0].placements.iter().enumerate() {
                    if node == me {
                        let w = inboxes[port].writer(
                            &s.from_port,
                            inst,
                            Arc::clone(stats),
                            Arc::clone(t),
                        );
                        writers[s.from.0][inst].insert(s.from_port.clone(), w);
                    }
                }
            }
            let router = Router::new(me, &filters, &streams, &port_of, &inboxes);
            t.start(Arc::new(router))?;
            for (p, inbox) in ports.iter().zip(&mut inboxes) {
                for (inst, &node) in filters[p.filter].placements.iter().enumerate() {
                    if node == me {
                        readers[p.filter][inst].insert(p.name.clone(), inbox.take_reader(inst));
                    }
                }
            }
        }

        // Spawn every local filter instance.
        let local: Vec<NodeId> = transports.iter().map(|t| t.node()).collect();
        let started = Instant::now();
        let mut handles = Vec::new();
        for (fidx, decl) in filters.iter_mut().enumerate() {
            let replicas = decl.placements.len();
            for (inst, &node) in decl.placements.iter().enumerate() {
                if !local.contains(&node) {
                    continue;
                }
                let inputs = std::mem::take(&mut readers[fidx][inst]);
                let outputs = std::mem::take(&mut writers[fidx][inst]);
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
        // Every local producer endpoint has dropped (and sent its Close
        // frames) — flush, announce, and drain. The transports shut down
        // together: an in-process cluster's shutdown returns only once every
        // node of it has shut down. Runs on the error path too, so a failing
        // node still tells its peers it is gone rather than leaving them
        // blocked on a silent socket.
        std::thread::scope(|scope| {
            for t in &transports {
                scope.spawn(move || t.shutdown());
            }
        });
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
        let mut ports: Vec<PortReport> = ports
            .into_iter()
            .map(|p| {
                use dooc_sync::atomic::Ordering;
                let c = p.counters;
                PortReport {
                    name: format!("{}.{}", filters[p.filter].name, p.name),
                    delivered: c.enqueued.load(Ordering::Relaxed),
                    received: c.dequeued.load(Ordering::Relaxed),
                    delivered_bytes: c.bytes_enqueued.load(Ordering::Relaxed),
                    received_bytes: c.bytes_dequeued.load(Ordering::Relaxed),
                }
            })
            .collect();
        ports.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(RuntimeReport {
            elapsed,
            streams,
            ports,
        })
    }
}

/// An empty endpoint map per filter instance, `[filter][instance]`.
fn per_instance<T>(filters: &[FilterDecl]) -> Vec<Vec<HashMap<String, T>>> {
    filters
        .iter()
        .map(|f| f.placements.iter().map(|_| HashMap::new()).collect())
        .collect()
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

    /// Runs `layout()` as one process's worth of runtime per transport, one
    /// thread each, and returns the reports in node order.
    fn run_per_node(
        transports: Vec<Arc<dyn Transport>>,
        layout: impl Fn() -> Layout,
    ) -> Vec<RuntimeReport> {
        transports
            .into_iter()
            .map(|t| {
                let layout = layout();
                std::thread::spawn(move || Runtime::run_distributed(layout, t))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("node thread").expect("run ok"))
            .collect()
    }

    /// Runs [`bulk_layout`] in one [`Runtime::run`] when `transports` is
    /// `None`, else as two processes' worth of runtimes over them, and checks
    /// the books: the sender counted payload + bulk as sent, all of it
    /// remote; the receiving node's router enqueued exactly what its consumer
    /// dequeued; and the leak audit is clean on every report.
    fn check_bulk_balance(transports: Option<Vec<Arc<dyn Transport>>>, producers: usize) {
        let (n, block) = (6u64, 100_000usize); // blocks larger than a socket read chunk
        let total = n * producers as u64;
        let wire = total * (16 + 24 + block as u64);
        let layout = || bulk_layout(n, block, producers);
        let reports = match transports {
            None => vec![Runtime::run(layout()).expect("run ok")],
            Some(t) => run_per_node(t, layout),
        };
        let (sender, receiver) = (&reports[0], &reports[reports.len() - 1]);
        let sent = sender.stream("src.out -> sink.in").expect("stream");
        assert_eq!(
            (sent.buffers, sent.bytes, sent.remote_bytes),
            (total, wire, wire)
        );
        let port = &receiver.ports[0];
        assert_eq!((port.delivered, port.received), (total, total));
        assert_eq!(port.delivered_bytes, wire, "router counts payload + bulk");
        assert_eq!(port.received_bytes, wire);
        for r in &reports {
            assert!(r.undrained_ports().is_empty());
        }
        if reports.len() == 2 {
            // The sending process enqueues nothing locally: each process
            // balances on its own.
            assert_eq!(sender.ports[0].delivered_bytes, 0);
        }
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
            check_bulk_balance(None, producers);
            check_bulk_balance(Some(channel_pair()), producers);
            check_bulk_balance(Some(tcp_pair()), producers);
        }
    }

    #[test]
    fn round_robin_consumers_spanning_nodes_are_rejected() {
        let mut layout = Layout::new();
        let src = layout.add_filter("src", NodeId(0), Box::new(|_: &mut FilterContext| Ok(())));
        let workers = layout.add_replicated("worker", vec![NodeId(0), NodeId(1)], |_| {
            Box::new(|_: &mut FilterContext| Ok(()))
        });
        layout.connect(src, "out", workers, "in");
        match Runtime::run(layout) {
            Err(FsError::InvalidLayout(m)) => assert!(m.contains("'worker.in'"), "{m}"),
            other => panic!("expected an invalid layout, got {other:?}"),
        }
    }

    /// Buffers `src` sends after its consumer has returned.
    const ORPHANS: u64 = 100;

    /// `src` on node 0 sends one buffer to `sink` on node 1, waits until the
    /// sink has taken it and dropped its input, then sends [`ORPHANS`] more.
    fn orphan_layout(gone: Arc<std::sync::Barrier>) -> Layout {
        let mut layout = Layout::new();
        let sent_first = Arc::clone(&gone);
        let src = layout.add_filter(
            "src",
            NodeId(0),
            Box::new(move |ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                out.send(DataBuffer::tag_only(0))?;
                sent_first.wait();
                for i in 1..=ORPHANS {
                    out.send(DataBuffer::tag_only(i))?;
                }
                Ok(())
            }),
        );
        let sink = layout.add_filter(
            "sink",
            NodeId(1),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.take_input("in")?;
                inp.recv().ok_or_else(|| ctx.error("no first buffer"))?;
                drop(inp);
                gone.wait();
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        layout
    }

    /// A producer that keeps sending after its consumer on another node has
    /// returned completes the run: the receiving router drops its frames, in
    /// one process exactly as between processes, and the leak audit stays
    /// clean. (On one node the send fails instead:
    /// `send_fails_when_all_consumers_gone`.)
    #[test]
    fn sends_to_a_consumer_gone_on_another_node_are_dropped() {
        let barrier = || Arc::new(std::sync::Barrier::new(2));
        let in_process = Runtime::run(orphan_layout(barrier())).expect("run ok");
        let gone = barrier();
        let per_node = run_per_node(channel_pair(), || orphan_layout(Arc::clone(&gone)));
        let sent = |r: &RuntimeReport| {
            let s = r.stream("src.out -> sink.in").expect("stream");
            (s.buffers, s.bytes, s.remote_bytes)
        };
        let all = (1 + ORPHANS, 16 * (1 + ORPHANS), 16 * (1 + ORPHANS));
        assert_eq!(sent(&in_process), all);
        assert_eq!(sent(&per_node[0]), all);
        let port = |r: &RuntimeReport| (r.ports[0].delivered, r.ports[0].received);
        assert_eq!(port(&in_process), (1, 1), "only the first buffer delivered");
        assert_eq!(port(&per_node[1]), (1, 1));
        for r in per_node.iter().chain([&in_process]) {
            assert!(r.undrained_ports().is_empty());
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
