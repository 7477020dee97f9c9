//! Transport abstraction: how frames move between nodes.
//!
//! The stream layer ([`crate::stream`]) routes a [`crate::buffer::DataBuffer`]
//! either into a local channel lane (consumer on the writer's node) or into a
//! [`Frame`] handed to the node's [`Transport`] (consumer on another node). The
//! transport is *only* a reliable, ordered, per-peer frame pipe — all
//! delivery semantics (fan-in, broadcast, alignment, addressing, close
//! refcounts) live above it, so swapping transports cannot change routing
//! behaviour.
//!
//! Two implementations ship:
//!
//! * [`ChannelTransport`] — in-process bounded channels between nodes that
//!   are thread groups of one process. [`crate::Runtime::run`] wires every
//!   node of an in-process run over it.
//! * [`crate::tcp::TcpTransport`] — one OS process per node, length-prefixed
//!   frames over `TcpStream` (see [`crate::codec`]).
//!
//! # Lifecycle
//!
//! ```text
//! construct → exchange(...)* → start(sink) → send(...)* → shutdown()
//! ```
//!
//! [`Transport::exchange`] is a pre-start all-to-all barrier used by node
//! bootstrap (storage-map digests, staging consensus). [`Transport::start`]
//! installs the [`FrameSink`] (the runtime's router) and begins delivering
//! incoming frames. [`Transport::shutdown`] flushes outgoing frames, signals
//! peers that this node is done, and blocks until incoming delivery has
//! drained — callers invoke it only after every local producer endpoint has
//! dropped (and therefore emitted its `Close` frames).

use crate::codec::Frame;
use crate::{FsError, NodeId, Result};
use bytes::Bytes;
use dooc_sync::channel::{bounded, Receiver, Sender};
use dooc_sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// Capacity of each per-node frame queue in [`ChannelTransport`]. Bounded so
/// in-process runs keep the same backpressure shape as a TCP socket buffer.
const CHANNEL_TRANSPORT_CAP: usize = 1024;

/// Receiver side of a transport: the runtime's frame router.
pub trait FrameSink: Send + Sync {
    /// A `Data` or `Close` frame arrived from `from`. Called from a
    /// transport-owned thread; may block on lane backpressure.
    fn on_frame(&self, from: NodeId, frame: Frame);

    /// Peer `from` shut down (or its connection reached EOF). Any producer
    /// endpoints it still held are to be treated as closed.
    fn on_peer_closed(&self, from: NodeId);
}

/// A reliable, ordered, per-peer frame pipe between cluster nodes.
pub trait Transport: Send + Sync {
    /// This node's id.
    fn node(&self) -> NodeId;

    /// Cluster size.
    fn nnodes(&self) -> usize;

    /// Queues `frame` toward `to` (never this node). Blocks on backpressure;
    /// errors if the transport (or peer) has shut down.
    fn send(&self, to: NodeId, frame: Frame) -> Result<()>;

    /// All-to-all rendezvous: publishes `blob`, blocks until every node has
    /// published, returns all blobs sorted by node id (own blob included).
    /// One round per run; used by bootstrap before [`Transport::start`].
    fn exchange(&self, blob: Bytes) -> Result<Vec<(NodeId, Bytes)>>;

    /// Installs the sink and starts delivering incoming frames to it.
    fn start(&self, sink: Arc<dyn FrameSink>) -> Result<()>;

    /// Flushes outgoing frames, notifies peers, and drains incoming delivery.
    /// Idempotent. Call only after all local producer endpoints dropped.
    fn shutdown(&self);
}

/// What travels over a [`ChannelTransport`] queue.
enum Wire {
    Frame(NodeId, Frame),
    Bye(NodeId),
}

/// Shared all-to-all rendezvous state for one in-process cluster.
struct ExchangeBoard {
    slots: Mutex<HashMap<usize, Bytes>>,
    cv: Condvar,
}

impl ExchangeBoard {
    fn exchange(&self, node: NodeId, blob: Bytes, nnodes: usize) -> Vec<(NodeId, Bytes)> {
        let mut slots = self.slots.lock();
        slots.insert(node.0, blob);
        if slots.len() == nnodes {
            self.cv.notify_all();
        }
        while slots.len() < nnodes {
            self.cv.wait(&mut slots);
        }
        let mut out: Vec<(NodeId, Bytes)> =
            slots.iter().map(|(n, b)| (NodeId(*n), b.clone())).collect();
        out.sort_by_key(|(n, _)| n.0);
        out
    }
}

/// In-process transport: every node is a thread group in this process and
/// frames travel over bounded channels, one pump thread per node delivering
/// them to its router. Semantically identical to the TCP transport (same
/// frames, same close protocol, same backpressure shape) minus the sockets.
/// [`crate::Runtime::run`] carries every in-process run's traffic between
/// nodes over it. [`Transport::shutdown`] returns only once every node of
/// the cluster has shut down, so the nodes of one cluster must shut down
/// concurrently, not one after another from one thread.
pub struct ChannelTransport {
    node: NodeId,
    nnodes: usize,
    /// Senders toward each node, dropped on shutdown. `txs[self]` exists but
    /// is never used (local lanes bypass the transport entirely).
    txs: Mutex<Vec<Option<Sender<Wire>>>>,
    /// Incoming queue, taken by [`Transport::start`].
    rx: Mutex<Option<Receiver<Wire>>>,
    pump: Mutex<Option<std::thread::JoinHandle<()>>>,
    board: Arc<ExchangeBoard>,
}

impl ChannelTransport {
    /// Builds a connected `n`-node in-process cluster; element `i` is node
    /// `i`'s transport.
    pub fn cluster(n: usize) -> Vec<ChannelTransport> {
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<Wire>(CHANNEL_TRANSPORT_CAP);
            txs.push(tx);
            rxs.push(rx);
        }
        let board = Arc::new(ExchangeBoard {
            slots: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        });
        rxs.into_iter()
            .enumerate()
            .map(|(i, rx)| ChannelTransport {
                node: NodeId(i),
                nnodes: n,
                txs: Mutex::new(txs.iter().map(|t| Some(t.clone())).collect()),
                rx: Mutex::new(Some(rx)),
                pump: Mutex::new(None),
                board: Arc::clone(&board),
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn nnodes(&self) -> usize {
        self.nnodes
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<()> {
        if to == self.node || to.0 >= self.nnodes {
            return Err(FsError::Transport(format!(
                "invalid frame destination {to} from {}",
                self.node
            )));
        }
        // Clone the sender out of the lock so backpressure on one peer never
        // serializes sends to the others.
        let tx = {
            let txs = self.txs.lock();
            match txs.get(to.0).and_then(|t| t.clone()) {
                Some(tx) => tx,
                None => {
                    return Err(FsError::Transport(format!(
                        "transport on {} already shut down",
                        self.node
                    )))
                }
            }
        };
        tx.send(Wire::Frame(self.node, frame))
            .map_err(|_| FsError::Transport(format!("peer {to} stopped receiving (shut down)")))
    }

    fn exchange(&self, blob: Bytes) -> Result<Vec<(NodeId, Bytes)>> {
        Ok(self.board.exchange(self.node, blob, self.nnodes))
    }

    fn start(&self, sink: Arc<dyn FrameSink>) -> Result<()> {
        let rx = self.rx.lock().take().ok_or_else(|| {
            FsError::Transport(format!("transport on {} already started", self.node))
        })?;
        let handle = std::thread::Builder::new()
            .name(format!("fs-pump-{}", self.node))
            .spawn(move || loop {
                match rx.recv() {
                    Ok(Wire::Frame(from, f)) => sink.on_frame(from, f),
                    Ok(Wire::Bye(from)) => sink.on_peer_closed(from),
                    Err(_) => break,
                }
            })
            .map_err(|e| FsError::Transport(format!("spawn pump: {e}")))?;
        *self.pump.lock() = Some(handle);
        Ok(())
    }

    fn shutdown(&self) {
        let taken: Vec<Option<Sender<Wire>>> = {
            let mut txs = self.txs.lock();
            std::mem::take(&mut *txs)
        };
        for (i, tx) in taken.into_iter().enumerate() {
            if i == self.node.0 {
                continue;
            }
            if let Some(tx) = tx {
                // Best effort: the peer may already be fully gone.
                let _ = tx.send(Wire::Bye(self.node));
            }
        }
        // The pump exits once every cluster member has dropped its senders,
        // i.e. once every node has reached shutdown — a clean global drain.
        let handle = self.pump.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameKind;
    use dooc_sync::atomic::{AtomicUsize, Ordering};

    struct CountingSink {
        frames: AtomicUsize,
        closes: AtomicUsize,
    }

    impl FrameSink for CountingSink {
        fn on_frame(&self, _from: NodeId, frame: Frame) {
            assert_eq!(frame.kind, FrameKind::Data);
            self.frames.fetch_add(1, Ordering::SeqCst);
        }
        fn on_peer_closed(&self, _from: NodeId) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn frames_flow_and_shutdown_drains() {
        let cluster = ChannelTransport::cluster(3);
        let sinks: Vec<Arc<CountingSink>> = (0..3)
            .map(|_| {
                Arc::new(CountingSink {
                    frames: AtomicUsize::new(0),
                    closes: AtomicUsize::new(0),
                })
            })
            .collect();
        for (t, s) in cluster.iter().zip(&sinks) {
            t.start(Arc::clone(s) as Arc<dyn FrameSink>).expect("start");
        }
        // Every node sends 5 frames to every other node.
        let handles: Vec<_> = cluster
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    for peer in 0..t.nnodes() {
                        if peer == t.node().0 {
                            continue;
                        }
                        for k in 0..5u64 {
                            t.send(NodeId(peer), Frame::data(0, 0, k, Bytes::new()))
                                .expect("send");
                        }
                    }
                    t.shutdown();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
        for s in &sinks {
            assert_eq!(s.frames.load(Ordering::SeqCst), 10);
            assert_eq!(s.closes.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn exchange_is_an_all_to_all_barrier() {
        let cluster = ChannelTransport::cluster(4);
        let handles: Vec<_> = cluster
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mine = Bytes::from(vec![t.node().0 as u8; 3]);
                    let all = t.exchange(mine).expect("exchange");
                    assert_eq!(all.len(), 4);
                    for (i, (n, b)) in all.iter().enumerate() {
                        assert_eq!(n.0, i);
                        assert_eq!(&b[..], &[i as u8; 3]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
    }

    #[test]
    fn send_to_self_or_out_of_range_is_an_error() {
        let mut cluster = ChannelTransport::cluster(2);
        let t = cluster.remove(0);
        assert!(t.send(NodeId(0), Frame::close(0, 0)).is_err());
        assert!(t.send(NodeId(7), Frame::close(0, 0)).is_err());
    }
}
