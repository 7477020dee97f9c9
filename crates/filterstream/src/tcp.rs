//! TCP transport: one OS process per node, frames over real sockets.
//!
//! # Topology and handshake
//!
//! Every node binds the listener named by its [`ClusterSpec`] entry, then
//! **dials every lower id and accepts from every higher id** — exactly one
//! duplex `TcpStream` per peer pair, no coordinator. The first frame on
//! every new connection (in both directions) is a [`FrameKind::Hello`]
//! carrying the magic `b"DOOC"`, the protocol version, and the caller's
//! cluster fingerprint; a mismatch in any of the three rejects the
//! connection, so two differently-configured clusters can never
//! half-connect. Dial attempts retry for up to [`CONNECT_DEADLINE`] to ride
//! out peers that are still binding.
//!
//! # Data path
//!
//! Per peer, the transport owns two threads:
//!
//! * a **writer** draining a bounded outbox: frames are written header,
//!   payload, bulk as consecutive writes through a `BufWriter` (no
//!   intermediate frame allocation — a block-sized bulk bypasses the buffer
//!   and goes to the socket from the allocation the storage layer holds)
//!   and flushed when the outbox goes idle, batching bursts into few
//!   syscalls;
//! * a **demux** reading into fresh chunks handed to a
//!   [`FrameDecoder`], so decoded payloads alias the read allocation
//!   (zero-copy; see [`crate::codec`]) and are pushed into the runtime's
//!   router via [`FrameSink::on_frame`]. EOF reports
//!   [`FrameSink::on_peer_closed`].
//!
//! Shutdown drops the outboxes (writers flush and half-close), then joins
//! the demux threads, which end at peer EOF — i.e. shutdown completes when
//! the whole cluster has shut down, mirroring
//! [`crate::transport::ChannelTransport`].
//!
//! # Fault sites
//!
//! The spec's [`FaultPlan`] ([`ClusterSpec::with_faults`]) can delay or fail
//! dial attempts at [`Site::TcpConnect`] (exercising the retry loop) and
//! delay data frames in the writer at [`Site::TcpFrame`] (exercising flush
//! batching under jitter). Neither loses or reorders a frame: the transport
//! contract — reliable, ordered per peer — holds under every schedule, and
//! there is no message-loss injector anywhere above it.

use crate::codec::{Frame, FrameDecoder, FrameKind};
use crate::fault::{Fault, FaultPlan, Site};
use crate::transport::{FrameSink, Transport};
use crate::{FsError, NodeId, Result};
use bytes::Bytes;
use dooc_obs::{metrics, Category};
use dooc_sync::channel::{bounded, Receiver, Sender, TryRecvError};
use dooc_sync::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handshake magic — first payload bytes on every connection.
const MAGIC: &[u8; 4] = b"DOOC";
/// Wire protocol version; bump on any framing change.
const PROTOCOL_VERSION: u16 = 3;
/// How long dials and accepts wait for the rest of the cluster.
const CONNECT_DEADLINE: Duration = Duration::from_secs(30);
/// Pause between dial/accept retries.
const RETRY_PAUSE: Duration = Duration::from_millis(25);
/// Per-peer outbox depth (frames) before senders block.
const OUTBOX_CAP: usize = 256;
/// Socket read chunk size; each read becomes one `Bytes` segment.
const READ_CHUNK: usize = 64 * 1024;
/// BufWriter capacity on the send side.
const WRITE_BUF: usize = 64 * 1024;

/// Cluster membership: `addrs[i]` is the listen address of node `i`.
///
/// Text form, one node per line (`#` comments allowed):
///
/// ```text
/// node 0 127.0.0.1:7100
/// node 1 127.0.0.1:7101
/// ```
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    addrs: Vec<String>,
    faults: FaultPlan,
}

impl ClusterSpec {
    /// A spec from in-memory addresses (`addrs[i]` = node `i`).
    pub fn new(addrs: Vec<String>) -> Self {
        Self {
            addrs,
            faults: FaultPlan::default(),
        }
    }

    /// The same membership with `faults` injected at the TCP sites of every
    /// transport built from it. The plan is not part of the
    /// [fingerprint](Self::fingerprint).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Parses the text form. Node ids must be unique and dense from 0.
    pub fn parse(text: &str) -> Result<Self> {
        let mut entries: Vec<(usize, String)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let (id_tok, addr) = match toks.as_slice() {
                ["node", id, addr] => (*id, *addr),
                [id, addr] => (*id, *addr),
                _ => {
                    return Err(FsError::Transport(format!(
                        "cluster spec line {}: expected 'node <id> <host:port>', got '{line}'",
                        lineno + 1
                    )))
                }
            };
            let id: usize = id_tok.parse().map_err(|_| {
                FsError::Transport(format!(
                    "cluster spec line {}: bad node id '{id_tok}'",
                    lineno + 1
                ))
            })?;
            entries.push((id, addr.to_string()));
        }
        entries.sort_by_key(|(id, _)| *id);
        if entries.is_empty() {
            return Err(FsError::Transport("cluster spec has no nodes".to_string()));
        }
        for (i, (id, _)) in entries.iter().enumerate() {
            if *id != i {
                return Err(FsError::Transport(format!(
                    "cluster spec node ids must be dense from 0 (missing or duplicate id {i})"
                )));
            }
        }
        Ok(Self::new(entries.into_iter().map(|(_, a)| a).collect()))
    }

    /// Loads and parses a spec file.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            FsError::Transport(format!("read cluster spec {}: {e}", path.display()))
        })?;
        Self::parse(&text)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the spec is empty (parse rejects this, but `new` allows it).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Listen address of `node`.
    pub fn addr(&self, node: usize) -> &str {
        &self.addrs[node]
    }

    /// FNV-1a digest over the membership, used in the handshake so only
    /// identically-configured nodes interconnect.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, a) in self.addrs.iter().enumerate() {
            for b in i.to_le_bytes().iter().chain(a.as_bytes()).chain(&[0xffu8]) {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// Per-peer connection state.
struct Peer {
    /// Frame queue toward the peer; `take`n (dropped) at shutdown.
    outbox: Mutex<Option<Sender<Frame>>>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Read half + decoder: used in-place by `exchange`, moved into the
    /// demux thread by `start`.
    read: Mutex<Option<(TcpStream, FrameDecoder)>>,
}

/// Process-per-node transport over TCP (see module docs).
pub struct TcpTransport {
    node: NodeId,
    nnodes: usize,
    /// Indexed by peer id; `None` at `self.node`.
    peers: Vec<Option<Peer>>,
    demux: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn transport_err(ctx: &str, e: impl std::fmt::Display) -> FsError {
    FsError::Transport(format!("{ctx}: {e}"))
}

fn hello_frame(node: usize, fingerprint: u64) -> Frame {
    let mut p = Vec::with_capacity(14);
    p.extend_from_slice(MAGIC);
    p.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    p.extend_from_slice(&fingerprint.to_le_bytes());
    Frame::hello(node as u64, Bytes::from(p))
}

/// A connection's socket read buffer, zeroed once and reused by every read.
struct ReadBuf(Vec<u8>);

impl ReadBuf {
    fn new() -> Self {
        Self(vec![0u8; READ_CHUNK])
    }

    /// One socket read, as a segment of its own: a full chunk is handed on
    /// whole (and replaced), a short read's prefix is copied out, so a small
    /// frame keeps no 64 KiB chunk alive. Empty at end of stream.
    fn read(&mut self, stream: &mut TcpStream) -> std::io::Result<Bytes> {
        let n = stream.read(&mut self.0)?;
        Ok(if n == self.0.len() {
            Bytes::from(std::mem::replace(&mut self.0, vec![0u8; READ_CHUNK]))
        } else {
            Bytes::copy_from_slice(&self.0[..n])
        })
    }
}

/// Blocking-reads exactly one frame (used for handshake and exchange).
fn read_one_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Result<Frame> {
    let mut buf = ReadBuf::new();
    loop {
        if let Some(f) = dec.next_frame()? {
            return Ok(f);
        }
        let chunk = buf
            .read(stream)
            .map_err(|e| transport_err("socket read", e))?;
        if chunk.is_empty() {
            return Err(FsError::Transport(
                "connection closed mid-handshake".to_string(),
            ));
        }
        dec.push(chunk);
    }
}

/// Sends our hello, reads and validates the peer's, returns the peer id it
/// claimed. The socket is left in blocking mode with nodelay set.
fn handshake(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    node: usize,
    fingerprint: u64,
) -> Result<u64> {
    stream
        .set_nodelay(true)
        .map_err(|e| transport_err("set_nodelay", e))?;
    stream
        .set_read_timeout(Some(CONNECT_DEADLINE))
        .map_err(|e| transport_err("set_read_timeout", e))?;
    stream
        .write_all(&hello_frame(node, fingerprint).encode())
        .map_err(|e| transport_err("send hello", e))?;
    stream
        .flush()
        .map_err(|e| transport_err("flush hello", e))?;
    let f = read_one_frame(stream, dec)?;
    if f.kind != FrameKind::Hello {
        return Err(FsError::Transport(format!(
            "expected hello, got {:?}",
            f.kind
        )));
    }
    if f.payload.len() < 14 || &f.payload[0..4] != MAGIC {
        return Err(FsError::Transport("bad hello magic".to_string()));
    }
    let version = u16::from_le_bytes([f.payload[4], f.payload[5]]);
    if version != PROTOCOL_VERSION {
        return Err(FsError::Transport(format!(
            "protocol version mismatch: ours {PROTOCOL_VERSION}, peer {version}"
        )));
    }
    let peer_fp = u64::from_le_bytes([
        f.payload[6],
        f.payload[7],
        f.payload[8],
        f.payload[9],
        f.payload[10],
        f.payload[11],
        f.payload[12],
        f.payload[13],
    ]);
    if peer_fp != fingerprint {
        return Err(FsError::Transport(format!(
            "cluster fingerprint mismatch: ours {fingerprint:#x}, peer {peer_fp:#x}"
        )));
    }
    stream
        .set_read_timeout(None)
        .map_err(|e| transport_err("clear read_timeout", e))?;
    Ok(f.tag)
}

/// Dials `addr` from node `me`, retrying until [`CONNECT_DEADLINE`]; the
/// plan's [`Site::TcpConnect`] can delay or fail individual attempts.
fn dial(addr: &str, to: usize, me: NodeId, faults: &FaultPlan) -> Result<TcpStream> {
    let deadline = Instant::now() + CONNECT_DEADLINE;
    loop {
        match faults.at(me, Site::TcpConnect) {
            Some(Fault::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Error) => {
                // Simulated refused attempt: skip the dial, take the retry
                // path.
                if Instant::now() >= deadline {
                    return Err(FsError::Transport(format!(
                        "dial node {to} at {addr}: injected connect failures until deadline"
                    )));
                }
                std::thread::sleep(RETRY_PAUSE);
                continue;
            }
            None => {}
        }
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(FsError::Transport(format!(
                        "dial node {to} at {addr}: {e} (gave up after {CONNECT_DEADLINE:?})"
                    )));
                }
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Frame>, me: NodeId, peer: i64, faults: FaultPlan) {
    let mut w = std::io::BufWriter::with_capacity(WRITE_BUF, stream);
    let bytes_out = metrics::counter("fs.tcp.bytes_out");
    let frames_out = metrics::counter("fs.tcp.frames_out");
    let mut broken = false;
    'outer: while let Ok(frame) = rx.recv() {
        let mut frame = frame;
        loop {
            if frame.kind == FrameKind::Data {
                if let Some(Fault::Delay(ms)) = faults.at(me, Site::TcpFrame) {
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
            let wrote = w
                .write_all(&frame.header_bytes())
                .and_then(|_| w.write_all(&frame.payload))
                .and_then(|_| w.write_all(&frame.bulk))
                .is_ok();
            if !wrote {
                broken = true;
                break 'outer;
            }
            frames_out.inc();
            bytes_out.add(frame.wire_len() as u64);
            match rx.try_recv() {
                Ok(next) => frame = next,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        // Outbox idle (or closed): push the batch onto the wire.
        let g = dooc_obs::span(Category::Filterstream, "tcp:flush", peer);
        let flushed = w.flush();
        drop(g);
        if flushed.is_err() {
            broken = true;
            break;
        }
    }
    if broken {
        dooc_obs::instant(Category::Filterstream, "tcp.write_error", peer);
    }
    let _ = w.flush();
    // Half-close so the peer's demux sees EOF once our frames are drained.
    let _ = w.get_ref().shutdown(Shutdown::Write);
}

fn demux_loop(
    peer: NodeId,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
    sink: Arc<dyn FrameSink>,
) {
    let bytes_in = metrics::counter("fs.tcp.bytes_in");
    let frames_in = metrics::counter("fs.tcp.frames_in");
    let mut buf = ReadBuf::new();
    loop {
        match dec.next_frame() {
            Ok(Some(f)) => {
                frames_in.inc();
                match f.kind {
                    FrameKind::Data | FrameKind::Close => sink.on_frame(peer, f),
                    FrameKind::Hello | FrameKind::Blob => {
                        dooc_obs::instant(
                            Category::Filterstream,
                            "tcp.unexpected_frame",
                            peer.0 as i64,
                        );
                    }
                }
                continue;
            }
            Ok(None) => {}
            Err(_) => {
                dooc_obs::instant(Category::Filterstream, "tcp.decode_error", peer.0 as i64);
                break;
            }
        }
        match buf.read(&mut stream) {
            Ok(chunk) if !chunk.is_empty() => {
                bytes_in.add(chunk.len() as u64);
                dec.push(chunk);
            }
            _ => break,
        }
    }
    sink.on_peer_closed(peer);
}

impl TcpTransport {
    /// Binds this node's listen address from `spec` and connects the full
    /// mesh. Blocks until every peer has handshaked (or the deadline).
    pub fn connect(spec: &ClusterSpec, node: usize, fingerprint: u64) -> Result<TcpTransport> {
        let listener = TcpListener::bind(spec.addr(node))
            .map_err(|e| transport_err(&format!("bind {}", spec.addr(node)), e))?;
        Self::with_listener(spec, node, fingerprint, listener)
    }

    /// Like [`TcpTransport::connect`] but with a pre-bound listener —
    /// tests bind `127.0.0.1:0` themselves to pick free ports race-free.
    pub fn with_listener(
        spec: &ClusterSpec,
        node: usize,
        fingerprint: u64,
        listener: TcpListener,
    ) -> Result<TcpTransport> {
        let n = spec.len();
        if node >= n {
            return Err(FsError::Transport(format!(
                "node id {node} out of range for a {n}-node cluster spec"
            )));
        }
        let _g = dooc_obs::span(Category::Filterstream, "tcp:connect", node as i64);
        let mut peers: Vec<Option<Peer>> = (0..n).map(|_| None).collect();

        // Dial every lower id; their listeners may not be up yet, so `dial`
        // retries inside the deadline.
        for (j, slot) in peers.iter_mut().enumerate().take(node) {
            let mut stream = dial(spec.addr(j), j, NodeId(node), &spec.faults)?;
            let mut dec = FrameDecoder::new();
            let claimed = handshake(&mut stream, &mut dec, node, fingerprint)?;
            if claimed != j as u64 {
                return Err(FsError::Transport(format!(
                    "dialed {} expecting node {j}, it claims to be node {claimed}",
                    spec.addr(j)
                )));
            }
            *slot = Some(Peer::spawn(node, NodeId(j), stream, dec, &spec.faults)?);
        }

        // Accept every higher id (they identify themselves in the hello).
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_err("listener nonblocking", e))?;
        let mut remaining = n - 1 - node;
        let deadline = Instant::now() + CONNECT_DEADLINE;
        while remaining > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| transport_err("stream blocking", e))?;
                    let mut dec = FrameDecoder::new();
                    let claimed = handshake(&mut stream, &mut dec, node, fingerprint)? as usize;
                    if claimed <= node || claimed >= n {
                        return Err(FsError::Transport(format!(
                            "accepted connection claims node {claimed}, expected one of {}..{n}",
                            node + 1
                        )));
                    }
                    if peers[claimed].is_some() {
                        return Err(FsError::Transport(format!(
                            "node {claimed} connected twice"
                        )));
                    }
                    peers[claimed] = Some(Peer::spawn(
                        node,
                        NodeId(claimed),
                        stream,
                        dec,
                        &spec.faults,
                    )?);
                    remaining -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(FsError::Transport(format!(
                            "timed out waiting for {remaining} peer connection(s)"
                        )));
                    }
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => return Err(transport_err("accept", e)),
            }
        }

        Ok(TcpTransport {
            node: NodeId(node),
            nnodes: n,
            peers,
            demux: Mutex::new(Vec::new()),
        })
    }
}

impl Peer {
    /// Wires up one handshaked connection: outbox + writer thread now, read
    /// half parked for `exchange`/`start`.
    fn spawn(
        local: usize,
        id: NodeId,
        stream: TcpStream,
        dec: FrameDecoder,
        faults: &FaultPlan,
    ) -> Result<Peer> {
        let write_stream = stream
            .try_clone()
            .map_err(|e| transport_err("clone stream", e))?;
        let (tx, rx) = bounded::<Frame>(OUTBOX_CAP);
        let faults = faults.clone();
        let handle = std::thread::Builder::new()
            .name(format!("fs-tcp-w-{local}-{id}"))
            .spawn(move || writer_loop(write_stream, rx, NodeId(local), id.0 as i64, faults))
            .map_err(|e| transport_err("spawn writer", e))?;
        Ok(Peer {
            outbox: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(handle)),
            read: Mutex::new(Some((stream, dec))),
        })
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> NodeId {
        self.node
    }

    fn nnodes(&self) -> usize {
        self.nnodes
    }

    fn send(&self, to: NodeId, frame: Frame) -> Result<()> {
        let peer = self
            .peers
            .get(to.0)
            .and_then(|p| p.as_ref())
            .ok_or_else(|| {
                FsError::Transport(format!("invalid frame destination {to} from {}", self.node))
            })?;
        let tx = peer.outbox.lock().clone().ok_or_else(|| {
            FsError::Transport(format!("transport on {} already shut down", self.node))
        })?;
        tx.send(frame)
            .map_err(|_| FsError::Transport(format!("writer to {to} exited (connection lost?)")))
    }

    fn exchange(&self, blob: Bytes) -> Result<Vec<(NodeId, Bytes)>> {
        for peer in self.peers.iter().flatten() {
            let tx = peer
                .outbox
                .lock()
                .clone()
                .ok_or_else(|| FsError::Transport("exchange after shutdown".to_string()))?;
            tx.send(Frame::blob(blob.clone()))
                .map_err(|_| FsError::Transport("exchange: writer exited".to_string()))?;
        }
        let mut out = vec![(self.node, blob)];
        for (j, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            let mut slot = peer.read.lock();
            let Some((stream, dec)) = slot.as_mut() else {
                return Err(FsError::Transport(
                    "exchange must run before start()".to_string(),
                ));
            };
            let f = read_one_frame(stream, dec)?;
            if f.kind != FrameKind::Blob {
                return Err(FsError::Transport(format!(
                    "exchange: expected blob from node {j}, got {:?}",
                    f.kind
                )));
            }
            out.push((NodeId(j), f.payload));
        }
        out.sort_by_key(|(n, _)| n.0);
        Ok(out)
    }

    fn start(&self, sink: Arc<dyn FrameSink>) -> Result<()> {
        let mut handles = self.demux.lock();
        for (j, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            let taken = peer.read.lock().take();
            let Some((stream, dec)) = taken else {
                return Err(FsError::Transport(format!(
                    "transport on {} already started",
                    self.node
                )));
            };
            let s = Arc::clone(&sink);
            let h = std::thread::Builder::new()
                .name(format!("fs-tcp-r-{}-{j}", self.node))
                .spawn(move || demux_loop(NodeId(j), stream, dec, s))
                .map_err(|e| transport_err("spawn demux", e))?;
            handles.push(h);
        }
        Ok(())
    }

    fn shutdown(&self) {
        for peer in self.peers.iter().flatten() {
            let tx = peer.outbox.lock().take();
            drop(tx);
            let wh = peer.writer.lock().take();
            if let Some(h) = wh {
                let _ = h.join();
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *self.demux.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dooc_sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn spec_parses_and_fingerprints() {
        let s =
            ClusterSpec::parse("# cluster\nnode 1 127.0.0.1:7101\nnode 0 127.0.0.1:7100  # head\n")
                .expect("parse");
        assert_eq!(s.len(), 2);
        assert_eq!(s.addr(0), "127.0.0.1:7100");
        assert_eq!(s.addr(1), "127.0.0.1:7101");
        let t = ClusterSpec::parse("0 127.0.0.1:7100\n1 127.0.0.1:7101").expect("parse");
        assert_eq!(s.fingerprint(), t.fingerprint());
        assert_ne!(
            s.fingerprint(),
            ClusterSpec::parse("0 127.0.0.1:7100\n1 127.0.0.1:7102")
                .expect("parse")
                .fingerprint()
        );
        assert!(ClusterSpec::parse("node 0 a:1\nnode 2 b:2").is_err(), "gap");
        assert!(ClusterSpec::parse("nonsense").is_err());
    }

    struct TotalSink {
        frames: AtomicU64,
        bytes: AtomicU64,
        closed: AtomicU64,
    }

    impl TotalSink {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                frames: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                closed: AtomicU64::new(0),
            })
        }
    }

    impl FrameSink for TotalSink {
        fn on_frame(&self, _from: NodeId, frame: Frame) {
            if frame.kind == FrameKind::Data {
                self.frames.fetch_add(1, Ordering::SeqCst);
                self.bytes.fetch_add(
                    (frame.payload.len() + frame.bulk.len()) as u64,
                    Ordering::SeqCst,
                );
            }
        }
        fn on_peer_closed(&self, _from: NodeId) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Two real sockets on loopback: handshake, exchange, bidirectional
    /// data, clean shutdown with EOF-driven close.
    #[test]
    fn loopback_pair_end_to_end() {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let spec = ClusterSpec::new(vec![
            l0.local_addr().expect("addr").to_string(),
            l1.local_addr().expect("addr").to_string(),
        ]);
        let fp = spec.fingerprint();
        let spec1 = spec.clone();
        let handles: Vec<_> = [(0usize, l0), (1usize, l1)]
            .into_iter()
            .map(|(me, listener)| {
                let spec = spec1.clone();
                std::thread::spawn(move || {
                    let t =
                        TcpTransport::with_listener(&spec, me, fp, listener).expect("connect mesh");
                    let all = t
                        .exchange(Bytes::from(vec![me as u8; 4]))
                        .expect("exchange");
                    assert_eq!(all.len(), 2);
                    assert_eq!(&all[0].1[..], &[0u8; 4]);
                    assert_eq!(&all[1].1[..], &[1u8; 4]);
                    let sink = TotalSink::new();
                    t.start(Arc::clone(&sink) as Arc<dyn FrameSink>)
                        .expect("start");
                    let other = NodeId(1 - me);
                    for k in 0..100u64 {
                        let payload = Bytes::from(vec![(k % 251) as u8; 1000]);
                        let bulk = Bytes::from(vec![(k % 13) as u8; 3000]);
                        t.send(other, Frame::data(0, 0, k, payload).with_bulk(bulk))
                            .expect("send");
                    }
                    t.shutdown();
                    assert_eq!(sink.frames.load(Ordering::SeqCst), 100);
                    assert_eq!(sink.bytes.load(Ordering::SeqCst), 400_000);
                    assert_eq!(sink.closed.load(Ordering::SeqCst), 1);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
    }

    /// Records every data frame in arrival order.
    struct OrderedSink {
        got: dooc_sync::Mutex<Vec<(u64, Bytes, Bytes)>>,
    }

    impl FrameSink for OrderedSink {
        fn on_frame(&self, _from: NodeId, frame: Frame) {
            if frame.kind == FrameKind::Data {
                self.got.lock().push((frame.tag, frame.payload, frame.bulk));
            }
        }
        fn on_peer_closed(&self, _from: NodeId) {}
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random frame bursts over a *real* loopback socket pair: every
        /// frame arrives intact and in order no matter how payload and bulk
        /// straddle socket reads — zero-length parts, tiny frames that
        /// coalesce into one read, and parts bigger than the demux read
        /// buffer all included.
        #[test]
        fn loopback_roundtrip_preserves_frames(
            sizes in proptest::collection::vec(
                (prop_oneof![Just(0usize), 1usize..4, 4000usize..20_000],
                 prop_oneof![Just(0usize), 1usize..4, 60_000usize..90_000]),
                1..24),
        ) {
            let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
            let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
            let spec = ClusterSpec::new(vec![
                l0.local_addr().expect("addr").to_string(),
                l1.local_addr().expect("addr").to_string(),
            ]);
            let fp = spec.fingerprint();
            let spec1 = spec.clone();
            let receiver = std::thread::spawn(move || {
                let t = TcpTransport::with_listener(&spec1, 1, fp, l1).expect("mesh");
                let sink = Arc::new(OrderedSink {
                    got: dooc_sync::Mutex::new(Vec::new()),
                });
                t.start(Arc::clone(&sink) as Arc<dyn FrameSink>).expect("start");
                // Blocks until node 0 half-closes, i.e. after all sends.
                t.shutdown();
                let frames = std::mem::take(&mut *sink.got.lock());
                frames
            });
            let t0 = TcpTransport::with_listener(&spec, 0, fp, l0).expect("mesh");
            t0.start(TotalSink::new() as Arc<dyn FrameSink>).expect("start");
            let payload = |k: usize, n: usize| {
                Bytes::from((0..n).map(|j| ((k * 31 + j) % 251) as u8).collect::<Vec<u8>>())
            };
            for (k, &(n, m)) in sizes.iter().enumerate() {
                let frame = Frame::data(0, 0, k as u64, payload(k, n));
                t0.send(NodeId(1), frame.with_bulk(payload(k + 7, m)))
                    .expect("send");
            }
            t0.shutdown();
            let got = receiver.join().expect("receiver thread");
            prop_assert_eq!(got.len(), sizes.len());
            for (k, ((tag, head, bulk), &(n, m))) in got.iter().zip(&sizes).enumerate() {
                prop_assert_eq!(*tag, k as u64);
                prop_assert_eq!(head, &payload(k, n));
                prop_assert_eq!(bulk, &payload(k + 7, m));
            }
        }
    }

    /// The link faults refuse or delay, never lose or reorder: with node 1's
    /// first dials refused and frames stalling in node 0's writer, every
    /// frame still arrives once, in send order.
    #[test]
    fn link_faults_neither_lose_nor_reorder_frames() {
        use crate::fault::{FaultPlan, FaultSpec, Site};
        let plan = FaultPlan::new(5)
            .with(Site::TcpConnect, FaultSpec::error().with_max(2))
            .with(Site::TcpFrame, FaultSpec::delay(1).with_prob(0.5));
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let spec = ClusterSpec::new(vec![
            l0.local_addr().expect("addr").to_string(),
            l1.local_addr().expect("addr").to_string(),
        ])
        .with_faults(plan.clone());
        let fp = spec.fingerprint();
        let spec1 = spec.clone();
        let receiver = std::thread::spawn(move || {
            let t = TcpTransport::with_listener(&spec1, 1, fp, l1).expect("mesh");
            let sink = Arc::new(OrderedSink {
                got: dooc_sync::Mutex::new(Vec::new()),
            });
            t.start(Arc::clone(&sink) as Arc<dyn FrameSink>)
                .expect("start");
            t.shutdown();
            let tags: Vec<u64> = sink.got.lock().iter().map(|f| f.0).collect();
            tags
        });
        let t0 = TcpTransport::with_listener(&spec, 0, fp, l0).expect("mesh");
        t0.start(TotalSink::new() as Arc<dyn FrameSink>)
            .expect("start");
        for k in 0..40u64 {
            t0.send(
                NodeId(1),
                Frame::data(0, 0, k, Bytes::from(vec![k as u8; 64])),
            )
            .expect("send");
        }
        t0.shutdown();
        let tags = receiver.join().expect("receiver thread");
        let fired = (
            plan.injected(Site::TcpConnect),
            plan.injected(Site::TcpFrame),
        );
        assert_eq!(tags, (0..40).collect::<Vec<u64>>());
        assert_eq!(fired.0, 2, "both refused dials were retried");
        assert!(fired.1 > 0, "no frame was delayed");
    }

    /// Fingerprint mismatch must refuse the connection on both sides.
    #[test]
    fn fingerprint_mismatch_refuses() {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let spec = ClusterSpec::new(vec![
            l0.local_addr().expect("addr").to_string(),
            l1.local_addr().expect("addr").to_string(),
        ]);
        let fp = spec.fingerprint();
        let spec1 = spec.clone();
        let h1 =
            std::thread::spawn(move || TcpTransport::with_listener(&spec1, 1, fp ^ 1, l1).is_err());
        let r0 = TcpTransport::with_listener(&spec, 0, fp, l0);
        assert!(r0.is_err(), "node 0 must reject the mismatched hello");
        assert!(h1.join().expect("thread"), "node 1 must see the mismatch");
    }

    /// A peer still speaking the previous wire protocol (whose kind byte 4
    /// no longer decodes) is refused in the handshake, not mid-run.
    #[test]
    fn stale_protocol_version_refuses() {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l0.local_addr().expect("addr");
        let spec = ClusterSpec::new(vec![addr.to_string(), "127.0.0.1:1".to_string()]);
        let fp = spec.fingerprint();
        let stale = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("dial node 0");
            let mut p = MAGIC.to_vec();
            p.extend_from_slice(&(PROTOCOL_VERSION - 1).to_le_bytes());
            p.extend_from_slice(&fp.to_le_bytes());
            s.write_all(&Frame::hello(1, Bytes::from(p)).encode())
                .expect("send stale hello");
            // Hold the socket open until node 0 has judged the hello.
            let _ = s.read(&mut [0u8; 64]);
        });
        match TcpTransport::with_listener(&spec, 0, fp, l0) {
            Err(FsError::Transport(m)) => {
                assert!(m.contains("protocol version mismatch"), "{m}")
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("a stale peer must not join the mesh"),
        }
        stale.join().expect("stale peer thread");
    }
}
