//! `filterstream.*`: the codec, a 2-node loopback `TcpTransport`, and stream
//! lanes between filters (local, and remote over the channel transport).

use super::{record, sample, timed, ProbeResult, Sample, BLOCK, MIB};
use crate::metrics::Measured;
use crate::round::tcp_mesh;
use crate::spans::SpanLog;
use bytes::Bytes;
use dooc_filterstream::codec::{Frame, FrameDecoder};
use dooc_filterstream::{
    ChannelTransport, DataBuffer, FilterContext, FrameSink, Layout, NodeId, Runtime, Transport,
};
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The size `TcpTransport`'s reader asks the socket for; the decoder probe
/// feeds chunks of this size, as the transport would.
const READ_CHUNK: usize = 64 << 10;

pub fn run(quick: bool, log: &mut SpanLog) -> ProbeResult {
    let mut out = Vec::new();
    let mut notes = Vec::new();
    codec(quick, log, &mut out, &mut notes)?;
    log.scope("filterstream.tcp", |log| tcp(quick, log, &mut out))?;
    lanes(quick, log, &mut out)?;
    Ok((out, notes))
}

fn codec(
    quick: bool,
    log: &mut SpanLog,
    out: &mut Vec<Measured>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    const FRAMES: usize = 256;
    let payload = Bytes::from(vec![0x3Cu8; BLOCK]);
    let frames: Vec<Frame> = (0..FRAMES)
        .map(|i| Frame::data(1, 2, i as u64, payload.clone()))
        .collect();

    let mb = (FRAMES * BLOCK) as f64 / MIB;
    out.push(timed(
        log,
        "filterstream.codec_encode_mb_s",
        |s| mb / s,
        || {
            Ok(sample(budget, 5, || {
                for f in &frames {
                    black_box(f.encode());
                }
            }))
        },
    )?);

    // One contiguous byte stream, cut where a socket read would cut it.
    let stream: Bytes = frames
        .iter()
        .flat_map(|f| f.encode())
        .collect::<Vec<u8>>()
        .into();
    let chunks: Vec<Bytes> = (0..stream.len())
        .step_by(READ_CHUNK)
        .map(|at| stream.slice(at..(at + READ_CHUNK).min(stream.len())))
        .collect();
    let mut copied = Vec::new();
    let mut failed = None;
    let per_frame = |s: f64| FRAMES as f64 / s;
    out.push(timed(
        log,
        "filterstream.codec_decode_frames_s",
        per_frame,
        || {
            let samples = sample(budget, 5, || {
                let mut dec = FrameDecoder::new();
                let mut seen = 0usize;
                for c in &chunks {
                    dec.push(c.clone());
                    loop {
                        match dec.next_frame() {
                            Ok(Some(f)) => {
                                black_box(f.payload.len());
                                seen += 1;
                            }
                            Ok(None) => break,
                            Err(e) => {
                                failed = Some(format!("decode: {e}"));
                                break;
                            }
                        }
                    }
                }
                if seen != FRAMES && failed.is_none() {
                    failed = Some(format!("decoded {seen} of {FRAMES} frames"));
                }
                copied.push(dec.copied_payload_bytes() as f64);
            });
            failed.map_or(Ok(samples), Err)
        },
    )?);
    out.push(Measured::new("filterstream.codec_copied_bytes", copied)?);
    notes.push(format!(
        "codec probe: {FRAMES} frames of 64 KiB payload fed in {} KiB chunks (TcpTransport's read \
         size), so payloads straddle reads and the copy counter is not 0",
        READ_CHUNK >> 10
    ));
    Ok(())
}

/// Counts frames and lets a sender wait until a given number has arrived.
struct CountingSink {
    frames: Mutex<u64>,
    arrived: Condvar,
}

impl CountingSink {
    fn wait_for(&self, n: u64) {
        let mut seen = self.frames.lock().expect("sink lock");
        while *seen < n {
            seen = self.arrived.wait(seen).expect("sink lock");
        }
    }
}

impl FrameSink for CountingSink {
    fn on_frame(&self, _from: NodeId, _frame: Frame) {
        *self.frames.lock().expect("sink lock") += 1;
        self.arrived.notify_all();
    }
    fn on_peer_closed(&self, _from: NodeId) {}
}

fn tcp(quick: bool, log: &mut SpanLog, out: &mut Vec<Measured>) -> Result<(), String> {
    let budget = Duration::from_millis(if quick { 60 } else { 400 });
    let mesh = tcp_mesh(2)?;
    let sinks: Vec<Arc<CountingSink>> = (0..2)
        .map(|_| {
            Arc::new(CountingSink {
                frames: Mutex::new(0),
                arrived: Condvar::new(),
            })
        })
        .collect();
    for (t, sink) in mesh.iter().zip(&sinks) {
        t.start(Arc::clone(sink) as Arc<dyn FrameSink>)
            .map_err(|e| format!("tcp start: {e}"))?;
    }
    let payload = Bytes::from(vec![0x77u8; BLOCK]);
    let mut sent = 0u64;
    let mut failed = None;
    // One sample: a burst from node 0, timed until node 1's sink has it all.
    let mut burst = |frames: u64, payload: &Bytes| {
        for i in 0..frames {
            if let Err(e) = mesh[0].send(NodeId(1), Frame::data(0, 0, i, payload.clone())) {
                failed = Some(format!("tcp send: {e}"));
                return;
            }
        }
        sent += frames;
        sinks[1].wait_for(sent);
    };
    let big: u64 = if quick { 64 } else { 512 };
    let small: u64 = if quick { 2_000 } else { 20_000 };
    let empty = Bytes::new();
    let (bulk, tiny): (Vec<Sample>, Vec<Sample>) = (
        sample(budget, 5, || burst(big, &payload)),
        sample(budget, 5, || burst(small, &empty)),
    );
    // Shutdown drains until the peer has shut down too, so both go at once.
    std::thread::scope(|sc| {
        for t in &mesh {
            sc.spawn(|| t.shutdown());
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let mb = big as f64 * BLOCK as f64 / MIB;
    out.push(record(log, "filterstream.tcp_loopback_mb_s", &bulk, |s| {
        mb / s
    })?);
    out.push(record(log, "filterstream.tcp_frames_s", &tiny, |s| {
        small as f64 / s
    })?);
    Ok(())
}

/// First send and last receive of one lane run.
#[derive(Default)]
struct LaneClock {
    first_send: Mutex<Option<Instant>>,
    last_recv: Mutex<Option<Instant>>,
}

/// producer on node 0 → consumer on `consumer_node`, `msgs` tag-only buffers.
fn lane_layout(msgs: u64, consumer_node: usize, clock: &Arc<LaneClock>) -> Layout {
    let mut layout = Layout::new();
    let c = Arc::clone(clock);
    let producer = layout.add_filter(
        "producer",
        NodeId(0),
        Box::new(move |ctx: &mut FilterContext| {
            let port = ctx.output("out")?;
            *c.first_send.lock().expect("clock lock") = Some(Instant::now());
            for i in 0..msgs {
                port.send(DataBuffer::tag_only(i))?;
            }
            Ok(())
        }),
    );
    let c = Arc::clone(clock);
    let consumer = layout.add_filter(
        "consumer",
        NodeId(consumer_node),
        Box::new(move |ctx: &mut FilterContext| {
            let port = ctx.input("in")?;
            let mut seen = 0u64;
            while port.recv().is_some() {
                seen += 1;
            }
            *c.last_recv.lock().expect("clock lock") = Some(Instant::now());
            if seen != msgs {
                return Err(ctx.error(format!("received {seen} of {msgs} messages")));
            }
            Ok(())
        }),
    );
    layout.connect(producer, "out", consumer, "in");
    layout
}

fn lane_sample(clock: &LaneClock) -> Result<Sample, String> {
    let a = clock.first_send.lock().expect("clock lock").take();
    let b = clock.last_recv.lock().expect("clock lock").take();
    a.zip(b)
        .ok_or_else(|| "lane run left no timestamps".to_string())
}

fn lanes(quick: bool, log: &mut SpanLog, out: &mut Vec<Measured>) -> Result<(), String> {
    let msgs: u64 = if quick { 5_000 } else { 50_000 };
    let runs = if quick { 3 } else { 7 };
    let clock = Arc::new(LaneClock::default());

    let per_msg = |s: f64| msgs as f64 / s;
    out.push(timed(
        log,
        "filterstream.lane_local_msgs_s",
        per_msg,
        || {
            (0..runs)
                .map(|_| {
                    Runtime::run(lane_layout(msgs, 0, &clock)).map_err(|e| format!("lane: {e}"))?;
                    lane_sample(&clock)
                })
                .collect()
        },
    )?);

    // Remote lane: each "node" is a thread running its share of the same
    // layout over the in-process channel transport, so this is the lane and
    // router cost without the socket (which the tcp probe has).
    out.push(timed(
        log,
        "filterstream.lane_remote_msgs_s",
        per_msg,
        || {
            (0..runs)
                .map(|_| {
                    let handles: Vec<_> = ChannelTransport::cluster(2)
                        .into_iter()
                        .map(|t| {
                            let layout = lane_layout(msgs, 1, &clock);
                            std::thread::spawn(move || {
                                Runtime::run_distributed(layout, Arc::new(t) as Arc<dyn Transport>)
                            })
                        })
                        .collect();
                    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                    for j in joined {
                        j.map_err(|_| "lane node panicked".to_string())?
                            .map_err(|e| format!("remote lane: {e}"))?;
                    }
                    lane_sample(&clock)
                })
                .collect()
        },
    )?);
    Ok(())
}
