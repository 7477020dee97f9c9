//! `storage.*` probes through `StorageCluster` / `StorageClient`: a driver
//! filter per node talks to real storage and I/O filters over real scratch
//! directories, as a worker would.

use super::{record, sample, timed, ProbeResult, Sample, BLOCK, MIB};
use crate::scratch::{node_dirs, Scratch};
use crate::spans::SpanLog;
use bytes::Bytes;
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_storage::meta::Interval;
use dooc_storage::{StorageClient, StorageCluster};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Runs `driver(instance, client)` on every node of a fresh cluster over
/// `dirs` and returns what each returned, by instance. Every driver must
/// leave the system quiescent; shutdown is sent when it returns.
pub(super) fn run_cluster<T, F>(
    dirs: Vec<PathBuf>,
    budget: u64,
    driver: F,
) -> Result<Vec<T>, String>
where
    T: Send + 'static,
    F: Fn(usize, &mut StorageClient) -> Result<T, String> + Send + Sync + 'static,
{
    let nnodes = dirs.len();
    for d in &dirs {
        std::fs::create_dir_all(d).map_err(|e| format!("mkdir {}: {e}", d.display()))?;
    }
    let results: Arc<Mutex<Vec<(usize, T)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, dirs, budget, 7);
    let driver = Arc::new(driver);
    let sink = Arc::clone(&results);
    let nodes: Vec<NodeId> = (0..nnodes).map(NodeId).collect();
    let drivers = layout.add_replicated("driver", nodes, move |_| {
        let driver = Arc::clone(&driver);
        let sink = Arc::clone(&sink);
        Box::new(
            move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                let to = ctx.take_output("sreq")?;
                let from = ctx.take_input("srep")?;
                // This is the only client declaration, so its base id is 0
                // and the global client id equals the instance index.
                let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                let outcome = driver(ctx.instance, &mut sc);
                sc.shutdown().ok();
                let value = outcome.map_err(|m| ctx.error(m))?;
                sink.lock()
                    .expect("no driver panics while holding the sink")
                    .push((ctx.instance, value));
                Ok(())
            },
        )
    });
    cluster.attach_clients(&mut layout, drivers, nnodes, "sreq", "srep");
    Runtime::run(layout).map_err(|e| format!("probe cluster: {e}"))?;
    let mut got = std::mem::take(&mut *results.lock().expect("every driver has returned by now"));
    got.sort_by_key(|(i, _)| *i);
    if got.len() != nnodes {
        return Err(format!("{} of {nnodes} probe drivers reported", got.len()));
    }
    Ok(got.into_iter().map(|(_, v)| v).collect())
}

fn block_iv(b: usize) -> Interval {
    Interval::new((b * BLOCK) as u64, BLOCK as u64)
}

fn write_blocks(
    sc: &mut StorageClient,
    array: &str,
    blocks: std::ops::Range<usize>,
    payload: &Bytes,
) -> Result<(), String> {
    for b in blocks {
        sc.write(array, block_iv(b), payload.clone())
            .map_err(|e| format!("write {array}[{b}]: {e}"))?;
    }
    Ok(())
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn run(quick: bool, log: &mut SpanLog) -> ProbeResult {
    let mut out = Vec::new();
    let mut notes = Vec::new();
    let payload = Bytes::from(vec![0xA5u8; BLOCK]);
    const PER_SAMPLE: usize = 16;

    // --- hit: every block resident --------------------------------------
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    const HIT_BLOCKS: usize = 64;
    const HIT_READS: usize = 256;
    let data = payload.clone();
    let per_read = |s: f64| s * 1e6 / HIT_READS as f64;
    out.push(timed(log, "storage.hit_us", per_read, || {
        let scratch = Scratch::new("probe-hit")?;
        let mut got = run_cluster(node_dirs(scratch.path(), 1), 64 << 20, move |_, sc| {
            sc.create("h", (HIT_BLOCKS * BLOCK) as u64, BLOCK as u64)
                .map_err(err("create h"))?;
            write_blocks(sc, "h", 0..HIT_BLOCKS, &data)?;
            let mut failed = None;
            let samples = sample(budget, 5, || {
                for i in 0..HIT_READS {
                    match sc.read("h", block_iv(i % HIT_BLOCKS)) {
                        Ok(guard) => {
                            black_box(guard.len());
                        }
                        Err(e) => failed = Some(format!("read h: {e}")),
                    }
                }
            });
            failed.map_or(Ok(samples), Err)
        })?;
        Ok(got.remove(0))
    })?);

    // --- spill and load: 16x the budget ----------------------------------
    const RESIDENT: usize = 16;
    let total: usize = if quick { 4 * RESIDENT } else { 16 * RESIDENT };
    let ooc_budget = (RESIDENT * BLOCK) as u64;
    let data = payload.clone();
    let loaded_bytes = log.scope("storage.spill+load", |log| -> Result<u64, String> {
        let scratch = Scratch::new("probe-ooc")?;
        let (spill, load, loaded_bytes): (Vec<Sample>, Vec<Sample>, u64) =
            run_cluster(node_dirs(scratch.path(), 1), ooc_budget, move |_, sc| {
                sc.create("s", (total * BLOCK) as u64, BLOCK as u64)
                    .map_err(err("create s"))?;
                let mut spill = Vec::new();
                for first in (0..total).step_by(PER_SAMPLE) {
                    let t0 = Instant::now();
                    write_blocks(sc, "s", first..first + PER_SAMPLE, &data)?;
                    spill.push((t0, Instant::now()));
                }
                // Spills complete in the background; loads are timed only
                // once the node is back inside its budget.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let st = sc.stats().map_err(err("stats"))?;
                    if st.resident_bytes <= ooc_budget {
                        break;
                    }
                    if Instant::now() > deadline {
                        return Err(format!(
                            "node still holds {} bytes against a budget of {ooc_budget}",
                            st.resident_bytes
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let before = sc.stats().map_err(err("stats"))?.disk_read_bytes;
                // LRU kept the last blocks written; the first ones are on
                // disk only, and reading them in order never hits.
                let mut load = Vec::new();
                for first in (0..total - RESIDENT).step_by(PER_SAMPLE) {
                    let t0 = Instant::now();
                    for b in first..first + PER_SAMPLE {
                        let guard = sc.read("s", block_iv(b)).map_err(err("read s"))?;
                        black_box(guard.len());
                    }
                    load.push((t0, Instant::now()));
                }
                let after = sc.stats().map_err(err("stats"))?.disk_read_bytes;
                Ok((spill, load, after - before))
            })?
            .remove(0);
        let mb = (PER_SAMPLE * BLOCK) as f64 / MIB;
        out.push(record(log, "storage.spill_mb_s", &spill, |s| mb / s)?);
        out.push(record(log, "storage.load_us", &load, |s| {
            s * 1e6 / PER_SAMPLE as f64
        })?);
        Ok(loaded_bytes)
    })?;
    let expected = ((total - RESIDENT) * BLOCK) as u64;
    notes.push(format!(
        "load probe: {loaded_bytes} of {expected} bytes read came from disk ({:.0} %); \
         'disk' is the sandbox's page cache",
        100.0 * loaded_bytes as f64 / expected as f64
    ));

    // --- peer fetch: node 1 reads what node 0 wrote -----------------------
    let blocks: usize = if quick { 64 } else { 256 };
    let data = payload;
    let mut peer_bytes = 0;
    let per_fetch = |s: f64| s * 1e6 / PER_SAMPLE as f64;
    out.push(timed(log, "storage.peer_fetch_us", per_fetch, || {
        let scratch = Scratch::new("probe-peer")?;
        let (fetch, received) =
            run_cluster(node_dirs(scratch.path(), 2), 64 << 20, move |node, sc| {
                let len = (blocks * BLOCK) as u64;
                if node == 0 {
                    sc.create("p", len, BLOCK as u64).map_err(err("create p"))?;
                    write_blocks(sc, "p", 0..blocks, &data)?;
                    sc.create("ready", 1, 1).map_err(err("create ready"))?;
                    sc.write("ready", Interval::new(0, 1), Bytes::from_static(&[1]))
                        .map_err(err("write ready"))?;
                    // Stay up (pure dataflow synchronisation) until the
                    // reader is done fetching.
                    drop(
                        sc.read("done", Interval::new(0, 1))
                            .map_err(err("read done"))?,
                    );
                    return Ok((Vec::new(), 0));
                }
                drop(
                    sc.read("ready", Interval::new(0, 1))
                        .map_err(err("read ready"))?,
                );
                sc.register("p", len, BLOCK as u64)
                    .map_err(err("register p"))?;
                let mut fetch = Vec::new();
                for first in (0..blocks).step_by(PER_SAMPLE) {
                    let t0 = Instant::now();
                    for b in first..first + PER_SAMPLE {
                        let guard = sc.read("p", block_iv(b)).map_err(err("read p"))?;
                        black_box(guard.len());
                    }
                    fetch.push((t0, Instant::now()));
                }
                let received = sc.stats().map_err(err("stats"))?.peer_recv_bytes;
                sc.create("done", 1, 1).map_err(err("create done"))?;
                sc.write("done", Interval::new(0, 1), Bytes::from_static(&[1]))
                    .map_err(err("write done"))?;
                Ok((fetch, received))
            })?
            .remove(1);
        peer_bytes = received;
        Ok(fetch)
    })?);
    notes.push(format!(
        "peer-fetch probe: node 1 received {peer_bytes} bytes from its peer for {} read (channels \
         between thread groups, not sockets)",
        blocks * BLOCK
    ));
    Ok((out, notes))
}
