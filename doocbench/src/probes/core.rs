//! `core.read_array_us` and `core.write_mb_s`: the worker data plane through
//! `WorkerContext`, 64 blocks of 64 KiB per array, everything resident.

use super::storage::run_cluster;
use super::{record, sample, ProbeResult, Sample, BLOCK, MIB};
use crate::scratch::{node_dirs, Scratch};
use crate::spans::SpanLog;
use crate::workload::THREADS_PER_NODE;
use bytes::Bytes;
use dooc_core::WorkerContext;
use dooc_sparse::ComputePool;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BLOCKS: usize = 64;
const ARRAY_BYTES: usize = BLOCKS * BLOCK;

pub fn run(quick: bool, log: &mut SpanLog) -> ProbeResult {
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    let arrays: usize = if quick { 6 } else { 24 };
    let out = log.scope("core.dataplane", |log| -> Result<_, String> {
        let scratch = Scratch::new("probe-core")?;
        // Budget: every array written stays resident with room to spare.
        let cluster_budget = (4 * arrays * ARRAY_BYTES) as u64;
        let (writes, reads): (Vec<Sample>, Vec<Sample>) = run_cluster(
            node_dirs(scratch.path(), 1),
            cluster_budget,
            move |_, sc| {
                let geometry: HashMap<String, (u64, u64)> = (0..arrays)
                    .map(|i| (format!("w{i}"), (ARRAY_BYTES as u64, BLOCK as u64)))
                    .collect();
                let pool = ComputePool::new(THREADS_PER_NODE);
                let mut wc = WorkerContext::new(0, THREADS_PER_NODE, sc, &geometry, &pool);
                let data = Bytes::from(vec![0x5Au8; ARRAY_BYTES]);
                let mut writes = Vec::with_capacity(arrays);
                for i in 0..arrays {
                    let t0 = Instant::now();
                    wc.write_bytes(&format!("w{i}"), data.clone())?;
                    writes.push((t0, Instant::now()));
                }
                let mut failed = None;
                let reads = sample(budget, 5, || match wc.read_array("w0") {
                    Ok(bytes) => {
                        black_box(bytes.len());
                    }
                    Err(e) => failed = Some(e),
                });
                failed.map_or(Ok((writes, reads)), Err)
            },
        )?
        .remove(0);
        let mb = ARRAY_BYTES as f64 / MIB;
        Ok(vec![
            record(log, "core.write_mb_s", &writes, |s| mb / s)?,
            record(log, "core.read_array_us", &reads, |s| s * 1e6)?,
        ])
    })?;
    Ok((out, Vec::new()))
}
