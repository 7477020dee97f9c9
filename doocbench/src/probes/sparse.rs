//! `sparse.*`: decode, SpMV and the dense kernels on one block of the
//! workload's own shape, and the pool's fork-join cost.

use super::{sample, timed, ProbeResult, MIB};
use crate::host;
use crate::spans::SpanLog;
use crate::stage;
use crate::workload::{Workload, THREADS_PER_NODE};
use dooc_sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc_sparse::pool::SPMV_SERIAL_MAX_NNZ;
use dooc_sparse::{dense, fileio, ComputePool};
use std::hint::black_box;
use std::time::Duration;

/// Bandwidth vectors are 4x the last-level cache, but never more than this
/// many bytes each: a VM can report a 260 MB shared LLC, and two 1 GB
/// vectors would cost more to fault in than every other probe together.
const MAX_VECTOR_BYTES: u64 = 128 << 20;

pub fn run(w: &Workload, seed: u64, quick: bool, log: &mut SpanLog) -> ProbeResult {
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    let mut out = Vec::new();
    let mut notes = Vec::new();

    let grid = BlockGrid::new(w.k, w.n);
    let m = grid.generate_block(&stage::generator(w), seed, BlockCoord { u: 0, v: 0 });
    let bytes = fileio::to_bytes(&m);
    let llc = host::llc_bytes().unwrap_or(0);
    notes.push(format!(
        "block A_0_0: {} x {}, {} nnz, {:.2} MB encoded; last-level cache {:.0} MB as the kernel reports it",
        m.nrows(),
        m.ncols(),
        m.nnz(),
        bytes.len() as f64 / MIB,
        llc as f64 / MIB
    ));
    notes.push(format!(
        "{} nnz per block is below SPMV_SERIAL_MAX_NNZ = {SPMV_SERIAL_MAX_NNZ}: multiplies run \
         serially, so sparse.pool_forkjoin_us predicts no end-to-end change",
        m.nnz()
    ));

    let mb = bytes.len() as f64 / MIB;
    out.push(timed(
        log,
        "sparse.decode_mb_s",
        |s| mb / s,
        || {
            Ok(sample(budget, 5, || {
                black_box(fileio::from_bytes(black_box(&bytes)).expect("own encoding decodes"));
            }))
        },
    )?);

    let x: Vec<f64> = stage::initial_vector(m.ncols(), seed);
    let mut y = vec![0.0; m.nrows() as usize];
    let flop = 2.0 * m.nnz() as f64;
    out.push(timed(
        log,
        "sparse.spmv_gflops",
        |s| flop / s / 1e9,
        || {
            Ok(sample(budget, 5, || {
                m.spmv_into(black_box(&x), &mut y).expect("dims match");
                black_box(&mut y);
            }))
        },
    )?);

    let vec_bytes = if quick {
        8 << 20
    } else {
        (4 * llc).clamp(32 << 20, MAX_VECTOR_BYTES)
    };
    let len = vec_bytes / 8;
    notes.push(format!(
        "add/dot vectors: {:.0} MB each ({}4x the reported LLC); bytes moved are computed \
         from the lengths, not counted",
        vec_bytes as f64 / MIB,
        if vec_bytes >= 4 * llc {
            ""
        } else {
            "capped below "
        }
    ));
    let a: Vec<f64> = stage::initial_vector(len, seed);
    let mut b: Vec<f64> = stage::initial_vector(len, seed ^ 1);
    let moved = 24.0 * len as f64;
    out.push(timed(
        log,
        "sparse.add_gb_s",
        |s| moved / s / 1e9,
        || {
            Ok(sample(budget, 5, || {
                dense::add_assign(&mut b, black_box(&a));
                black_box(&mut b);
            }))
        },
    )?);
    let moved = 16.0 * len as f64;
    out.push(timed(
        log,
        "sparse.dot_gb_s",
        |s| moved / s / 1e9,
        || {
            Ok(sample(budget, 5, || {
                black_box(dense::dot(black_box(&a), black_box(&b)));
            }))
        },
    )?);
    drop((a, b));

    // The pool a worker would own. One sample is 200 fork-joins of 8 empty
    // tasks, so it lasts long enough to time.
    let pool = ComputePool::new(THREADS_PER_NODE);
    const JOINS: usize = 200;
    notes.push(format!(
        "fork-join parallelism {} (pool of {THREADS_PER_NODE} + the caller, clamped to the host's cpus)",
        pool.parallelism_hint()
    ));
    let per_join = |s: f64| s * 1e6 / JOINS as f64;
    out.push(timed(log, "sparse.pool_forkjoin_us", per_join, || {
        Ok(sample(budget, 5, || {
            for _ in 0..JOINS {
                black_box(pool.fork_join(8, |i| i));
            }
        }))
    })?);
    Ok((out, notes))
}
