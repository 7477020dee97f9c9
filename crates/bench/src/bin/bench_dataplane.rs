//! Node data-plane benchmark: pipelined vs blocking array reads, end-to-end
//! iterated SpMV wall time per node count, and the serial-vs-pool crossover
//! calibration for the dense kernels.
//!
//! Emits `BENCH_dataplane.json` (override with `--out <path>`), plus a
//! traced 2-node SpMV run exported as `TRACE_dataplane.json` (Chrome
//! `trace_event` format — load it in Perfetto) and `METRICS_dataplane.txt`.
//! The timed sections above run with tracing *disabled*; a dedicated
//! section re-times `read_array` with tracing enabled to report the
//! observability overhead. Flags:
//!
//! * `--quick`      smaller sizes / fewer reps (the CI smoke configuration);
//! * `--calibrate`  also sweep the serial/pool crossover for dot, axpy and
//!   SpMV (the numbers behind `DOT_SERIAL_MAX`, `AXPY_SERIAL_MAX` and
//!   `SPMV_SERIAL_MAX_NNZ`);
//! * `--baseline <json>`  a previous `BENCH_dataplane.json` produced by a
//!   binary built *without* `--features faultline`; the `faultline` section
//!   then reports the pipelined `read_array` overhead of carrying the
//!   (disarmed) failpoint hooks relative to that hook-free baseline.

#![forbid(unsafe_code)]

use bytes::Bytes;
use dooc_core::{runtime_lane_specs, DoocConfig, DoocRuntime, WorkerContext};
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_linalg::spmv_app::{
    tiled_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, StagedBlock, SyncPolicy,
};
use dooc_scheduler::audit;
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::genmat::GapGenerator;
use dooc_sparse::{dense, ComputePool};
use dooc_storage::{StorageClient, StorageCluster};
use dooc_sync::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let calibrate = args.iter().any(|a| a == "--calibrate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_dataplane.json"));
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"bench\": \"dataplane\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"host\": {{\"cpus\": {host_cpus}}},\n"));

    // --- 1. read-array latency: pipelined vs one-round-trip-per-block ------
    let (nblocks, block_bytes, reps) = if quick {
        (32u64, 4096u64, 5)
    } else {
        (64, 8192, 100)
    };
    let r = read_latency(nblocks, block_bytes, reps);
    println!(
        "read_array {nblocks} x {block_bytes}B blocks ({reps} reps): blocking {:.1} us, pipelined {:.1} us ({:.2}x)",
        r.blocking_us, r.pipelined_us, r.blocking_us / r.pipelined_us
    );
    json.push_str(&format!(
        "  \"read_array\": {{\n    \"nblocks\": {nblocks},\n    \"block_bytes\": {block_bytes},\n    \"reps\": {reps},\n    \"blocking_us_per_read\": {:.2},\n    \"pipelined_us_per_read\": {:.2},\n    \"speedup\": {:.3},\n    \"copied_bytes_blocking_read\": {},\n    \"copied_bytes_zero_copy_f64_read\": {}\n  }},\n",
        r.blocking_us,
        r.pipelined_us,
        r.blocking_us / r.pipelined_us,
        r.copied_blocking,
        r.copied_view
    ));

    // --- 1b. observability overhead on read_array --------------------------
    // Re-run the same benchmark with tracing enabled; the sections above ran
    // with it disabled (the default), so the pairs bracket the cost. The
    // canonical `overhead_pct` is the production profile — sampled spans at
    // 1-in-16 plus coarse instant timestamps and batched counters — because
    // that is the mode a long solver run would actually enable. Full-rate
    // recording (every span, `enable()`) is reported alongside for context.
    const OBS_SAMPLE_PERIOD: u32 = 16;
    dooc_obs::enable_sampled(OBS_SAMPLE_PERIOD);
    let r_sampled = read_latency(nblocks, block_bytes, reps);
    dooc_obs::disable();
    dooc_obs::take_events(); // discard: this section only measures cost
    dooc_obs::enable();
    let r_full = read_latency(nblocks, block_bytes, reps);
    dooc_obs::disable();
    dooc_obs::take_events();
    let overhead_pct = (r_sampled.pipelined_us / r.pipelined_us - 1.0) * 100.0;
    let full_rate_pct = (r_full.pipelined_us / r.pipelined_us - 1.0) * 100.0;
    println!(
        "read_array obs overhead: disabled {:.1} us, sampled(1/{OBS_SAMPLE_PERIOD}) {:.1} us ({overhead_pct:+.1}%), full-rate {:.1} us ({full_rate_pct:+.1}%)",
        r.pipelined_us, r_sampled.pipelined_us, r_full.pipelined_us
    );
    json.push_str(&format!(
        "  \"obs_overhead\": {{\n    \"sample_period\": {OBS_SAMPLE_PERIOD},\n    \"pipelined_us_disabled\": {:.2},\n    \"pipelined_us_sampled\": {:.2},\n    \"pipelined_us_full_rate\": {:.2},\n    \"overhead_pct\": {overhead_pct:.2},\n    \"overhead_pct_full_rate\": {full_rate_pct:.2}\n  }},\n",
        r.pipelined_us, r_sampled.pipelined_us, r_full.pipelined_us
    ));

    // --- 1c. faultline hook overhead on read_array -------------------------
    // With `--features faultline` every storage I/O carries a disarmed
    // failpoint (one relaxed atomic load, mirroring the obs gate). The timed
    // section above already ran with the hooks in whatever state this binary
    // was built with; comparing against a `--baseline` run of a hook-free
    // build brackets the cost of compiling them in.
    let compiled = cfg!(feature = "faultline");
    let baseline_us = baseline_path.as_deref().and_then(baseline_pipelined_us);
    json.push_str(&format!(
        "  \"faultline\": {{\n    \"compiled\": {compiled},\n    \"armed\": false,\n    \"pipelined_us_per_read\": {:.2}",
        r.pipelined_us
    ));
    if let Some(base) = baseline_us {
        let fl_overhead_pct = (r.pipelined_us / base - 1.0) * 100.0;
        println!(
            "read_array faultline overhead (compiled: {compiled}, disarmed): baseline {base:.1} us, this build {:.1} us ({fl_overhead_pct:+.1}%)",
            r.pipelined_us
        );
        json.push_str(&format!(
            ",\n    \"baseline_pipelined_us_per_read\": {base:.2},\n    \"overhead_pct_vs_baseline\": {fl_overhead_pct:.2}"
        ));
    }
    json.push_str("\n  },\n");

    // --- 2. end-to-end iterated SpMV wall time -----------------------------
    let (k, n, iters) = if quick {
        (4u64, 512u64, 2u64)
    } else {
        (4, 2048, 3)
    };
    // Each configuration is staged, run and torn down E2E_ROUNDS times and
    // the fastest round is kept. A full runtime bring-up takes tens of
    // milliseconds, so a single-shot wall time is dominated by whatever else
    // the host was doing — the seed's recorded 0.70x "regression" at 4 nodes
    // was exactly that artifact (re-measuring the same binary min-of-rounds
    // put it at 1.3x).
    const E2E_ROUNDS: u32 = 3;
    json.push_str("  \"spmv_e2e\": [\n");
    let mut rows = Vec::new();
    let mut e2e_4n = f64::MAX;
    for &nodes in &[1usize, 4] {
        let mut wall = f64::MAX;
        for _ in 0..E2E_ROUNDS {
            wall = wall.min(run_spmv(nodes, k, n, iters));
        }
        if nodes == 4 {
            e2e_4n = wall;
        }
        println!(
            "iterated SpMV k={k} n={n} iters={iters} nodes={nodes} (min of {E2E_ROUNDS}): {wall:.3}s"
        );
        rows.push(format!(
            "    {{\"nodes\": {nodes}, \"k\": {k}, \"n\": {n}, \"iterations\": {iters}, \"rounds\": {E2E_ROUNDS}, \"wall_s\": {wall:.4}}}"
        ));
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // --- 2b. static audit cost on the 4-node iterated SpMV graph -----------
    // DoocRuntime::run audits every graph before staging a byte (DESIGN.md
    // §13), so the pass rides inside every e2e number above; this measures
    // it alone. Only descriptors are needed — the audit never touches data —
    // so the blocks are synthesized with the same tiled placement the e2e
    // rows staged. The gate: audit cost must stay under 1% of the 4-node
    // end-to-end wall it protects.
    let audit_graph = {
        let grid = BlockGrid::new(k, n);
        let owner = tiled_owner(k, 4);
        let per_block = 8 * n.div_ceil(k);
        let blocks: Vec<StagedBlock> = grid
            .coords()
            .map(|coord| StagedBlock {
                coord,
                node: owner(coord),
                bytes: per_block * 4,
                nnz: 2 * n.div_ceil(k),
            })
            .collect();
        let (g, _external, _geometry) = SpmvAppBuilder::new(grid, iters, blocks)
            .reduction(ReductionPlan::LocalAggregation)
            .sync(SyncPolicy::IterationBarrier)
            .build();
        g
    };
    let lanes = runtime_lane_specs(&audit_graph, 4);
    let mut audit_s = f64::MAX;
    for _ in 0..10 {
        let t0 = Instant::now();
        audit(&audit_graph, 256 << 20, &lanes).expect("bench graph audits clean");
        audit_s = audit_s.min(t0.elapsed().as_secs_f64());
    }
    let audit_pct = 100.0 * audit_s / e2e_4n;
    println!(
        "static audit: {} tasks in {:.0}us = {:.3}% of the 4-node e2e ({:.3}s)",
        audit_graph.len(),
        audit_s * 1e6,
        audit_pct,
        e2e_4n
    );
    assert!(
        audit_pct < 1.0,
        "pre-run audit cost {audit_pct:.3}% of e2e exceeds the 1% budget"
    );
    json.push_str(&format!(
        "  \"audit\": {{\"tasks\": {}, \"nodes\": 4, \"audit_us\": {:.1}, \"e2e_wall_s\": {:.4}, \"pct_of_e2e\": {:.4}}},\n",
        audit_graph.len(),
        audit_s * 1e6,
        e2e_4n,
        audit_pct
    ));

    // --- 3. serial/pool crossover calibration ------------------------------
    if calibrate {
        json.push_str("  \"calibration\": {\n");
        json.push_str(&calibrate_dense(quick));
        json.push_str("  },\n");
    }

    // --- 4. traced 2-node run: Chrome trace + metrics artifacts ------------
    let trace_path = out_path.with_file_name("TRACE_dataplane.json");
    let metrics_path = out_path.with_file_name("METRICS_dataplane.txt");
    let (tk, tn, ti) = if quick {
        (2u64, 256u64, 2u64)
    } else {
        (4, 1024, 2)
    };
    let summary = dooc_bench::live::run_traced_spmv(
        "bench-dp-traced",
        2,
        tk,
        tn,
        ti,
        &trace_path,
        &metrics_path,
    )
    .expect("traced run");
    println!(
        "traced 2-node SpMV: {} events ({} dropped) across layers {:?} in {:.3}s -> {} / {}",
        summary.events,
        summary.dropped,
        summary.categories,
        summary.wall_s,
        trace_path.display(),
        metrics_path.display()
    );
    json.push_str(&format!(
        "  \"traced_run\": {{\n    \"nodes\": 2,\n    \"k\": {tk},\n    \"n\": {tn},\n    \"iterations\": {ti},\n    \"events\": {},\n    \"dropped\": {},\n    \"wall_s\": {:.4},\n    \"trace\": {:?},\n    \"metrics\": {:?}\n  }},\n",
        summary.events,
        summary.dropped,
        summary.wall_s,
        trace_path.display().to_string(),
        metrics_path.display().to_string()
    ));

    json.push_str(&format!(
        "  \"thresholds\": {{\"dot_serial_max\": {}, \"axpy_serial_max\": {}, \"spmv_serial_max_nnz\": {}}}\n}}\n",
        dense::DOT_SERIAL_MAX,
        dense::AXPY_SERIAL_MAX,
        dooc_sparse::pool::SPMV_SERIAL_MAX_NNZ
    ));

    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {}", out_path.display());
}

/// Pulls `read_array.pipelined_us_per_read` out of a previous
/// `BENCH_dataplane.json` by scanning for the first occurrence of the key —
/// the file is our own flat output, so a full JSON parser buys nothing here.
fn baseline_pipelined_us(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"pipelined_us_per_read\":";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct ReadLatency {
    blocking_us: f64,
    pipelined_us: f64,
    copied_blocking: u64,
    copied_view: u64,
}

/// Single-node cluster; one array of `nblocks` blocks held in memory; times
/// `read_array_blocking` (one round trip per block) against the pipelined
/// `read_array`, and records the bytes each path memcpy'd.
fn read_latency(nblocks: u64, block_bytes: u64, reps: u32) -> ReadLatency {
    let results: Arc<Mutex<Vec<ReadLatency>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&results);
    let len = nblocks * block_bytes;
    let dir = std::env::temp_dir().join(format!("dooc-bench-readlat-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, vec![dir.clone()], 4 * len, 7);
    let drivers = layout.add_replicated("driver", vec![NodeId(0)], move |_| {
        let sink = Arc::clone(&sink);
        Box::new(
            move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                let to = ctx.take_output("sreq")?;
                let from = ctx.take_input("srep")?;
                let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                let geometry =
                    std::collections::HashMap::from([("a".to_string(), (len, block_bytes))]);
                let pool = ComputePool::new(1);
                let mut wc = WorkerContext::new(0, 1, &mut sc, &geometry, &pool);
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                wc.write_bytes("a", Bytes::from(data)).expect("write");
                // Warm both paths once before timing.
                wc.read_array_blocking("a").expect("warm");
                wc.read_array("a").expect("warm");
                // Noise control: time several interleaved rounds per path
                // and keep the fastest — external load only adds time, so
                // the minimum round is the most reproducible estimate.
                const ROUNDS: u32 = 5;
                let mut blocking = std::time::Duration::MAX;
                let mut pipelined = std::time::Duration::MAX;
                for _ in 0..ROUNDS {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        wc.read_array_blocking("a").expect("blocking read");
                    }
                    blocking = blocking.min(t0.elapsed());
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        wc.read_array("a").expect("pipelined read");
                    }
                    pipelined = pipelined.min(t0.elapsed());
                }
                // Copy accounting on fresh contexts: one blocking byte read
                // vs one zero-copy f64 read.
                let mut wc = WorkerContext::new(0, 1, &mut sc, &geometry, &pool);
                wc.read_array_blocking("a").expect("read");
                let copied_blocking = wc.copied_bytes();
                let mut wc = WorkerContext::new(0, 1, &mut sc, &geometry, &pool);
                wc.read_f64s("a").expect("read f64s");
                let copied_view = wc.copied_bytes();
                sink.lock().push(ReadLatency {
                    blocking_us: blocking.as_secs_f64() * 1e6 / reps as f64,
                    pipelined_us: pipelined.as_secs_f64() * 1e6 / reps as f64,
                    copied_blocking,
                    copied_view,
                });
                sc.shutdown().ok();
                Ok(())
            },
        )
    });
    cluster.attach_clients(&mut layout, drivers, 1, "sreq", "srep");
    Runtime::run(layout).expect("cluster run");
    std::fs::remove_dir_all(&dir).ok();
    let mut results = results.lock();
    results.pop().expect("driver reported")
}

/// One end-to-end iterated-SpMV run; returns wall seconds.
fn run_spmv(nodes: usize, k: u64, n: u64, iterations: u64) -> f64 {
    let tag = format!("bench-dp-{nodes}n");
    let cfg = DoocConfig::in_temp_dirs(&tag, nodes)
        .expect("cfg")
        .memory_budget(256 << 20)
        .threads_per_node(2)
        .prefetch_window(2);
    let grid = BlockGrid::new(k, n);
    let gen = GapGenerator::with_d(3);
    let blocks = SpmvAppBuilder::stage(
        &cfg.scratch_dirs,
        grid,
        &gen,
        42,
        tiled_owner(k, nodes as u64),
    )
    .expect("stage");
    let app = SpmvAppBuilder::new(grid, iterations, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::IterationBarrier);
    let x0: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin() + 1.0).collect();
    app.stage_initial_vector(&cfg.scratch_dirs, &x0)
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let mut cfg2 = cfg.clone();
    for (name, len, bs) in geometry {
        cfg2 = cfg2.with_geometry(name, len, bs);
    }
    let t0 = Instant::now();
    DoocRuntime::new(cfg2.clone())
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("run");
    let wall = t0.elapsed().as_secs_f64();
    for d in &cfg2.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
    }
    wall
}

/// Times one closure as min-of-`ROUNDS` of the mean over `reps` calls:
/// external load only ever adds time, so the fastest round is the most
/// reproducible estimate (same policy as `read_latency`).
fn time_min<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    const ROUNDS: u32 = 3;
    let mut best = f64::MAX;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Sweeps serial vs pool timings for dot/axpy/SpMV to locate the crossover
/// the `*_SERIAL_MAX` thresholds encode. The pool path goes through the
/// chunked fork-join at the pool's own `parallelism_hint()` — the same
/// degree the public `dot`/`axpy`/`spmv` entry points would use above their
/// thresholds — so the numbers measure the real policy, including the
/// collapse to an inline loop when the host has fewer cores than workers.
fn calibrate_dense(quick: bool) -> String {
    let pool = ComputePool::new(4);
    let par = pool.parallelism_hint();
    let reps = if quick { 5 } else { 20 };
    let mut out = String::new();
    out.push_str(&format!(
        "    \"pool_threads\": {},\n    \"parallelism\": {par},\n",
        pool.nthreads()
    ));

    let sizes: &[usize] = if quick {
        // Quick mode still sweeps up to 1M: CI asserts the pool path is not
        // slower than serial at the largest size, which is exactly the
        // regression (fan-out below the crossover) this calibration guards.
        &[16_384, 262_144, 1_048_576]
    } else {
        &[16_384, 32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576]
    };
    let mut dot_rows = Vec::new();
    let mut axpy_rows = Vec::new();
    for &n in sizes {
        let x = Arc::new(
            (0..n)
                .map(|i| (i as f64 * 0.37).sin())
                .collect::<Vec<f64>>(),
        );
        let y = Arc::new(
            (0..n)
                .map(|i| (i as f64 * 0.11).cos())
                .collect::<Vec<f64>>(),
        );
        let mut acc = 0.0;
        let serial = time_min(reps, || acc += dense::dot(&x, &y));
        let pooled = time_min(reps, || acc += pool.dot_fanout(&x, &y, par));
        std::hint::black_box(acc);
        println!(
            "calibrate dot n={n}: serial {:.1} us, pool {:.1} us",
            serial * 1e6,
            pooled * 1e6
        );
        dot_rows.push(format!(
            "      {{\"n\": {n}, \"serial_us\": {:.2}, \"pool_us\": {:.2}}}",
            serial * 1e6,
            pooled * 1e6
        ));

        let mut y1 = (0..n).map(|i| i as f64 * 0.5).collect::<Vec<f64>>();
        let serial = time_min(reps, || dense::axpy(1.0001, &x, &mut y1));
        // The pool's zero-copy AXPY operates on a slab-partitioned vector;
        // building the slabs is a one-time layout choice for an accumulator
        // that lives across a whole solve, so it sits outside the timing.
        let mut slabs = dooc_sparse::SlabVec::from_vec(y1, dooc_sparse::slab::DEFAULT_SLAB_LEN);
        let pooled = time_min(reps, || pool.axpy_slabs_fanout(1.0001, &x, &mut slabs, par));
        std::hint::black_box(slabs.get(0));
        println!(
            "calibrate axpy n={n}: serial {:.1} us, pool {:.1} us",
            serial * 1e6,
            pooled * 1e6
        );
        axpy_rows.push(format!(
            "      {{\"n\": {n}, \"serial_us\": {:.2}, \"pool_us\": {:.2}}}",
            serial * 1e6,
            pooled * 1e6
        ));
    }
    out.push_str("    \"dot\": [\n");
    out.push_str(&dot_rows.join(",\n"));
    out.push_str("\n    ],\n    \"axpy\": [\n");
    out.push_str(&axpy_rows.join(",\n"));
    out.push_str("\n    ],\n");

    let nnzs: &[u64] = if quick {
        &[4_096, 65_536, 1_048_576]
    } else {
        &[4_096, 16_384, 65_536, 262_144, 1_048_576]
    };
    let mut spmv_rows = Vec::new();
    for &target in nnzs {
        let nrows = (target / 8).max(64);
        let gen = GapGenerator::for_target_nnz(nrows, nrows, target);
        let m = Arc::new(gen.generate(nrows, nrows, 7));
        let x = Arc::new(
            (0..nrows)
                .map(|i| (i as f64 * 0.3).sin())
                .collect::<Vec<f64>>(),
        );
        let mut y = vec![0.0; nrows as usize];
        let serial = time_min(reps, || m.spmv_into(&x, &mut y).expect("dims"));
        let pooled = time_min(reps, || pool.spmv_fanout(&m, &x, &mut y, par));
        std::hint::black_box(y[0]);
        println!(
            "calibrate spmv nnz={}: serial {:.1} us, pool {:.1} us",
            m.nnz(),
            serial * 1e6,
            pooled * 1e6
        );
        spmv_rows.push(format!(
            "      {{\"nnz\": {}, \"serial_us\": {:.2}, \"pool_us\": {:.2}}}",
            m.nnz(),
            serial * 1e6,
            pooled * 1e6
        ));
    }
    out.push_str("    \"spmv\": [\n");
    out.push_str(&spmv_rows.join(",\n"));
    out.push_str("\n    ]\n");
    out
}
