//! `dooc-node` — one process of a real multi-process DOoC cluster.
//!
//! Each invocation is one node: it binds its listen address from the cluster
//! spec, handshakes the full TCP mesh, stages its share of the iterated-SpMV
//! workload into its scratch directory, and runs the distributed out-of-core
//! solve end to end. Start N copies (one per spec line) and they find each
//! other:
//!
//! ```sh
//! cat > cluster.spec <<'EOF'
//! node 0 127.0.0.1:7700
//! node 1 127.0.0.1:7701
//! EOF
//! dooc-node --spec cluster.spec --node 1 --scratch-base /tmp/dooc &
//! dooc-node --spec cluster.spec --node 0 --scratch-base /tmp/dooc --verify
//! ```
//!
//! `--verify` (meaningful on node 0 with a shared scratch base, e.g. a
//! localhost cluster) collects the final vector after the run and checks it
//! against the in-core reference product, exiting non-zero on mismatch.

#![forbid(unsafe_code)]

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::filterstream::{ClusterSpec, TcpTransport};
use dooc::linalg::spmv_app::{
    striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    spec: PathBuf,
    node: usize,
    scratch_base: PathBuf,
    k: u64,
    n: u64,
    iters: u64,
    seed: u64,
    memory_budget: u64,
    threads: usize,
    verify: bool,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dooc-node --spec <file> --node <id> --scratch-base <dir>\n\
         \x20      [--k <grid>] [--n <order>] [--iters <n>] [--seed <s>]\n\
         \x20      [--memory-budget <bytes>] [--threads <n>] [--verify]\n\
         \x20      [--trace <path>] [--metrics <path>]\n\
         \n\
         spec file: one 'node <id> <host:port>' line per node, ids dense from 0"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut node = None;
    let mut scratch_base = None;
    let mut k = 4u64;
    let mut n = 512u64;
    let mut iters = 3u64;
    let mut seed = 2012u64;
    let mut memory_budget = 4u64 << 20;
    let mut threads = 2usize;
    let mut verify = false;
    let mut trace = None;
    let mut metrics = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match flag.as_str() {
            "--spec" => spec = Some(PathBuf::from(val("--spec"))),
            "--node" => node = Some(parse_num(&val("--node"), "--node") as usize),
            "--scratch-base" => scratch_base = Some(PathBuf::from(val("--scratch-base"))),
            "--k" => k = parse_num(&val("--k"), "--k"),
            "--n" => n = parse_num(&val("--n"), "--n"),
            "--iters" => iters = parse_num(&val("--iters"), "--iters"),
            "--seed" => seed = parse_num(&val("--seed"), "--seed"),
            "--memory-budget" => {
                memory_budget = parse_num(&val("--memory-budget"), "--memory-budget")
            }
            "--threads" => threads = parse_num(&val("--threads"), "--threads") as usize,
            "--verify" => verify = true,
            "--trace" => trace = Some(PathBuf::from(val("--trace"))),
            "--metrics" => metrics = Some(PathBuf::from(val("--metrics"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("dooc-node: unknown flag '{other}'");
                usage();
            }
        }
    }
    let (Some(spec), Some(node), Some(scratch_base)) = (spec, node, scratch_base) else {
        eprintln!("dooc-node: --spec, --node and --scratch-base are required");
        usage();
    };
    Args {
        spec,
        node,
        scratch_base,
        k,
        n,
        iters,
        seed,
        memory_budget,
        threads,
        verify,
        trace,
        metrics,
    }
}

fn usage_missing(name: &str) -> ! {
    eprintln!("dooc-node: {name} needs a value");
    usage();
}

fn parse_num(s: &str, name: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("dooc-node: bad value '{s}' for {name}");
        usage();
    })
}

fn fail(msg: String) -> ! {
    eprintln!("dooc-node: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let spec = match ClusterSpec::load(&args.spec) {
        Ok(s) => s,
        Err(e) => fail(format!("cluster spec: {e}")),
    };
    let nnodes = spec.len();
    if args.node >= nnodes {
        fail(format!(
            "node id {} out of range: spec lists {nnodes} nodes",
            args.node
        ));
    }
    if args.trace.is_some() || args.metrics.is_some() {
        dooc::obs::enable();
    }

    // Identical on every process: node i's scratch directory under the
    // shared base. Only our own entry is touched locally.
    let dirs: Vec<PathBuf> = (0..nnodes)
        .map(|i| args.scratch_base.join(format!("node{i}")))
        .collect();
    let me = args.node as u64;
    let my_dir = dirs[args.node].clone();

    eprintln!(
        "[node {}] joining {}-node cluster via {} ...",
        args.node,
        nnodes,
        spec.addr(args.node)
    );
    let transport = match TcpTransport::connect(&spec, args.node, spec.fingerprint()) {
        Ok(t) => Arc::new(t),
        Err(e) => fail(format!("transport: {e}")),
    };
    eprintln!("[node {}] mesh connected", args.node);

    // Stage this node's share of the workload. Metadata is computed for the
    // whole grid (deterministically, same on every process); only files
    // owned here are written.
    let grid = BlockGrid::new(args.k, args.n);
    let gen =
        GapGenerator::for_target_nnz(args.n / args.k, args.n / args.k, 40 * (args.n / args.k));
    let owner = striped_owner(nnodes as u64);
    let blocks = match SpmvAppBuilder::stage_local(&my_dir, me, grid, &gen, args.seed, owner) {
        Ok(b) => b,
        Err(e) => fail(format!("stage matrix blocks: {e}")),
    };
    let app = SpmvAppBuilder::new(grid, args.iters, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::IterationBarrier);
    let x0: Vec<f64> = (0..args.n).map(|i| 1.0 + (i as f64 * 0.01).cos()).collect();
    if let Err(e) = app.stage_initial_vector_local(&my_dir, me, &x0) {
        fail(format!("stage initial vector: {e}"));
    }

    let (graph, external, geometry) = app.build();
    let mut config = DoocConfig::new(dirs.clone())
        .memory_budget(args.memory_budget)
        .threads_per_node(args.threads)
        .seed(args.seed);
    for (name, len, bs) in geometry {
        config = config.with_geometry(name, len, bs);
    }

    eprintln!(
        "[node {}] running {} tasks over {} iterations ...",
        args.node,
        graph.len(),
        args.iters
    );
    let report = match DoocRuntime::new(config).run_distributed(
        graph,
        external,
        Arc::new(SpmvExecutor),
        transport,
    ) {
        Ok(r) => r,
        Err(e) => fail(format!("distributed run: {e}")),
    };

    let st = &report.node_stats[args.node];
    eprintln!(
        "[node {}] done in {:?}: {:.1} MB disk reads, {:.1} MB from peers, {} evictions",
        args.node,
        report.elapsed,
        st.disk_read_bytes as f64 / 1e6,
        st.peer_recv_bytes as f64 / 1e6,
        st.evictions
    );

    if let Some(path) = &args.trace {
        let snap = dooc::obs::ring::take_events();
        if let Err(e) = std::fs::write(path, dooc::obs::trace::chrome_trace(&snap)) {
            fail(format!("write trace {}: {e}", path.display()));
        }
    }
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, dooc::obs::metrics::dump_metrics()) {
            fail(format!("write metrics {}: {e}", path.display()));
        }
    }

    if args.verify {
        let got = match app.collect_final_vector(&dirs) {
            Ok(v) => v,
            Err(e) => fail(format!(
                "collect final vector (needs a shared scratch base): {e}"
            )),
        };
        let want = app.reference_result(&gen, args.seed, &x0);
        let max_rel = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
            .fold(0.0f64, f64::max);
        if max_rel >= 1e-9 {
            fail(format!(
                "verification FAILED: max relative error {max_rel:.2e} vs in-core reference"
            ));
        }
        println!("verification OK: max relative error {max_rel:.2e}");
    }
}
