//! Multi-process-shaped integration tests: the same iterated-SpMV workload
//! run (a) classically: one process, every node over the in-process
//! transport (`DoocRuntime::run`), (b) one node per thread over the
//! in-process channel transport (`run_distributed`), and (c) one node per
//! thread over real loopback TCP sockets.
//! All three must produce *bitwise* identical final vectors — the transport
//! is pure plumbing and must never change a floating-point reduction order —
//! and so must all three [`SyncPolicy`] graphs: barriers only remove
//! schedules, every sum still folds its partials in declared input order.

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::filterstream::{ChannelTransport, FaultPlan, Transport};
use dooc::linalg::spmv_app::{
    striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::BlockGrid;
use dooc::sparse::genmat::GapGenerator;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::{cleanup, tcp_mesh};

const K: u64 = 4;
const N: u64 = 64;
const ITERS: u64 = 3;
const MAT_SEED: u64 = 9;
const NNODES: usize = 2;

fn x0() -> Vec<f64> {
    (0..N).map(|i| (i % 7) as f64 + 1.0).collect()
}

/// Stages the workload into fresh temp dirs and returns everything a node
/// needs to run it.
fn stage(tag: &str, sync: SyncPolicy) -> (DoocConfig, SpmvAppBuilder) {
    let base = DoocConfig::in_temp_dirs(tag, NNODES).expect("cfg");
    let grid = BlockGrid::new(K, N);
    let gen = GapGenerator::with_d(4);
    let blocks = SpmvAppBuilder::stage(
        &base.scratch_dirs,
        grid,
        &gen,
        MAT_SEED,
        striped_owner(NNODES as u64),
    )
    .expect("stage matrices");
    let app = SpmvAppBuilder::new(grid, ITERS, blocks)
        .reduction(ReductionPlan::RowRoot)
        .sync(sync);
    app.stage_initial_vector(&base.scratch_dirs, &x0())
        .expect("stage x0");
    (base, app)
}

fn config_for(dirs: Vec<PathBuf>, geometry: &[(String, u64, u64)]) -> DoocConfig {
    let mut cfg = DoocConfig::new(dirs)
        .memory_budget(2 << 20)
        .threads_per_node(2);
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name.clone(), *len, *bs);
    }
    cfg
}

/// Runs the staged app with one thread per node, each holding its own
/// transport — the thread boundary stands in for the process boundary (the
/// real multi-process path is exercised by `tests/tcp_cluster.rs`).
fn run_over(tag: &str, transports: Vec<Arc<dyn Transport>>, sync: SyncPolicy) -> Vec<f64> {
    let (base, app) = stage(tag, sync);
    let (graph, external, geometry) = app.build();
    let handles: Vec<_> = transports
        .into_iter()
        .map(|t| {
            let dirs = base.scratch_dirs.clone();
            let cfg = config_for(dirs, &geometry);
            let graph = graph.clone();
            let external = external.clone();
            std::thread::spawn(move || {
                DoocRuntime::new(cfg)
                    .run_distributed(graph, external, Arc::new(SpmvExecutor), t)
                    .expect("distributed run");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("node thread");
    }
    let x = app
        .collect_final_vector(&base.scratch_dirs)
        .expect("final vector");
    cleanup(&base);
    x
}

fn run_classic(tag: &str, sync: SyncPolicy) -> Vec<f64> {
    let (base, app) = stage(tag, sync);
    let (graph, external, geometry) = app.build();
    let cfg = config_for(base.scratch_dirs.clone(), &geometry);
    DoocRuntime::new(cfg)
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("classic run");
    let x = app
        .collect_final_vector(&base.scratch_dirs)
        .expect("final vector");
    cleanup(&base);
    x
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label} diverged at x[{i}]: {g:?} != {w:?}"
        );
    }
}

fn channel_cluster() -> Vec<Arc<dyn Transport>> {
    ChannelTransport::cluster(NNODES)
        .into_iter()
        .map(|t| Arc::new(t) as Arc<dyn Transport>)
        .collect()
}

#[test]
fn channel_transport_matches_classic_run_bitwise() {
    let classic = run_classic("dist-classic", SyncPolicy::None);
    let chan = run_over("dist-chan", channel_cluster(), SyncPolicy::None);
    assert_bitwise("channel vs classic", &chan, &classic);
}

#[test]
fn tcp_transport_matches_classic_run_bitwise() {
    let classic = run_classic("dist-classic-tcp", SyncPolicy::None);
    let tcp = run_over(
        "dist-tcp",
        tcp_mesh(NNODES, FaultPlan::default()),
        SyncPolicy::None,
    );
    assert_bitwise("tcp vs classic", &tcp, &classic);
}

// ---------------------------------------------------------------------------
// Sync-policy equivalence: the iteration-barriered run is the oracle. The
// `SyncPolicy::None` graph has *fewer* ordering edges (iterations pipeline),
// the phase-barriered one more, but every sum task folds its partials in
// declared input order, so any divergence — a premature release reading an
// unsealed or stale sub-vector — shows up as a bitwise difference in the
// final iterate.
// ---------------------------------------------------------------------------

const POLICIES: [(&str, SyncPolicy); 3] = [
    ("none", SyncPolicy::None),
    ("iter", SyncPolicy::IterationBarrier),
    ("phase", SyncPolicy::PhaseBarriers),
];

#[test]
fn sync_policies_match_classic_bitwise() {
    let [none, oracle, phase] =
        POLICIES.map(|(name, sync)| run_classic(&format!("dist-sync-c-{name}"), sync));
    assert_bitwise("none vs iteration barrier (classic)", &none, &oracle);
    assert_bitwise("phase vs iteration barrier (classic)", &phase, &oracle);
}

#[test]
fn sync_policies_match_over_channel_transport() {
    let oracle = run_classic("dist-sync-cho", SyncPolicy::IterationBarrier);
    for (name, sync) in POLICIES {
        let x = run_over(&format!("dist-sync-ch-{name}"), channel_cluster(), sync);
        assert_bitwise(
            &format!("{name} vs iteration barrier (channel)"),
            &x,
            &oracle,
        );
    }
}

#[test]
fn sync_policies_match_over_tcp_sockets() {
    let oracle = run_classic("dist-sync-to", SyncPolicy::IterationBarrier);
    for (name, sync) in POLICIES {
        let x = run_over(
            &format!("dist-sync-t-{name}"),
            tcp_mesh(NNODES, FaultPlan::default()),
            sync,
        );
        assert_bitwise(&format!("{name} vs iteration barrier (tcp)"), &x, &oracle);
    }
}

/// One fully parameterized classic run: stages a k×k grid of an n-order
/// matrix across `nnodes` striped owners and executes `iters` iterations.
#[allow(clippy::too_many_arguments)]
fn run_case(
    tag: &str,
    k: u64,
    n: u64,
    iters: u64,
    seed: u64,
    nnodes: usize,
    reduction: ReductionPlan,
    sync: SyncPolicy,
) -> Vec<f64> {
    let base = DoocConfig::in_temp_dirs(tag, nnodes).expect("cfg");
    let grid = BlockGrid::new(k, n);
    let gen = GapGenerator::with_d(3);
    let blocks = SpmvAppBuilder::stage(
        &base.scratch_dirs,
        grid,
        &gen,
        seed,
        striped_owner(nnodes as u64),
    )
    .expect("stage matrices");
    let app = SpmvAppBuilder::new(grid, iters, blocks)
        .reduction(reduction)
        .sync(sync);
    let x0: Vec<f64> = (0..n).map(|i| ((i * 7 + seed) % 11) as f64 + 0.5).collect();
    app.stage_initial_vector(&base.scratch_dirs, &x0)
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let cfg = config_for(base.scratch_dirs.clone(), &geometry);
    DoocRuntime::new(cfg)
        .run(graph, external, Arc::new(SpmvExecutor))
        .expect("classic run");
    let x = app
        .collect_final_vector(&base.scratch_dirs)
        .expect("final vector");
    cleanup(&base);
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// All three sync policies are bitwise identical across generated grid
    /// sizes, block counts, placements, iteration depths and seeds.
    #[test]
    fn sync_policy_equivalence_across_shapes(
        k in 2u64..5,
        dim in 2u64..8,
        iters in 1u64..4,
        seed in 0u64..1000,
        nnodes in 1usize..3,
        local_agg in any::<bool>(),
    ) {
        let n = k * dim;
        let reduction = if local_agg {
            ReductionPlan::LocalAggregation
        } else {
            ReductionPlan::RowRoot
        };
        let run = |name: &str, sync| {
            let tag = format!("dist-prop-{name}-{k}-{dim}-{iters}-{seed}-{nnodes}-{local_agg}");
            run_case(&tag, k, n, iters, seed, nnodes, reduction, sync)
        };
        let oracle = run("oracle", SyncPolicy::IterationBarrier);
        for (name, sync) in [("none", SyncPolicy::None), ("phase", SyncPolicy::PhaseBarriers)] {
            let x = run(name, sync);
            prop_assert_eq!(oracle.len(), x.len());
            for (i, (o, g)) in oracle.iter().zip(&x).enumerate() {
                prop_assert!(
                    o.to_bits() == g.to_bits(),
                    "{name} diverged from the iteration barrier at x[{i}]: {o:?} != {g:?}"
                );
            }
        }
    }
}

#[test]
fn mismatched_bootstrap_digest_is_rejected() {
    let (base, app) = stage("dist-mismatch", SyncPolicy::None);
    let (graph, external, geometry) = app.build();
    let transports = ChannelTransport::cluster(NNODES);
    let handles: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let dirs = base.scratch_dirs.clone();
            let mut cfg = config_for(dirs, &geometry);
            if i == 1 {
                // Node 1 disagrees on a run-defining knob.
                cfg = cfg.seed(0xBAD);
            }
            let graph = graph.clone();
            let external = external.clone();
            std::thread::spawn(move || {
                DoocRuntime::new(cfg)
                    .run_distributed(graph, external, Arc::new(SpmvExecutor), Arc::new(t))
                    .err()
                    .map(|e| e.to_string())
            })
        })
        .collect();
    let errs: Vec<Option<String>> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    cleanup(&base);
    for (i, e) in errs.iter().enumerate() {
        let e = e
            .as_ref()
            .unwrap_or_else(|| panic!("node {i} should have refused to run"));
        assert!(
            e.contains("digest mismatch"),
            "node {i}: unexpected error {e}"
        );
    }
}

/// A peer built from another protocol generation hashes its run digest
/// under a different domain string, so whatever it sends cannot equal ours:
/// the bootstrap exchange must turn that into the typed error, before any
/// frame of the run itself is on the wire.
#[test]
fn stale_peer_digest_is_rejected_in_the_bootstrap_exchange() {
    let (base, app) = stage("dist-stale-peer", SyncPolicy::None);
    let (graph, external, geometry) = app.build();
    let mut transports = ChannelTransport::cluster(NNODES);
    let stale = transports.pop().expect("node 1");
    let current = transports.pop().expect("node 0");
    // The stale peer plays only the exchange, with some other 8-byte digest.
    let peer = std::thread::spawn(move || {
        stale
            .exchange(0xD00C_0001u64.to_le_bytes().to_vec().into())
            .map(|_| ())
    });
    let cfg = config_for(base.scratch_dirs.clone(), &geometry);
    let err = DoocRuntime::new(cfg)
        .run_distributed(graph, external, Arc::new(SpmvExecutor), Arc::new(current))
        .expect_err("node 0 must refuse a peer with a different digest");
    peer.join()
        .expect("join")
        .expect("the exchange itself succeeds");
    cleanup(&base);
    assert!(err.to_string().contains("digest mismatch"), "{err}");
}
