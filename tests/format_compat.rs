//! Block files written before the narrow-index format keep working, alone
//! and side by side with new ones: a checked-in version-1 cell (8-byte row
//! pointers and column indices, written by the last commit whose `to_bytes`
//! produced that layout) parses and multiplies to the bits recorded then,
//! and a 2-node run whose scratch directories mix version-1 and version-2
//! cells is bitwise the all-version-2 run and the in-core reference — the
//! index width changes what is read, never what is summed.

use dooc::core::{DoocConfig, DoocRuntime};
use dooc::filterstream::{ChannelTransport, Transport};
use dooc::linalg::spmv_app::{
    staged_matrix_path, striped_owner, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc::sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc::sparse::genmat::GapGenerator;
use dooc::sparse::{fileio, CsrMatrix, CsrView};
use std::sync::Arc;

mod common;
use common::{cleanup, tcp_mesh};
#[path = "common/v1.rs"]
mod v1;
use v1::v1_bytes;

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{label} diverged at x[{i}]: {g:?} != {w:?}"
        );
    }
}

#[test]
fn v1_fixture_parses_and_multiplies_to_recorded_bits() {
    // `GapGenerator::with_d(2).generate(7, 11, 2012)` through the parent
    // commit's `fileio::to_bytes`, and its product with `x` below through
    // that commit's `CsrMatrix::spmv`.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cell_v1.crs");
    let bytes = std::fs::read(&fixture).expect("fixture");
    assert_eq!(&bytes[..8], b"DOOCCRS1");
    assert_eq!(bytes.len(), 528);
    const RECORDED: [u64; 7] = [
        0x3fe4ef4311e67516,
        0x3fdb1ed7d6728dae,
        0x3fe533496a71c9c6,
        0xbfc11e22ebbe93c2,
        0xc000e058fcfff8fd,
        0xbff2734ddc92cf54,
        0xbfeba4e5eeb2a044,
    ];
    let x: Vec<f64> = (0..11).map(|i| 0.25 * i as f64 - 1.0).collect();

    let header = fileio::read_header(&fixture).expect("header");
    assert_eq!(header.format, fileio::Format::V1);
    assert_eq!((header.nrows, header.ncols, header.nnz), (7, 11, 27));
    assert_eq!(header.file_size_bytes(), 528, "sized in its own layout");

    let view = CsrView::parse(&bytes).expect("a version-1 file still parses");
    assert!(matches!(view, CsrView::V1(_)));
    let mut y = vec![f64::NAN; 7];
    view.spmv_into(&x, &mut y).expect("dims");
    assert_eq!(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), RECORDED);

    // Imported and written back, it is the narrow layout with the same
    // matrix in it.
    let m = fileio::read_matrix(&fixture).expect("streaming reader");
    assert_eq!(m, view.to_matrix());
    assert_eq!(m, GapGenerator::with_d(2).generate(7, 11, 2012));
    let rewritten = fileio::to_bytes(&m);
    assert_eq!(&rewritten[..8], b"DOOCCRS2");
    assert!(rewritten.len() < bytes.len());
}

const K: u64 = 4;
const N: u64 = 200; // 50-row cells: 51 row pointers, so version 2 pads
const ITERS: u64 = 3;
const MAT_SEED: u64 = 19;
const NNODES: usize = 2;

fn x0() -> Vec<f64> {
    (0..N).map(|i| (i % 7) as f64 + 1.0).collect()
}

/// Stages the workload on two nodes, rewrites the cells `as_v1` picks in
/// format version 1 (declaring the size they then have), runs it over
/// `transports` and returns the final vector and how many cells were
/// rewritten.
fn run_with(
    tag: &str,
    transports: Vec<Arc<dyn Transport>>,
    as_v1: fn(BlockCoord) -> bool,
) -> (Vec<f64>, usize) {
    let base = DoocConfig::in_temp_dirs(tag, NNODES).expect("cfg");
    let grid = BlockGrid::new(K, N);
    let mut blocks = SpmvAppBuilder::stage(
        &base.scratch_dirs,
        grid,
        &GapGenerator::with_d(4),
        MAT_SEED,
        striped_owner(NNODES as u64),
    )
    .expect("stage matrices");
    let mut rewritten = 0;
    for b in blocks.iter_mut().filter(|b| as_v1(b.coord)) {
        let path = staged_matrix_path(&base.scratch_dirs[b.node as usize], b.coord);
        let old = v1_bytes(&fileio::read_matrix(&path).expect("staged cell"));
        assert!(old.len() as u64 > b.bytes, "version 1 is the larger layout");
        b.bytes = old.len() as u64;
        std::fs::write(&path, old).expect("rewrite cell");
        rewritten += 1;
    }
    let app = SpmvAppBuilder::new(grid, ITERS, blocks)
        .reduction(ReductionPlan::RowRoot)
        .sync(SyncPolicy::IterationBarrier);
    app.stage_initial_vector(&base.scratch_dirs, &x0())
        .expect("stage x0");
    let (graph, external, geometry) = app.build();
    let handles: Vec<_> = transports
        .into_iter()
        .map(|t| {
            let mut cfg = DoocConfig::new(base.scratch_dirs.clone()).memory_budget(2 << 20);
            for (name, len, bs) in &geometry {
                cfg = cfg.with_geometry(name.clone(), *len, *bs);
            }
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
    if rewritten == 0 {
        let reference = app.reference_result(&GapGenerator::with_d(4), MAT_SEED, &x0());
        assert_bitwise(&format!("{tag} vs in-core reference"), &x, &reference);
    }
    cleanup(&base);
    (x, rewritten)
}

fn mixed_matches_all_v2(transport: &str, mesh: impl Fn() -> Vec<Arc<dyn Transport>>) {
    let (narrow, none) = run_with(&format!("fmt-{transport}-v2"), mesh(), |_| false);
    assert_eq!(none, 0);
    // A checkerboard: every node, every block row and every sum has both.
    let (mixed, rewritten) = run_with(&format!("fmt-{transport}-mixed"), mesh(), |c| {
        (c.u + c.v) % 2 == 1
    });
    assert_eq!(rewritten as u64, K * K / 2);
    assert_bitwise(&format!("{transport}: mixed vs all-v2"), &mixed, &narrow);
    let (wide, all) = run_with(&format!("fmt-{transport}-v1"), mesh(), |_| true);
    assert_eq!(all as u64, K * K);
    assert_bitwise(&format!("{transport}: all-v1 vs all-v2"), &wide, &narrow);
}

#[test]
fn mixed_format_cells_over_channels_are_bitwise_the_all_v2_run() {
    mixed_matches_all_v2("chan", || {
        ChannelTransport::cluster(NNODES)
            .into_iter()
            .map(|t| Arc::new(t) as Arc<dyn Transport>)
            .collect()
    });
}

#[test]
fn mixed_format_cells_over_tcp_are_bitwise_the_all_v2_run() {
    mixed_matches_all_v2("tcp", || tcp_mesh(NNODES));
}
