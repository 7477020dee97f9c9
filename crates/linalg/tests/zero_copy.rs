//! The SpMV executor computes on its inputs where the storage layer holds
//! them: a `multiply` over a single-block matrix copies no matrix byte and
//! hands every pin back, a matrix that spans several blocks is assembled
//! once and still multiplies bit for bit, a corrupt block is a task error
//! rather than a panic — also when it is reloaded under a matrix validated
//! before, and also for a cell with fewer entries than rows, which its
//! first multiply checks as it multiplies — and `sum` folds its partials
//! into its output block bitwise as the AXPY it replaces.
//!
//! The tests count validations (`linalg.matrix_checks` / `_skipped`,
//! process-wide counters), so they take turns.

use bytes::Bytes;
use dooc_core::{TaskExecutor, TaskSpec, WorkerContext};
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_linalg::spmv_app::SpmvExecutor;
use dooc_sparse::{dense, fileio, ComputePool, CsrMatrix, GapGenerator};
use dooc_storage::{StorageClient, StorageCluster};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

#[allow(
    clippy::disallowed_types,
    reason = "a test binary's serializing gate, not runtime code; poison is recovered at each lock"
)]
static ONE_NODE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The scratch directory of the node [`run_node`] runs for `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dooc-zerocopy-{tag}-{}", std::process::id()))
}

/// Runs `driver(&mut client)` against a fresh single-node storage cluster and
/// cleans up the scratch directory afterwards.
fn run_node<F>(tag: &str, driver: F)
where
    F: Fn(&mut StorageClient) + Send + Sync + 'static,
{
    let _turn = ONE_NODE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, vec![dir.clone()], 1 << 24, 7);
    let driver = Arc::new(driver);
    let drivers = layout.add_replicated("driver", vec![NodeId(0)], move |_| {
        let driver = Arc::clone(&driver);
        Box::new(
            move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                let to = ctx.take_output("sreq")?;
                let from = ctx.take_input("srep")?;
                let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                driver(&mut sc);
                sc.shutdown().ok();
                Ok(())
            },
        )
    });
    cluster.attach_clients(&mut layout, drivers, 1, "sreq", "srep");
    Runtime::run(layout).expect("cluster run");
    std::fs::remove_dir_all(&dir).ok();
}

fn le_bytes(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn sample() -> (CsrMatrix, Vec<f64>) {
    let m = GapGenerator::with_d(3).generate(90, 70, 17);
    let x = (0..70).map(|i| (i as f64 * 0.29).cos() + 0.5).collect();
    (m, x)
}

/// A cell with fewer entries than rows (about one in three rows holds
/// any), like those of a fine grid over a thin matrix.
fn hypersparse_sample() -> (CsrMatrix, Vec<f64>) {
    let m = GapGenerator::with_d(100).generate(300, 70, 17);
    assert!(m.nnz() < m.nrows(), "{} entries", m.nnz());
    let x = (0..70).map(|i| (i as f64 * 0.29).cos() + 0.5).collect();
    (m, x)
}

/// The two validation counters, enabled.
fn check_counters() -> [&'static dooc_obs::metrics::Counter; 2] {
    dooc_obs::enable();
    ["linalg.matrix_checks", "linalg.matrix_checks_skipped"].map(dooc_obs::metrics::counter)
}

/// The encoding of `m` and the offset of its first (4-byte) column index.
fn encoding(m: &CsrMatrix) -> (Vec<u8>, usize) {
    let nptrs = m.nrows() as usize + 1;
    (fileio::to_bytes(m), 32 + (4 * nptrs).next_multiple_of(8))
}

/// Stores `matrix` as array `<tag>A` in blocks of `block` bytes and `x` as
/// one block, runs one `multiply`, and returns its outcome with what the
/// execution copied and left pinned.
fn multiply(
    sc: &mut StorageClient,
    tag: &str,
    matrix: Vec<u8>,
    block: u64,
    x: &[f64],
    nrows: u64,
) -> (Result<Vec<f64>, String>, u64, u64) {
    multiply_blocked(sc, tag, matrix, block, x, 8 * x.len() as u64, nrows)
}

/// [`multiply`] with `x` stored in blocks of `xblock` bytes.
fn multiply_blocked(
    sc: &mut StorageClient,
    tag: &str,
    matrix: Vec<u8>,
    block: u64,
    x: &[f64],
    xblock: u64,
    nrows: u64,
) -> (Result<Vec<f64>, String>, u64, u64) {
    let (alen, xlen, ylen) = (matrix.len() as u64, 8 * x.len() as u64, 8 * nrows);
    let [a, xv, y] = ["A", "x", "y"].map(|n| format!("{tag}{n}"));
    let geometry: HashMap<String, (u64, u64)> = [
        (a.clone(), (alen, block)),
        (xv.clone(), (xlen, xblock)),
        (y.clone(), (ylen, ylen)),
    ]
    .into();
    let pool = ComputePool::new(1);
    {
        let mut stage = WorkerContext::new(0, 1, sc, &geometry, &pool);
        stage.write_bytes(&a, Bytes::from(matrix)).expect("A");
        stage.write_f64s(&xv, x).expect("x");
    }
    let task = TaskSpec::new("y", "multiply")
        .input(a, alen)
        .input(xv, xlen)
        .output(y.clone(), ylen);
    let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
    let outcome = SpmvExecutor.execute(&task, &mut ctx);
    let copied = ctx.copied_bytes();
    let result = outcome.and_then(|()| ctx.read_f64s(&y));
    let pinned = ctx.storage().outstanding_grants();
    (result, copied, pinned)
}

#[test]
fn multiply_over_a_single_block_copies_no_matrix_byte() {
    run_node("single", |sc| {
        let (m, x) = sample();
        let (raw, _) = encoding(&m);
        let len = raw.len() as u64;
        let (y, copied, pinned) = multiply(sc, "single", raw, len, &x, m.nrows());
        assert_eq!(
            bits(&y.expect("multiply")),
            bits(&m.spmv(&x).expect("dims"))
        );
        // Neither input was copied, and the product was computed into the
        // buffer that became its block.
        assert_eq!(copied, 0, "a byte was copied");
        assert_eq!(pinned, 0, "a pin outlived the task");
    });
}

#[test]
fn multiply_over_a_multi_block_matrix_assembles_once() {
    run_node("multi", |sc| {
        let (m, x) = sample();
        let (raw, _) = encoding(&m);
        let len = raw.len() as u64;
        // 7 is coprime to 8: block boundaries cut through words.
        let (y, copied, pinned) = multiply(sc, "multi", raw, len / 7 + 3, &x, m.nrows());
        assert_eq!(
            bits(&y.expect("multiply")),
            bits(&m.spmv(&x).expect("dims"))
        );
        assert_eq!(copied, len, "one assembled copy");
        assert_eq!(pinned, 0);
    });
}

/// `x` is gathered from its stored bytes wherever the block boundaries
/// fall: blocks of a length coprime to 8 cut through its values, the one
/// assembled copy is all that is copied, and the product's bits are those
/// of multiplying the decoded vector.
#[test]
fn multiply_gathers_x_from_its_bytes_across_odd_block_boundaries() {
    run_node("xblocks", |sc| {
        let (m, mut x) = sample();
        x[0] = -0.0;
        x[1] = f64::from_bits(1);
        x[2] = f64::from_bits(0x7ff8_0000_dead_beef);
        let xlen = 8 * x.len() as u64;
        let (raw, _) = encoding(&m);
        let len = raw.len() as u64;
        let (y, copied, pinned) =
            multiply_blocked(sc, "xblocks", raw, len, &x, xlen / 3 + 5, m.nrows());
        assert_eq!(
            bits(&y.expect("multiply")),
            bits(&m.spmv(&x).expect("dims"))
        );
        assert_eq!(copied, xlen, "x assembled once, nothing else");
        assert_eq!(pinned, 0);
    });
}

#[test]
fn corrupted_block_fails_the_task_with_a_decode_error() {
    corrupted_block_fails_on_first_load("corrupt", sample);
}

/// The first multiply of a cell with fewer entries than rows checks it in
/// the pass that multiplies it; a corrupt one fails the same way.
#[test]
fn corrupted_hypersparse_block_fails_its_first_touch_with_a_decode_error() {
    corrupted_block_fails_on_first_load("corrupt-hyper", hypersparse_sample);
}

/// Each corruption of `sample`'s cell fails its (first) multiply with the
/// typed decode error, keeps no pin and counts one validation.
fn corrupted_block_fails_on_first_load(tag: &str, sample: fn() -> (CsrMatrix, Vec<f64>)) {
    let [checks, skipped] = check_counters();
    run_node(tag, move |sc| {
        let (m, x) = sample();
        type Corrupt = fn(&mut Vec<u8>, usize);
        let corruptions: [(&str, Corrupt); 4] = [
            ("column out of range", |b, at| b[at..at + 4].fill(0xFF)),
            ("row pointer past nnz", |b, _| b[36..40].fill(0xFF)),
            ("hostile nnz", |b, _| {
                b[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes())
            }),
            ("bad magic", |b, _| b[0] = b'X'),
        ];
        let (good, first_col) = encoding(&m);
        for (what, corrupt) in corruptions {
            let mut raw = good.clone();
            corrupt(&mut raw, first_col);
            let len = raw.len() as u64;
            let counts = (checks.get(), skipped.get());
            let (y, _, pinned) = multiply(sc, what, raw, len, &x, m.nrows());
            let err = y.expect_err(what);
            assert!(err.contains("decode matrix"), "{what}: {err}");
            assert_eq!(pinned, 0, "{what}: the failed task kept a pin");
            assert_eq!(
                (checks.get(), skipped.get()),
                (counts.0 + 1, counts.1),
                "{what}"
            );
        }
    });
}

/// A matrix validated once is trusted only while its bytes stay resident:
/// the second multiply in core skips the validation, but after an `Evict`
/// the reload is checked again, so a block file rewritten behind the
/// storage layer's back — same size, a column index out of range or two
/// columns out of order inside a row — fails the task with the typed
/// decode error, never a panic, a skipped check or a product.
#[test]
fn corruption_after_a_reload_is_caught_by_a_matrix_checked_before() {
    corruption_after_a_reload_is_caught("reload", sample);
}

/// The same for a cell with fewer entries than rows: the reload's first
/// multiply checks it as it multiplies, and refuses it.
#[test]
fn corruption_after_a_reload_is_caught_by_a_hypersparse_first_touch() {
    corruption_after_a_reload_is_caught("reload-hyper", hypersparse_sample);
}

fn corruption_after_a_reload_is_caught(tag: &'static str, sample: fn() -> (CsrMatrix, Vec<f64>)) {
    let [checks, skipped] = check_counters();
    run_node(tag, move |sc| {
        let (m, x) = sample();
        let (good, first_col) = encoding(&m);
        let (alen, xlen, ylen) = (good.len() as u64, 8 * x.len() as u64, 8 * m.nrows());
        let ys = ["y0", "y1", "y2", "y3"];
        let mut geometry: HashMap<String, (u64, u64)> =
            ys.iter().map(|y| (y.to_string(), (ylen, ylen))).collect();
        geometry.insert("A".into(), (alen, alen));
        geometry.insert("x".into(), (xlen, xlen));
        let pool = ComputePool::new(1);
        {
            let mut stage = WorkerContext::new(0, 1, sc, &geometry, &pool);
            stage
                .write_bytes("A", Bytes::from(good.clone()))
                .expect("A");
            stage.write_f64s("x", &x).expect("x");
        }
        let multiply = |sc: &mut StorageClient, y: &str| {
            let task = TaskSpec::new(y, "multiply")
                .input("A", alen)
                .input("x", xlen)
                .output(y, ylen);
            let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
            let result = SpmvExecutor
                .execute(&task, &mut ctx)
                .and_then(|()| ctx.read_f64s(y));
            assert_eq!(
                ctx.storage().outstanding_grants(),
                0,
                "{y}: a pin outlived it"
            );
            result
        };
        let counts = || (checks.get(), skipped.get());
        let want = bits(&m.spmv(&x).expect("dims"));
        let before = counts();
        assert_eq!(bits(&multiply(sc, "y0").expect("first")), want);
        assert_eq!(
            counts(),
            (before.0 + 1, before.1),
            "the first multiply validates"
        );
        assert_eq!(bits(&multiply(sc, "y1").expect("second")), want);
        assert_eq!(
            counts(),
            (before.0 + 1, before.1 + 1),
            "the second finds it checked"
        );

        // Two columns of one row, swapped: a descending pair inside it.
        let row: Vec<u64> = m.triplets().map(|(r, _, _)| r).collect();
        let k = (0..row.len() - 1)
            .find(|&k| row[k] == row[k + 1])
            .expect("a row with two entries");
        type Corrupt = Box<dyn Fn(&mut [u8])>;
        let ncols = m.ncols() as u32;
        let corruptions: [(&str, Corrupt); 2] = [
            (
                "column index == ncols",
                Box::new(move |b| {
                    b[first_col..first_col + 4].copy_from_slice(&ncols.to_le_bytes())
                }),
            ),
            (
                "descending pair in a row",
                Box::new(move |b| {
                    let at = first_col + 4 * k;
                    let (lo, hi) = b[at..at + 8].split_at_mut(4);
                    lo.swap_with_slice(hi);
                }),
            ),
        ];
        let file = scratch(tag).join("A@0");
        for ((what, corrupt), y) in corruptions.into_iter().zip(["y2", "y3"]) {
            // On disk, then out of memory: the next read loads the file.
            sc.persist("A").expect("persist");
            sc.evict("A").expect("evict");
            let mut raw = std::fs::read(&file).expect("spilled block");
            assert_eq!(raw, good, "{what}: the spill wrote the block");
            corrupt(&mut raw);
            std::fs::write(&file, &raw).expect("rewrite at the same size");
            // Refused bytes are not marked checked: a retry on the same
            // residency checks them again.
            for attempt in 0..2 {
                let before = counts();
                let err = multiply(sc, y).expect_err(what);
                assert!(err.contains("decode matrix"), "{what}: {err}");
                let checked = (before.0 + 1, before.1);
                assert_eq!(counts(), checked, "{what}: attempt {attempt} was checked");
            }
            std::fs::write(&file, &good).expect("restore");
        }
    });
}

#[test]
fn sum_folds_partials_from_their_bytes_bitwise() {
    run_node("sum", |sc| {
        // An odd length; a -0.0 the first partial must carry through
        // (0.0 + -0.0 would lose its sign); NaNs with payloads, signalling
        // in the first partial, quiet in a later one.
        let n = 16_389;
        let mut parts: Vec<Vec<f64>> = (0..3)
            .map(|p| {
                (0..n)
                    .map(|i| {
                        if i == 7 {
                            -0.0
                        } else {
                            ((i + p * 31) as f64 * 0.013).sin()
                        }
                    })
                    .collect()
            })
            .collect();
        parts[0][11] = f64::from_bits(0x7ff0_0000_0000_beef);
        parts[1][12] = f64::from_bits(0xfff8_0000_dead_0001);
        parts[0][13] = -0.0;
        parts[1][13] = 0.0;
        let len = 8 * n as u64;
        let mut geometry: HashMap<String, (u64, u64)> =
            (0..3).map(|p| (format!("p{p}"), (len, len))).collect();
        geometry.insert("p2".into(), (len, len / 3 + 5)); // one spans blocks
        geometry.insert("s".into(), (len, len));
        geometry.insert("s0".into(), (len, len));
        let pool = ComputePool::new(1);
        {
            let mut stage = WorkerContext::new(0, 1, sc, &geometry, &pool);
            for (p, v) in parts.iter().enumerate() {
                stage
                    .write_bytes(&format!("p{p}"), Bytes::from(le_bytes(v)))
                    .expect("partial");
            }
        }
        let mut task = TaskSpec::new("s", "sum").output("s", len);
        for p in 0..3 {
            task = task.input(format!("p{p}"), len);
        }
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        SpmvExecutor.execute(&task, &mut ctx).expect("sum");
        // Only the multi-block partial: the sum accumulates in the buffer
        // that becomes its block, so nothing is serialized.
        assert_eq!(ctx.copied_bytes(), len);
        let got = ctx.read_f64s("s").expect("read");
        assert_eq!(ctx.storage().outstanding_grants(), 0);
        let mut want = parts[0].clone();
        for p in &parts[1..] {
            dense::axpy(1.0, p, &mut want);
        }
        assert_eq!(bits(&got), bits(&want));
        assert!(got[7].is_sign_negative(), "-0.0 + -0.0 + -0.0 is -0.0");
        assert!(got[11].is_nan() && got[12].is_nan());
        assert!(got[13].is_sign_positive(), "-0.0 + 0.0 + x");

        // A sum of one partial is its bytes, bit for bit.
        let task = TaskSpec::new("s0", "sum")
            .input("p0", len)
            .output("s0", len);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        SpmvExecutor.execute(&task, &mut ctx).expect("sum of one");
        assert_eq!(bits(&ctx.read_f64s("s0").expect("read")), bits(&parts[0]));
    });
}
