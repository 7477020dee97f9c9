//! Tests of the worker data plane: pipelined reads must return the written
//! bytes exactly under arbitrary array geometries, the
//! zero-copy f64 decode must survive block-straddling values, and the
//! node's answer to "which arrays are resident" must name exactly the arrays
//! whose every block is in memory.

use bytes::Bytes;
use dooc_core::WorkerContext;
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_sparse::ComputePool;
use dooc_storage::meta::Interval;
use dooc_storage::{BlockPool, StorageClient, StorageCluster};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let d = std::env::temp_dir()
                .join(format!("dooc-dataplane-{tag}-{}-{i}", std::process::id()));
            std::fs::remove_dir_all(&d).ok();
            std::fs::create_dir_all(&d).expect("mkdir");
            d
        })
        .collect()
}

/// Runs `driver(&mut client)` against a fresh single-node storage cluster and
/// cleans up the scratch directory afterwards.
fn run_node<F>(tag: &str, budget: u64, driver: F)
where
    F: Fn(&mut StorageClient) + Send + Sync + 'static,
{
    run_node_pooled(tag, budget, move |sc, _| driver(sc))
}

/// [`run_node`] for drivers that also want the node's buffer pool.
fn run_node_pooled<F>(tag: &str, budget: u64, driver: F)
where
    F: Fn(&mut StorageClient, &BlockPool) + Send + Sync + 'static,
{
    let dirs = scratch_dirs(tag, 1);
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, dirs.clone(), budget, 7);
    let blocks = cluster.block_pool(0).clone();
    let driver = Arc::new(move |sc: &mut StorageClient| driver(sc, &blocks));
    let drivers = layout.add_replicated("driver", vec![NodeId(0)], move |_| {
        let driver = Arc::clone(&driver);
        Box::new(
            move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                let to = ctx.take_output("sreq")?;
                let from = ctx.take_input("srep")?;
                let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                // A failed assertion in the driver must fail the run, not
                // hang it: the storage node serves until its client says
                // shutdown, so say it before the panic propagates.
                let run = catch_unwind(AssertUnwindSafe(|| driver(&mut sc)));
                sc.shutdown().ok();
                if let Err(panic) = run {
                    resume_unwind(panic);
                }
                Ok(())
            },
        )
    });
    let base = cluster.attach_clients(&mut layout, drivers, 1, "sreq", "srep");
    assert_eq!(base, 0);
    Runtime::run(layout).expect("cluster run");
    for d in &dirs {
        std::fs::remove_dir_all(d).ok();
    }
}

fn geometry_of(name: &str, len: u64, bs: u64) -> HashMap<String, (u64, u64)> {
    let mut g = HashMap::new();
    g.insert(name.to_string(), (len, bs));
    g
}

/// Deterministic pseudo-random payload (keeps proptest inputs small: only
/// the geometry and a seed shrink, not the whole byte vector).
fn payload(len: u64, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipelined read path returns exactly what was written for
    /// arbitrary length/block-size geometries, including block sizes that
    /// are not f64-aligned.
    #[test]
    fn pipelined_read_returns_the_written_bytes(
        len in 1u64..3_000,
        bs in 1u64..700,
        seed in 0u64..u64::MAX,
    ) {
        run_node("prop", 1 << 22, move |sc| {
            let geometry = geometry_of("a", len, bs);
            let pool = ComputePool::new(1);
            let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
            let data = payload(len, seed);
            ctx.write_bytes("a", Bytes::from(data.clone())).expect("write");
            let pipelined = ctx.read_array("a").expect("pipelined read");
            assert_eq!(pipelined, data, "pipelined read differs from written bytes");
        });
    }

    /// The zero-copy f64 decode (values straddling block boundaries when the
    /// block size is not a multiple of 8) matches decoding the flat buffer.
    #[test]
    fn straddling_f64_decode_matches_flat(
        nvals in 1usize..256,
        bs in 1u64..64,
        seed in 0u64..u64::MAX,
    ) {
        run_node("propf64", 1 << 22, move |sc| {
            let len = (nvals * 8) as u64;
            let geometry = geometry_of("v", len, bs);
            let pool = ComputePool::new(1);
            let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
            let raw = payload(len, seed);
            let expected: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(c);
                    f64::from_le_bytes(b)
                })
                .collect();
            ctx.write_bytes("v", Bytes::from(raw)).expect("write");
            let got = ctx.read_f64s("v").expect("read f64s");
            let same = got.len() == expected.len()
                && got.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "straddle-decoded f64s differ from flat decode");
        });
    }
}

/// More blocks than the pipeline window: the refill path must keep the
/// stream bounded while still reading every block, on both the copy-out and
/// the view paths.
#[test]
fn pipelined_read_beyond_window() {
    run_node("window", 1 << 23, |sc| {
        let (len, bs) = (4096u64, 7u64); // 586 blocks >> PIPELINE_WINDOW
        let geometry = geometry_of("big", len, bs);
        let pool = ComputePool::new(1);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        let data = payload(len, 42);
        ctx.write_bytes("big", Bytes::from(data.clone()))
            .expect("write");
        assert_eq!(ctx.read_array("big").expect("read"), data);
        assert_eq!(
            ctx.storage().outstanding_grants(),
            0,
            "read_array must hand every pin back once its copy is done"
        );
        let view = ctx.read_view("big").expect("view");
        assert_eq!(view.blocks().len(), 586);
        assert_eq!(view.to_vec(), data);
        assert_eq!(view.len(), len);
        drop(view);
        assert_eq!(
            ctx.storage().outstanding_grants(),
            0,
            "dropping the view must hand every pin back"
        );
    });
}

/// `ArrayView::contiguous`: a single-block array lends the very buffer its
/// guard pins (nothing copied, nothing counted); an array that spans blocks
/// is assembled once and the copy is charged to the context. Either way the
/// pins go back when the view drops, not before.
#[test]
fn contiguous_lends_a_single_block_and_assembles_several() {
    run_node("contig", 1 << 22, |sc| {
        let mut geometry = geometry_of("one", 1000, 1000);
        geometry.insert("many".to_string(), (1000, 333));
        let pool = ComputePool::new(1);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        let data = payload(1000, 9);
        for name in ["one", "many"] {
            ctx.write_bytes(name, Bytes::from(data.clone()))
                .expect("write");
        }
        let before = ctx.copied_bytes();

        let view = ctx.read_view("one").expect("view");
        let flat = view.contiguous(&mut ctx);
        assert_eq!(flat, data);
        assert_eq!(
            flat.as_ptr(),
            view.blocks()[0].1.bytes().as_ptr(),
            "a single block must be lent, not copied"
        );
        assert_eq!(ctx.copied_bytes(), before, "nothing was copied");
        assert_eq!(ctx.storage().outstanding_grants(), 1, "pinned while held");
        drop(view);
        assert_eq!(ctx.storage().outstanding_grants(), 0);

        let view = ctx.read_view("many").expect("view");
        assert_eq!(view.blocks().len(), 4);
        let flat = view.contiguous(&mut ctx);
        assert_eq!(flat, data);
        assert_eq!(ctx.copied_bytes(), before + 1000, "the assembly is counted");
        drop(view);
        assert_eq!(ctx.storage().outstanding_grants(), 0);
    });
}

/// The zero-copy contract of the worker's write path: the `Bytes` a task
/// writes into a single-block array is the storage node's sealed block, so
/// a later `read_view(..).contiguous()` lends that very allocation back.
/// Once the block has been evicted it lives on disk only, and the next read
/// gets the buffer the I/O filter loaded it into — one spill, one load.
#[test]
fn written_block_is_lent_back_by_pointer_until_it_is_evicted() {
    run_node("adopt", 1 << 22, |sc| {
        let geometry = geometry_of("v", 4096, 4096);
        let pool = ComputePool::new(1);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        let written = Bytes::from(payload(4096, 3));
        ctx.write_bytes("v", written.clone()).expect("write");

        let view = ctx.read_view("v").expect("view");
        let lent = view.contiguous(&mut ctx);
        assert_eq!(
            lent.as_ptr(),
            written.as_ptr(),
            "the block is the buffer written"
        );
        assert_eq!(ctx.copied_bytes(), 0);
        drop((view, lent));

        ctx.storage().evict("v").expect("evict");
        while ctx.storage().stats().expect("stats").evictions == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let view = ctx.read_view("v").expect("view after reload");
        let reloaded = view.contiguous(&mut ctx);
        assert_eq!(reloaded, written, "same bytes");
        assert_ne!(
            reloaded.as_ptr(),
            written.as_ptr(),
            "from the reload buffer"
        );
        assert_eq!(ctx.copied_bytes(), 0, "still nothing copied by the worker");
        drop((view, reloaded));
        let st = ctx.storage().stats().expect("stats");
        assert_eq!(
            (st.disk_write_bytes, st.disk_read_bytes, st.evictions),
            (4096, 4096, 1),
            "one spill, one load"
        );
    });
}

/// One allocation, three tenants: the buffer a task serialized its output
/// into is the stored block; deleted, it is the buffer the next output is
/// serialized into; evicted, it is the buffer the I/O filter reloads the
/// block into. The pool hands it on each time with nothing plumbed back.
#[test]
fn an_output_buffer_serves_the_next_output_and_then_the_reload() {
    run_node_pooled("recycle", 1 << 22, |sc, blocks| {
        const N: usize = 8000;
        let geometry: HashMap<String, (u64, u64)> = ["a", "b"]
            .map(|n| (n.to_string(), (8 * N as u64, 8 * N as u64)))
            .into();
        let pool = ComputePool::new(1);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool).with_block_pool(blocks);
        let block_ptr = |ctx: &mut WorkerContext, name: &str| {
            let view = ctx.read_view(name).expect("view");
            view.contiguous(ctx).as_ptr()
        };
        let until = |what: &str, done: &dyn Fn() -> bool| {
            for _ in 0..5000 {
                if done() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("timed out waiting for {what}");
        };

        let xs: Vec<f64> = (0..N).map(|i| i as f64 * 0.5).collect();
        ctx.write_f64s("a", &xs).expect("write a");
        assert_eq!(ctx.copied_bytes(), 8 * N as u64, "accounting unchanged");
        let first = block_ptr(&mut ctx, "a");
        assert_eq!(blocks.retained_bytes(), 0, "the storage layer holds it");

        ctx.storage().delete("a").expect("delete");
        until("the dead block's buffer", &|| blocks.retained_bytes() > 0);
        let ys: Vec<f64> = xs.iter().map(|x| -x).collect();
        ctx.write_f64s("b", &ys).expect("write b");
        assert_eq!(block_ptr(&mut ctx, "b"), first, "b lives where a did");
        assert_eq!(blocks.retained_bytes(), 0);

        ctx.storage().evict("b").expect("evict");
        until("the spill", &|| blocks.retained_bytes() > 0);
        assert_eq!(ctx.read_f64s("b").expect("reload"), ys);
        assert_eq!(
            block_ptr(&mut ctx, "b"),
            first,
            "reloaded into the same buffer"
        );
        let st = ctx.storage().stats().expect("stats");
        assert_eq!((st.evictions, st.disk_read_bytes), (1, 8 * N as u64));
    });
}

/// The worker's oracle asked of a live node: an array is resident exactly
/// while every one of its blocks is sealed and in memory — not while a block
/// is unwritten or only on disk, again once it is read back, and never after
/// it is deleted.
#[test]
fn resident_names_the_arrays_whose_every_block_is_in_memory() {
    run_node("resident", 1 << 22, |sc| {
        let geometry: HashMap<String, (u64, u64)> = ["a", "part"]
            .map(|n| (n.to_string(), (100, 40))) // 3 blocks each
            .into();
        let pool = ComputePool::new(1);
        let mut ctx = WorkerContext::new(0, 1, sc, &geometry, &pool);
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<HashSet<_>>();
        let resident = |ctx: &mut WorkerContext| ctx.storage().resident().expect("resident");
        ctx.write_bytes("a", Bytes::from(payload(100, 7)))
            .expect("write");
        let sc = ctx.storage();
        sc.create("part", 100, 40).expect("create");
        for b in 0..2 {
            sc.write("part", Interval::new(b * 40, 40), Bytes::from(vec![1; 40]))
                .expect("write");
        }
        assert_eq!(resident(&mut ctx), names(&["a"]), "two of three blocks");
        ctx.storage().evict("a").expect("evict");
        for _ in 0..5000 {
            if resident(&mut ctx).is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(resident(&mut ctx), names(&[]), "spilled and evicted");
        assert_eq!(ctx.read_array("a").expect("reload"), payload(100, 7));
        assert_eq!(resident(&mut ctx), names(&["a"]), "read back");
        ctx.storage().delete("a").expect("delete");
        assert_eq!(resident(&mut ctx), names(&[]));
    });
}
