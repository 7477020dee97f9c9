//! End-to-end tests of the storage layer running as real filters: per-node
//! storage + I/O filters on the dataflow runtime, driver clients on every
//! node, real scratch directories.

use bytes::Bytes;
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_storage::meta::Interval;
use dooc_storage::{StorageClient, StorageCluster};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let d =
                std::env::temp_dir().join(format!("dooc-cluster-{tag}-{}-{i}", std::process::id()));
            std::fs::remove_dir_all(&d).ok();
            std::fs::create_dir_all(&d).expect("mkdir");
            d
        })
        .collect()
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Runs `driver(instance, &mut client)` on every node of a fresh K-node
/// cluster; instance i is placed on node i. Every driver must leave the
/// system quiescent; shutdown is sent automatically when a driver returns.
fn run_cluster<F>(tag: &str, nnodes: usize, budget: u64, driver: F) -> Vec<PathBuf>
where
    F: Fn(usize, &mut StorageClient) + Send + Sync + 'static,
{
    let dirs = scratch_dirs(tag, nnodes);
    run_cluster_in(&dirs, budget, driver);
    dirs
}

/// Same as [`run_cluster`] but over existing scratch directories (for
/// restart-discovery tests).
fn run_cluster_in<F>(dirs: &[PathBuf], budget: u64, driver: F)
where
    F: Fn(usize, &mut StorageClient) + Send + Sync + 'static,
{
    run_cluster_prepared(dirs, budget, |_| {}, driver)
}

/// [`run_cluster_in`] with a look at the assembled cluster before it runs.
fn run_cluster_prepared<F>(
    dirs: &[PathBuf],
    budget: u64,
    prepare: impl FnOnce(&StorageCluster),
    driver: F,
) where
    F: Fn(usize, &mut StorageClient) + Send + Sync + 'static,
{
    try_run_cluster(dirs, budget, prepare, driver).expect("cluster run");
}

/// [`run_cluster_prepared`], returning what the run returns.
fn try_run_cluster<F>(
    dirs: &[PathBuf],
    budget: u64,
    prepare: impl FnOnce(&StorageCluster),
    driver: F,
) -> dooc_filterstream::Result<dooc_filterstream::RuntimeReport>
where
    F: Fn(usize, &mut StorageClient) + Send + Sync + 'static,
{
    let nnodes = dirs.len();
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, dirs.to_vec(), budget, 7);
    prepare(&cluster);
    let driver = Arc::new(driver);
    let nodes: Vec<NodeId> = (0..nnodes).map(NodeId).collect();
    let drivers = layout.add_replicated("driver", nodes, move |_| {
        let driver = Arc::clone(&driver);
        Box::new(
            move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                let to = ctx.take_output("sreq")?;
                let from = ctx.take_input("srep")?;
                // attach_clients assigned this declaration base id 0, so the
                // global client id equals the instance index.
                let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                driver(ctx.instance, &mut sc);
                sc.shutdown().ok();
                Ok(())
            },
        )
    });
    let base = cluster.attach_clients(&mut layout, drivers, nnodes, "sreq", "srep");
    assert_eq!(base, 0);
    Runtime::run(layout)
}

/// A scratch directory the node cannot scan fails the run with an error
/// that names it, instead of starting the node with no arrays (whose
/// staged inputs would then be looked for on peers forever). A scratch
/// directory that does not exist yet is an empty one.
#[test]
fn an_unreadable_scratch_directory_fails_the_run() {
    let dirs = scratch_dirs("unscannable", 1);
    let file = dirs[0].join("not-a-directory");
    std::fs::write(&file, [1u8; 8]).expect("a regular file");
    let err = try_run_cluster(std::slice::from_ref(&file), 1 << 20, |_| {}, |_, _| {})
        .expect_err("a scratch path that is a file cannot be scanned");
    match &err {
        dooc_filterstream::FsError::Filter {
            filter, message, ..
        } => {
            assert_eq!(filter, "storage", "{err}");
            assert!(message.contains(&file.display().to_string()), "{err}");
        }
        other => panic!("expected the storage filter's error, got {other}"),
    }
    let missing = dirs[0].join("not-yet");
    try_run_cluster(&[missing], 1 << 20, |_| {}, |_, _| {}).expect("a missing directory is empty");
    cleanup(&dirs);
}

#[test]
fn single_node_write_read_roundtrip() {
    let dirs = run_cluster("wr", 1, 1 << 20, |_, sc| {
        sc.create("a", 100, 40).expect("create");
        sc.write("a", Interval::new(0, 40), Bytes::from(vec![1u8; 40]))
            .expect("write b0");
        sc.write("a", Interval::new(40, 40), Bytes::from(vec![2u8; 40]))
            .expect("write b1");
        sc.write("a", Interval::new(80, 20), Bytes::from(vec![3u8; 20]))
            .expect("write b2");
        let d = sc.read("a", Interval::new(40, 40)).expect("read");
        assert_eq!(&d[..], &[2u8; 40]);
        drop(d);
        let d = sc.read("a", Interval::new(90, 10)).expect("tail read");
        assert_eq!(&d[..], &[3u8; 10]);
        drop(d);
        assert_eq!(sc.outstanding_grants(), 0, "guards returned every pin");
    });
    cleanup(&dirs);
}

#[test]
fn cross_node_read_via_peer_fetch() {
    // Node 0 writes; node 1 reads without knowing the geometry.
    let dirs = run_cluster("xnode", 3, 1 << 20, |i, sc| match i {
        0 => {
            sc.create("shared", 64, 32).expect("create");
            sc.write("shared", Interval::new(0, 32), Bytes::from(vec![7u8; 32]))
                .expect("write");
            sc.write("shared", Interval::new(32, 32), Bytes::from(vec![8u8; 32]))
                .expect("write");
            // Stay alive until the reader is done: the reader writes a flag
            // array we wait on (pure dataflow synchronization).
            let d = sc.read("flag", Interval::new(0, 1)).expect("flag");
            assert_eq!(&d[..], &[1u8]);
        }
        1 => {
            // Geometry unknown: first read resolves it via peer probing.
            let d = sc
                .read("shared", Interval::new(0, 32))
                .expect("remote read");
            assert_eq!(&d[..], &[7u8; 32]);
            drop(d);
            let d = sc
                .read("shared", Interval::new(32, 32))
                .expect("remote read 2");
            assert_eq!(&d[..], &[8u8; 32]);
            drop(d);
            let st = sc.stats().expect("stats");
            assert_eq!(st.peer_recv_bytes, 64, "both blocks fetched remotely");
            sc.create("flag", 1, 1).expect("flag create");
            sc.write("flag", Interval::new(0, 1), Bytes::from(vec![1u8]))
                .expect("flag write");
        }
        _ => { /* idle node: exercises not-found probing */ }
    });
    cleanup(&dirs);
}

#[test]
fn read_blocks_until_remote_writer_finishes() {
    // Reader asks BEFORE the writer creates the array on another node; the
    // request must eventually succeed (logged at the writer's home once
    // probing reaches it, or found on a later probe).
    let dirs = run_cluster("order", 2, 1 << 20, |i, sc| match i {
        0 => {
            // Give the reader a head start so its request really is early.
            std::thread::sleep(std::time::Duration::from_millis(100));
            sc.create("late", 16, 16).expect("create");
            sc.write("late", Interval::new(0, 16), Bytes::from(vec![5u8; 16]))
                .expect("write");
            let d = sc.read("done", Interval::new(0, 1)).expect("done flag");
            assert_eq!(&d[..], &[1u8]);
        }
        _ => {
            sc.register("late", 16, 16).expect("register hint");
            match sc.read("late", Interval::new(0, 16)) {
                Ok(d) => {
                    assert_eq!(&d[..], &[5u8; 16]);
                }
                Err(e) => {
                    // Racing all-peers-denied is possible if probing beats
                    // the writer; retry once after it must exist.
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    let d = sc
                        .read("late", Interval::new(0, 16))
                        .unwrap_or_else(|e2| panic!("retry failed: {e} then {e2}"));
                    assert_eq!(&d[..], &[5u8; 16]);
                }
            }
            sc.create("done", 1, 1).expect("create");
            sc.write("done", Interval::new(0, 1), Bytes::from(vec![1u8]))
                .expect("write");
        }
    });
    cleanup(&dirs);
}

#[test]
fn out_of_core_spill_and_reload() {
    // Budget of 64 bytes, two 64-byte blocks: writing the second spills the
    // first; reading the first reloads it from scratch.
    let dirs = run_cluster("ooc", 1, 64, |_, sc| {
        sc.create("big", 128, 64).expect("create");
        sc.write("big", Interval::new(0, 64), Bytes::from(vec![1u8; 64]))
            .expect("write b0");
        sc.write("big", Interval::new(64, 64), Bytes::from(vec![2u8; 64]))
            .expect("write b1");
        // Allow the async spill to land.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let st = sc.stats().expect("stats");
        assert!(st.disk_write_bytes >= 64, "spill happened: {st:?}");
        assert!(st.resident_bytes <= 64, "budget respected: {st:?}");
        let d = sc.read("big", Interval::new(0, 64)).expect("reload");
        assert_eq!(&d[..], &[1u8; 64]);
        drop(d);
        let st = sc.stats().expect("stats");
        assert!(st.disk_read_bytes >= 64, "reload went through disk: {st:?}");
        assert!(st.evictions >= 1);
    });
    cleanup(&dirs);
}

#[test]
fn persist_then_restart_discovers_arrays() {
    let dirs = scratch_dirs("restart", 1);
    run_cluster_in(&dirs, 1 << 20, |_, sc| {
        sc.create("kept", 48, 16).expect("create");
        for b in 0..3u64 {
            sc.write(
                "kept",
                Interval::new(b * 16, 16),
                Bytes::from(vec![b as u8 + 1; 16]),
            )
            .expect("write");
        }
        sc.persist("kept").expect("persist");
    });
    // Second life: a brand-new cluster over the same scratch directory must
    // discover the array and serve it.
    run_cluster_in(&dirs, 1 << 20, |_, sc| {
        assert!(sc.resident().expect("resident").is_empty(), "on disk only");
        for b in 0..3u64 {
            let d = sc.read("kept", Interval::new(b * 16, 16)).expect("read");
            assert_eq!(&d[..], &[b as u8 + 1; 16]);
        }
        let st = sc.stats().expect("stats");
        assert_eq!(st.disk_read_bytes, 48, "all blocks discovered on disk");
        assert!(sc.resident().expect("resident").contains("kept"));
    });
    cleanup(&dirs);
}

/// ROADMAP 4, the lying disk: a block file that is shorter, longer or gone
/// by the time it is loaded is a typed error at the reader — after the
/// node's bounded read retries — that leaves no grant behind, and the
/// intact block next to it still reads. With `seed_pool` the blocks are
/// large enough to be pooled and every load finds a recycled buffer that is
/// larger than the block and full of `0xEE`.
fn lying_disk(tag: &str, bs: u64, seed_pool: bool) {
    let dirs = scratch_dirs(tag, 1);
    run_cluster_in(&dirs, 1 << 20, move |_, sc| {
        sc.create("kept", 4 * bs, bs).expect("create");
        for b in 0..4u64 {
            sc.write(
                "kept",
                Interval::new(b * bs, bs),
                Bytes::from(vec![b as u8 + 1; bs as usize]),
            )
            .expect("write");
        }
        sc.persist("kept").expect("persist");
    });
    std::fs::write(dirs[0].join("kept@0"), [1u8; 9]).expect("truncate block 0");
    std::fs::write(dirs[0].join("kept@1"), vec![2u8; 4 * bs as usize]).expect("grow block 1");
    let lost = dirs[0].join("kept@2");
    let seed = move |cluster: &StorageCluster| {
        if seed_pool {
            let pool = cluster.block_pool(0);
            let dirty: Vec<_> = (0..4)
                .map(|_| {
                    let mut buf = pool.take(bs as usize + 1);
                    let cap = buf.capacity();
                    buf.resize(cap, 0xEE);
                    buf
                })
                .collect();
            drop(dirty);
            assert!(pool.retained_bytes() >= 4 * bs as usize);
        }
    };
    run_cluster_prepared(&dirs, 1 << 20, seed, move |_, sc| {
        // Gone after the restart scan found it (a reply proves the node is
        // up): a block missing at startup is just a block nobody has
        // written yet.
        sc.stats().expect("node up");
        std::fs::remove_file(&lost).expect("lose block 2");
        let oversized = format!("(read {})", bs + 1);
        for (b, what) in [(0u64, "(read 9)"), (1, oversized.as_str()), (2, "")] {
            match sc.read("kept", Interval::new(b * bs, bs)) {
                Err(dooc_storage::StorageError::IoFailed(m)) => {
                    assert!(m.contains(&format!("kept@{b}")) && m.contains(what), "{m}")
                }
                other => panic!("block {b}: expected IoFailed, got {other:?}"),
            }
        }
        let d = sc
            .read("kept", Interval::new(3 * bs, bs))
            .expect("intact block");
        assert_eq!(d.len() as u64, bs);
        assert!(d.iter().all(|&b| b == 4), "a previous tenant's byte showed");
        drop(d);
        assert_eq!(sc.outstanding_grants(), 0, "failed reads hold no grant");
        let st = sc.stats().expect("stats");
        assert_eq!(st.disk_read_bytes, bs, "only the intact block was loaded");
        assert_eq!(st.resident_bytes, bs);
    });
    cleanup(&dirs);
}

#[test]
fn truncated_oversized_and_missing_block_files_are_typed_errors() {
    lying_disk("lying", 16, false);
}

#[test]
fn lying_disk_against_a_pool_seeded_with_larger_dirty_buffers() {
    lying_disk("lying-pooled", 8192, true);
}

#[test]
fn staged_plain_file_is_readable_as_array() {
    // Simulates the SpMV setup: a sub-matrix file staged into the scratch
    // directory out-of-band becomes a readable single-block array.
    let dirs = scratch_dirs("staged", 2);
    std::fs::write(dirs[1].join("A_0_0.crs"), vec![9u8; 200]).expect("stage");
    run_cluster_in(&dirs, 1 << 20, |i, sc| {
        if i == 0 {
            // Remote read of a file that lives on node 1's disk.
            let d = sc
                .read("A_0_0.crs", Interval::new(0, 200))
                .expect("remote staged read");
            assert_eq!(&d[..], &[9u8; 200]);
        }
    });
    cleanup(&dirs);
}

#[test]
fn delete_propagates_cluster_wide() {
    let dirs = run_cluster("del", 2, 1 << 20, |i, sc| match i {
        0 => {
            sc.create("gone", 16, 16).expect("create");
            sc.write("gone", Interval::new(0, 16), Bytes::from(vec![1u8; 16]))
                .expect("write");
            // Wait for node 1 to read it (it sets a flag), then delete.
            let d = sc.read("flag", Interval::new(0, 1)).expect("flag");
            assert_eq!(&d[..], &[1u8]);
            drop(d);
            sc.delete("gone").expect("delete");
            let err = sc.read("gone", Interval::new(0, 16));
            assert!(err.is_err(), "deleted array unreadable");
        }
        _ => {
            let d = sc.read("gone", Interval::new(0, 16)).expect("read");
            assert_eq!(&d[..], &[1u8; 16]);
            drop(d);
            sc.create("flag", 1, 1).expect("create");
            sc.write("flag", Interval::new(0, 1), Bytes::from(vec![1u8]))
                .expect("write");
        }
    });
    cleanup(&dirs);
}

#[test]
fn prefetch_brings_block_to_memory() {
    let dirs = scratch_dirs("pf", 1);
    std::fs::write(dirs[0].join("mat"), vec![4u8; 128]).expect("stage");
    run_cluster_in(&dirs, 1 << 20, |_, sc| {
        sc.prefetch("mat").expect("prefetch");
        // Poll until the array is resident (the local scheduler's pattern:
        // issue prefetches, ask what is resident).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            if sc.resident().expect("resident").contains("mat") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "prefetch never landed"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // The read is now served from memory without further disk reads.
        let before = sc.stats().expect("stats").disk_read_bytes;
        let d = sc.read("mat", Interval::new(0, 128)).expect("read");
        assert_eq!(&d[..], &[4u8; 128]);
        drop(d);
        let after = sc.stats().expect("stats").disk_read_bytes;
        assert_eq!(before, after, "no extra disk read after prefetch");
    });
    cleanup(&dirs);
}

/// Negative tests: injected faults the recovery policy does not absorb must
/// surface as the typed errors of the fault model — never as hangs or
/// panics.
mod faults {
    use super::*;
    use dooc_filterstream::{FaultPlan, FaultSpec, Site};
    use dooc_storage::{RecoveryPolicy, StorageError};
    use std::time::Duration;

    /// [`run_cluster_in`] with an explicit recovery policy and fault plan.
    fn run_cluster_faulty<F>(
        dirs: &[PathBuf],
        budget: u64,
        recovery: RecoveryPolicy,
        faults: FaultPlan,
        driver: F,
    ) where
        F: Fn(usize, &mut StorageClient) + Send + Sync + 'static,
    {
        let nnodes = dirs.len();
        let mut layout = Layout::new();
        let mut cluster =
            StorageCluster::build_with(&mut layout, dirs.to_vec(), budget, 7, recovery, faults);
        let driver = Arc::new(driver);
        let nodes: Vec<NodeId> = (0..nnodes).map(NodeId).collect();
        let drivers = layout.add_replicated("driver", nodes, move |_| {
            let driver = Arc::clone(&driver);
            Box::new(
                move |ctx: &mut FilterContext| -> dooc_filterstream::Result<()> {
                    let to = ctx.take_output("sreq")?;
                    let from = ctx.take_input("srep")?;
                    let mut sc = StorageClient::new(to, from, ctx.instance, ctx.instance as u64);
                    driver(ctx.instance, &mut sc);
                    sc.shutdown().ok();
                    Ok(())
                },
            )
        });
        cluster.attach_clients(&mut layout, drivers, nnodes, "sreq", "srep");
        Runtime::run(layout).expect("cluster run");
    }

    #[test]
    fn injected_io_error_without_retries_is_io_failed() {
        let dirs = scratch_dirs("neg-ioerr", 1);
        std::fs::write(dirs[0].join("mat"), vec![3u8; 64]).expect("stage");
        let faults = FaultPlan::new(1).with(Site::IoRead, FaultSpec::error());
        run_cluster_faulty(
            &dirs,
            1 << 20,
            RecoveryPolicy {
                io_retry_max: 0, // retries disabled: the first error is final
            },
            faults.clone(),
            |_, sc| {
                let err = sc
                    .read("mat", Interval::new(0, 64))
                    .expect_err("injected I/O error must fail the read");
                assert!(
                    matches!(err, StorageError::IoFailed(_)),
                    "expected typed IoFailed, got {err:?}"
                );
            },
        );
        assert_eq!(faults.injected(Site::IoRead), 1);
        cleanup(&dirs);
    }

    /// Every disk write fails on one node whose budget forces spills: the
    /// spills of an array four times the budget fail (the blocks stay
    /// resident, over budget, and are spilled again), and its persist ends
    /// in a typed [`StorageError::Io`] within the deadline, never a hang.
    /// So does a second persist, which writes again at least the block
    /// whose failure ended the first: how many spills failed before the
    /// first persist depends on when their errors reached the node, so the
    /// second one is what makes a retried spill certain.
    #[test]
    fn failing_writes_end_a_persist_in_a_typed_io_error() {
        const BLOCK: u64 = 4096;
        const BLOCKS: u64 = 16;
        let dirs = scratch_dirs("neg-write", 1);
        let faults = FaultPlan::new(1).with(Site::IoWrite, FaultSpec::error());
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let (run_dirs, run_faults) = (dirs.clone(), faults.clone());
        let run = std::thread::spawn(move || {
            run_cluster_faulty(
                &run_dirs,
                BLOCKS * BLOCK / 4,
                RecoveryPolicy::default(),
                run_faults,
                move |_, sc| {
                    sc.create("v", BLOCKS * BLOCK, BLOCK).expect("create");
                    for b in 0..BLOCKS {
                        let iv = Interval::new(b * BLOCK, BLOCK);
                        sc.write("v", iv, Bytes::from(vec![b as u8; BLOCK as usize]))
                            .expect("a write lands in memory");
                    }
                    let first = sc.persist("v");
                    tx.send((first, sc.persist("v")))
                        .expect("report the persists");
                },
            )
        });
        let persisted = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the persists must end, not hang");
        for persisted in [persisted.0, persisted.1] {
            let err = persisted.expect_err("no write reached the disk");
            assert!(
                matches!(&err, StorageError::Io(m) if m.contains("injected fault at storage.io.write")),
                "expected a typed Io error, got {err:?}"
            );
        }
        run.join().expect("cluster run");
        let failed = faults.injected(Site::IoWrite);
        assert!(
            failed > BLOCKS,
            "spills were retried: {failed} write faults"
        );
        cleanup(&dirs);
    }
}

#[test]
fn many_concurrent_async_reads() {
    // One node, many interleaved outstanding reads (the overlap pattern the
    // local scheduler relies on).
    let dirs = scratch_dirs("async", 1);
    std::fs::write(dirs[0].join("blob"), (0..=255u8).collect::<Vec<u8>>()).expect("stage");
    run_cluster_in(&dirs, 1 << 20, |_, sc| {
        sc.register("blob", 256, 256).expect("register");
        let tickets: Vec<_> = (0..16u64)
            .map(|k| {
                sc.read_async("blob", Interval::new(k * 16, 16))
                    .expect("issue")
            })
            .collect();
        for (k, t) in tickets.into_iter().enumerate().rev() {
            let d = sc.wait_read(t).expect("wait");
            let want: Vec<u8> = (k as u64 * 16..k as u64 * 16 + 16)
                .map(|x| x as u8)
                .collect();
            assert_eq!(&d[..], &want[..]);
            assert_eq!(d.array(), "blob");
            assert_eq!(d.interval(), Interval::new(k as u64 * 16, 16));
        }
        assert_eq!(sc.outstanding_grants(), 0);
    });
    cleanup(&dirs);
}
