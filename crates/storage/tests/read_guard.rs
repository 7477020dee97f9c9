//! Property test for the RAII read-guard protocol: however guards are
//! acquired, held, cloned into collections, and dropped, every read pin
//! must be handed back — `outstanding_grants()` returns to zero and the
//! unpinned blocks become evictable.

use bytes::Bytes;
use dooc_filterstream::{FilterContext, Layout, NodeId, Runtime};
use dooc_storage::meta::Interval;
use dooc_storage::{ReadGuard, StorageClient, StorageCluster};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const NBLOCKS: u64 = 4;
const BLOCK: u64 = 64;

/// One step of the driver script: acquire a pin on a block, or drop the
/// oldest / newest held guard.
#[derive(Clone, Copy, Debug)]
enum Step {
    Acquire(u64),
    DropOldest,
    DropNewest,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..NBLOCKS).prop_map(Step::Acquire),
        Just(Step::DropOldest),
        Just(Step::DropNewest),
    ]
}

fn run_single_node<F>(tag: &str, driver: F)
where
    F: Fn(&mut StorageClient) + Send + Sync + 'static,
{
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dooc-readguard-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut layout = Layout::new();
    let mut cluster = StorageCluster::build(&mut layout, vec![dir.clone()], 1 << 20, 7);
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

/// Writes a 4-block array and replays `steps`, keeping held guards in a
/// deque. At the end all remaining guards drop, the grant count must hit
/// zero, and an explicit evict must be able to push every block out of
/// memory (nothing left pinned).
fn check_script(tag: &str, steps: Vec<Step>) {
    run_single_node(tag, move |sc| {
        sc.create("arr", NBLOCKS * BLOCK, BLOCK).expect("create");
        for b in 0..NBLOCKS {
            sc.write(
                "arr",
                Interval::new(b * BLOCK, BLOCK),
                Bytes::from(vec![b as u8; BLOCK as usize]),
            )
            .expect("write");
        }
        let mut held: Vec<ReadGuard> = Vec::new();
        for step in &steps {
            match *step {
                Step::Acquire(b) => {
                    let g = sc
                        .read("arr", Interval::new(b * BLOCK, BLOCK))
                        .expect("read");
                    assert_eq!(g.array(), "arr");
                    assert_eq!(g.interval(), Interval::new(b * BLOCK, BLOCK));
                    assert_eq!(&g[..], &vec![b as u8; BLOCK as usize][..]);
                    held.push(g);
                }
                Step::DropOldest => {
                    if !held.is_empty() {
                        drop(held.remove(0));
                    }
                }
                Step::DropNewest => {
                    held.pop();
                }
            }
            assert_eq!(
                sc.outstanding_grants(),
                held.len() as u64,
                "grant count tracks live guards exactly"
            );
        }
        drop(held);
        assert_eq!(sc.outstanding_grants(), 0, "all pins returned on drop");
        // With zero pins every block must be evictable: spill + evict, then
        // poll until the node holds no byte of the array in memory.
        sc.evict("arr").expect("evict");
        for attempt in 0..200 {
            let gone = !sc.resident().expect("resident").contains("arr");
            if gone && sc.stats().expect("stats").resident_bytes == 0 {
                return;
            }
            if attempt % 20 == 19 {
                // Spills may still be in flight; re-request the eviction.
                sc.evict("arr").expect("re-evict");
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("blocks still resident after drop + evict: pins leaked");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dropped_guards_balance_refcounts(steps in proptest::collection::vec(step_strategy(), 1..24)) {
        check_script("prop", steps);
    }
}

/// A guard's checked mark round-trips through the node: a guard that
/// `mark_checked`s releases the block as checked and the next guard reports
/// it; a guard that does not mark leaves the block unchecked.
#[test]
fn only_a_guard_that_marks_releases_as_checked() {
    run_single_node("mark", |sc| {
        let iv = Interval::new(0, BLOCK);
        sc.create("late", BLOCK, BLOCK).expect("create");
        // Nothing is written yet: the read is logged, and the seal serves it
        // while the client waits for its own write.
        let t = sc.read_async("late", iv).expect("read");
        sc.write("late", iv, Bytes::from(vec![3u8; BLOCK as usize]))
            .expect("write");
        let g = sc.wait_read(t).expect("logged read served");
        assert!(!g.checked(), "a fresh seal");
        drop(g);
        let mut g = sc.read("late", iv).expect("read");
        assert!(!g.checked(), "neither release marked it");
        g.mark_checked();
        drop(g);
        let g = sc.read("late", iv).expect("read");
        assert!(g.checked(), "the marking release did");
        drop(g);
        assert_eq!(sc.outstanding_grants(), 0);
    });
}

#[test]
fn interleaved_acquire_drop_balances() {
    check_script(
        "fixed",
        vec![
            Step::Acquire(0),
            Step::Acquire(1),
            Step::DropOldest,
            Step::Acquire(2),
            Step::Acquire(3),
            Step::DropNewest,
            Step::Acquire(0),
            Step::DropOldest,
        ],
    );
}
