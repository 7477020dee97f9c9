//! Residency: what a block costs in memory, and how it leaves.
//!
//! A block's resident bytes ([`BlockMem`]) are charged to the budget for the
//! block's full length, from just before they are installed until they
//! leave. When resident bytes exceed the budget, `reclaim` walks the LRU
//! oldest first; a client's `Evict` does the same for one array. Both free
//! a block through `release_block`, which takes one of the two exits
//! written here once: `evict_block` when a disk copy exists, or
//! `spill_block` first and `evict_block` when the write lands
//! (`spill_done`). `persist` uses `spill_block` without the eviction.
//!
//! The LRU has two regions: every use files a block as warm, a client's
//! `Demote` (no ready task reads the array) refiles its resident blocks as
//! cold, and cold blocks sort before warm ones, oldest demotion first. The
//! one walk therefore takes what the scheduler is done with before anything
//! it may still read.

use super::{storage_obs, Action, BlockInfo, StorageState};
use crate::proto::{IoCmd, Reply};
use crate::StorageError;
use bytes::Bytes;
use std::collections::HashSet;
use std::ops::Bound;

/// Where a block is filed in the LRU: `(warm, clock)`. A cold (demoted)
/// key sorts before every warm one; within a region the older goes first.
pub(super) type LruKey = (bool, u64);

/// A block's resident bytes, sealed: reads are zero-copy slices. Charged to
/// the budget for the block's full length while they are here.
#[derive(Clone, Hash)]
pub(super) struct BlockMem {
    /// The block's bytes.
    pub(super) data: Bytes,
    /// A reader checked these bytes and said so on release (what the check
    /// was is the reader's business: a `multiply` validates a matrix). Born
    /// `false` with every install — write, load, peer fetch — and dropped
    /// with the bytes, so it never outlives the residency it describes.
    pub(super) checked: bool,
}

impl BlockMem {
    /// Newly installed sealed bytes: nobody has checked them yet.
    pub(super) fn sealed(data: Bytes) -> Self {
        BlockMem {
            data,
            checked: false,
        }
    }
}

impl BlockInfo {
    /// Issues the implicit out-of-core read of this block unless one is in
    /// flight: every reader, local or peer, of a block on disk shares one
    /// load.
    pub(super) fn load(&mut self, array: String, block: u64, len: u64, out: &mut Vec<Action>) {
        if !self.loading {
            self.loading = true;
            out.push(Action::Io(IoCmd::Read { array, block, len }));
        }
    }
}

impl StorageState {
    // -- LRU and budget -----------------------------------------------------

    /// A use of the block: filed as warm, newest.
    pub(super) fn touch(&mut self, array: &str, block: u64) {
        self.file(array, block, true);
    }

    /// Files a known block at the young end of its region.
    fn file(&mut self, array: &str, block: u64, warm: bool) {
        let Some(info) = self
            .arrays
            .get_mut(array)
            .and_then(|a| a.blocks.get_mut(&block))
        else {
            return; // unknown block: nothing to age
        };
        if let Some(key) = info.lru {
            self.lru.remove(&key);
        }
        self.clock += 1;
        let key = (warm, self.clock);
        info.lru = Some(key);
        self.lru.insert(key, (array.to_string(), block));
    }

    pub(super) fn lru_remove(&mut self, key: Option<LruKey>) {
        if let Some(key) = key {
            self.lru.remove(&key);
        }
    }

    /// Hint that no ready task reads `array`: its resident blocks are
    /// refiled as cold, in block order, so reclaim takes them before any
    /// warm block. Pins, loads and spills are untouched; an unknown or
    /// deleted array is a no-op.
    pub(super) fn demote(&mut self, array: &str) {
        let Some(ainfo) = self.arrays.get(array) else {
            return;
        };
        let mut blocks: Vec<u64> = ainfo
            .blocks
            .iter()
            .filter(|(_, info)| info.mem.is_some())
            .map(|(&b, _)| b)
            .collect();
        blocks.sort_unstable();
        storage_obs().blocks_demoted.add(blocks.len() as u64);
        for block in blocks {
            self.file(array, block, false);
        }
    }

    pub(super) fn charge(&mut self, bytes: u64, out: &mut Vec<Action>) {
        self.resident += bytes;
        self.reclaim(out);
    }

    pub(super) fn discharge(&mut self, bytes: u64) {
        debug_assert!(self.resident >= bytes);
        self.resident -= bytes;
    }

    /// LRU reclamation: walk blocks cold first, then least-recently-used
    /// first, and free unpinned sealed ones until the budget holds,
    /// counting spills in flight as already freed.
    fn reclaim(&mut self, out: &mut Vec<Action>) {
        let budget = self.cfg.memory_budget;
        let mut projected = self.resident;
        // Stop once `projected` fits: reclaiming costs the victims it takes,
        // not the blocks it keeps.
        let mut after = Bound::Unbounded;
        while projected > budget {
            let Some((&key, (array, block))) = self.lru.range((after, Bound::Unbounded)).next()
            else {
                break;
            };
            after = Bound::Excluded(key);
            let (array, block) = (array.clone(), *block);
            let why = if key.0 {
                "lru reclaim"
            } else {
                "lru reclaim (cold)"
            };
            if let Some(freed) = self.release_block(&array, block, why, out) {
                projected = projected.saturating_sub(freed);
            }
        }
    }

    /// Explicit programmer-driven eviction of an array's resident blocks.
    pub(super) fn explicit_evict(&mut self, array: &str, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get(array) else {
            return;
        };
        let blocks: Vec<u64> = ainfo.blocks.keys().copied().collect();
        for block in blocks {
            self.release_block(array, block, "explicit", out);
        }
    }

    /// Starts freeing one block's memory: evicts it now if a disk copy
    /// exists, otherwise spills it and evicts when the write lands. Returns
    /// the bytes this frees, now or later; `None` if the block cannot leave
    /// memory (pinned, loading, not resident).
    fn release_block(
        &mut self,
        array: &str,
        block: u64,
        why: &str,
        out: &mut Vec<Action>,
    ) -> Option<u64> {
        let bugs = self.bug();
        let ainfo = self.arrays.get_mut(array)?;
        let block_len = ainfo.meta.block_len(block);
        let info = ainfo.blocks.get_mut(&block)?;
        if (info.pins > 0 && !bugs.evict_ignores_pins) || info.loading || info.mem.is_none() {
            return None;
        }
        if info.spilling {
            info.evict_after_spill = true;
        } else if info.on_disk || bugs.evict_skips_spill {
            self.evict_block(array, block, why);
        } else {
            info.evict_after_spill = true;
            storage_obs().blocks_spilled.inc();
            self.spill_block(array, block, out);
        }
        Some(block_len)
    }

    /// Drops a block's resident bytes: the one place a block leaves memory.
    /// Callers have made sure the bytes are safe on disk.
    fn evict_block(&mut self, array: &str, block: u64, why: &str) {
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return;
        };
        let block_len = ainfo.meta.block_len(block);
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return;
        };
        if info.mem.take().is_none() {
            return;
        }
        info.evict_after_spill = false;
        let key = info.lru.take();
        self.lru_remove(key);
        self.discharge(block_len);
        self.stats.evictions += 1;
        storage_obs().blocks_evicted.inc();
        dooc_obs::instant_arg(
            dooc_obs::Category::Storage,
            "storage:evict",
            self.cfg.node as i64,
            || format!("{array}@{block} ({why})"),
        );
    }

    /// Writes a sealed resident block to the local disk: the one place a
    /// block file is written. Returns whether a write was issued.
    fn spill_block(&mut self, array: &str, block: u64, out: &mut Vec<Action>) -> bool {
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return false;
        };
        let (len, block_size) = (ainfo.meta.len, ainfo.meta.block_size);
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return false;
        };
        let Some(mem) = &info.mem else {
            return false;
        };
        let data = mem.data.clone();
        info.spilling = true;
        out.push(Action::Io(IoCmd::Write {
            array: array.to_string(),
            block,
            len,
            block_size,
            data,
        }));
        true
    }

    /// A spill or persist write landed: the block is on disk, a pending
    /// persist may be complete, and a spill meant to free memory evicts.
    pub(super) fn spill_done(
        &mut self,
        array: &str,
        block: u64,
        bytes: u64,
        out: &mut Vec<Action>,
    ) {
        self.stats.disk_write_bytes += bytes;
        let bugs = self.bug();
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return;
        };
        let mut evict = false;
        if let Some(info) = ainfo.blocks.get_mut(&block) {
            info.spilling = false;
            info.on_disk = true;
            evict = info.evict_after_spill && (info.pins == 0 || bugs.evict_ignores_pins);
        }
        if let Some((req, client, mut awaited)) = ainfo.persist.take() {
            awaited.remove(&block);
            if awaited.is_empty() {
                out.push(Action::Reply {
                    client,
                    reply: Reply::Persisted { req },
                });
            } else {
                ainfo.persist = Some((req, client, awaited));
            }
        }
        if evict {
            self.evict_block(array, block, "after spill");
        }
    }

    /// Installs a whole sealed block that arrived from disk or from a peer:
    /// resident, sealed, unchecked, its waiters served, LRU touched,
    /// budget charged.
    pub(super) fn install_sealed(
        &mut self,
        array: &str,
        block: u64,
        data: Bytes,
        out: &mut Vec<Action>,
    ) {
        let Some(ainfo) = self.arrays.get_mut(array) else {
            return; // deleted while on its way
        };
        let block_len = ainfo.meta.block_len(block);
        let info = ainfo.blocks.entry(block).or_default();
        info.loading = false;
        info.fetch = None;
        let newly = info.mem.is_none();
        info.mem = Some(BlockMem::sealed(data));
        let meta = &ainfo.meta;
        Self::flush_waiters(
            info,
            meta,
            block,
            &mut self.pinned_now,
            &mut self.stats,
            out,
        );
        self.touch(array, block);
        if newly {
            self.charge(block_len, out);
        }
    }

    /// Explicit persist ("the write operations are performed explicitly
    /// upon request of a filter"): writes every sealed block not on disk yet
    /// and replies once those and any spill in flight landed.
    pub(super) fn persist(&mut self, req: u64, client: u64, array: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        if ainfo.persist.is_some() {
            let e = StorageError::Protocol("persist already in progress".into());
            return Self::err(client, req, e, out);
        }
        let mut awaited = HashSet::new();
        let mut unwritten = Vec::new();
        for (&b, info) in &ainfo.blocks {
            if info.spilling {
                awaited.insert(b); // piggyback on the in-flight spill
            } else if info.mem.is_some() && !info.on_disk {
                unwritten.push(b);
            }
        }
        for b in unwritten {
            if self.spill_block(&array, b, out) {
                awaited.insert(b);
            }
        }
        if awaited.is_empty() {
            out.push(Action::Reply {
                client,
                reply: Reply::Persisted { req },
            });
        } else if let Some(ainfo) = self.arrays.get_mut(&array) {
            ainfo.persist = Some((req, client, awaited));
        }
    }

    /// Hint: bring every block of `array` into memory — load the ones on
    /// disk here, fetch the others if the array is produced elsewhere —
    /// skipping resident blocks; a load or fetch already on its way is
    /// joined, not repeated. A hint for an unknown, placeholder or deleted
    /// name is dropped.
    pub(super) fn prefetch(&mut self, array: String, out: &mut Vec<Action>) {
        let Some(ainfo) = self.arrays.get_mut(&array).filter(|a| !a.is_placeholder()) else {
            return;
        };
        let mut remote = Vec::new();
        for block in 0..ainfo.meta.nblocks() {
            let block_len = ainfo.meta.block_len(block);
            match ainfo.blocks.get_mut(&block) {
                Some(info) if info.mem.is_some() => {}
                Some(info) if info.on_disk => info.load(array.clone(), block, block_len, out),
                // Home and unwritten: nothing to do until the writer writes.
                _ if ainfo.home => {}
                _ => remote.push((block, ainfo.meta.block_start(block))),
            }
        }
        for (block, offset) in remote {
            self.start_fetch(array.clone(), block, offset, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::StorageState;
    use crate::meta::Interval;
    use crate::proto::{ClientMsg, IoCmd, IoReply, PeerMsg, Reply};
    use bytes::Bytes;

    fn write_done(st: &mut StorageState, name: &str, block: u64, bytes: u64) -> Vec<super::Action> {
        st.handle_io(IoReply::WriteDone {
            array: name.into(),
            block,
            bytes,
        })
    }

    /// The zero-copy contract of the write path: the `Bytes` a worker
    /// writes over the whole block of a single-block array *is* the sealed
    /// block — what readers are lent and what a spill hands the I/O filter.
    #[test]
    fn whole_block_write_into_a_single_block_array_is_adopted() {
        let mut st = state(1 << 20);
        create(&mut st, "v", 4096, 4096);
        let iv = Interval::new(0, 4096);
        let written = Bytes::from(vec![3u8; 4096]);
        write(&mut st, "v", iv, written.clone());
        let read = read_data(&read(&mut st, 3, 0, "v", iv), 3).expect("served");
        unpin(&mut st, "v", iv);
        assert_eq!(read.as_ptr(), written.as_ptr(), "adopted, not copied");
        assert_eq!(st.resident_bytes(), 4096, "one copy of the block exists");
        match &st.handle_client(ClientMsg::Evict { array: "v".into() })[..] {
            [super::Action::Io(IoCmd::Write { data, .. })] => {
                assert_eq!(
                    data.as_ptr(),
                    written.as_ptr(),
                    "the spill writes that allocation"
                )
            }
            other => panic!("expected one spill, got {other:?}"),
        }
    }

    /// Blocks of a multi-block array arrive as slices of the writer's
    /// array-sized buffer, so each is copied into memory the block owns:
    /// evicting one block then frees exactly that block.
    #[test]
    fn whole_block_write_into_a_two_block_array_is_copied() {
        let mut st = state(1 << 20);
        create(&mut st, "m", 96, 64);
        let array = Bytes::from((0..96u8).collect::<Vec<u8>>());
        let mut blocks = Vec::new();
        for (req, iv) in [(3, Interval::new(0, 64)), (4, Interval::new(64, 32))] {
            let slice = array.slice(iv.offset as usize..iv.end() as usize);
            write(&mut st, "m", iv, slice);
            blocks.push(read_data(&read(&mut st, req, 0, "m", iv), req).expect("served"));
            unpin(&mut st, "m", iv);
        }
        assert_eq!(
            (&blocks[0][..], &blocks[1][..]),
            (&array[..64], &array[64..])
        );
        assert_ne!(
            blocks[0].as_ptr(),
            array.as_ptr(),
            "block 0 owns its memory"
        );
        assert_eq!(st.stats().resident_bytes, 96);
        // Drop block 0 only: spill it, then reclaim on completion.
        st.cfg.memory_budget = 32;
        let mut acts = Vec::new();
        st.reclaim(&mut acts);
        assert!(
            matches!(
                &acts[..],
                [super::Action::Io(IoCmd::Write { block: 0, .. })]
            ),
            "LRU block 0 spills first: {acts:?}"
        );
        write_done(&mut st, "m", 0, 64);
        assert_eq!(
            st.stats().resident_bytes,
            32,
            "evicting block 0 freed exactly block_len(0)"
        );
        assert_eq!(st.stats().evictions, 1);
    }

    #[test]
    fn lru_eviction_spills_then_drops() {
        // Budget of one block: writing a second block must spill the first.
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        assert_eq!(st.resident_bytes(), 32);
        let acts = write_all(&mut st, "a", Interval::new(32, 32), 2);
        let spill = acts.iter().find_map(|a| match a {
            super::Action::Io(IoCmd::Write { array, block, .. }) => Some((array.clone(), *block)),
            _ => None,
        });
        assert_eq!(spill, Some(("a".into(), 0)), "LRU block spilled");
        assert_eq!(st.resident_bytes(), 64, "memory freed only on completion");
        assert!(write_done(&mut st, "a", 0, 32).is_empty());
        assert_eq!(st.resident_bytes(), 32, "block 0 dropped after spill");
        assert_eq!(st.stats().evictions, 1);
    }

    #[test]
    fn evicted_block_reloaded_from_disk() {
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        write_all(&mut st, "a", Interval::new(32, 32), 2);
        write_done(&mut st, "a", 0, 32);
        // Read of block 0 now requires an implicit out-of-core read.
        let acts = read(&mut st, 9, 1, "a", Interval::new(0, 32));
        assert!(matches!(
            &acts[..],
            [super::Action::Io(IoCmd::Read { block: 0, .. })]
        ));
        let acts = st.handle_io(IoReply::ReadDone {
            array: "a".into(),
            block: 0,
            data: Bytes::from(vec![1u8; 32]),
        });
        // The reload evicts block 1 (budget) and serves the read.
        assert_eq!(served(&acts), vec![9]);
        assert_eq!(st.stats().disk_read_bytes, 32);
    }

    /// The checked mark lives and dies with the resident bytes: a load
    /// installs them unchecked — for every read it serves from its waiters —
    /// a marking release sets it, and `Evict` takes it with the bytes, so
    /// the reload is unchecked again.
    #[test]
    fn checked_mark_dies_with_eviction_and_reloads_unchecked() {
        let mut st = on_disk("m", 64, 64, &[0], 1 << 20);
        let whole = Interval::new(0, 64);
        let load = |st: &mut StorageState| {
            st.handle_io(IoReply::ReadDone {
                array: "m".into(),
                block: 0,
                data: Bytes::from(vec![5u8; 64]),
            })
        };
        for round in 0..2 {
            // Two readers wait on the load; both are served unchecked.
            assert_eq!(read(&mut st, 1, 0, "m", whole).len(), 1, "one io read");
            assert!(read(&mut st, 2, 1, "m", whole).is_empty(), "joins the io");
            let acts = load(&mut st);
            for req in [1, 2] {
                let (_, checked) = read_served(&acts, req).expect("served at the load");
                assert!(!checked, "round {round}: read {req} after a load");
            }
            release_read(&mut st, "m", whole, true);
            release_read(&mut st, "m", whole, false);
            let acts = read(&mut st, 3, 0, "m", whole);
            assert_eq!(read_served(&acts, 3).map(|(_, c)| c), Some(true));
            unpin(&mut st, "m", whole);
            let evicted = st.stats().evictions;
            assert!(st
                .handle_client(ClientMsg::Evict { array: "m".into() })
                .is_empty());
            assert_eq!(
                st.stats().evictions,
                evicted + 1,
                "on disk: dropped at once"
            );
        }
    }

    /// A block fetched from a peer is a fresh install: unchecked until a
    /// reader marks it, and the mark goes with the bytes when reclaim
    /// spills and drops them.
    #[test]
    fn peer_fetched_block_installs_unchecked() {
        let mut st = StorageState::new(cfg(0, 2, 64), vec![]);
        st.handle_client(ClientMsg::Register {
            meta: crate::meta::ArrayMeta::new("r", 64, 64),
        });
        let whole = Interval::new(0, 64);
        let acts = read(&mut st, 1, 0, "r", whole);
        let req = match &acts[..] {
            [super::Action::Peer {
                msg: PeerMsg::Fetch { req, .. },
                ..
            }] => *req,
            other => panic!("expected a peer fetch, got {other:?}"),
        };
        let acts = st.handle_peer(PeerMsg::FetchFound {
            req,
            len: 64,
            block_size: 64,
            block: 0,
            data: Bytes::from(vec![9u8; 64]),
        });
        assert_eq!(read_served(&acts, 1).map(|(_, c)| c), Some(false));
        release_read(&mut st, "r", whole, true);
        let acts = read(&mut st, 2, 0, "r", whole);
        assert_eq!(read_served(&acts, 2).map(|(_, c)| c), Some(true));
        unpin(&mut st, "r", whole);
        // A second array pushes the fetched block out: spilled, dropped,
        // reloaded from the local disk unchecked.
        create(&mut st, "w", 64, 64);
        let spill = write_all(&mut st, "w", whole, 1);
        assert!(spill
            .iter()
            .any(|a| matches!(a, super::Action::Io(IoCmd::Write { array, .. }) if array == "r")));
        write_done(&mut st, "r", 0, 64);
        assert!(matches!(
            &read(&mut st, 3, 0, "r", whole)[..],
            [super::Action::Io(IoCmd::Read { .. })]
        ));
        let acts = st.handle_io(IoReply::ReadDone {
            array: "r".into(),
            block: 0,
            data: Bytes::from(vec![9u8; 64]),
        });
        assert_eq!(read_served(&acts, 3).map(|(_, c)| c), Some(false));
        unpin(&mut st, "r", whole);
    }

    #[test]
    fn pinned_blocks_are_not_evicted() {
        let mut st = state(32);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        assert_eq!(
            served(&read(&mut st, 1, 0, "a", Interval::new(0, 32))),
            vec![1]
        );
        // Write block 1: over budget, but block 0 is pinned: it must not be
        // spilled to be dropped. Nor is block 1: the write charges the budget
        // before the block is installed, so its reclaim cannot pick it.
        let acts = write_all(&mut st, "a", Interval::new(32, 32), 2);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, super::Action::Io(IoCmd::Write { .. }))),
            "neither the pinned block nor the one just written is spilled: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 64);
        unpin(&mut st, "a", Interval::new(0, 32));
    }

    /// A prefetch names an array: every block on disk and not yet resident
    /// or loading is loaded, once. A name the node does not know, or knows
    /// only from a read, is dropped.
    #[test]
    fn a_prefetch_loads_every_block_of_an_array_on_disk() {
        let mut st = on_disk("m", 80, 32, &[0, 1, 2], 1 << 20);
        let prefetch = |st: &mut StorageState, name: &str| {
            st.handle_client(ClientMsg::Prefetch { array: name.into() })
        };
        let loads = |acts: &[super::Action]| -> Vec<(u64, u64)> {
            acts.iter()
                .map(|a| match a {
                    super::Action::Io(IoCmd::Read { block, len, .. }) => (*block, *len),
                    other => panic!("expected loads only, got {other:?}"),
                })
                .collect()
        };
        assert_eq!(loads(&prefetch(&mut st, "m")), [(0, 32), (1, 32), (2, 16)]);
        assert!(prefetch(&mut st, "m").is_empty(), "all three on their way");
        let before = st.fingerprint();
        assert!(prefetch(&mut st, "unknown").is_empty());
        assert_eq!(st.fingerprint(), before, "no placeholder for a hint");
        // Block 1 lands: the next prefetch skips it as resident, and the
        // other two are still loading.
        st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 1,
            data: Bytes::from(vec![1u8; 32]),
        });
        assert!(prefetch(&mut st, "m").is_empty());
    }

    #[test]
    fn discovered_blocks_read_from_disk() {
        let mut st = on_disk("m", 100, 100, &[0], 1 << 20);
        let acts = read(&mut st, 1, 0, "m", Interval::new(0, 100));
        assert!(matches!(
            &acts[..],
            [super::Action::Io(IoCmd::Read {
                block: 0,
                len: 100,
                ..
            })]
        ));
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![3u8; 100]),
        });
        assert_eq!(served(&acts), vec![1]);
    }

    #[test]
    fn concurrent_reads_share_one_io() {
        let mut st = on_disk("m", 64, 64, &[0], 1 << 20);
        let a1 = read(&mut st, 1, 0, "m", Interval::new(0, 8));
        let a2 = read(&mut st, 2, 1, "m", Interval::new(8, 8));
        assert_eq!(a1.len(), 1, "one io read");
        assert!(a2.is_empty(), "second read joins the in-flight io");
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![1u8; 64]),
        });
        assert_eq!(served(&acts), vec![1, 2]);
    }

    #[test]
    fn reclaim_takes_the_oldest_blocks_and_only_as_many_as_it_needs() {
        // Four disk-backed blocks resident in a budget of four; one more
        // block arrives. Exactly the least recently used one goes.
        let mut st = on_disk("m", 160, 32, &[0, 1, 2, 3, 4], 128);
        let load = |st: &mut StorageState, b: u64| {
            let iv = Interval::new(32 * b, 32);
            read(st, b, 0, "m", iv);
            st.handle_io(IoReply::ReadDone {
                array: "m".into(),
                block: b,
                data: Bytes::from(vec![b as u8; 32]),
            });
            unpin(st, "m", iv);
        };
        for b in [2, 0, 3, 1] {
            load(&mut st, b);
        }
        assert_eq!((st.resident_bytes(), st.stats().evictions), (128, 0));
        load(&mut st, 4);
        assert_eq!((st.resident_bytes(), st.stats().evictions), (128, 1));
        let in_memory = |st: &StorageState, b: u64| st.arrays["m"].blocks[&b].mem.is_some();
        assert!(!in_memory(&st, 2), "the oldest block went");
        assert!([0, 3, 1, 4].iter().all(|&b| in_memory(&st, b)));
        assert_eq!(st.lru.len(), 4, "the victim left the LRU index");
    }

    fn demote(st: &mut StorageState, name: &str) -> Vec<super::Action> {
        st.handle_client(ClientMsg::Demote { array: name.into() })
    }

    fn spilled(acts: &[super::Action]) -> Vec<String> {
        acts.iter()
            .filter_map(|a| match a {
                super::Action::Io(IoCmd::Write { array, .. }) => Some(array.clone()),
                _ => None,
            })
            .collect()
    }

    /// Two single-block arrays fill a budget of two blocks, "old" written
    /// first; `prepare` runs before a third array needs room.
    fn third_block_pushes_out(
        prepare: impl FnOnce(&mut StorageState),
    ) -> (StorageState, Vec<String>) {
        let mut st = state(64);
        for (name, byte) in [("old", 1), ("new", 2)] {
            create(&mut st, name, 32, 32);
            write_all(&mut st, name, Interval::new(0, 32), byte);
        }
        create(&mut st, "x", 32, 32);
        prepare(&mut st);
        let victims = spilled(&write_all(&mut st, "x", Interval::new(0, 32), 3));
        (st, victims)
    }

    #[test]
    fn a_demoted_block_goes_before_an_older_warm_block() {
        let (mut st, victims) = third_block_pushes_out(|st| {
            assert!(demote(st, "new").is_empty(), "a hint has no reply");
        });
        assert_eq!(
            victims,
            ["new"],
            "the cold block goes, not the older warm one"
        );
        assert_eq!(st.lru.keys().filter(|k| !k.0).count(), 1, "one cold block");
        write_done(&mut st, "new", 0, 32);
        assert_eq!((st.resident_bytes(), st.stats().evictions), (64, 1));
        assert!(st.arrays["old"].blocks[&0].mem.is_some());
        assert!(st.lru.keys().all(|k| k.0), "the cold victim left the index");
    }

    #[test]
    fn a_read_rewarms_a_demoted_block() {
        let (_, victims) = third_block_pushes_out(|st| {
            demote(st, "new");
            let whole = Interval::new(0, 32);
            assert_eq!(served(&read(st, 5, 0, "new", whole)), vec![5]);
            unpin(st, "new", whole);
        });
        assert_eq!(
            victims,
            ["old"],
            "read again, \"new\" is the newest warm block"
        );
    }

    #[test]
    fn a_demoted_pinned_block_stays() {
        let whole = Interval::new(0, 32);
        let (mut st, victims) = third_block_pushes_out(|st| {
            assert_eq!(served(&read(st, 5, 0, "new", whole)), vec![5]);
            demote(st, "new");
        });
        assert_eq!(victims, ["old"], "the pinned cold block is passed over");
        assert!(st.arrays["new"].blocks[&0].mem.is_some());
        unpin(&mut st, "new", whole);
    }

    #[test]
    fn a_demoted_dirty_block_is_spilled_and_only_then_evicted() {
        let (mut st, victims) = third_block_pushes_out(|st| {
            demote(st, "new");
        });
        assert_eq!(victims, ["new"]);
        assert_eq!(
            st.resident_bytes(),
            96,
            "still resident while the spill runs"
        );
        assert_eq!(st.stats().evictions, 0);
        assert!(st.arrays["new"].blocks[&0].mem.is_some());
        write_done(&mut st, "new", 0, 32);
        assert_eq!((st.resident_bytes(), st.stats().evictions), (64, 1));
        // Back from disk on the next read, and warm again.
        assert!(matches!(
            &read(&mut st, 6, 0, "new", Interval::new(0, 32))[..],
            [super::Action::Io(IoCmd::Read { .. })]
        ));
    }

    #[test]
    fn demote_of_an_unknown_or_deleted_array_is_a_no_op() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let before = st.fingerprint();
        assert!(demote(&mut st, "nowhere").is_empty());
        assert_eq!(st.fingerprint(), before, "no placeholder, no clock tick");
        delete(&mut st, "a");
        let before = st.fingerprint();
        assert!(demote(&mut st, "a").is_empty());
        assert_eq!(st.fingerprint(), before);
        assert!(st.arrays.is_empty() && st.lru.is_empty());
    }

    #[test]
    fn persist_writes_sealed_blocks_and_replies_when_done() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        write_all(&mut st, "a", Interval::new(32, 32), 2);
        let acts = st.handle_client(ClientMsg::Persist {
            req: 9,
            client: 0,
            array: "a".into(),
        });
        assert_eq!(acts.len(), 2, "two writes, no reply yet: {acts:?}");
        assert!(acts
            .iter()
            .all(|a| matches!(a, super::Action::Io(IoCmd::Write { .. }))));
        assert!(write_done(&mut st, "a", 0, 32).is_empty());
        let acts = write_done(&mut st, "a", 1, 32);
        assert!(matches!(reply(&acts), Reply::Persisted { req: 9 }));
        assert_eq!(st.stats().disk_write_bytes, 64);
    }

    #[test]
    fn persist_of_already_persisted_is_immediate() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let persist = |st: &mut StorageState, req| {
            st.handle_client(ClientMsg::Persist {
                req,
                client: 0,
                array: "a".into(),
            })
        };
        persist(&mut st, 1);
        write_done(&mut st, "a", 0, 32);
        assert!(matches!(
            reply(&persist(&mut st, 2)),
            Reply::Persisted { req: 2 }
        ));
    }

    #[test]
    fn explicit_evict_drops_disk_backed_and_spills_dirty() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        for b in 0..2u64 {
            write_all(&mut st, "a", Interval::new(b * 32, 32), b as u8);
        }
        // Persist both blocks so they are disk-backed.
        st.handle_client(ClientMsg::Persist {
            req: 3,
            client: 0,
            array: "a".into(),
        });
        write_done(&mut st, "a", 0, 32);
        write_done(&mut st, "a", 1, 32);
        assert_eq!(st.resident_bytes(), 64);
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        // Both blocks are on disk, so eviction drops both immediately.
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!((st.resident_bytes(), st.stats().evictions), (0, 2));
        // Reads go back through the I/O filter.
        let acts = read(&mut st, 5, 0, "a", Interval::new(0, 32));
        assert!(matches!(
            &acts[..],
            [super::Action::Io(IoCmd::Read { block: 0, .. })]
        ));
    }

    #[test]
    fn explicit_evict_spills_unspilled_blocks_first() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 7);
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        assert!(
            matches!(
                &acts[..],
                [super::Action::Io(IoCmd::Write { block: 0, .. })]
            ),
            "dirty block must spill: {acts:?}"
        );
        assert_eq!(st.resident_bytes(), 32, "freed only after the spill lands");
        write_done(&mut st, "a", 0, 32);
        assert_eq!(st.resident_bytes(), 0);
    }

    #[test]
    fn evict_skips_pinned_blocks() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 7);
        read(&mut st, 3, 0, "a", Interval::new(0, 32));
        let acts = st.handle_client(ClientMsg::Evict { array: "a".into() });
        assert!(acts.is_empty(), "pinned block untouched: {acts:?}");
        assert_eq!(st.resident_bytes(), 32);
    }
}
