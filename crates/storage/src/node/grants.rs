//! Writes and read grants: the immutable-array contract. A block is written
//! once, whole, by one message that carries its bytes, on the node that
//! created its array; the block is sealed when the write is answered. A read
//! may be any interval inside one block; it is answered at once when the
//! block is sealed and resident, logged otherwise and served at the seal or
//! load that makes it so. Every read grant pins its block against reclaim
//! until released; a write pins nothing.

use super::{storage_obs, Action, BlockInfo, BlockMem, ReadWaiter, StorageState};
use crate::meta::{ArrayMeta, Interval};
use crate::proto::{NodeStats, PeerMsg, Reply};
use crate::StorageError;
use bytes::Bytes;

impl BlockInfo {
    /// Nothing of the block exists here: no bytes, no disk copy. (A sealed
    /// block leaves memory only once it is on disk.)
    pub(super) fn unwritten(&self) -> bool {
        self.mem.is_none() && !self.on_disk
    }
}

impl StorageState {
    /// Takes one read grant on a block, charging its bytes to the pinned
    /// ledger on the 0 → 1 transition (a block's bytes count once no matter
    /// how many grants hold it) and updating the high-watermark.
    fn pin_block(pinned_now: &mut u64, stats: &mut NodeStats, info: &mut BlockInfo, bytes: u64) {
        if info.pins == 0 {
            *pinned_now += bytes;
            stats.pinned_peak_bytes = stats.pinned_peak_bytes.max(*pinned_now);
        }
        info.pins += 1;
    }

    /// Drops one grant, discharging the block's bytes on the 1 → 0
    /// transition.
    fn unpin_block(pinned_now: &mut u64, info: &mut BlockInfo, bytes: u64) {
        if info.pins == 1 {
            *pinned_now = pinned_now.saturating_sub(bytes);
        }
        info.pins = info.pins.saturating_sub(1);
    }

    pub(super) fn client_read(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        out: &mut Vec<Action>,
    ) {
        if self.deleted.contains(&array) {
            return Self::err(client, req, StorageError::Deleted(array), out);
        }
        let Some(ainfo) = Self::array_or_placeholder(&mut self.arrays, &array) else {
            return;
        };
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        let block_len = ainfo.meta.block_len(block);
        let home = ainfo.home;
        let info = ainfo.blocks.entry(block).or_default();
        if let Some((data, checked)) = info.slice_resident(off, iv.len) {
            storage_obs().read_hits.inc();
            Self::pin_block(&mut self.pinned_now, &mut self.stats, info, block_len);
            out.push(Action::Reply {
                client,
                reply: Reply::ReadReady { req, data, checked },
            });
            self.touch(&array, block);
            return;
        }
        storage_obs().read_misses.inc();
        info.read_waiters.push(ReadWaiter {
            req,
            client,
            off,
            len: iv.len,
        });
        if info.on_disk {
            // Implicit out-of-core read.
            info.load(array, block, block_len, out);
        } else if !home && info.unwritten() {
            // Not ours: pull the block from a peer.
            self.start_fetch(array, block, iv.offset, out);
        }
        // Otherwise the block lives (or will live) here but is not sealed
        // yet: the logged request is served at its seal.
    }

    /// A block's one write: all of one block's bytes, once, on the node
    /// that created the array. The block is charged to the budget before
    /// it is installed, so the reclaim the charge runs cannot pick it; it
    /// is then sealed, and the reads and peer fetches logged on it are
    /// served.
    pub(super) fn write(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        data: Bytes,
        out: &mut Vec<Action>,
    ) {
        if self.deleted.contains(&array) {
            return Self::err(client, req, StorageError::Deleted(array), out);
        }
        // A placeholder is a name this node met only through a read: its
        // geometry is unknown, so it has no block to write.
        let Some(ainfo) = self.arrays.get(&array).filter(|a| !a.is_placeholder()) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        if !ainfo.home {
            // A name known here from a hint is produced on another node: a
            // write here would give its blocks a second producer.
            let msg = format!("'{array}' was not created on this node: only its creator writes it");
            return Self::err(client, req, StorageError::Immutability(msg), out);
        }
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        let block_len = ainfo.meta.block_len(block);
        if off != 0 || iv.len != block_len {
            let (start, end) = (iv.offset, iv.end());
            let reason =
                format!("[{start}, {end}) is not all of block {block}: blocks are written whole");
            return Self::err(
                client,
                req,
                StorageError::BadInterval { array, reason },
                out,
            );
        }
        if data.len() as u64 != iv.len {
            let m = format!("{} bytes written to a {}-byte block", data.len(), iv.len);
            return Self::err(client, req, StorageError::Protocol(m), out);
        }
        if ainfo.blocks.get(&block).is_some_and(|i| !i.unwritten()) {
            let msg = format!("{array}[{block}] already written");
            return Self::err(client, req, StorageError::Immutability(msg), out);
        }
        // The write of a single-block array is adopted as the block: its
        // `Bytes` is the writer's whole allocation, which eviction then
        // frees. A block of a multi-block array arrives as a slice of the
        // array-sized buffer, so it is copied into memory the block owns.
        let data = if ainfo.meta.nblocks() == 1 {
            data
        } else {
            Bytes::copy_from_slice(&data)
        };
        self.charge(block_len, out);
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let info = ainfo.blocks.entry(block).or_default();
        info.mem = Some(BlockMem::sealed(data));
        storage_obs().blocks_sealed.inc();
        out.push(Action::Reply {
            client,
            reply: Reply::WriteSealed { req },
        });
        let meta = &ainfo.meta;
        Self::flush_waiters(
            info,
            meta,
            block,
            &mut self.pinned_now,
            &mut self.stats,
            out,
        );
        self.touch(&array, block);
    }

    /// Drops a read pin; `checked` marks the sealed bytes the reader was
    /// lent as checked. The pin is still held when the release arrives, so
    /// those bytes are the resident ones: a pinned block is never evicted.
    pub(super) fn release_read(&mut self, array: String, iv: Interval, checked: bool) {
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return;
        };
        let Ok((block, _)) = ainfo.meta.locate(iv) else {
            return;
        };
        let block_len = ainfo.meta.block_len(block);
        if let Some(info) = ainfo.blocks.get_mut(&block) {
            match &mut info.mem {
                Some(mem) if checked && info.pins > 0 => mem.checked = true,
                _ => {}
            }
            Self::unpin_block(&mut self.pinned_now, info, block_len);
        }
    }

    /// Serves the logged local reads and peer fetches of a block that was
    /// just sealed or installed, and so is resident. Every logged read lies
    /// inside the block: it passed `locate` against the real geometry, at
    /// the read or when a placeholder was resolved.
    pub(super) fn flush_waiters(
        info: &mut BlockInfo,
        meta: &ArrayMeta,
        block: u64,
        pinned_now: &mut u64,
        stats: &mut NodeStats,
        out: &mut Vec<Action>,
    ) {
        let Some(mem) = &info.mem else {
            return;
        };
        let (bytes, checked) = (mem.data.clone(), mem.checked);
        for w in std::mem::take(&mut info.read_waiters) {
            Self::pin_block(pinned_now, stats, info, meta.block_len(block));
            out.push(Action::Reply {
                client: w.client,
                reply: Reply::ReadReady {
                    req: w.req,
                    data: bytes.slice(w.off as usize..(w.off + w.len) as usize),
                    checked,
                },
            });
        }
        for (req, from_node) in info.peer_waiters.drain(..) {
            stats.peer_sent_bytes += bytes.len() as u64;
            out.push(Action::Peer {
                node: from_node,
                msg: PeerMsg::FetchFound {
                    req,
                    len: meta.len,
                    block_size: meta.block_size,
                    block,
                    data: bytes.clone(),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Action, StorageState};
    use crate::meta::Interval;
    use crate::proto::{ClientMsg, Reply};
    use crate::StorageError;
    use bytes::Bytes;

    #[test]
    fn create_then_write_then_read() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = write_all(&mut st, "a", Interval::new(0, 32), 7);
        assert!(matches!(reply(&acts), Reply::WriteSealed { .. }));
        let acts = read(&mut st, 3, 5, "a", Interval::new(4, 8));
        assert_eq!(&read_data(&acts, 3).expect("served")[..], &[7u8; 8]);
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn double_write_is_immutability_error() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        write_all(&mut st, "a", Interval::new(0, 32), 1);
        let acts = write(
            &mut st,
            "a",
            Interval::new(0, 32),
            Bytes::from(vec![2u8; 32]),
        );
        assert!(matches!(error(&acts), StorageError::Immutability(_)));
        let acts = read(&mut st, 3, 0, "a", Interval::new(0, 32));
        assert_eq!(&read_data(&acts, 3).expect("served")[..], &[1u8; 32]);
    }

    #[test]
    fn read_before_write_is_logged_then_served() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        let acts = read(&mut st, 7, 3, "a", Interval::new(0, 8));
        assert!(acts.is_empty(), "request must be logged, got {acts:?}");
        let acts = write_all(&mut st, "a", Interval::new(0, 32), 9);
        assert_eq!(
            &read_data(&acts, 7).expect("logged read served")[..],
            &[9u8; 8]
        );
    }

    #[test]
    fn interval_spanning_blocks_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 32);
        let acts = read(&mut st, 1, 0, "a", Interval::new(30, 4));
        assert!(matches!(error(&acts), StorageError::BadInterval { .. }));
    }

    /// The checked mark is set by a releasing pin that asks for it and by
    /// nothing else — not an unmarked release, not a release with no pin
    /// behind it — and every later hit sees it, a reader that pinned the
    /// block before the mark and re-reads included.
    #[test]
    fn checked_mark_is_set_by_a_marking_release_and_seen_by_every_later_hit() {
        let mut st = state(1 << 20);
        create(&mut st, "m", 32, 32);
        write_all(&mut st, "m", Interval::new(0, 32), 4);
        let whole = Interval::new(0, 32);
        let mark_of = |st: &mut StorageState, req, client| {
            let acts = read(st, req, client, "m", whole);
            read_served(&acts, req).expect("a hit").1
        };
        assert!(!mark_of(&mut st, 1, 0), "a seal is born unchecked");
        release_read(&mut st, "m", whole, false);
        // No pin behind it: a stray release marks nothing.
        release_read(&mut st, "m", whole, true);
        assert!(!mark_of(&mut st, 2, 0), "an unmarked or stray release");
        // Two readers hold the block; the second marks it, the first lets
        // go unmarked afterwards, which clears nothing.
        assert!(!mark_of(&mut st, 3, 1));
        release_read(&mut st, "m", whole, true);
        release_read(&mut st, "m", whole, false);
        assert!(mark_of(&mut st, 4, 0), "the next hit sees the mark");
        assert!(mark_of(&mut st, 5, 1), "and so does a second reader's");
        release_read(&mut st, "m", whole, false);
        release_read(&mut st, "m", whole, false);
        assert_eq!(st.pinned_now, 0);
    }

    /// A write covers exactly one whole block. Anything else is refused
    /// before the node touches the block: no pin, no budget charge, not
    /// even a block entry. So is a whole block with the wrong byte count.
    #[test]
    fn a_sub_block_write_is_refused_and_takes_nothing() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 80, 32);
        let before = st.fingerprint();
        let bytes = |n: u64| Bytes::from(vec![1u8; n as usize]);
        for (iv, data) in [
            (Interval::new(0, 16), bytes(16)),
            (Interval::new(8, 24), bytes(24)),
            (Interval::new(32, 31), bytes(31)),
            (Interval::new(64, 8), bytes(8)),
            (Interval::new(0, 32), bytes(31)),
        ] {
            let acts = write(&mut st, "a", iv, data);
            let refused = match error(&acts) {
                StorageError::BadInterval { .. } => iv.len != 32,
                StorageError::Protocol(_) => iv.len == 32,
                _ => false,
            };
            assert!(refused, "{iv:?}: {acts:?}");
            assert_eq!((st.pinned_now, st.resident_bytes()), (0, 0), "{iv:?}");
            assert_eq!(st.debug_block("a", iv.offset / 32), None, "{iv:?}");
            assert_eq!(st.fingerprint(), before, "{iv:?}");
        }
        // The short last block, whole, is a block like any other.
        write_all(&mut st, "a", Interval::new(64, 16), 3);
        let acts = read(&mut st, 6, 0, "a", Interval::new(72, 8));
        assert_eq!(&read_data(&acts, 6).expect("served")[..], &[3u8; 8]);
    }

    /// A write pins nothing: its block is sealed when the write is
    /// answered, so the pinned ledger moves only with the reads.
    #[test]
    fn a_write_pins_nothing() {
        let mut st = state(1 << 20);
        create(&mut st, "v", 128, 64);
        write_all(&mut st, "v", Interval::new(0, 64), 1);
        write_all(&mut st, "v", Interval::new(64, 64), 2);
        assert_eq!((st.pinned_now, st.stats().pinned_peak_bytes), (0, 0));
        assert_eq!(st.debug_block("v", 0), Some((0, true, false)));
        let whole = Interval::new(0, 64);
        assert_eq!(served(&read(&mut st, 3, 0, "v", whole)), vec![3]);
        assert_eq!(st.stats().pinned_peak_bytes, 64, "a read pins its block");
        unpin(&mut st, "v", whole);
        assert_eq!(st.pinned_now, 0);
    }

    /// Only the node that created an array writes it. A name this node
    /// knows from a `Register` hint is produced elsewhere: its write is
    /// refused and takes nothing. Once a local `Create` makes the array
    /// this node's own, the write is sealed.
    #[test]
    fn a_write_to_an_array_created_elsewhere_is_refused() {
        let mut st = StorageState::new(cfg(1, 2, 1 << 20), vec![]);
        st.handle_client(ClientMsg::Register {
            meta: crate::meta::ArrayMeta::new("r", 64, 64),
        });
        let before = st.fingerprint();
        let whole = Interval::new(0, 64);
        let acts = write(&mut st, "r", whole, Bytes::from(vec![3u8; 64]));
        assert!(
            matches!(error(&acts), StorageError::Immutability(_)),
            "{acts:?}"
        );
        assert_eq!(st.fingerprint(), before, "nothing taken");
        assert_eq!(st.resident_bytes(), 0);
        create(&mut st, "r", 64, 64);
        write_all(&mut st, "r", whole, 3);
    }

    /// A name this node knows only from a read has placeholder geometry
    /// (one block of `u64::MAX` bytes): a write to it is refused, not
    /// given a block of that size.
    #[test]
    fn a_write_to_an_array_known_only_from_a_read_is_unknown() {
        let mut st = StorageState::new(cfg(1, 2, 1 << 20), vec![]);
        let acts = read(&mut st, 1, 0, "x", Interval::new(0, 8));
        assert!(matches!(&acts[..], [Action::Peer { .. }]), "{acts:?}");
        let acts = write(&mut st, "x", Interval::new(0, 8), Bytes::from(vec![1u8; 8]));
        assert!(
            matches!(error(&acts), StorageError::UnknownArray(_)),
            "{acts:?}"
        );
        assert_eq!((st.pinned_now, st.resident_bytes()), (0, 0));
    }

    /// An interval whose end does not fit in a `u64` is a bad interval, for
    /// a read as for a write: neither panics, wraps nor parks.
    #[test]
    fn an_interval_ending_past_u64_max_is_a_bad_interval() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 64);
        let iv = Interval::new(u64::MAX, 1);
        let acts = read(&mut st, 1, 0, "a", iv);
        assert!(
            matches!(error(&acts), StorageError::BadInterval { .. }),
            "{acts:?}"
        );
        let acts = write(&mut st, "a", iv, Bytes::from_static(&[1]));
        assert!(
            matches!(error(&acts), StorageError::BadInterval { .. }),
            "{acts:?}"
        );
        assert_eq!((st.pinned_now, st.resident_bytes()), (0, 0));
    }
}
