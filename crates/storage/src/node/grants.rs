//! Grants: the immutable-array contract. A write grant is exclusive and
//! once-only per interval; a read is answered at once when its interval is
//! sealed and resident, logged otherwise and served at the seal or load that
//! makes it so. Every grant pins its block against reclaim until released.

use super::{storage_obs, Action, BlockInfo, BlockMem, ReadWaiter, StorageState};
use crate::meta::{ArrayMeta, Interval};
use crate::proto::{NodeStats, PeerMsg, Reply};
use crate::StorageError;
use bytes::Bytes;

impl StorageState {
    /// Takes one grant on a block, charging its bytes to the pinned ledger
    /// on the 0 → 1 transition (a block's bytes count once no matter how
    /// many grants hold it) and updating the high-watermark.
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
        let sealed_here = info.sealed.covers(off, off + iv.len);
        if let Some((data, checked)) = sealed_here
            .then(|| info.slice_resident(off, iv.len))
            .flatten()
        {
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
        if sealed_here && info.on_disk {
            // Implicit out-of-core read.
            info.load(array, block, block_len, out);
        } else if !home && info.sealed.is_empty() && info.mem.is_none() {
            // Not ours: pull the block from a peer.
            self.start_fetch(array, block, iv.offset, out);
        }
        // Otherwise the block lives (or will live) here but the interval is
        // not written yet: the logged request is served at its seal.
    }

    pub(super) fn client_write(
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
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        let block_len = ainfo.meta.block_len(block);
        // The release of such a grant can be adopted as the block: its
        // `Bytes` is the writer's whole allocation, which eviction then
        // frees. A block of a multi-block array arrives as a slice of the
        // array-sized buffer and a partial interval as a fragment, so those
        // are assembled into memory the block owns.
        let whole_single_block = ainfo.meta.nblocks() == 1 && iv.len == block_len;
        let info = ainfo.blocks.entry(block).or_default();
        let end = off + iv.len;
        if info.sealed.intersects(off, end)
            || info.write_granted.intersects(off, end)
            || info.on_disk
        {
            let msg = format!(
                "interval [{off}, {end}) of {array}[{block}] already written or being written"
            );
            return Self::err(client, req, StorageError::Immutability(msg), out);
        }
        info.write_granted.insert(off, end);
        Self::pin_block(&mut self.pinned_now, &mut self.stats, info, block_len);
        let newly_resident = info.mem.is_none();
        if newly_resident {
            info.mem = Some(if whole_single_block {
                BlockMem::Reserved
            } else {
                BlockMem::Building(vec![0u8; block_len as usize])
            });
        }
        out.push(Action::Reply {
            client,
            reply: Reply::WriteGranted { req },
        });
        self.touch(&array, block);
        if newly_resident {
            self.charge(block_len, out);
        }
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
                Some(BlockMem::Sealed { checked: mark, .. }) if checked && info.pins > 0 => {
                    *mark = true;
                }
                _ => {}
            }
            Self::unpin_block(&mut self.pinned_now, info, block_len);
        }
    }

    pub(super) fn release_write(
        &mut self,
        req: u64,
        client: u64,
        array: String,
        iv: Interval,
        data: Bytes,
        out: &mut Vec<Action>,
    ) {
        let protocol = StorageError::Protocol;
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return Self::err(client, req, StorageError::UnknownArray(array), out);
        };
        let (block, off) = match ainfo.meta.locate(iv) {
            Ok(x) => x,
            Err(e) => return Self::err(client, req, e, out),
        };
        if data.len() as u64 != iv.len {
            let m = format!(
                "release data length {} != interval length {}",
                data.len(),
                iv.len
            );
            return Self::err(client, req, protocol(m), out);
        }
        let block_len = ainfo.meta.block_len(block);
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return Self::err(
                client,
                req,
                protocol("release of unknown block".into()),
                out,
            );
        };
        let end = off + iv.len;
        if !info.write_granted.covers(off, end) {
            let m = format!("release of never-granted interval [{off}, {end})");
            return Self::err(client, req, protocol(m), out);
        }
        // A reserved block whose grant comes back only in part is assembled
        // after all.
        if matches!(info.mem, Some(BlockMem::Reserved)) && iv.len < block_len {
            info.mem = Some(BlockMem::Building(vec![0u8; block_len as usize]));
        }
        match info.mem.as_mut() {
            Some(mem @ BlockMem::Reserved) => *mem = BlockMem::sealed(data),
            Some(BlockMem::Building(buf)) => {
                buf[off as usize..end as usize].copy_from_slice(&data);
            }
            _ => {
                let m = "release on non-building block".into();
                return Self::err(client, req, protocol(m), out);
            }
        }
        info.sealed.insert(off, end);
        storage_obs().blocks_sealed.inc();
        Self::unpin_block(&mut self.pinned_now, info, block_len);
        out.push(Action::Reply {
            client,
            reply: Reply::WriteSealed { req },
        });
        if info.fully_sealed(block_len) {
            if let Some(mem) = info.mem.as_mut() {
                mem.freeze();
            }
        }
        // Serve any logged reads that are now covered.
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

    /// Serves logged local reads whose interval is sealed and resident, and
    /// peer fetches if the block is fully sealed.
    pub(super) fn flush_waiters(
        info: &mut BlockInfo,
        meta: &ArrayMeta,
        block: u64,
        pinned_now: &mut u64,
        stats: &mut NodeStats,
        out: &mut Vec<Action>,
    ) {
        let block_len = meta.block_len(block);
        let waiters = std::mem::take(&mut info.read_waiters);
        for w in waiters {
            let covered = info.sealed.covers(w.off, w.off + w.len);
            match covered.then(|| info.slice_resident(w.off, w.len)).flatten() {
                Some((data, checked)) => {
                    Self::pin_block(pinned_now, stats, info, block_len);
                    out.push(Action::Reply {
                        client: w.client,
                        reply: Reply::ReadReady {
                            req: w.req,
                            data,
                            checked,
                        },
                    });
                }
                None => info.read_waiters.push(w),
            }
        }
        if !info.fully_sealed(block_len) {
            return;
        }
        if let Some(BlockMem::Sealed { data: bytes, .. }) = &info.mem {
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::StorageState;
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
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 5,
            client: 0,
            array: "a".into(),
            iv: Interval::new(0, 32),
        });
        assert!(matches!(error(&acts), StorageError::Immutability(_)));
    }

    #[test]
    fn overlapping_write_grants_rejected() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 64, 64);
        grant(&mut st, "a", Interval::new(0, 16));
        let acts = st.handle_client(ClientMsg::WriteReq {
            req: 2,
            client: 0,
            array: "a".into(),
            iv: Interval::new(8, 16),
        });
        assert!(matches!(error(&acts), StorageError::Immutability(_)));
        // Disjoint grant on the same block is fine.
        assert!(grant(&mut st, "a", Interval::new(16, 16)).is_empty());
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
    fn partial_seal_serves_covered_reads_only() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        // Two logged reads: one inside the first half, one in the second.
        read(&mut st, 1, 0, "a", Interval::new(0, 16));
        read(&mut st, 2, 0, "a", Interval::new(16, 16));
        let acts = write_all(&mut st, "a", Interval::new(0, 16), 4);
        assert_eq!(served(&acts), vec![1], "only the covered read is served");
        let acts = write_all(&mut st, "a", Interval::new(16, 16), 5);
        assert_eq!(served(&acts), vec![2]);
    }

    #[test]
    fn release_of_ungranted_interval_is_protocol_error() {
        let mut st = state(1 << 20);
        create(&mut st, "a", 32, 32);
        let acts = release(&mut st, "a", Interval::new(0, 8), Bytes::from(vec![0u8; 8]));
        assert!(matches!(error(&acts), StorageError::Protocol(_)));
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

    /// A partly written block is read out of its assembly buffer: a copy,
    /// which carries no mark whatever its reader claims on release.
    #[test]
    fn reads_of_a_block_under_construction_are_never_checked() {
        let mut st = state(1 << 20);
        create(&mut st, "p", 32, 32);
        write_all(&mut st, "p", Interval::new(0, 16), 1);
        let half = Interval::new(0, 16);
        let acts = read(&mut st, 1, 0, "p", half);
        assert_eq!(read_served(&acts, 1).map(|(_, c)| c), Some(false));
        release_read(&mut st, "p", half, true);
        let acts = read(&mut st, 2, 0, "p", half);
        assert_eq!(read_served(&acts, 2).map(|(_, c)| c), Some(false));
        release_read(&mut st, "p", half, false);
        // Sealing the rest installs the block, unchecked.
        write_all(&mut st, "p", Interval::new(16, 16), 2);
        let acts = read(&mut st, 3, 0, "p", Interval::new(0, 32));
        assert_eq!(read_served(&acts, 3).map(|(_, c)| c), Some(false));
        unpin(&mut st, "p", Interval::new(0, 32));
    }

    /// A grant over a whole single block that comes back in pieces is still
    /// assembled correctly (no buffer was reserved for it at grant time).
    #[test]
    fn partial_release_of_a_whole_block_grant_is_assembled() {
        let mut st = state(1 << 20);
        create(&mut st, "v", 64, 64);
        grant(&mut st, "v", Interval::new(0, 64));
        for (off, byte) in [(32u64, 2u8), (0, 1)] {
            let acts = release(
                &mut st,
                "v",
                Interval::new(off, 32),
                Bytes::from(vec![byte; 32]),
            );
            assert!(
                matches!(reply(&acts), Reply::WriteSealed { .. }),
                "{acts:?}"
            );
        }
        let acts = read(&mut st, 3, 0, "v", Interval::new(0, 64));
        let data = read_data(&acts, 3).expect("served");
        assert_eq!((&data[..32], &data[32..]), (&[1u8; 32][..], &[2u8; 32][..]));
        assert_eq!(st.resident_bytes(), 64);
    }
}
