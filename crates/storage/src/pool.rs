//! The node's pool of block buffers.
//!
//! The storage layer owns the memory a node computes on (§III-B: a task asks
//! for an interval and is handed storage memory to read or fill). Every
//! block-sized buffer of a node — the one the I/O filter reads a file into,
//! the one a task fills with its output — is taken from the node's
//! [`BlockPool`] and comes back to it by itself: a [`PoolBuf`] frozen into a
//! [`Bytes`] is that buffer's *owner* ([`Bytes::from_owner`]), so the moment
//! the last clone or slice dies — the block is reclaimed or deleted, its
//! spill completes, a reader's guard drops, the socket has sent it — the
//! allocation returns here, whichever thread that happens on. Nothing in the
//! storage state machine or its protocol knows the pool exists.
//!
//! Without it every load and every task output is a fresh exact-size `Vec`
//! freed to the allocator in a slightly different size than the next one
//! asks for, and a third of an out-of-core run's footprint is allocator
//! slack; with it the footprint is the budget-charged blocks, the loads in
//! flight and at most [`BlockPool::retain_bound`] idle bytes.

use bytes::Bytes;
use dooc_obs::metrics::{counter, gauge, Counter, Gauge};
use dooc_sync::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// Buffers shorter than this are left to the allocator, whose small bins
/// recycle them well: tokens, headers, test-sized arrays.
const MIN_POOLED: usize = 4096;

/// Size classes per power of two. A buffer's capacity is its request rounded
/// up to the next class, so a tenant leaves at most 1/16 of a recycled buffer
/// untouched (3 % on average) — and blocks that differ by a percent or two,
/// as the cells of one matrix do, share a class.
const CLASSES_PER_OCTAVE: usize = 16;

/// Idle buffers are kept up to `memory_budget / RETAIN_DIVISOR` bytes. The
/// steady state of an out-of-core run needs far less (a block is evicted to
/// make room for the load that then takes its buffer); what fills the pool
/// is a burst of deletes — a row's partials dying with their sum — and a
/// quarter of the budget holds any of those the audit admits.
const RETAIN_DIVISOR: u64 = 4;

struct PoolObs {
    hits: &'static Counter,
    misses: &'static Counter,
    retained: &'static Gauge,
}

fn obs() -> &'static PoolObs {
    static O: OnceLock<PoolObs> = OnceLock::new();
    O.get_or_init(|| PoolObs {
        hits: counter("storage.pool_hits"),
        misses: counter("storage.pool_misses"),
        retained: gauge("storage.pool_retained_bytes"),
    })
}

/// The smallest class that holds `len` bytes.
fn class_ceil(len: usize) -> usize {
    let len = len.max(MIN_POOLED);
    let step = (1usize << len.ilog2()) / CLASSES_PER_OCTAVE;
    len.checked_next_multiple_of(step).unwrap_or(len)
}

/// The largest class a buffer of capacity `cap >= MIN_POOLED` can serve.
fn class_floor(cap: usize) -> usize {
    let step = (1usize << cap.ilog2()) / CLASSES_PER_OCTAVE;
    cap - cap % step
}

/// Idle buffers by class. Within a class the most recently returned buffer
/// is reused first (its pages are the warmest); across classes the buffer
/// idle the longest is the first to go when the pool is over its bound.
#[derive(Default)]
struct FreeLists {
    classes: BTreeMap<usize, VecDeque<(u64, Vec<u8>)>>,
    /// Sum of the idle buffers' capacities.
    retained: usize,
    /// Stamp of the next returned buffer.
    seq: u64,
}

impl FreeLists {
    /// Removes one buffer of `class`: the most recently returned one to
    /// reuse, the longest idle one to shed.
    fn pop(&mut self, class: usize, newest: bool) -> Option<Vec<u8>> {
        let Entry::Occupied(mut q) = self.classes.entry(class) else {
            return None;
        };
        let (_, buf) = if newest {
            q.get_mut().pop_back()?
        } else {
            q.get_mut().pop_front()?
        };
        if q.get().is_empty() {
            q.remove();
        }
        self.retained -= buf.capacity();
        Some(buf)
    }

    /// The class holding the buffer that has been idle the longest.
    fn longest_idle_class(&self) -> Option<usize> {
        self.classes
            .iter()
            .min_by_key(|(_, q)| q.front().map(|(seq, _)| *seq))
            .map(|(&class, _)| class)
    }
}

struct Inner {
    /// Node id, for the trace.
    node: i64,
    bound: usize,
    free: Mutex<FreeLists>,
}

impl Inner {
    fn give(&self, buf: Vec<u8>) {
        let cap = buf.capacity();
        // Too small to be worth a lock, or so large that keeping it would
        // push every other idle buffer out first.
        if cap < MIN_POOLED || cap > self.bound {
            return;
        }
        let mut shed = Vec::new();
        let retained = {
            let mut free = self.free.lock();
            let seq = free.seq;
            free.seq += 1;
            free.retained += cap;
            free.classes
                .entry(class_floor(cap))
                .or_default()
                .push_back((seq, buf));
            while free.retained > self.bound {
                let Some(class) = free.longest_idle_class() else {
                    break;
                };
                shed.extend(free.pop(class, false));
            }
            free.retained
        };
        obs().retained.set(retained as i64);
        // `shed` is freed here, outside the lock.
    }
}

/// One node's pool of block buffers: size-classed free lists, bounded by a
/// fixed fraction of the node's memory budget. Cloning shares the pool.
#[derive(Clone)]
pub struct BlockPool {
    inner: Arc<Inner>,
}

impl BlockPool {
    /// The pool of node `node`, which keeps at most a quarter of
    /// `memory_budget` bytes idle.
    pub fn new(node: u64, memory_budget: u64) -> Self {
        Self {
            inner: Arc::new(Inner {
                node: node as i64,
                bound: usize::try_from(memory_budget / RETAIN_DIVISOR).unwrap_or(usize::MAX),
                free: Mutex::new(FreeLists::default()),
            }),
        }
    }

    /// An empty buffer with room for `len` bytes: a recycled one of `len`'s
    /// class if the pool holds one, else a fresh allocation of the class
    /// size. It returns to this pool when it — or the last reference to the
    /// [`Bytes`] it is frozen into — drops.
    pub fn take(&self, len: usize) -> PoolBuf {
        if len < MIN_POOLED {
            return PoolBuf::unpooled(len);
        }
        let class = class_ceil(len);
        let recycled = {
            let mut free = self.inner.free.lock();
            free.pop(class, true).map(|buf| (buf, free.retained))
        };
        let buf = match recycled {
            Some((mut buf, retained)) => {
                obs().hits.inc();
                obs().retained.set(retained as i64);
                // The previous tenant's bytes end here.
                buf.clear();
                buf
            }
            None => {
                obs().misses.inc();
                dooc_obs::instant_arg(
                    dooc_obs::Category::Storage,
                    "storage:pool_miss",
                    self.inner.node,
                    || format!("class {class}"),
                );
                Vec::with_capacity(class)
            }
        };
        PoolBuf {
            buf,
            home: Some(Arc::clone(&self.inner)),
        }
    }

    /// Bytes of idle buffers the pool holds right now.
    pub fn retained_bytes(&self) -> usize {
        self.inner.free.lock().retained
    }

    /// The most idle bytes the pool ever holds: a quarter of the node's
    /// memory budget.
    pub fn retain_bound(&self) -> usize {
        self.inner.bound
    }
}

/// A buffer on loan from a [`BlockPool`]: fill it through the `Vec<u8>` it
/// derefs to, then [`PoolBuf::freeze`] it. Dropping it, frozen or not, hands
/// the allocation back.
pub struct PoolBuf {
    buf: Vec<u8>,
    /// `None` for a buffer too small to pool, or taken with no pool around.
    home: Option<Arc<Inner>>,
}

impl PoolBuf {
    /// A plain allocation with room for `len` bytes that no pool takes back,
    /// for contexts that run without one.
    pub fn unpooled(len: usize) -> Self {
        Self {
            buf: Vec::with_capacity(len),
            home: None,
        }
    }

    /// The filled buffer as shared immutable bytes, nothing copied. The
    /// allocation goes back to its pool when the last clone or slice drops.
    pub fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl Deref for PoolBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(home) = &self.home {
            home.give(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_a_sixteenth_apart_and_round_trip() {
        assert_eq!(class_ceil(1), MIN_POOLED);
        assert_eq!(class_ceil(4096), 4096);
        assert_eq!(class_ceil(4097), 4096 + 256);
        assert_eq!(class_ceil(2 << 20), 2 << 20);
        assert_eq!(class_ceil((2 << 20) + 1), (2 << 20) + (128 << 10));
        assert_eq!(class_ceil((4 << 20) - 1), 4 << 20);
        for len in (MIN_POOLED..1 << 22).step_by(997) {
            let class = class_ceil(len);
            assert!(class >= len && class - len <= len / CLASSES_PER_OCTAVE);
            assert_eq!(class_floor(class), class, "a class serves itself");
            assert!(
                class_floor(class + 1) == class,
                "a grown buffer rounds down"
            );
        }
    }

    #[test]
    fn a_dropped_buffer_serves_the_next_request_of_its_class() {
        let pool = BlockPool::new(0, 64 << 20);
        let mut a = pool.take(2_850_000);
        let cap = a.capacity();
        assert!((2_850_000..2_850_000 + 2_850_000 / 16).contains(&cap));
        a.resize(2_850_000, 0xAB);
        let p = a.as_ptr();
        let bytes = a.freeze();
        assert_eq!(pool.retained_bytes(), 0, "lent out");
        let slice = bytes.slice(100..200);
        drop(bytes);
        assert_eq!(pool.retained_bytes(), 0, "a slice still holds it");
        drop(slice);
        assert_eq!(pool.retained_bytes(), cap);
        // A slightly larger tenant of the same class gets the same memory,
        // empty: nothing of the previous tenant shows.
        let b = pool.take(2_880_000);
        assert_eq!(b.as_ptr(), p);
        assert!(b.is_empty() && b.capacity() == cap);
        assert_eq!(pool.retained_bytes(), 0);
        // Another class misses.
        let c = pool.take(400_000);
        assert_ne!(c.as_ptr(), p);
        drop((b, c));
        assert_eq!(pool.retained_bytes(), cap + class_ceil(400_000));
    }

    #[test]
    fn small_and_unpooled_buffers_bypass_the_pool() {
        let pool = BlockPool::new(0, 1 << 20);
        let mut t = pool.take(8);
        t.extend_from_slice(&[0u8; 8]);
        assert_eq!(&t.freeze()[..], &[0u8; 8]);
        drop(PoolBuf::unpooled(1 << 16));
        assert_eq!(pool.retained_bytes(), 0);
    }

    #[test]
    fn retained_bytes_never_exceed_the_bound_and_the_longest_idle_goes_first() {
        let pool = BlockPool::new(0, 4 << 20);
        assert_eq!(pool.retain_bound(), 1 << 20);
        // Larger than the bound: never kept.
        drop(pool.take(2 << 20));
        assert_eq!(pool.retained_bytes(), 0);
        // Three classes, returned oldest first.
        let (old, mid, new) = (
            pool.take(320 << 10),
            pool.take(384 << 10),
            pool.take(512 << 10),
        );
        let (p_mid, p_new) = (mid.as_ptr(), new.as_ptr());
        drop(old);
        drop(mid);
        assert_eq!(pool.retained_bytes(), (320 + 384) << 10);
        drop(new); // 1216 KiB > 1024 KiB: the 320 KiB buffer is shed.
        assert_eq!(pool.retained_bytes(), (384 + 512) << 10);
        let (mid, new) = (pool.take(384 << 10), pool.take(512 << 10));
        assert_eq!((mid.as_ptr(), new.as_ptr()), (p_mid, p_new));
        assert_eq!(pool.retained_bytes(), 0, "the oldest was shed, not kept");
        // Any interleaving of takes and drops stays under the bound.
        let mut held = Vec::new();
        for i in 0..200usize {
            held.push(pool.take(MIN_POOLED + (i * 7919) % (600 << 10)));
            if i % 3 == 0 {
                held.swap_remove((i * 31) % held.len());
            }
            assert!(pool.retained_bytes() <= pool.retain_bound());
        }
        drop(held);
        assert!(pool.retained_bytes() <= pool.retain_bound());
    }

    #[test]
    fn a_buffer_returns_from_whichever_thread_drops_the_last_reference() {
        let pool = BlockPool::new(0, 64 << 20);
        let mut buf = pool.take(1 << 20);
        buf.resize(1 << 20, 1);
        let bytes = buf.freeze();
        let clone = bytes.clone();
        std::thread::spawn(move || drop(clone))
            .join()
            .expect("drop thread");
        assert_eq!(pool.retained_bytes(), 0);
        std::thread::spawn(move || drop(bytes))
            .join()
            .expect("drop thread");
        assert_eq!(pool.retained_bytes(), 1 << 20);
    }

    #[test]
    fn a_buffer_grown_past_its_class_is_filed_under_what_it_can_serve() {
        let pool = BlockPool::new(0, 64 << 20);
        let mut buf = pool.take(MIN_POOLED);
        buf.resize(100_000, 0); // reallocates
        let cap = buf.capacity();
        drop(buf);
        assert_eq!(pool.retained_bytes(), cap);
        let again = pool.take(class_floor(cap));
        assert!(again.capacity() >= class_floor(cap));
        assert_eq!(pool.retained_bytes(), 0);
    }
}
