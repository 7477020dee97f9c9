//! Sync-event recording for the dooc-check race detector.
//!
//! With the `record` feature enabled, every facade primitive logs its
//! visible operations — lock acquire/release, rwlock read/write, condvar
//! notify/wait, channel send/recv, atomic load/store/rmw (with ordering),
//! thread spawn/start/end/join — into per-thread bounded rings (the
//! generic [`dooc_obs::ring::Rings`] core behind the trace buffer), each
//! event stamped with a global sequence number and its source site.
//! [`take_log`] drains the rings into the `dooc-race v1` text format the
//! happens-before analyzer in `crates/check` replays.
//!
//! Shared-memory *data* accesses are not visible to a library, so they are
//! annotated explicitly: call [`data_read`] / [`data_write`] with a stable
//! address next to an access the detector should check. Both are
//! always-compiled inline no-ops while the feature is off (or recording is
//! disarmed), so annotations need no `cfg` plumbing at call sites.
//!
//! Sequence numbers linearize the log. Recording discipline keeps that
//! linearization sound for the happens-before edges the analyzer draws:
//! acquire-flavored events (lock granted, message dequeued, wait returned)
//! are stamped *after* the operation succeeds, release-flavored events
//! (unlock, send, notify) *before* it, so a real release always carries a
//! smaller sequence number than any acquire that observed it. Atomics,
//! which are both, are stamped under a global recording mutex together
//! with the operation itself (armed recording only; disarmed cost is one
//! relaxed atomic load).

use std::panic::Location;

/// Source site of a recorded event.
pub type Site = &'static Location<'static>;

/// Stable identity of a shared location, for [`data_read`] /
/// [`data_write`] annotation sites.
#[inline(always)]
pub fn addr_of<T: ?Sized>(r: &T) -> usize {
    r as *const T as *const () as usize
}

/// Memory-ordering class of a recorded atomic operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOrd {
    /// `Ordering::Relaxed` — no happens-before edge.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

impl AtomicOrd {
    /// Classifies a std `Ordering`.
    pub fn of(o: std::sync::atomic::Ordering) -> Self {
        use std::sync::atomic::Ordering::*;
        match o {
            Relaxed => AtomicOrd::Relaxed,
            Acquire => AtomicOrd::Acquire,
            Release => AtomicOrd::Release,
            AcqRel => AtomicOrd::AcqRel,
            _ => AtomicOrd::SeqCst,
        }
    }

    /// Token used in the text log.
    pub fn token(self) -> &'static str {
        match self {
            AtomicOrd::Relaxed => "rlx",
            AtomicOrd::Acquire => "acq",
            AtomicOrd::Release => "rel",
            AtomicOrd::AcqRel => "ar",
            AtomicOrd::SeqCst => "sc",
        }
    }
}

/// One recorded sync-operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecOp {
    /// Mutex acquired (stamped after the grant).
    LockAcq,
    /// Mutex released (stamped before the release).
    LockRel,
    /// RwLock read lock acquired / released.
    ReadAcq,
    /// See [`RecOp::ReadAcq`].
    ReadRel,
    /// RwLock write lock acquired / released.
    WriteAcq,
    /// See [`RecOp::WriteAcq`].
    WriteRel,
    /// Condvar notify (one or all; release-flavored).
    CvNotify,
    /// Condvar wait returned (acquire-flavored; the mutex reacquisition is
    /// logged separately as [`RecOp::LockAcq`]).
    CvWaitReturn,
    /// Channel send (stamped before enqueue).
    ChanSend,
    /// Channel receive (stamped after dequeue).
    ChanRecv,
    /// Atomic load with the given ordering.
    AtomicLoad(AtomicOrd),
    /// Atomic store with the given ordering.
    AtomicStore(AtomicOrd),
    /// Atomic read-modify-write with the given ordering.
    AtomicRmw(AtomicOrd),
    /// Thread spawned; payload is the child's preallocated recorder tid.
    Spawn(u64),
    /// First event of a spawned thread.
    ThreadStart,
    /// Last event of a spawned thread.
    ThreadEnd,
    /// Thread joined; payload is the joined child's recorder tid.
    Join(u64),
    /// Annotated shared-memory read (see [`data_read`]).
    DataRead,
    /// Annotated shared-memory write (see [`data_write`]).
    DataWrite,
}

impl RecOp {
    /// `(op token, extra column)` for the text log.
    pub fn tokens(self) -> (&'static str, Option<String>) {
        match self {
            RecOp::LockAcq => ("acq", None),
            RecOp::LockRel => ("rel", None),
            RecOp::ReadAcq => ("racq", None),
            RecOp::ReadRel => ("rrel", None),
            RecOp::WriteAcq => ("wacq", None),
            RecOp::WriteRel => ("wrel", None),
            RecOp::CvNotify => ("notify", None),
            RecOp::CvWaitReturn => ("cvret", None),
            RecOp::ChanSend => ("send", None),
            RecOp::ChanRecv => ("recv", None),
            RecOp::AtomicLoad(o) => ("aload", Some(o.token().to_string())),
            RecOp::AtomicStore(o) => ("astore", Some(o.token().to_string())),
            RecOp::AtomicRmw(o) => ("armw", Some(o.token().to_string())),
            RecOp::Spawn(child) => ("spawn", Some(child.to_string())),
            RecOp::ThreadStart => ("start", None),
            RecOp::ThreadEnd => ("end", None),
            RecOp::Join(child) => ("join", Some(child.to_string())),
            RecOp::DataRead => ("dr", None),
            RecOp::DataWrite => ("dw", None),
        }
    }
}

#[cfg(feature = "record")]
mod imp {
    use super::{RecOp, Site};
    use dooc_obs::ring::{LocalRing, Rings};
    use std::cell::{Cell, RefCell};
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// One recorded sync event (the `E` line of the text log).
    #[derive(Clone, Debug)]
    pub struct RecEvent {
        /// Global sequence number (linearizes the log).
        pub seq: u64,
        /// Operation kind.
        pub op: RecOp,
        /// Stable object identity (address).
        pub obj: usize,
        /// Source site that performed the operation.
        pub site: Site,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static SEQ: AtomicU64 = AtomicU64::new(0);

    fn rings() -> &'static Rings<RecEvent> {
        static R: OnceLock<Rings<RecEvent>> = OnceLock::new();
        R.get_or_init(|| Rings::new(1 << 18))
    }

    thread_local! {
        static LOCAL: LocalRing<RecEvent> = const { RefCell::new(None) };
        static ADOPTED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Starts recording. Rings keep accumulating until [`take_log`] or
    /// [`clear`]; arm/disarm only gates new events.
    pub fn arm() {
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Stops recording (buffered events stay until drained).
    pub fn disarm() {
        ARMED.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on: the single relaxed load that is the whole
    /// disarmed-path cost of every hook.
    #[inline]
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Reserves a recorder tid for a thread about to be spawned, so the
    /// parent's [`RecOp::Spawn`] event can name it before the child runs.
    pub fn preallocate_tid() -> u64 {
        rings().alloc_tid()
    }

    /// Binds the calling thread to a tid preallocated by its spawner. Must
    /// run before the thread's first recorded event.
    pub fn adopt_tid(tid: u64) {
        ADOPTED.with(|a| a.set(Some(tid)));
    }

    /// Records one event on the calling thread (armed recording only).
    ///
    /// The armed check is all that inlines at call sites; the recording
    /// body stays outlined and cold so the disarmed hot path costs one
    /// relaxed load without bloating every wrapped operation.
    #[inline]
    pub fn ev_at(op: RecOp, obj: usize, site: Site) {
        if !armed() {
            return;
        }
        ev_slow(op, obj, site);
    }

    #[cold]
    #[inline(never)]
    fn ev_slow(op: RecOp, obj: usize, site: Site) {
        let r = rings();
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        r.record_in(
            &LOCAL,
            || ADOPTED.with(|a| a.take()).unwrap_or_else(|| r.alloc_tid()),
            RecEvent { seq, op, obj, site },
        );
    }

    /// Records one event attributed to the caller's source site.
    #[inline]
    #[track_caller]
    pub fn ev(op: RecOp, obj: usize) {
        if !armed() {
            return;
        }
        ev_at(op, obj, std::panic::Location::caller());
    }

    /// Annotates a shared-memory read of `addr` for the race detector.
    #[inline]
    #[track_caller]
    pub fn data_read(addr: usize) {
        if !armed() {
            return;
        }
        ev_at(RecOp::DataRead, addr, std::panic::Location::caller());
    }

    /// Annotates a shared-memory write of `addr` for the race detector.
    #[inline]
    #[track_caller]
    pub fn data_write(addr: usize) {
        if !armed() {
            return;
        }
        ev_at(RecOp::DataWrite, addr, std::panic::Location::caller());
    }

    /// Serializes an armed atomic operation with its record stamp so the
    /// log's sequence order matches the real linearization order of the
    /// atomics (see the module docs). Disarmed paths never touch this.
    pub fn atomic_section() -> parking_lot::MutexGuard<'static, ()> {
        static M: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
        M.get_or_init(|| parking_lot::Mutex::new(())).lock()
    }

    /// Serializes whole recording sessions. The recorder is one global
    /// facility (arm flag, sequence counter, ring registry), so two
    /// concurrent `clear`/`arm` … `disarm`/`take_log` windows — e.g. test
    /// threads in one binary — would mix their events and disarm each
    /// other. Hold the returned guard across the whole window.
    pub fn session() -> parking_lot::MutexGuard<'static, ()> {
        static M: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
        M.get_or_init(|| parking_lot::Mutex::new(())).lock()
    }

    type Pins = parking_lot::Mutex<std::collections::HashMap<usize, Box<dyn std::any::Any + Send>>>;

    fn pins() -> &'static Pins {
        static P: OnceLock<Pins> = OnceLock::new();
        P.get_or_init(Default::default)
    }

    /// Keeps `obj`, the owner of the memory at `addr`, alive until
    /// [`clear`]; returns whether `addr` was pinned for the first time this
    /// session. Annotation sites that stamp heap addresses (e.g. channel
    /// payload bytes) pin the owning allocation so the allocator cannot
    /// recycle an annotated address mid-session — reuse would alias
    /// unrelated accesses in the happens-before shadow state and report
    /// phantom races. The pin mutex is internal `parking_lot`, invisible to
    /// the recorder: it must not add happens-before edges between the
    /// accesses it serves.
    pub fn pin(addr: usize, obj: Box<dyn std::any::Any + Send>) -> bool {
        pins().lock().insert(addr, obj).is_none()
    }

    /// Discards everything buffered so far (between analysis runs).
    pub fn clear() {
        let _ = rings().drain();
        pins().lock().clear();
    }

    /// Drains all rings into the `dooc-race v1` text log:
    ///
    /// ```text
    /// dooc-race v1
    /// T <tid> <thread name>
    /// E <seq> <tid> <op> <obj> <extra> <file>:<line>:<col>
    /// ```
    ///
    /// `E` lines are sorted by sequence number; `<extra>` is the atomic
    /// ordering token or the spawned/joined child tid, `-` otherwise.
    pub fn take_log() -> String {
        let (per_thread, dropped) = rings().drain();
        let mut threads: Vec<(u64, String)> = Vec::new();
        let mut events: Vec<(u64, RecEvent)> = Vec::new();
        for (tid, name, evs) in per_thread {
            threads.push((tid, name));
            for e in evs {
                events.push((tid, e));
            }
        }
        threads.sort();
        events.sort_by_key(|(_, e)| e.seq);
        let mut out = String::from("dooc-race v1\n");
        if dropped > 0 {
            let _ = writeln!(out, "# dropped {dropped}");
        }
        for (tid, name) in threads {
            let _ = writeln!(out, "T {tid} {name}");
        }
        for (tid, e) in events {
            let (op, extra) = e.op.tokens();
            let _ = writeln!(
                out,
                "E {} {} {} {} {} {}",
                e.seq,
                tid,
                op,
                e.obj,
                extra.as_deref().unwrap_or("-"),
                e.site
            );
        }
        out
    }
}

#[cfg(feature = "record")]
pub use imp::{
    adopt_tid, arm, armed, atomic_section, clear, data_read, data_write, disarm, ev, ev_at, pin,
    preallocate_tid, session, take_log, RecEvent,
};

// Disarmed-build no-ops: annotation call sites and the modeled-wrapper
// hooks compile away entirely without any `cfg` plumbing of their own.
#[cfg(not(feature = "record"))]
mod noop {
    use super::{RecOp, Site};

    /// Whether recording is on (`record` feature disabled: always false).
    #[inline(always)]
    pub fn armed() -> bool {
        false
    }

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn ev(_op: RecOp, _obj: usize) {}

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn ev_at(_op: RecOp, _obj: usize, _site: Site) {}

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn data_read(_addr: usize) {}

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn data_write(_addr: usize) {}

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn preallocate_tid() -> u64 {
        0
    }

    /// No-op (the `record` feature is disabled). Never reached at runtime:
    /// callers gate on [`armed`], which is always false here.
    #[inline(always)]
    pub fn atomic_section() {}

    /// No-op (the `record` feature is disabled).
    #[inline(always)]
    pub fn adopt_tid(_tid: u64) {}

    /// No-op (the `record` feature is disabled). Never reached at runtime:
    /// callers gate on [`armed`], which is always false here.
    #[inline(always)]
    pub fn pin(_addr: usize, _obj: Box<dyn std::any::Any + Send>) -> bool {
        false
    }
}

#[cfg(not(feature = "record"))]
pub use noop::{
    adopt_tid, armed, atomic_section, data_read, data_write, ev, ev_at, pin, preallocate_tid,
};

#[cfg(all(test, feature = "record"))]
mod tests {
    use super::*;

    #[test]
    fn log_format_round_trip() {
        // Process-global recorder; run the whole scenario under one test.
        imp::clear();
        imp::arm();
        ev(RecOp::LockAcq, 0x10);
        let child = imp::preallocate_tid();
        ev(RecOp::Spawn(child), 0);
        std::thread::spawn(move || {
            imp::adopt_tid(child);
            ev(RecOp::ThreadStart, 0);
            ev(RecOp::AtomicRmw(AtomicOrd::Relaxed), 0x20);
            ev(RecOp::ThreadEnd, 0);
        })
        .join()
        .unwrap();
        ev(RecOp::Join(child), 0);
        ev(RecOp::LockRel, 0x10);
        imp::disarm();
        ev(RecOp::LockAcq, 999983); // disarmed: must not appear
        let log = imp::take_log();
        assert!(log.starts_with("dooc-race v1\n"), "{log}");
        let e_lines: Vec<&str> = log.lines().filter(|l| l.starts_with("E ")).collect();
        assert_eq!(e_lines.len(), 7, "{log}");
        assert!(log.contains(&format!(" spawn 0 {child} ")), "{log}");
        assert!(log.contains(&format!(" join 0 {child} ")), "{log}");
        assert!(log.contains(" armw 32 rlx "), "{log}");
        assert!(!log.contains("999983"), "disarmed event leaked: {log}");
        // Seqs strictly increase down the file.
        let seqs: Vec<u64> = e_lines
            .iter()
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }
}
