//! `model`-build wrapper types, path-compatible with the `real` module.
//!
//! Each primitive checks whether the calling thread is a task of a
//! [`model::run`](crate::model::run) execution. Inside one, every visible
//! operation goes through the execution's scheduler: yield before the op,
//! virtual blocking instead of OS blocking, explicit wakeups. Outside an
//! execution the wrappers delegate to the real primitives, so `model`
//! builds still behave correctly in ordinary tests.
//!
//! Contracts that differ from real builds (all checked or documented):
//!
//! * Channels are given a *flavor* at creation time: created inside an
//!   execution they are virtual (explorable), outside they are real. Using
//!   a real channel inside an execution, or a virtual one outside, panics
//!   with a diagnostic — mixing would let a task block the whole execution
//!   on an OS wait the scheduler cannot see.
//! * There is no virtual clock: `recv_timeout`, `select_timeout` and
//!   `Condvar::wait_for` never time out inside an execution; a wait that
//!   can only end by timeout surfaces as a reported deadlock instead.
//! * A panic in any task fails the whole execution (the exploration
//!   engine's detection signal), rather than being contained to `join`.

use crate::model::{self, BlockReason, Op, TaskId};
use parking_lot as pl;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

fn addr_of<T: ?Sized>(r: &T) -> usize {
    r as *const T as *const () as usize
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-aware mutex: virtual ownership inside an execution, delegation to
/// the real mutex outside.
pub struct Mutex<T> {
    /// Virtual owner, maintained only for model-scheduled acquisitions.
    owner: pl::Mutex<Option<TaskId>>,
    data: pl::Mutex<T>,
}

/// RAII guard for the model-aware [`Mutex`].
///
/// The real guard is `Option`-wrapped so [`Condvar::wait`] can release and
/// re-take it; it is `Some` whenever user code can observe the guard.
pub struct MutexGuard<'a, T> {
    mx: &'a Mutex<T>,
    inner: Option<pl::MutexGuard<'a, T>>,
    /// `Some` when acquired under a scheduler: the execution to notify on
    /// release, plus this mutex's stable object id.
    model: Option<(Arc<model::Exec>, usize)>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            owner: pl::Mutex::new(None),
            data: pl::Mutex::new(value),
        }
    }

    /// Acquires the lock; a scheduling point inside an execution.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some((exec, me)) = model::active() {
            let oid = exec.obj_id(addr_of(self));
            exec.yield_point(me, Op::MutexLock(oid));
            self.lock_logical(&exec, me, oid);
            let inner = self
                .data
                .try_lock()
                .expect("model mutex data free once virtually granted");
            return MutexGuard {
                mx: self,
                inner: Some(inner),
                model: Some((exec, oid)),
            };
        }
        MutexGuard {
            mx: self,
            inner: Some(self.data.lock()),
            model: None,
        }
    }

    /// Attempts the lock without (virtually) blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some((exec, me)) = model::active() {
            let oid = exec.obj_id(addr_of(self));
            exec.yield_point(me, Op::MutexLock(oid));
            let mut owner = self.owner.lock();
            if owner.is_some() {
                return None;
            }
            *owner = Some(me);
            drop(owner);
            let inner = self
                .data
                .try_lock()
                .expect("model mutex data free once virtually granted");
            return Some(MutexGuard {
                mx: self,
                inner: Some(inner),
                model: Some((exec, oid)),
            });
        }
        self.data.try_lock().map(|inner| MutexGuard {
            mx: self,
            inner: Some(inner),
            model: None,
        })
    }

    /// Virtual acquisition loop: take ownership or park until released.
    fn lock_logical(&self, exec: &Arc<model::Exec>, me: TaskId, oid: usize) {
        loop {
            {
                let mut owner = self.owner.lock();
                if owner.is_none() {
                    *owner = Some(me);
                    return;
                }
            }
            exec.block(me, BlockReason::Mutex(oid));
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mutex {{ .. }}")
    }
}

impl<'a, T> MutexGuard<'a, T> {
    /// Releases both the real and the virtual lock (condvar wait path).
    fn release_for_wait(&mut self) {
        self.inner = None;
        if let Some((exec, oid)) = &self.model {
            *self.mx.owner.lock() = None;
            exec.unblock_where(|r| matches!(r, BlockReason::Mutex(a) if a == oid));
        }
    }

    /// Re-acquires after a condvar wait (virtual then real).
    fn reacquire_after_wait(&mut self, me: TaskId) {
        if let Some((exec, oid)) = self.model.clone() {
            self.mx.lock_logical(&exec, me, oid);
            self.inner = Some(
                self.mx
                    .data
                    .try_lock()
                    .expect("model mutex data free once virtually granted"),
            );
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard present outside wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then the virtual ownership, so the
        // next virtually-granted owner finds the data lock free.
        self.inner = None;
        if let Some((exec, oid)) = self.model.take() {
            *self.mx.owner.lock() = None;
            exec.unblock_where(|r| matches!(r, BlockReason::Mutex(a) if *a == oid));
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

struct RwCtl {
    writer: Option<TaskId>,
    readers: Vec<TaskId>,
}

/// Model-aware reader-writer lock (virtual admission inside an execution).
pub struct RwLock<T> {
    ctl: pl::Mutex<RwCtl>,
    data: pl::RwLock<T>,
}

/// Shared-read RAII guard for the model-aware [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lk: &'a RwLock<T>,
    inner: Option<pl::RwLockReadGuard<'a, T>>,
    model: Option<(Arc<model::Exec>, usize, TaskId)>,
}

/// Exclusive-write RAII guard for the model-aware [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lk: &'a RwLock<T>,
    inner: Option<pl::RwLockWriteGuard<'a, T>>,
    model: Option<(Arc<model::Exec>, usize)>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            ctl: pl::Mutex::new(RwCtl {
                writer: None,
                readers: Vec::new(),
            }),
            data: pl::RwLock::new(value),
        }
    }

    /// Acquires a shared read lock; a scheduling point inside an execution.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some((exec, me)) = model::active() {
            let oid = exec.obj_id(addr_of(self));
            exec.yield_point(me, Op::RwRead(oid));
            loop {
                {
                    let mut ctl = self.ctl.lock();
                    if ctl.writer.is_none() {
                        ctl.readers.push(me);
                        break;
                    }
                }
                exec.block(me, BlockReason::RwLock(oid));
            }
            return RwLockReadGuard {
                lk: self,
                inner: Some(self.data.read()),
                model: Some((exec, oid, me)),
            };
        }
        RwLockReadGuard {
            lk: self,
            inner: Some(self.data.read()),
            model: None,
        }
    }

    /// Acquires an exclusive write lock; a scheduling point inside an
    /// execution.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some((exec, me)) = model::active() {
            let oid = exec.obj_id(addr_of(self));
            exec.yield_point(me, Op::RwWrite(oid));
            loop {
                {
                    let mut ctl = self.ctl.lock();
                    if ctl.writer.is_none() && ctl.readers.is_empty() {
                        ctl.writer = Some(me);
                        break;
                    }
                }
                exec.block(me, BlockReason::RwLock(oid));
            }
            return RwLockWriteGuard {
                lk: self,
                inner: Some(self.data.write()),
                model: Some((exec, oid)),
            };
        }
        RwLockWriteGuard {
            lk: self,
            inner: Some(self.data.write()),
            model: None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RwLock {{ .. }}")
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present")
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard present")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((exec, oid, me)) = self.model.take() {
            let mut ctl = self.lk.ctl.lock();
            if let Some(i) = ctl.readers.iter().position(|&r| r == me) {
                ctl.readers.remove(i);
            }
            drop(ctl);
            exec.unblock_where(|r| matches!(r, BlockReason::RwLock(a) if *a == oid));
        }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some((exec, oid)) = self.model.take() {
            self.lk.ctl.lock().writer = None;
            exec.unblock_where(|r| matches!(r, BlockReason::RwLock(a) if *a == oid));
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of [`Condvar::wait_for`]: whether the wait hit its timeout.
/// Inside an execution waits never time out (no virtual clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-aware condition variable paired with the facade [`Mutex`].
pub struct Condvar {
    real: pl::Condvar,
    /// FIFO of parked tasks, for deterministic notify_one.
    waiters: pl::Mutex<Vec<TaskId>>,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            real: pl::Condvar::new(),
            waiters: pl::Mutex::new(Vec::new()),
        }
    }

    /// Atomically releases the guard's mutex and parks until notified,
    /// reacquiring the mutex before returning. A scheduling point.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match model::active() {
            Some((exec, me)) if guard.model.is_some() => {
                let oid = exec.obj_id(addr_of(self));
                exec.yield_point(me, Op::CvWait(oid));
                self.waiters.lock().push(me);
                guard.release_for_wait();
                exec.block(me, BlockReason::Condvar(oid));
                guard.reacquire_after_wait(me);
            }
            _ => {
                self.real
                    .wait(guard.inner.as_mut().expect("guard present outside wait"));
            }
        }
    }

    /// Like [`wait`](Self::wait) with an upper bound on the blocking time.
    /// Inside an execution the timeout never fires (documented above).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        match model::active() {
            Some(_) if guard.model.is_some() => {
                self.wait(guard);
                WaitTimeoutResult(false)
            }
            _ => {
                let res = self.real.wait_for(
                    guard.inner.as_mut().expect("guard present outside wait"),
                    timeout,
                );
                WaitTimeoutResult(res.timed_out())
            }
        }
    }

    /// Wakes the longest-parked waiter (deterministic FIFO in the model).
    pub fn notify_one(&self) {
        if let Some((exec, _)) = model::active() {
            let mut w = self.waiters.lock();
            if !w.is_empty() {
                let id = w.remove(0);
                drop(w);
                exec.unblock_task(id);
            }
        }
        self.real.notify_one();
    }

    /// Wakes all parked waiters.
    pub fn notify_all(&self) {
        if let Some((exec, _)) = model::active() {
            let ids: Vec<TaskId> = self.waiters.lock().drain(..).collect();
            for id in ids {
                exec.unblock_task(id);
            }
        }
        self.real.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Model-aware atomic integers: every access is a scheduling point inside
/// an execution; the value itself lives in a real std atomic.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::addr_of;
    use crate::model::{self, Op};

    macro_rules! model_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Model-aware drop-in for the std atomic of the same name.
            pub struct $name {
                v: $std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { v: <$std>::new(v) }
                }

                fn yield_load(&self) {
                    if let Some((exec, me)) = model::active() {
                        let oid = exec.obj_id(addr_of(self));
                        exec.yield_point(me, Op::AtomicLoad(oid));
                    }
                }

                fn yield_rmw(&self) {
                    if let Some((exec, me)) = model::active() {
                        let oid = exec.obj_id(addr_of(self));
                        exec.yield_point(me, Op::AtomicRmw(oid));
                    }
                }

                /// Atomic load; a scheduling point inside an execution.
                pub fn load(&self, o: Ordering) -> $prim {
                    self.yield_load();
                    self.v.load(o)
                }

                /// Atomic store; a scheduling point inside an execution.
                pub fn store(&self, val: $prim, o: Ordering) {
                    self.yield_rmw();
                    self.v.store(val, o)
                }

                /// Atomic swap; a scheduling point inside an execution.
                pub fn swap(&self, val: $prim, o: Ordering) -> $prim {
                    self.yield_rmw();
                    self.v.swap(val, o)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, val: $prim, o: Ordering) -> $prim {
                    self.yield_rmw();
                    self.v.fetch_add(val, o)
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, val: $prim, o: Ordering) -> $prim {
                    self.yield_rmw();
                    self.v.fetch_sub(val, o)
                }

                /// Atomic max, returning the previous value.
                pub fn fetch_max(&self, val: $prim, o: Ordering) -> $prim {
                    self.yield_rmw();
                    self.v.fetch_max(val, o)
                }

                /// Atomic min, returning the previous value.
                pub fn fetch_min(&self, val: $prim, o: Ordering) -> $prim {
                    self.yield_rmw();
                    self.v.fetch_min(val, o)
                }

                /// Atomic compare-exchange; a scheduling point inside an
                /// execution.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.yield_rmw();
                    self.v.compare_exchange(current, new, success, failure)
                }

                /// Mutable access without synchronization.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.v.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $prim {
                    self.v.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$prim>::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // No scheduling point: Debug must stay side-effect free.
                    write!(f, "{:?}", self.v)
                }
            }
        };
    }

    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// Model-aware drop-in for `std::sync::atomic::AtomicBool`.
    pub struct AtomicBool {
        v: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self {
                v: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Atomic load; a scheduling point inside an execution.
        pub fn load(&self, o: Ordering) -> bool {
            if let Some((exec, me)) = model::active() {
                let oid = exec.obj_id(addr_of(self));
                exec.yield_point(me, Op::AtomicLoad(oid));
            }
            self.v.load(o)
        }

        /// Atomic store; a scheduling point inside an execution.
        pub fn store(&self, val: bool, o: Ordering) {
            if let Some((exec, me)) = model::active() {
                let oid = exec.obj_id(addr_of(self));
                exec.yield_point(me, Op::AtomicRmw(oid));
            }
            self.v.store(val, o)
        }

        /// Atomic swap; a scheduling point inside an execution.
        pub fn swap(&self, val: bool, o: Ordering) -> bool {
            if let Some((exec, me)) = model::active() {
                let oid = exec.obj_id(addr_of(self));
                exec.yield_point(me, Op::AtomicRmw(oid));
            }
            self.v.swap(val, o)
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:?}", self.v)
        }
    }
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

/// Model-aware MPMC channels, path-compatible with the real `channel`
/// module. Flavor is fixed at creation: virtual inside an execution, real
/// outside (see the module docs for the mixing contract).
pub mod channel {
    pub use crossbeam::channel::{
        RecvError, RecvTimeoutError, SelectTimeoutError, SendError, TryRecvError,
    };

    use crate::model::{self, BlockReason, Op, VirtChan};
    use std::sync::Arc;
    use std::time::Duration;

    fn chan_oid<T>(exec: &model::Exec, ch: &Arc<VirtChan<T>>) -> usize {
        exec.obj_id(Arc::as_ptr(ch) as usize)
    }

    enum SenderFlavor<T> {
        Real(crossbeam::channel::Sender<T>),
        Virt(Arc<VirtChan<T>>),
    }

    enum ReceiverFlavor<T> {
        Real(crossbeam::channel::Receiver<T>),
        Virt(Arc<VirtChan<T>>),
    }

    /// Sending half of a channel; cloneable.
    pub struct Sender<T> {
        f: SenderFlavor<T>,
    }

    /// Receiving half of a channel; cloneable (clones share the queue).
    pub struct Receiver<T> {
        f: ReceiverFlavor<T>,
    }

    /// Creates a bounded channel with capacity `cap`; virtual when created
    /// inside a model execution.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap))
    }

    /// Creates an unbounded channel; virtual inside a model execution.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        if model::active().is_some() {
            let ch = Arc::new(VirtChan::new(cap));
            (
                Sender {
                    f: SenderFlavor::Virt(Arc::clone(&ch)),
                },
                Receiver {
                    f: ReceiverFlavor::Virt(ch),
                },
            )
        } else {
            let (tx, rx) = match cap {
                Some(c) => crossbeam::channel::bounded(c),
                None => crossbeam::channel::unbounded(),
            };
            (
                Sender {
                    f: SenderFlavor::Real(tx),
                },
                Receiver {
                    f: ReceiverFlavor::Real(rx),
                },
            )
        }
    }

    fn real_inside_execution() -> ! {
        panic!(
            "a channel created outside a model execution was used inside one; \
             create channels inside the exploration closure so they are \
             virtually scheduled"
        )
    }

    fn virt_outside_execution() -> ! {
        panic!(
            "a virtual channel (created inside a model execution) was used \
             after its execution ended; keep channel use inside the \
             exploration closure"
        )
    }

    impl<T> Sender<T> {
        /// Blocks (virtually, inside an execution) until the value is
        /// enqueued, or fails if all receivers dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.f {
                SenderFlavor::Real(tx) => {
                    if model::active().is_some() {
                        real_inside_execution()
                    }
                    tx.send(value)
                }
                SenderFlavor::Virt(ch) => {
                    let Some((exec, me)) = model::active() else {
                        virt_outside_execution()
                    };
                    let oid = chan_oid(&exec, ch);
                    exec.yield_point(me, Op::ChanSend(oid));
                    let mut value = Some(value);
                    loop {
                        {
                            let mut st = ch.st.lock();
                            if st.receivers == 0 {
                                return Err(SendError(value.take().expect("value unsent")));
                            }
                            let full = st.cap.is_some_and(|c| st.queue.len() >= c);
                            if !full {
                                st.queue.push_back(value.take().expect("value unsent"));
                                drop(st);
                                model::wake_channel_readers(&exec, oid);
                                return Ok(());
                            }
                        }
                        exec.block(me, BlockReason::ChanFull(oid));
                    }
                }
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            match &self.f {
                SenderFlavor::Real(tx) => Sender {
                    f: SenderFlavor::Real(tx.clone()),
                },
                SenderFlavor::Virt(ch) => {
                    ch.st.lock().senders += 1;
                    Sender {
                        f: SenderFlavor::Virt(Arc::clone(ch)),
                    }
                }
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if let SenderFlavor::Virt(ch) = &self.f {
                let remaining = {
                    let mut st = ch.st.lock();
                    st.senders -= 1;
                    st.senders
                };
                if remaining == 0 {
                    // Wake receivers so they observe the disconnect. Safe
                    // during unwinds: no scheduling point, just status flips.
                    if let Some((exec, _)) = model::active() {
                        let oid = chan_oid(&exec, ch);
                        model::wake_channel_readers(&exec, oid);
                    }
                }
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks (virtually, inside an execution) until a message arrives
        /// or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            match &self.f {
                ReceiverFlavor::Real(rx) => {
                    if model::active().is_some() {
                        real_inside_execution()
                    }
                    rx.recv()
                }
                ReceiverFlavor::Virt(ch) => {
                    let Some((exec, me)) = model::active() else {
                        virt_outside_execution()
                    };
                    let oid = chan_oid(&exec, ch);
                    exec.yield_point(me, Op::ChanRecv(oid));
                    loop {
                        {
                            let mut st = ch.st.lock();
                            if let Some(v) = st.queue.pop_front() {
                                drop(st);
                                model::wake_channel_writers(&exec, oid);
                                return Ok(v);
                            }
                            if st.senders == 0 {
                                return Err(RecvError);
                            }
                        }
                        exec.block(me, BlockReason::ChanEmpty(oid));
                    }
                }
            }
        }

        /// Non-blocking receive; still a scheduling point inside an
        /// execution.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match &self.f {
                ReceiverFlavor::Real(rx) => {
                    if model::active().is_some() {
                        real_inside_execution()
                    }
                    rx.try_recv()
                }
                ReceiverFlavor::Virt(ch) => {
                    let Some((exec, me)) = model::active() else {
                        virt_outside_execution()
                    };
                    let oid = chan_oid(&exec, ch);
                    exec.yield_point(me, Op::ChanRecv(oid));
                    let mut st = ch.st.lock();
                    if let Some(v) = st.queue.pop_front() {
                        drop(st);
                        model::wake_channel_writers(&exec, oid);
                        Ok(v)
                    } else if st.senders == 0 {
                        Err(TryRecvError::Disconnected)
                    } else {
                        Err(TryRecvError::Empty)
                    }
                }
            }
        }

        /// Receive with a timeout. Inside an execution there is no virtual
        /// clock: this blocks like [`recv`](Self::recv) and never returns
        /// `Timeout`; a stall surfaces as a reported deadlock instead.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match &self.f {
                ReceiverFlavor::Real(rx) => {
                    if model::active().is_some() {
                        real_inside_execution()
                    }
                    rx.recv_timeout(timeout)
                }
                ReceiverFlavor::Virt(_) => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
            }
        }

        /// Number of messages currently queued. Not a scheduling point
        /// (metrics only).
        pub fn len(&self) -> usize {
            match &self.f {
                ReceiverFlavor::Real(rx) => rx.len(),
                ReceiverFlavor::Virt(ch) => ch.st.lock().queue.len(),
            }
        }

        /// Whether the queue is currently empty. Not a scheduling point.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Select-side poll: dequeue or report closure; `None` = not ready.
        fn poll_select(&self, exec: &model::Exec) -> Option<Result<T, RecvError>> {
            let ReceiverFlavor::Virt(ch) = &self.f else {
                real_inside_execution()
            };
            let oid = chan_oid(exec, ch);
            let mut st = ch.st.lock();
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                model::wake_channel_writers(exec, oid);
                Some(Ok(v))
            } else if st.senders == 0 {
                Some(Err(RecvError))
            } else {
                None
            }
        }

        fn virt_oid(&self, exec: &model::Exec) -> usize {
            match &self.f {
                ReceiverFlavor::Virt(ch) => chan_oid(exec, ch),
                ReceiverFlavor::Real(_) => real_inside_execution(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            match &self.f {
                ReceiverFlavor::Real(rx) => Receiver {
                    f: ReceiverFlavor::Real(rx.clone()),
                },
                ReceiverFlavor::Virt(ch) => {
                    ch.st.lock().receivers += 1;
                    Receiver {
                        f: ReceiverFlavor::Virt(Arc::clone(ch)),
                    }
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if let ReceiverFlavor::Virt(ch) = &self.f {
                let remaining = {
                    let mut st = ch.st.lock();
                    st.receivers -= 1;
                    st.receivers
                };
                if remaining == 0 {
                    if let Some((exec, _)) = model::active() {
                        let oid = chan_oid(&exec, ch);
                        model::wake_channel_writers(&exec, oid);
                    }
                }
            }
        }
    }

    /// Multiplexes blocking receives over several registered receivers;
    /// typed, mirroring the vendored crossbeam `Select`.
    pub struct Select<'a, T> {
        rxs: Vec<&'a Receiver<T>>,
        /// Rotating scan offset for fairness (deterministic per instance).
        next_start: usize,
    }

    /// A ready receive operation; the message (or closure verdict) is
    /// captured at selection time.
    pub struct SelectedOperation<T> {
        index: usize,
        result: Result<T, RecvError>,
    }

    impl<'a, T> Select<'a, T> {
        /// Creates an empty selector.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Self {
                rxs: Vec::new(),
                next_start: 0,
            }
        }

        /// Registers a receiver; returns its operation index.
        pub fn recv(&mut self, rx: &'a Receiver<T>) -> usize {
            self.rxs.push(rx);
            self.rxs.len() - 1
        }

        /// Blocks until one registered receiver is ready (message or
        /// closed). A scheduling point inside an execution.
        pub fn select(&mut self) -> SelectedOperation<T> {
            match model::active() {
                Some((exec, me)) => {
                    assert!(!self.rxs.is_empty(), "select with no operations");
                    exec.yield_point(me, Op::ChanSelect);
                    let oids: Vec<usize> = self.rxs.iter().map(|rx| rx.virt_oid(&exec)).collect();
                    loop {
                        let n = self.rxs.len();
                        let start = self.next_start % n;
                        for k in 0..n {
                            let i = (start + k) % n;
                            if let Some(result) = self.rxs[i].poll_select(&exec) {
                                self.next_start = i + 1;
                                return SelectedOperation { index: i, result };
                            }
                        }
                        exec.block(me, BlockReason::SelectWait(oids.clone()));
                    }
                }
                None => {
                    let mut sel = crossbeam::channel::Select::new();
                    for rx in &self.rxs {
                        match &rx.f {
                            ReceiverFlavor::Real(r) => {
                                sel.recv(r);
                            }
                            ReceiverFlavor::Virt(_) => virt_outside_execution(),
                        }
                    }
                    let op = sel.select();
                    let index = op.index();
                    let ReceiverFlavor::Real(r) = &self.rxs[index].f else {
                        virt_outside_execution()
                    };
                    let result = op.recv(r);
                    SelectedOperation { index, result }
                }
            }
        }

        /// Like [`select`](Self::select) with a timeout; inside an
        /// execution the timeout never fires (no virtual clock).
        pub fn select_timeout(
            &mut self,
            timeout: Duration,
        ) -> Result<SelectedOperation<T>, SelectTimeoutError> {
            match model::active() {
                Some(_) => Ok(self.select()),
                None => {
                    let mut sel = crossbeam::channel::Select::new();
                    for rx in &self.rxs {
                        match &rx.f {
                            ReceiverFlavor::Real(r) => {
                                sel.recv(r);
                            }
                            ReceiverFlavor::Virt(_) => virt_outside_execution(),
                        }
                    }
                    let op = sel.select_timeout(timeout)?;
                    let index = op.index();
                    let ReceiverFlavor::Real(r) = &self.rxs[index].f else {
                        virt_outside_execution()
                    };
                    let result = op.recv(r);
                    Ok(SelectedOperation { index, result })
                }
            }
        }
    }

    impl<T> SelectedOperation<T> {
        /// Index of the ready operation (registration order).
        pub fn index(&self) -> usize {
            self.index
        }

        /// Completes the receive. The receiver argument mirrors crossbeam's
        /// API; the message was already captured at selection time.
        pub fn recv(self, _rx: &Receiver<T>) -> Result<T, RecvError> {
            self.result
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Model-aware thread spawn/join/yield: virtual tasks inside an execution,
/// std threads outside.
pub mod thread {
    use crate::model;
    use parking_lot as pl;
    use std::sync::Arc;
    use std::time::Duration;

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            id: model::TaskId,
            result: Arc<pl::Mutex<Option<T>>>,
        },
    }

    /// Handle to a spawned thread or model task.
    pub struct JoinHandle<T> {
        inner: Inner<T>,
    }

    /// Spawns a thread; inside an execution this creates a virtual task
    /// scheduled by the execution's chooser.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if model::active().is_some() {
            let result = Arc::new(pl::Mutex::new(None));
            let slot = Arc::clone(&result);
            let id = model::spawn_task(Box::new(move || {
                let v = f();
                *slot.lock() = Some(v);
            }));
            JoinHandle {
                inner: Inner::Model { id, result },
            }
        } else {
            JoinHandle {
                inner: Inner::Std(std::thread::spawn(f)),
            }
        }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread/task to finish. In the model a panic in the
        /// task fails the whole execution before `join` returns, so the
        /// `Err` variant only reports that no value was produced.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Inner::Std(h) => h.join(),
                Inner::Model { id, result } => {
                    model::join_task(id);
                    match result.lock().take() {
                        Some(v) => Ok(v),
                        None => Err(Box::new("model task finished without a value")),
                    }
                }
            }
        }
    }

    /// Yields: a bare scheduling point inside an execution.
    pub fn yield_now() {
        if let Some((exec, me)) = model::active() {
            exec.yield_point(me, model::Op::Yield);
        } else {
            std::thread::yield_now();
        }
    }

    /// Sleeps; inside an execution there is no virtual clock, so this is a
    /// bare scheduling point (the duration is ignored — a wait that only a
    /// real clock can satisfy surfaces as a deadlock report instead).
    pub fn sleep(d: Duration) {
        if let Some((exec, me)) = model::active() {
            exec.yield_point(me, model::Op::Yield);
        } else {
            std::thread::sleep(d);
        }
    }
}
