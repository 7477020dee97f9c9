//! Persistent fork-join compute pool for the node-local kernels.
//!
//! A worker filter executing thousands of tasks cannot pay an OS thread
//! spawn and join per kernel call. [`ComputePool`] keeps the threads alive
//! for the lifetime of a worker run.
//!
//! # Design
//!
//! The pool is a chunked **fork-join** over per-worker bounded deques:
//!
//! * Each worker owns a bounded `VecDeque` of jobs; an idle worker first
//!   drains its own deque, then **steals** from the others (scan order
//!   starting at its home queue).
//! * [`ComputePool::fork_join_with`] splits a kernel into cache-sized chunks
//!   whose results land in **pre-partitioned per-task slots** — each task
//!   writes its own `Mutex<Option<T>>` slot, so there is no output channel
//!   and no reassembly protocol. For slab-resident vectors
//!   ([`crate::slab::SlabVec`]) the slots carry *owned* slabs both ways, so
//!   a parallel slab-wise sum moves pointers, never element data (the repo
//!   forbids `unsafe`, so `&mut` slices cannot cross into `'static` pool
//!   jobs; owned slabs can).
//! * The **submitting thread participates**: it drives the same task counter
//!   as the workers, so a k-way kernel never idles the caller, and on a host
//!   with a single effective core the fork-join degrades to a plain inline
//!   loop (zero queue/wakeup traffic — helpers are gated on
//!   [`ComputePool::parallelism_hint`]).
//! * **Submission never blocks.** The old pool fed a `bounded(nthreads * 4)`
//!   channel, so a full fan-out submitted from a pool-sized caller (e.g. a
//!   nested `run` from inside a pool job) could block the submitter forever.
//!   Now a fan-out enqueues at most `nthreads` helper jobs, and if every
//!   deque is full the helper is simply discarded — helpers only *add*
//!   parallelism; the caller always completes the batch itself (regression
//!   test: `nested_fanout_from_pool_job_completes`).
//!
//! All synchronization goes through the `dooc-sync` facade, so `model`
//! builds explore the steal/park/unpark protocol under the shuttle scheduler
//! (`check/tests/explore_pool.rs`). The slab hand-off itself needs no
//! checker: slots are `Mutex`es and slabs move by value, so safe Rust admits
//! no unsynchronized access to one.
//!
//! # Park/unpark protocol
//!
//! Workers park on a condvar guarded by a `sleepers` count. The no-lost-
//! wakeup argument: a submitter increments `pending` *before* pushing and
//! only then takes the sleepers lock to notify; a worker only parks after
//! re-checking `pending == 0` *under* that same lock. Whichever side takes
//! the lock second sees the other's effect (mutex ordering), so either the
//! worker observes `pending > 0` and retries, or the submitter observes
//! `sleepers > 0` and notifies. `pending` is incremented before the push so
//! the pop-side decrement can never underflow; the tiny window where a
//! worker sees `pending > 0` before the job is visible is a bounded retry
//! (with a yield) rather than a park.

use crate::csr::ElemMut;
use crate::slab::SlabVec;
use crate::view::{SpmvOperand, SpmvVector};
use crate::{dense, Result};
use bytes::Bytes;
use dooc_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use dooc_sync::{thread, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// A job queued to the pool: runs on one worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Below this many non-zeros an SpMV runs serially on the submitting thread:
/// the fan-out costs more than the multiply itself. Its last calibration, on
/// a 2-vCPU x86-64 host, had the fan-out ahead of the serial kernel from
/// 62 793 nnz up (1.0-2.1x; CHANGES.md keeps the rows), so the crossover
/// lies far below this value. Moving it is a performance change for the
/// end-to-end benchmark to judge, not a constant to retune from a
/// micro-benchmark.
pub const SPMV_SERIAL_MAX_NNZ: usize = 1_048_576;

/// Per-worker deque capacity. Helpers beyond this are discarded (they only
/// add parallelism), so submission never blocks.
pub const QUEUE_CAP: usize = 256;

/// Fan-outs split into `parallelism * TASKS_PER_THREAD` chunks so the
/// stealing deques can rebalance uneven chunks (nnz skew, cache effects).
const TASKS_PER_THREAD: usize = 4;

/// Shared state between the pool handle and its workers.
struct Inner {
    /// One bounded deque per worker; submitters push round-robin, an idle
    /// worker pops its own queue first and then steals from the others.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Number of workers parked on `wakeup`.
    sleepers: Mutex<usize>,
    wakeup: Condvar,
    /// Jobs submitted but not yet claimed (incremented before the push).
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Round-robin cursor for selecting a submission queue.
    rr: AtomicUsize,
}

impl Inner {
    fn new(nthreads: usize) -> Self {
        Inner {
            queues: (0..nthreads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleepers: Mutex::new(0),
            wakeup: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
        }
    }

    /// Pops a job, scanning from `home`: own queue first, then steal.
    fn claim(&self, home: usize) -> Option<Job> {
        let k = self.queues.len();
        for off in 0..k {
            let mut q = self.queues[(home + off) % k].lock();
            if let Some(job) = q.pop_front() {
                // Cannot underflow: the submitter increments before pushing.
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(job);
            }
        }
        None
    }

    /// Enqueues a helper job; returns it to the caller if every deque is at
    /// capacity. Never blocks.
    fn submit(&self, job: Job, cap: usize) -> Option<Job> {
        let k = self.queues.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % k;
        self.pending.fetch_add(1, Ordering::Release);
        for off in 0..k {
            let mut q = self.queues[(start + off) % k].lock();
            if q.len() < cap {
                q.push_back(job);
                drop(q);
                let sleepers = self.sleepers.lock();
                if *sleepers > 0 {
                    self.wakeup.notify_one();
                }
                return None;
            }
        }
        self.pending.fetch_sub(1, Ordering::AcqRel);
        Some(job)
    }

    fn worker_loop(&self, home: usize) {
        loop {
            if let Some(job) = self.claim(home) {
                // A panicking job must not kill the worker: the fork-join
                // completion guard has already recorded the panic for the
                // caller; keep the pool at full strength.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                continue;
            }
            let mut sleepers = self.sleepers.lock();
            if self.pending.load(Ordering::Acquire) > 0 {
                // Submitted but not yet visible in a queue, or another
                // worker is mid-claim; retry instead of parking.
                drop(sleepers);
                thread::yield_now();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            *sleepers += 1;
            self.wakeup.wait(&mut sleepers);
            *sleepers -= 1;
        }
    }
}

/// One fork-join batch: a task generator plus pre-partitioned result slots.
struct Fork<T, G> {
    gen: G,
    ntasks: usize,
    /// Next unclaimed task index (claimed by caller and helpers alike).
    next: AtomicUsize,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// Per-task result slots, written exactly once by whoever claims the task.
    slots: Vec<Mutex<Option<T>>>,
    done: Mutex<bool>,
    cv: Condvar,
}

/// Completion bookkeeping for one claimed task; runs on drop so a panicking
/// task still decrements `remaining` and wakes the caller.
struct TaskGuard<'a> {
    remaining: &'a AtomicUsize,
    panicked: &'a AtomicBool,
    done: &'a Mutex<bool>,
    cv: &'a Condvar,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.panicked.store(true, Ordering::Release);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock();
            *done = true;
            self.cv.notify_all();
        }
    }
}

impl<T, G: Fn(usize) -> T> Fork<T, G> {
    /// Claims and runs tasks until the counter is exhausted. Runs on the
    /// caller and on every helper job.
    fn drive(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.ntasks {
                return;
            }
            let _guard = TaskGuard {
                remaining: &self.remaining,
                panicked: &self.panicked,
                done: &self.done,
                cv: &self.cv,
            };
            let out = (self.gen)(i);
            *self.slots[i].lock() = Some(out);
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait(&mut done);
        }
    }
}

/// A fixed-size pool of persistent compute threads with stealing deques.
///
/// Dropping the pool signals shutdown and joins every worker.
pub struct ComputePool {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
    host_parallelism: usize,
}

impl ComputePool {
    /// Spawns a pool of `nthreads` workers (at least one).
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        let inner = Arc::new(Inner::new(nthreads));
        let workers = (0..nthreads)
            .map(|home| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || inner.worker_loop(home))
            })
            .collect();
        Self {
            inner,
            workers,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Number of worker threads.
    pub fn nthreads(&self) -> usize {
        self.workers.len()
    }

    /// Useful parallelism for a data kernel: pool workers plus the
    /// participating caller, clamped to what the host can actually run
    /// concurrently. On a 1-core host this is 1, and every kernel fan-out
    /// collapses to an inline serial loop with zero pool traffic.
    pub fn parallelism_hint(&self) -> usize {
        (self.nthreads() + 1).min(self.host_parallelism).max(1)
    }

    /// Splits `ntasks` tasks across the caller plus up to `parallelism - 1`
    /// helper workers; returns the task outputs in index order.
    ///
    /// Each task's output lands in its own pre-partitioned slot; the caller
    /// participates until the shared counter is exhausted, then waits for
    /// stragglers. With `parallelism <= 1` (or a single task) this is an
    /// inline loop that touches no synchronization at all.
    ///
    /// Panics with "compute pool task panicked" if any task panicked.
    pub fn fork_join_with<T, G>(&self, ntasks: usize, parallelism: usize, gen: G) -> Vec<T>
    where
        T: Send + 'static,
        G: Fn(usize) -> T + Send + Sync + 'static,
    {
        if ntasks == 0 {
            return Vec::new();
        }
        let helpers = parallelism
            .saturating_sub(1)
            .min(self.nthreads())
            .min(ntasks - 1);
        if helpers == 0 {
            return (0..ntasks).map(gen).collect();
        }
        let fork = Arc::new(Fork {
            gen,
            ntasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(ntasks),
            panicked: AtomicBool::new(false),
            slots: (0..ntasks).map(|_| Mutex::new(None)).collect(),
            done: Mutex::new(false),
            cv: Condvar::new(),
        });
        for _ in 0..helpers {
            let f = Arc::clone(&fork);
            // Full deques just mean fewer helpers; the caller still
            // completes the batch below.
            drop(self.inner.submit(Box::new(move || f.drive()), QUEUE_CAP));
        }
        fork.drive();
        fork.wait();
        if fork.panicked.load(Ordering::Acquire) {
            panic!("compute pool task panicked");
        }
        fork.slots
            .iter()
            .map(|s| s.lock().take().expect("every fork-join slot filled"))
            .collect()
    }

    /// [`Self::fork_join_with`] at the pool's [`Self::parallelism_hint`].
    pub fn fork_join<T, G>(&self, ntasks: usize, gen: G) -> Vec<T>
    where
        T: Send + 'static,
        G: Fn(usize) -> T + Send + Sync + 'static,
    {
        self.fork_join_with(ntasks, self.parallelism_hint(), gen)
    }

    /// Runs the given jobs on the pool and returns their outputs in input
    /// order. Blocks until every job finished.
    ///
    /// Unlike the data kernels this always fans out to the workers (it is
    /// the semantic "run these on the pool" API and is what the shuttle
    /// tests use to exercise the steal/park protocol on any host). Safe to
    /// call from inside a pool job: submission never blocks and the calling
    /// job drives the batch itself.
    pub fn run<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        type TaskSlots<T> = Vec<Mutex<Option<Box<dyn FnOnce() -> T + Send>>>>;
        let n = jobs.len();
        let tasks: Arc<TaskSlots<T>> =
            Arc::new(jobs.into_iter().map(|j| Mutex::new(Some(j))).collect());
        self.fork_join_with(n, self.nthreads() + 1, move |i| {
            (tasks[i].lock().take().expect("each job runs exactly once"))()
        })
    }

    /// Pool-backed parallel SpMV `y = A * x`, nnz-balanced across the pool's
    /// workers, for an owned [`crate::CsrMatrix`] or a [`crate::CsrBytes`]
    /// buffer alike, `x` and `y` as `f64`s or as their stored little-endian
    /// bytes ([`SpmvVector`], [`ElemMut`]). Matches
    /// [`crate::CsrMatrix::spmv_into`] bit-for-bit (same per-row
    /// accumulation order).
    pub fn spmv<M, X, Y>(&self, m: &Arc<M>, x: &X, y: &mut [Y]) -> Result<()>
    where
        M: SpmvOperand,
        X: SpmvVector,
        Y: ElemMut<f64>,
    {
        let a = m.csr();
        let par = self.parallelism_hint().min(a.nrows().max(1) as usize);
        if par == 1 || (a.nnz() as usize) < SPMV_SERIAL_MAX_NNZ {
            return a.spmv_into(x.elems(), y);
        }
        // The serial kernel checks dimensions itself; the fan-out indexes.
        a.check_dims(x.elems(), y)?;
        self.spmv_fanout(m, x, y, par);
        Ok(())
    }

    /// The fork-join body of [`ComputePool::spmv`] at an explicit
    /// `parallelism`, without the serial routing (kept public so tests and
    /// the schedule explorer cover it at any input size and forced
    /// concurrency).
    pub fn spmv_fanout<M, X, Y>(&self, m: &Arc<M>, x: &X, y: &mut [Y], parallelism: usize)
    where
        M: SpmvOperand,
        X: SpmvVector,
        Y: ElemMut<f64>,
    {
        let a = m.csr();
        let nrows = (a.nrows() as usize).max(1);
        let par = parallelism.clamp(1, nrows);
        let ntasks = (par * TASKS_PER_THREAD).min(nrows);
        let bounds = a.nnz_balanced_row_partition(ntasks);
        let slabs = {
            let m = Arc::clone(m);
            let x = x.clone();
            let bounds = bounds.clone();
            self.fork_join_with(ntasks, par, move |t| {
                m.csr()
                    .spmv_rows::<_, Y>(x.elems(), bounds[t], bounds[t + 1])
            })
        };
        for (t, slab) in slabs.iter().enumerate() {
            let lo = bounds[t] as usize;
            y[lo..lo + slab.len()].copy_from_slice(slab);
        }
    }

    /// Pool-backed `y += x` where `x` is still the little-endian bytes it
    /// was stored as (a pinned storage block, say): each slab is folded in
    /// with [`dense::add_assign_le`], so no `Vec<f64>` of `x` ever exists.
    /// Bitwise equal to [`dense::add_assign`] of the decoded `x`.
    pub fn add_le_slabs(&self, x: &Bytes, y: &mut SlabVec) {
        self.update_slabs(y, add_le_range(x, y.len()));
    }

    /// The fork-join body of [`ComputePool::add_le_slabs`] at an explicit
    /// `parallelism`, without the serial routing (kept public, as
    /// [`ComputePool::spmv_fanout`] is, so tests cover the slab hand-off at
    /// any length and forced concurrency).
    pub fn add_le_slabs_fanout(&self, x: &Bytes, y: &mut SlabVec, parallelism: usize) {
        self.update_slabs_fanout(y, parallelism, add_le_range(x, y.len()));
    }

    /// Applies `f(lo, hi, slab)` to every slab of `y` (`[lo, hi)` is the
    /// slab's element range): inline below [`dense::AXPY_SERIAL_MAX`], else
    /// through [`ComputePool::update_slabs_fanout`].
    fn update_slabs<F>(&self, y: &mut SlabVec, f: F)
    where
        F: Fn(usize, usize, &mut [f64]) + Send + Sync + 'static,
    {
        let par = self.parallelism_hint().min(y.nslabs().max(1));
        if par == 1 || y.len() < dense::AXPY_SERIAL_MAX {
            for i in 0..y.nslabs() {
                let (lo, hi) = y.slab_range(i);
                f(lo, hi, &mut y.slabs_mut()[i]);
            }
            return;
        }
        self.update_slabs_fanout(y, par, f);
    }

    /// One fork-join task per slab, each owning its slab for the duration.
    fn update_slabs_fanout<F>(&self, y: &mut SlabVec, parallelism: usize, f: F)
    where
        F: Fn(usize, usize, &mut [f64]) + Send + Sync + 'static,
    {
        let ranges: Vec<(usize, usize)> = (0..y.nslabs()).map(|i| y.slab_range(i)).collect();
        let ntasks = ranges.len();
        if ntasks == 0 {
            return;
        }
        let slots: Arc<Vec<Mutex<Option<Vec<f64>>>>> = Arc::new(
            y.take_slabs()
                .into_iter()
                .map(|s| Mutex::new(Some(s)))
                .collect(),
        );
        let out = self.fork_join_with(ntasks, parallelism, move |i| {
            let mut slab = slots[i].lock().take().expect("slab moved out once");
            let (lo, hi) = ranges[i];
            f(lo, hi, &mut slab);
            slab
        });
        y.restore(out);
    }
}

/// The per-slab body of the slab sums: `slab += x[lo..hi]`, with `x` still
/// little-endian bytes.
fn add_le_range(
    x: &Bytes,
    ylen: usize,
) -> impl Fn(usize, usize, &mut [f64]) + Send + Sync + 'static {
    assert_eq!(x.len(), 8 * ylen, "add operands must have equal length");
    let x = x.clone();
    move |lo, hi, slab| dense::add_assign_le(slab, &x[8 * lo..8 * hi])
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _sleepers = self.inner.sleepers.lock();
            self.inner.wakeup.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn run_preserves_order() {
        let pool = ComputePool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_workers() {
        let pool = ComputePool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..100usize)
            .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(pool.run(jobs).len(), 100);
    }

    #[test]
    fn fork_join_fills_every_slot_in_order() {
        let pool = ComputePool::new(3);
        for ntasks in [1usize, 2, 7, 64] {
            for par in [1usize, 2, 4, 9] {
                let out = pool.fork_join_with(ntasks, par, |i| i * 3);
                assert_eq!(out, (0..ntasks).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
        assert_eq!(pool.fork_join_with(0, 4, |i| i), Vec::<usize>::new());
    }

    /// The old pool fed all jobs through one `bounded(nthreads * 4)`
    /// channel, so a nested fan-out submitted from inside a pool job
    /// (workers busy, channel full) deadlocked the submitter. The fork-join
    /// pool never blocks on submission and the caller drives its own batch.
    #[test]
    fn nested_fanout_from_pool_job_completes() {
        let pool = Arc::new(ComputePool::new(1));
        let p2 = Arc::clone(&pool);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(move || {
            let inner: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
                .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            p2.run(inner).into_iter().sum()
        })];
        assert_eq!(pool.run(jobs), vec![(0..64usize).sum()]);
    }

    #[test]
    fn deep_nested_fanout_many_layers() {
        let pool = Arc::new(ComputePool::new(2));
        fn nest(pool: &Arc<ComputePool>, depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let p = Arc::clone(pool);
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4usize)
                .map(|_| {
                    let p = Arc::clone(&p);
                    Box::new(move || nest(&p, depth - 1)) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            pool.run(jobs).into_iter().sum()
        }
        assert_eq!(nest(&pool, 3), 64);
    }

    #[test]
    fn submit_overflow_returns_job_instead_of_blocking() {
        // An Inner with no workers drains nothing, so pushes accumulate
        // until every deque hits `cap` and submit hands the job back.
        let inner = Inner::new(2);
        let mut returned = 0;
        for _ in 0..10 {
            if inner.submit(Box::new(|| {}), 4).is_some() {
                returned += 1;
            }
        }
        assert_eq!(returned, 2, "8 fit in 2 deques of 4; 2 bounce back");
        assert_eq!(inner.pending.load(Ordering::Acquire), 8);
    }

    #[test]
    fn claim_steals_from_other_queues() {
        let inner = Inner::new(3);
        inner.pending.fetch_add(1, Ordering::Release);
        inner.queues[2].lock().push_back(Box::new(|| {}));
        // Home queue 0 is empty; claim must steal from queue 2.
        assert!(inner.claim(0).is_some());
        assert_eq!(inner.pending.load(Ordering::Acquire), 0);
        assert!(inner.claim(0).is_none());
    }

    #[test]
    fn panicking_task_reports_and_pool_survives() {
        let pool = ComputePool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 5, "task 5 exploded");
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)))
            .expect_err("batch with a panicking task must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("panicked") || msg.contains("exploded"),
            "unexpected panic payload: {msg}"
        );
        // The pool is still fully functional afterwards.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(pool.run(jobs).iter().sum::<usize>(), 136);
    }

    #[test]
    fn pool_spmv_matches_serial() {
        let m = Arc::new(
            CsrMatrix::from_triplets(
                64,
                64,
                &(0..64)
                    .flat_map(|r| [(r, r, 2.0), (r, (r + 1) % 64, -1.0)])
                    .collect::<Vec<_>>(),
            )
            .expect("valid"),
        );
        let x = Arc::new(
            (0..64)
                .map(|i| (i as f64 * 0.3).sin())
                .collect::<Vec<f64>>(),
        );
        let serial = m.spmv(&x).expect("dims ok");
        for nt in [1, 2, 3, 8] {
            let pool = ComputePool::new(nt);
            // Public API (routes serial below the nnz threshold)...
            let mut y = vec![0.0; 64];
            pool.spmv(&m, &x, &mut y).expect("dims ok");
            assert_eq!(y, serial, "pool size {nt}");
            // ...and the fan-out body itself, bit-for-bit, at forced
            // parallelism.
            let mut y = vec![0.0; 64];
            pool.spmv_fanout(&m, &x, &mut y, nt.min(64));
            assert_eq!(y, serial, "fan-out, pool size {nt}");
        }
    }

    #[test]
    fn slab_sum_matches_contiguous_at_forced_parallelism() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let xle = Bytes::from(x.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        let yv: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut reference = yv.clone();
        dense::add_assign(&mut reference, &x);
        let pool = ComputePool::new(4);
        // Serial-routed public API...
        let mut s = SlabVec::from_vec(yv.clone(), 8192);
        pool.add_le_slabs(&xle, &mut s);
        assert_eq!(s.to_vec(), reference);
        // ...and the fan-out body, bit-for-bit (same per-slab kernel).
        let mut s = SlabVec::from_vec(yv, 8192);
        pool.add_le_slabs_fanout(&xle, &mut s, 4);
        assert_eq!(s.to_vec(), reference);
        assert_eq!(s.len(), n);
    }

    #[test]
    fn pool_reuse_across_many_calls() {
        let pool = ComputePool::new(3);
        let m = Arc::new(CsrMatrix::identity(32));
        let x = Arc::new(vec![1.25f64; 32]);
        for _ in 0..50 {
            let mut y = vec![0.0; 32];
            pool.spmv(&m, &x, &mut y).expect("dims ok");
            assert_eq!(y, *x);
        }
    }
}
