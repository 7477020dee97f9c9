//! Intra-task fan-out for the node-local kernels.
//!
//! The paper's local scheduler "splits [tasks] to match the parallelism
//! available on the node" (§III-C). [`ComputePool`] is that split and
//! nothing more. A fan-out cuts its output into contiguous pieces, runs the
//! first piece on the calling thread and every other one on a thread of a
//! `std::thread::scope`, and returns once all of them have joined. The
//! pieces borrow the operands where they lie (a matrix's arrays or a pinned
//! block's bytes, and the `y` the caller writes into), so nothing is shared
//! through an `Arc`, copied in or copied back, and no thread outlives the
//! kernel call. A panic in any piece reaches the caller at the join, with
//! the piece's own payload.
//!
//! [`fork_join_with`] runs independent tasks on the same scoped threads —
//! the cells of a grid to stage ([`crate::BlockGrid::write_cells`]), the
//! block rows of an in-core reference product — handing out one index at a
//! time, each thread keeping its buffers across the tasks it takes.
//!
//! Both kernels run serially below a size threshold
//! ([`SPMV_SERIAL_MAX_NNZ`], [`dense::AXPY_SERIAL_MAX`]), and a split of
//! either is bitwise the serial kernel: every element of `y` is computed by
//! the same code from the same operands, whichever thread computes it.

use crate::csr::{Elem, ElemMut};
use crate::view::CsrView;
use crate::{dense, Result};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many non-zeros an SpMV runs serially on the submitting thread:
/// the fan-out costs more than the multiply itself. Its last calibration, on
/// a 2-vCPU x86-64 host, had the fan-out ahead of the serial kernel from
/// 62 793 nnz up (1.0-2.1x; DESIGN.md, "Serial routing and the one-core
/// collapse"), so the crossover lies far below this value. Moving it is a
/// performance change for the end-to-end benchmark to judge, not a constant
/// to retune from a micro-benchmark.
pub const SPMV_SERIAL_MAX_NNZ: usize = 1_048_576;

/// How many pieces a node's kernels split into. It owns no threads: each
/// fan-out spawns its helpers for the duration of the call.
pub struct ComputePool {
    nthreads: usize,
    host_parallelism: usize,
}

impl ComputePool {
    /// A pool whose fan-outs use up to `nthreads` helper threads (at least
    /// one) beside the caller.
    pub fn new(nthreads: usize) -> Self {
        Self {
            nthreads: nthreads.max(1),
            host_parallelism: host_parallelism(),
        }
    }

    /// Number of helper threads a fan-out may use.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Useful parallelism for a data kernel: the helper threads plus the
    /// participating caller, clamped to what the host can actually run
    /// concurrently. On a 1-core host this is 1, and every kernel runs
    /// serially on the caller.
    pub fn parallelism_hint(&self) -> usize {
        (self.nthreads + 1).min(self.host_parallelism).max(1)
    }

    /// `gen(0)`, …, `gen(ntasks - 1)` on [`Self::parallelism_hint`] threads
    /// ([`fork_join_with`]); the outputs come back in index order.
    pub fn fork_join<T, G>(&self, ntasks: usize, gen: G) -> Vec<T>
    where
        T: Send,
        G: Fn(usize) -> T + Sync,
    {
        fork_join_at(ntasks, self.parallelism_hint(), gen)
    }

    /// SpMV `y = A * x`, `x` and `y` as `f64`s or as their stored
    /// little-endian bytes ([`Elem`], [`ElemMut`]): serial below
    /// [`SPMV_SERIAL_MAX_NNZ`], else [`spmv_fanout`] at the pool's
    /// parallelism. Bitwise [`CsrView::spmv_into`] either way.
    pub fn spmv<X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        a: CsrView<'_>,
        x: &[X],
        y: &mut [Y],
    ) -> Result<()> {
        match self.spmv_parallelism(a.nnz()) {
            1 => a.spmv_into(x, y),
            par => spmv_fanout(a, x, y, par),
        }
    }

    /// How many pieces [`Self::spmv`] cuts a matrix of `nnz` non-zeros
    /// into: 1 (serial, on the caller) below [`SPMV_SERIAL_MAX_NNZ`] or on
    /// a one-core host, else [`Self::parallelism_hint`].
    pub(crate) fn spmv_parallelism(&self, nnz: u64) -> usize {
        let par = self.parallelism_hint();
        if par == 1 || nnz < SPMV_SERIAL_MAX_NNZ as u64 {
            return 1;
        }
        par
    }

    /// `y += x` where `x` is still the little-endian bytes it was stored as
    /// (a pinned storage block, say) and `y` is `f64`s or their stored
    /// bytes too ([`ElemMut`]): serial below [`dense::AXPY_SERIAL_MAX`],
    /// else [`add_le_fanout`] at the pool's parallelism. Bitwise
    /// [`dense::add_assign_le`] either way.
    pub fn add_le<Y: ElemMut<f64>>(&self, y: &mut [Y], x_le: &[u8]) {
        let par = self.parallelism_hint();
        if par == 1 || y.len() < dense::AXPY_SERIAL_MAX {
            return dense::add_assign_le(y, x_le);
        }
        add_le_fanout(y, x_le, par);
    }
}

/// The fan-out of [`ComputePool::spmv`] at an explicit `parallelism`,
/// without the serial routing (public so tests cover it at any size): `y`
/// is split at the nnz-balanced row partition and each piece computes its
/// rows in place.
pub fn spmv_fanout<X: Elem<f64>, Y: ElemMut<f64>>(
    a: CsrView<'_>,
    x: &[X],
    y: &mut [Y],
    parallelism: usize,
) -> Result<()> {
    a.check_dims(x, y)?;
    let bounds = a.nnz_balanced_row_partition(parallelism.clamp(1, y.len().max(1)));
    for_each_piece(&bounds, y, |r0, piece| {
        a.spmv_rows_into(x, r0, piece);
        Ok(())
    })
}

/// Cuts `y` at the row `bounds` (`b[0] = 0 <= b[1] <= ... <= b[p] =
/// y.len()`) and runs `f(r0, piece)` on each piece as [`scoped`] does;
/// the first error in row order, once all have joined.
pub(crate) fn for_each_piece<Y: Send>(
    bounds: &[u64],
    y: &mut [Y],
    f: impl Fn(u64, &mut [Y]) -> Result<()> + Sync,
) -> Result<()> {
    let mut rest = y;
    let pieces = bounds.windows(2).map(|w| {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) as usize);
        rest = tail;
        (w[0], piece)
    });
    scoped(pieces, |(r0, piece)| f(r0, piece))
        .into_iter()
        .collect()
}

/// The fan-out of [`ComputePool::add_le`] at an explicit `parallelism`,
/// without the serial routing (public so tests cover it at any length):
/// `y` and `x` are split into equal chunks.
pub fn add_le_fanout<Y: ElemMut<f64>>(y: &mut [Y], x_le: &[u8], parallelism: usize) {
    assert_eq!(
        x_le.len(),
        8 * y.len(),
        "add_assign_le operands must have equal length"
    );
    let chunk = y.len().div_ceil(parallelism.max(1)).max(1);
    scoped(y.chunks_mut(chunk).zip(x_le.chunks(8 * chunk)), |(y, x)| {
        dense::add_assign_le(y, x)
    });
}

/// How many threads the host can run at once (1 if it cannot say).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`ComputePool::fork_join`] at an explicit `parallelism`.
fn fork_join_at<T: Send>(
    ntasks: usize,
    parallelism: usize,
    gen: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    fork_join_with(ntasks, parallelism, || (), |(), i| gen(i))
}

/// `f(&mut state, i)` for every `i` in `0..ntasks` on up to `parallelism`
/// threads run as [`scoped`] runs its pieces. Each thread takes the next
/// index not yet taken until none is left, so a thread slowed by whatever
/// else the host runs takes fewer; its `state` comes from `init` and is
/// kept across the indices it takes (buffers one task leaves for the next
/// to reuse). The outputs come back in index order once every thread has
/// joined.
pub fn fork_join_with<S, T: Send>(
    ntasks: usize,
    parallelism: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    // Relaxed: the counter only has to hand out each index once.
    let next = AtomicUsize::new(0);
    let threads = parallelism.clamp(1, ntasks.max(1));
    let mut done: Vec<(usize, T)> = scoped(0..threads, |_| {
        let mut state = init();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                return out;
            }
            out.push((i, f(&mut state, i)));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Runs `f` on every piece, the first on the calling thread and each other
/// one on a scoped thread of its own, and returns the outputs in piece order
/// once all have joined. A piece's panic resumes on the caller.
fn scoped<P: Send, T: Send>(
    pieces: impl IntoIterator<Item = P>,
    f: impl Fn(P) -> T + Sync,
) -> Vec<T> {
    let mut pieces = pieces.into_iter();
    let Some(first) = pieces.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let helpers: Vec<_> = pieces.map(|p| s.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.push(f(first));
        for h in helpers {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, SparseError};

    #[test]
    fn fork_join_returns_outputs_in_index_order() {
        // ntasks = 0, and below, equal to and above the parallelism.
        for par in [1usize, 2, 3, 4] {
            for ntasks in [0, par.saturating_sub(1), par, par + 1, 4 * par + 3] {
                let out = fork_join_at(ntasks, par, |i| i * 3);
                assert_eq!(out, (0..ntasks).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
        let pool = ComputePool::new(3);
        let par = pool.parallelism_hint();
        for ntasks in [0, par - 1, par, par + 1] {
            assert_eq!(
                pool.fork_join(ntasks, |i| i),
                (0..ntasks).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_thread_keeps_its_state_across_the_tasks_it_takes() {
        // Each output is the tasks its thread has run so far: rising, ending
        // at its own index, and together every index exactly once.
        for par in [1usize, 2, 3] {
            let out = fork_join_with(10, par, Vec::new, |seen: &mut Vec<usize>, i| {
                seen.push(i);
                seen.clone()
            });
            let mut inits = 0;
            for (i, seen) in out.iter().enumerate() {
                assert_eq!(seen.last(), Some(&i));
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
                inits += usize::from(seen.len() == 1);
            }
            assert!((1..=par).contains(&inits), "{inits} states at {par}");
        }
    }

    #[test]
    fn a_panicking_piece_panics_the_caller() {
        // The first and the last task, whichever thread takes each.
        for bad in [0usize, 7] {
            let err = std::panic::catch_unwind(|| {
                fork_join_at(8, 4, |i| {
                    assert!(i != bad, "task {i} exploded");
                    i
                })
            })
            .expect_err("a batch with a panicking task must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, format!("task {bad} exploded"));
        }
    }

    #[test]
    fn a_dimension_mismatch_is_an_error_on_both_routes() {
        let m = CsrMatrix::identity(4);
        let x = [1.0f64; 3];
        let mut y = [0.0f64; 4];
        let mismatch = |r: Result<()>| matches!(r, Err(SparseError::DimensionMismatch { .. }));
        assert!(mismatch(ComputePool::new(2).spmv(m.view(), &x, &mut y)));
        assert!(mismatch(spmv_fanout(m.view(), &x, &mut y, 2)));
        let mut short = [0.0f64; 3];
        assert!(mismatch(spmv_fanout(m.view(), &[1.0; 4], &mut short, 2)));
    }

    #[test]
    fn pool_spmv_matches_serial() {
        let m = CsrMatrix::from_triplets(
            64,
            64,
            &(0..64)
                .flat_map(|r| [(r, r, 2.0), (r, (r + 1) % 64, -1.0)])
                .collect::<Vec<_>>(),
        )
        .expect("valid");
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let serial = m.spmv(&x).expect("dims ok");
        for nt in [1, 2, 3, 8] {
            // Public API (routes serial below the nnz threshold)...
            let mut y = vec![0.0; 64];
            ComputePool::new(nt)
                .spmv(m.view(), &x, &mut y)
                .expect("dims ok");
            assert_eq!(y, serial, "pool size {nt}");
            // ...and the fan-out itself, bit-for-bit, at forced parallelism.
            let mut y = vec![0.0; 64];
            spmv_fanout(m.view(), &x, &mut y, nt).expect("dims ok");
            assert_eq!(y, serial, "fan-out at {nt}");
        }
    }

    #[test]
    fn add_le_matches_contiguous_at_forced_parallelism() {
        let n = 100_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let xle: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut reference = y.clone();
        dense::add_assign(&mut reference, &x);
        let mut routed = y.clone();
        ComputePool::new(4).add_le(&mut routed, &xle);
        assert_eq!(routed, reference);
        for par in [1, 3, 4] {
            let mut fanned = y.clone();
            add_le_fanout(&mut fanned, &xle, par);
            assert_eq!(fanned, reference, "fan-out at {par}");
        }
    }
}
