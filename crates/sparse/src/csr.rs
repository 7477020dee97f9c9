//! Compressed Row Storage matrices and SpMV kernels.
//!
//! [`CsrMatrix`] is the in-memory representation of one sub-matrix of the
//! paper's K×K grid. Row/column counts are `u64` (paper-scale dimensions reach
//! 1.3×10⁹) and the owned index arrays use `u64` throughout for simplicity.
//! A sub-matrix that fits in memory is far below the `u32` limit, which is
//! what the file format ([`crate::fileio`]) stores: the narrow indices are
//! decoded to `u64` at the fetch, so the arithmetic is the same at every
//! width.
//!
//! The validation and the SpMV walks are written once, on [`CsrRef`]: three
//! borrowed arrays, generic over how one element is held ([`Elem`]). An owned
//! [`CsrMatrix`] lends its `u64`/`f64` vectors; the bytes of a binary CRS
//! file lend their sections where they lie, with 4-byte indices. All run the
//! same code, so they produce the same bits. Two checkers enforce the one
//! set of invariants: [`CsrRef::new`]'s flat passes, and the walk that
//! checks a matrix with fewer entries than rows while it multiplies it; a
//! property test holds them to the same verdict on every byte string.

use crate::view::CsrView;
use crate::{Result, SparseError};

/// One stored element of a CSR array, however it is held in memory: a native
/// `u64`/`f64`, or the little-endian bytes of one — 8 of them, or 4 for an
/// index of a format-version-2 file — decoded on every fetch (no alignment is
/// assumed).
pub trait Elem<T>: Copy + Send + Sync + 'static {
    /// The element's value.
    fn get(self) -> T;
}

impl Elem<u64> for u64 {
    #[inline(always)]
    fn get(self) -> u64 {
        self
    }
}

impl Elem<f64> for f64 {
    #[inline(always)]
    fn get(self) -> f64 {
        self
    }
}

impl Elem<u64> for [u8; 8] {
    #[inline(always)]
    fn get(self) -> u64 {
        u64::from_le_bytes(self)
    }
}

impl Elem<u64> for [u8; 4] {
    #[inline(always)]
    fn get(self) -> u64 {
        u64::from(u32::from_le_bytes(self))
    }
}

impl Elem<f64> for [u8; 8] {
    #[inline(always)]
    fn get(self) -> f64 {
        f64::from_le_bytes(self)
    }
}

/// An [`Elem`] a kernel can also store its result in: a native `f64`, or the
/// 8 little-endian bytes of one — the form a vector is kept in by the storage
/// layer, so a product can be written where it will live.
pub trait ElemMut<T>: Elem<T> {
    /// The element holding `v`.
    fn of(v: T) -> Self;
}

impl ElemMut<f64> for f64 {
    #[inline(always)]
    fn of(v: f64) -> f64 {
        v
    }
}

impl ElemMut<f64> for [u8; 8] {
    #[inline(always)]
    fn of(v: f64) -> [u8; 8] {
        v.to_le_bytes()
    }
}

/// One row's gather-dot `Σ v[k] * x[col[k]]`, unrolled 4-wide with four
/// independent accumulators (the add chain is the bottleneck on top of the
/// irregular gather) and a fixed combine order.
///
/// Every SpMV walk in this crate — [`CsrRef::spmv_into`] and the pieces of a
/// fan-out, and through them every [`CsrMatrix`], [`crate::view::CsrView`]
/// and pool path — funnels through this one function, so serial and pool
/// fan-out results are bitwise identical for any row partition, for owned
/// and borrowed matrices, for either index width and for an `x` gathered
/// from native `f64`s or from its stored bytes (a row of one entry may take
/// [`one_entry_dot`], which is this function's arithmetic without the
/// loops). Its one caller is [`CsrRef::plain_rows`], which it is always
/// inlined into.
#[inline(always)]
fn row_dot<I: Elem<u64>, V: Elem<f64>, X: Elem<f64>>(cols: &[I], vals: &[V], x: &[X]) -> f64 {
    let mut a0 = 0.0f64;
    let mut a1 = 0.0f64;
    let mut a2 = 0.0f64;
    let mut a3 = 0.0f64;
    let mut cc = cols.chunks_exact(4);
    let mut vc = vals.chunks_exact(4);
    for (cs, vs) in (&mut cc).zip(&mut vc) {
        a0 += vs[0].get() * x[cs[0].get() as usize].get();
        a1 += vs[1].get() * x[cs[1].get() as usize].get();
        a2 += vs[2].get() * x[cs[2].get() as usize].get();
        a3 += vs[3].get() * x[cs[3].get() as usize].get();
    }
    let mut tail = 0.0f64;
    for (&c, &v) in cc.remainder().iter().zip(vc.remainder()) {
        tail += v.get() * x[c.get() as usize].get();
    }
    (a0 + a1) + (a2 + a3) + tail
}

/// [`row_dot`] of a row with one entry, without its loops: the same adds in
/// the same order — `(0 + 0) + (0 + 0) + (0 + v * x)` — so the same bits,
/// `+0.0` for a `-0.0` product included. None of these adds can meet two
/// NaNs, so, unlike a longer row's, their bits do not depend on which
/// operand the compiler puts first, and the walk over mostly empty rows can
/// inline them.
#[inline(always)]
fn one_entry_dot(v: f64, x: f64) -> f64 {
    (0.0f64 + 0.0) + (0.0 + 0.0) + (0.0 + v * x)
}

/// Rows per tile of the walk over a piece with fewer entries than rows
/// ([`CsrRef::spmv_rows_into`]): the list of a tile's non-empty rows lives
/// on the stack.
pub const TILE_ROWS: usize = 256;
// The list holds a tile's row offsets as `u16`s.
const _: () = assert!(TILE_ROWS <= 1 << 16);

/// A non-empty row's columns, checked before they index `x`: strictly
/// rising, the last (and so every one) below `ncols`.
fn check_row<I: Elem<u64>>(cols: &[I], ncols: u64) -> Result<()> {
    let rising = cols
        .windows(2)
        .fold(true, |ok, w| ok & (w[0].get() < w[1].get()));
    if !rising {
        return Err(columns_not_rising());
    }
    if cols.last().is_none_or(|c| c.get() >= ncols) {
        return Err(column_out_of_range(ncols));
    }
    Ok(())
}

fn bad_row_ptr(nnz: usize, detail: String) -> SparseError {
    SparseError::InvalidStructure(format!(
        "row_ptr must rise from 0 to nnz={nnz} without decreasing ({detail})"
    ))
}

fn column_out_of_range(ncols: u64) -> SparseError {
    SparseError::InvalidStructure(format!("a column index is >= ncols {ncols}"))
}

fn columns_not_rising() -> SparseError {
    SparseError::InvalidStructure("column indices not strictly increasing within a row".into())
}

/// Borrowed CSR arrays that satisfy the invariants listed on [`CsrMatrix`]:
/// where they are checked ([`CsrRef::new`], or for a matrix with fewer
/// entries than rows [`CsrRef::spmv_checking`], in the pass that multiplies
/// it) and the one implementation of the SpMV walks, for owned matrices
/// (`I = u64`, `V = f64`) and for file bytes (`V = [u8; 8]`, `I = [u8; 4]`).
#[derive(Clone, Copy, Debug)]
pub struct CsrRef<'a, I, V> {
    nrows: u64,
    ncols: u64,
    row_ptr: &'a [I],
    col_idx: &'a [I],
    values: &'a [V],
}

impl<'a, I: Elem<u64>, V: Elem<f64>> CsrRef<'a, I, V> {
    /// Borrows raw CSR arrays, validating every invariant.
    pub fn new(
        nrows: u64,
        ncols: u64,
        row_ptr: &'a [I],
        col_idx: &'a [I],
        values: &'a [V],
    ) -> Result<Self> {
        Self::unchecked(nrows, ncols, row_ptr, col_idx, values).validated()
    }

    /// Borrows arrays without checking them. The caller either knows they
    /// satisfy the invariants (they passed [`CsrRef::validated`] before, or
    /// were built to satisfy them), or multiplies them only with
    /// [`CsrRef::spmv_checking`], which checks as it goes.
    pub(crate) fn unchecked(
        nrows: u64,
        ncols: u64,
        row_ptr: &'a [I],
        col_idx: &'a [I],
        values: &'a [V],
    ) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The arrays, once every invariant is checked.
    ///
    /// The checks are flat passes over `row_ptr` and `col_idx` rather than a
    /// loop per row: the rows of a sub-matrix are short (a handful of
    /// entries), and a per-row loop spends its time mispredicting their
    /// lengths — it cost as much as the SpMV it guards. The first two passes
    /// are branch-free; the last, over the row starts, branches once per
    /// row to skip empty ones. A matrix with fewer entries than rows pays
    /// most for that branch, and [`CsrRef::spmv_checking`] checks one in the
    /// pass that multiplies it instead.
    pub(crate) fn validated(self) -> Result<Self> {
        let Self {
            ncols,
            row_ptr,
            col_idx,
            ..
        } = self;
        self.check_lengths()?;
        let nnz = col_idx.len();
        // 0 = row_ptr[0] <= row_ptr[1] <= ... <= row_ptr[nrows] = nnz.
        let (rises, last) = row_ptr.iter().fold((true, 0u64), |(ok, prev), p| {
            (ok & (prev <= p.get()), p.get())
        });
        if row_ptr[0].get() != 0 || !rises || last != nnz as u64 {
            return Err(bad_row_ptr(
                nnz,
                format!("starts at {}, ends at {last}", row_ptr[0].get()),
            ));
        }
        // One pass over col_idx: every index in range, and the number of
        // descents (entries that fail to exceed their predecessor).
        // Strictly increasing within each row means a descent may only sit
        // where a new row starts, which the pass over row_ptr below counts.
        let mut cols = col_idx.iter().map(|c| c.get());
        let mut in_range = true;
        let mut descents = 0usize;
        if let Some(mut prev) = cols.next() {
            in_range = prev < ncols;
            for c in cols {
                in_range &= c < ncols;
                descents += (c <= prev) as usize;
                prev = c;
            }
        }
        if !in_range {
            return Err(column_out_of_range(ncols));
        }
        let mut at_row_starts = 0usize;
        let mut prev_start = 0usize;
        for p in &row_ptr[1..] {
            let p = p.get() as usize;
            if p != prev_start && p < nnz {
                at_row_starts += (col_idx[p].get() <= col_idx[p - 1].get()) as usize;
                prev_start = p;
            }
        }
        if descents != at_row_starts {
            return Err(columns_not_rising());
        }
        Ok(self)
    }

    /// The O(1) checks: `nrows + 1` row pointers and one value per column
    /// index.
    fn check_lengths(&self) -> Result<()> {
        let bad = |m: String| Err(SparseError::InvalidStructure(m));
        if self.nrows.checked_add(1) != Some(self.row_ptr.len() as u64) {
            return bad(format!(
                "row_ptr.len()={} but nrows={}",
                self.row_ptr.len(),
                self.nrows
            ));
        }
        if self.values.len() != self.col_idx.len() {
            return bad(format!(
                "col_idx.len()={} but values.len()={}",
                self.col_idx.len(),
                self.values.len()
            ));
        }
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> u64 {
        self.col_idx.len() as u64
    }

    pub(crate) fn check_dims<X, Y>(&self, x: &[X], y: &[Y]) -> Result<()> {
        if x.len() as u64 != self.ncols {
            return Err(SparseError::DimensionMismatch {
                got: (x.len() as u64, 1),
                expected: (self.ncols, 1),
            });
        }
        if y.len() as u64 != self.nrows {
            return Err(SparseError::DimensionMismatch {
                got: (y.len() as u64, 1),
                expected: (self.nrows, 1),
            });
        }
        Ok(())
    }

    /// Rows `[r0, r0 + y.len())` of `A * x`, row by row: the one caller of
    /// [`row_dot`], and kept out of line, so that every walk computes the
    /// dot of a row of two or more entries with this loop's machine code.
    /// The walks then agree to the bit even where the compiler is free to
    /// choose — which of two NaN operands an add passes on — and did choose
    /// differently when the dot was inlined into more than one loop.
    #[inline(never)]
    fn plain_rows<X: Elem<f64>, Y: ElemMut<f64>>(&self, x: &[X], r0: usize, y: &mut [Y]) {
        for (r, yr) in (r0..).zip(y) {
            let (s, e) = (
                self.row_ptr[r].get() as usize,
                self.row_ptr[r + 1].get() as usize,
            );
            *yr = Y::of(row_dot(&self.col_idx[s..e], &self.values[s..e], x));
        }
    }

    /// Serial SpMV into a caller-provided output: `y = A * x`. Both vectors
    /// may be native `f64`s or the little-endian bytes of them, at any
    /// alignment; the arithmetic, and so every result bit, is the same.
    pub fn spmv_into<X: Elem<f64>, Y: ElemMut<f64>>(&self, x: &[X], y: &mut [Y]) -> Result<()> {
        self.check_dims(x, y)?;
        self.spmv_rows_into(x, 0, y);
        Ok(())
    }

    /// Rows `[r0, r0 + y.len())` of `A * x`, stored into `y`: the whole
    /// product, or the piece of it one thread of a fan-out computes (see
    /// [`crate::pool::ComputePool::spmv`]). The caller has checked the
    /// dimensions.
    ///
    /// A piece with at least one entry per row runs the plain row loop. One
    /// with fewer entries than rows — a hypersparse cell of a fine grid,
    /// where most rows are empty — runs [`CsrRef::sparse_rows`], which
    /// multiplies only the non-empty rows; every result bit is the same.
    pub(crate) fn spmv_rows_into<X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        x: &[X],
        r0: u64,
        y: &mut [Y],
    ) {
        let r0 = r0 as usize;
        let entries = self.row_ptr[r0 + y.len()].get() - self.row_ptr[r0].get();
        if entries >= y.len() as u64 {
            return self.plain_rows(x, r0, y);
        }
        let walked = self.sparse_rows::<false, X, Y>(x, r0, y);
        debug_assert!(walked.is_ok(), "a walk that checks nothing failed");
    }

    /// `y = A * x` over arrays that have not been validated ([`Self::unchecked`]),
    /// checking them in the pass that multiplies: every invariant
    /// [`CsrRef::new`] enforces holds if this returns `Ok`, and no index is
    /// used before it is checked, so hostile arrays give an error, never a
    /// panic (and `y` then holds a partial product to throw away). Meant for
    /// a matrix with fewer entries than rows, which it walks as
    /// [`CsrRef::sparse_rows`] does; the bits are those of
    /// [`CsrRef::spmv_into`]. `parallelism` pieces at the nnz-balanced row
    /// partition, as [`crate::pool::spmv_fanout`] cuts them; 1 is serial.
    pub(crate) fn spmv_checking<X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        x: &[X],
        y: &mut [Y],
        parallelism: usize,
    ) -> Result<()> {
        self.check_lengths()?;
        self.check_dims(x, y)?;
        // The two ends; the walk checks every pointer in between.
        let (first, last) = (self.row_ptr[0].get(), self.row_ptr[y.len()].get());
        if first != 0 || last != self.nnz() {
            return Err(bad_row_ptr(
                self.col_idx.len(),
                format!("starts at {first}, ends at {last}"),
            ));
        }
        let bounds = self.nnz_balanced_row_partition(parallelism.clamp(1, y.len().max(1)));
        crate::pool::for_each_piece(&bounds, y, |r0, piece| {
            self.sparse_rows::<true, X, Y>(x, r0 as usize, piece)
        })
    }

    /// Rows `[r0, r0 + y.len())` of `A * x`, one tile of [`TILE_ROWS`] rows
    /// at a time. A branch-free pass stores `+0.0` — what [`row_dot`]
    /// returns for an empty row — into every row of the tile and lists the
    /// non-empty ones; only those are multiplied: a row of one entry by
    /// [`one_entry_dot`], inline, a longer one by [`CsrRef::plain_rows`].
    ///
    /// With `CHECK` the arrays have not been validated, and the same passes
    /// enforce [`CsrRef::new`]'s invariants on the rows they walk: the first
    /// that the tile's pointers never fall and never pass nnz (before any of
    /// them bounds a slice), the second that each listed row's columns rise
    /// strictly and stay below `ncols` (before any of them indexes `x`).
    /// `row_ptr[r0]` is the previous piece's to check; it is no larger than
    /// the first pointer checked here, so it bounds nothing unchecked.
    fn sparse_rows<const CHECK: bool, X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        x: &[X],
        r0: usize,
        y: &mut [Y],
    ) -> Result<()> {
        let nnz = self.nnz();
        let mut listed = [0u16; TILE_ROWS];
        for (t, ys) in y.chunks_mut(TILE_ROWS).enumerate() {
            let ptrs = &self.row_ptr[r0 + t * TILE_ROWS..][..=ys.len()];
            let (mut n, mut ok, mut prev) = (0, true, ptrs[0].get());
            for (i, (p, yr)) in ptrs[1..].iter().zip(ys.iter_mut()).enumerate() {
                let p = p.get();
                *yr = Y::of(0.0);
                listed[n] = i as u16;
                n += (p != prev) as usize;
                ok &= (prev <= p) & (p <= nnz);
                prev = p;
            }
            if CHECK && !ok {
                return Err(bad_row_ptr(
                    nnz as usize,
                    format!(
                        "in rows {}..{}",
                        r0 + t * TILE_ROWS,
                        r0 + t * TILE_ROWS + ys.len()
                    ),
                ));
            }
            for &i in &listed[..n] {
                let i = usize::from(i);
                let (s, e) = (ptrs[i].get() as usize, ptrs[i + 1].get() as usize);
                if CHECK {
                    check_row(&self.col_idx[s..e], self.ncols)?;
                }
                if e - s == 1 {
                    let (v, c) = (self.values[s].get(), self.col_idx[s].get());
                    ys[i] = Y::of(one_entry_dot(v, x[c as usize].get()));
                } else {
                    self.plain_rows(x, r0 + t * TILE_ROWS + i, &mut ys[i..=i]);
                }
            }
        }
        Ok(())
    }

    /// Row boundaries `b[0]=0 <= b[1] <= ... <= b[p]=nrows` such that each
    /// `[b[i], b[i+1])` piece carries roughly `nnz/p` non-zeros.
    pub fn nnz_balanced_row_partition(&self, parts: usize) -> Vec<u64> {
        let parts = parts.max(1);
        let nnz = self.nnz();
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0u64);
        for i in 1..parts {
            let target = nnz * i as u64 / parts as u64;
            // First row whose cumulative nnz exceeds the target.
            // (`saturating_sub`: arrays `spmv_checking` has not checked yet
            // may not be sorted.)
            let row =
                (self.row_ptr.partition_point(|p| p.get() <= target) as u64).saturating_sub(1);
            bounds.push(row.max(*bounds.last().expect("non-empty")));
        }
        bounds.push(self.nrows);
        bounds
    }

    /// Decodes the borrowed arrays into an owned matrix (no second
    /// validation: a `CsrRef` only exists for valid arrays).
    pub fn to_matrix(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.iter().map(|p| p.get()).collect(),
            col_idx: self.col_idx.iter().map(|c| c.get()).collect(),
            values: self.values.iter().map(|v| v.get()).collect(),
        }
    }
}

/// A sparse matrix in Compressed Row Storage (CRS/CSR) format.
///
/// Invariants (checked by [`CsrRef::new`], which [`CsrMatrix::new`] and
/// [`crate::view::CsrView::parse`] both run, and preserved by construction):
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * `row_ptr` is non-decreasing;
/// * within each row, column indices are strictly increasing and `< ncols`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: u64,
    ncols: u64,
    row_ptr: Vec<u64>,
    col_idx: Vec<u64>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from raw CSR arrays, validating every invariant
    /// (with [`CsrRef::new`], the validator file views run too).
    pub fn new(
        nrows: u64,
        ncols: u64,
        row_ptr: Vec<u64>,
        col_idx: Vec<u64>,
        values: Vec<f64>,
    ) -> Result<Self> {
        CsrRef::new(nrows, ncols, &row_ptr, &col_idx, &values)?;
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a matrix without validation. Only for callers that construct
    /// the arrays by a method that guarantees the invariants (e.g. the
    /// generator); debug builds still assert.
    pub(crate) fn from_parts_unchecked(
        nrows: u64,
        ncols: u64,
        row_ptr: Vec<u64>,
        col_idx: Vec<u64>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(CsrRef::new(nrows, ncols, &row_ptr, &col_idx, &values).is_ok());
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The matrix's vectors, emptied but keeping their allocations, for a
    /// caller that refills them and rebuilds a matrix from them with
    /// [`CsrMatrix::from_parts_unchecked`].
    pub(crate) fn into_cleared_parts(self) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let Self {
            mut row_ptr,
            mut col_idx,
            mut values,
            ..
        } = self;
        row_ptr.clear();
        col_idx.clear();
        values.clear();
        (row_ptr, col_idx, values)
    }

    /// An `nrows × ncols` matrix with no stored entries.
    pub fn zeros(nrows: u64, ncols: u64) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows as usize + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from (row, col, value) triplets. Duplicate
    /// coordinates are summed, as is conventional for assembly.
    pub fn from_triplets(nrows: u64, ncols: u64, triplets: &[(u64, u64, f64)]) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= nrows || c >= ncols {
                return Err(SparseError::InvalidStructure(format!(
                    "triplet ({r},{c}) out of bounds for {nrows}x{ncols}"
                )));
            }
        }
        let mut sorted: Vec<(u64, u64, f64)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));
        // Merge duplicates.
        let mut merged: Vec<(u64, u64, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0u64; nrows as usize + 1];
        for &(r, _, _) in &merged {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..nrows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|t| t.1).collect();
        let values = merged.iter().map(|t| t.2).collect();
        Ok(Self::from_parts_unchecked(
            nrows, ncols, row_ptr, col_idx, values,
        ))
    }

    /// An identity matrix of order `n`.
    pub fn identity(n: u64) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n).collect();
        let values = vec![1.0; n as usize];
        Self::from_parts_unchecked(n, n, row_ptr, col_idx, values)
    }

    /// The matrix's arrays, borrowed for the kernels.
    pub(crate) fn arrays(&self) -> CsrRef<'_, u64, f64> {
        CsrRef::unchecked(
            self.nrows,
            self.ncols,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )
    }

    /// The matrix as a [`CsrView`], the form the compute pool multiplies.
    pub fn view(&self) -> CsrView<'_> {
        CsrView::Owned(self.arrays())
    }

    /// Number of rows.
    pub fn nrows(&self) -> u64 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> u64 {
        *self.row_ptr.last().expect("row_ptr non-empty")
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries).
    pub fn col_idx(&self) -> &[u64] {
        &self.col_idx
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(row, col, value)` of every stored entry.
    pub fn triplets(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        (0..self.nrows as usize).flat_map(move |r| {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            self.col_idx[s..e]
                .iter()
                .zip(&self.values[s..e])
                .map(move |(&c, &v)| (r as u64, c, v))
        })
    }

    /// Returns entry `(r, c)`, or 0.0 if not stored.
    pub fn get(&self, r: u64, c: u64) -> f64 {
        let (s, e) = (
            self.row_ptr[r as usize] as usize,
            self.row_ptr[r as usize + 1] as usize,
        );
        match self.col_idx[s..e].binary_search(&c) {
            Ok(k) => self.values[s + k],
            Err(_) => 0.0,
        }
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz() as usize;
        let mut row_ptr = vec![0u64; self.ncols as usize + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u64; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = row_ptr.clone();
        for (r, c, v) in self.triplets() {
            let slot = next[c as usize] as usize;
            col_idx[slot] = r;
            values[slot] = v;
            next[c as usize] += 1;
        }
        CsrMatrix::from_parts_unchecked(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Serial SpMV: `y = A * x`. Allocates the output.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.nrows as usize];
        self.spmv_into(x, &mut y)?;
        Ok(y)
    }

    /// Serial SpMV into a caller-provided output: `y = A * x`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        self.arrays().spmv_into(x, y)
    }

    /// Row boundaries `b[0]=0 <= b[1] <= ... <= b[p]=nrows` such that each
    /// `[b[i], b[i+1])` piece carries roughly `nnz/p` non-zeros.
    pub fn nnz_balanced_row_partition(&self, parts: usize) -> Vec<u64> {
        self.arrays().nnz_balanced_row_partition(parts)
    }

    /// Number of floating point operations one SpMV with this matrix
    /// performs (2 per stored entry: one multiply, one add).
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz()
    }

    /// Extracts the sub-matrix of rows `[r0, r1)` and columns `[c0, c1)`,
    /// reindexed to a local coordinate system. Used to cut a global matrix
    /// into the K×K grid of §IV.
    pub fn submatrix(&self, r0: u64, r1: u64, c0: u64, c1: u64) -> Result<CsrMatrix> {
        if r1 < r0 || r1 > self.nrows || c1 < c0 || c1 > self.ncols {
            return Err(SparseError::InvalidStructure(format!(
                "submatrix bounds rows [{r0},{r1}) cols [{c0},{c1}) invalid for {}x{}",
                self.nrows, self.ncols
            )));
        }
        let mut row_ptr = Vec::with_capacity((r1 - r0) as usize + 1);
        row_ptr.push(0u64);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in r0..r1 {
            let (s, e) = (
                self.row_ptr[r as usize] as usize,
                self.row_ptr[r as usize + 1] as usize,
            );
            let cols = &self.col_idx[s..e];
            let lo = s + cols.partition_point(|&c| c < c0);
            let hi = s + cols.partition_point(|&c| c < c1);
            for k in lo..hi {
                col_idx.push(self.col_idx[k] - c0);
                values.push(self.values[k]);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        Ok(CsrMatrix::from_parts_unchecked(
            r1 - r0,
            c1 - c0,
            row_ptr,
            col_idx,
            values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .expect("valid")
    }

    #[test]
    fn new_accepts_valid() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn new_rejects_bad_row_ptr_len() {
        assert!(CsrMatrix::new(3, 3, vec![0, 1, 1], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn new_rejects_nonzero_first_ptr() {
        assert!(CsrMatrix::new(1, 1, vec![1, 1], vec![], vec![]).is_err());
    }

    #[test]
    fn new_rejects_decreasing_row_ptr() {
        assert!(CsrMatrix::new(2, 3, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn new_rejects_unsorted_columns() {
        assert!(CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn new_rejects_duplicate_columns() {
        assert!(CsrMatrix::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn new_rejects_col_out_of_range() {
        assert!(CsrMatrix::new(1, 3, vec![0, 1], vec![3], vec![1.0]).is_err());
    }

    #[test]
    fn new_rejects_nnz_mismatch() {
        assert!(CsrMatrix::new(1, 3, vec![0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn triplets_roundtrip() {
        let m = sample();
        let t: Vec<_> = m.triplets().collect();
        let m2 = CsrMatrix::from_triplets(3, 3, &t).expect("valid");
        assert_eq!(m, m2);
    }

    #[test]
    fn from_triplets_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)])
            .expect("valid");
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn identity_spmv_is_identity() {
        let m = CsrMatrix::identity(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 * 1.5).collect();
        assert_eq!(m.spmv(&x).expect("dims ok"), x);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = m.spmv(&x).expect("dims ok");
        assert_eq!(y, vec![1.0 * 1.0 + 2.0 * 3.0, 0.0, 3.0 * 1.0 + 4.0 * 2.0]);
    }

    #[test]
    fn spmv_rejects_wrong_dims() {
        let m = sample();
        assert!(m.spmv(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(m.spmv_into(&[1.0, 2.0, 3.0], &mut y).is_err());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.nrows(), 3);
    }

    #[test]
    fn nnz_balanced_partition_covers_all_rows() {
        let m = sample();
        for p in 1..=5 {
            let b = m.nnz_balanced_row_partition(p);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().expect("non-empty"), m.nrows());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = sample();
        let s = m.submatrix(0, 2, 1, 3).expect("in bounds");
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.get(0, 1), 2.0); // global (0,2)
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn submatrix_rejects_bad_bounds() {
        let m = sample();
        assert!(m.submatrix(0, 4, 0, 3).is_err());
        assert!(m.submatrix(2, 1, 0, 3).is_err());
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = CsrMatrix::zeros(4, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv(&[1.0; 7]).expect("dims ok"), vec![0.0; 4]);
    }

    #[test]
    fn spmv_flops_counts_two_per_entry() {
        assert_eq!(sample().spmv_flops(), 8);
    }

    /// The loop-free dot of a one-entry row is `row_dot`'s, bit for bit, on
    /// the values its adds treat specially.
    #[test]
    fn a_one_entry_dot_is_row_dot() {
        let special = [
            0.0,
            -0.0,
            1.5,
            -2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
        ];
        for v in special.into_iter().filter(|v| !v.is_nan()) {
            for x in special {
                let looped = row_dot(&[0u64], &[v], &[x]);
                assert_eq!(one_entry_dot(v, x).to_bits(), looped.to_bits(), "{v} * {x}");
            }
        }
    }

    /// `nrows` rows, about nine in ten of them empty and the others holding
    /// 1-9 entries (every remainder of the 4-wide unroll).
    fn mostly_empty(nrows: u64, ncols: u64, seed: u64) -> CsrMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |span: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % span
        };
        let mut triplets = Vec::new();
        for r in 0..nrows {
            if next(10) != 0 {
                continue;
            }
            let len = 1 + next(9);
            let start = next(ncols);
            for j in 0..len {
                let v = (r as f64 + 1.0) * 0.37 - j as f64 * 1.3;
                triplets.push((r, (start + 2 * j) % ncols, v));
            }
        }
        CsrMatrix::from_triplets(nrows, ncols, &triplets).expect("in bounds")
    }

    /// The walk that multiplies only the non-empty rows, trusted or
    /// checking, whole or cut into pieces anywhere (across tile boundaries
    /// too), stores exactly the bits of the plain row loop — `+0.0` for an
    /// empty row, `-0.0`, infinities and NaN payloads carried as they are.
    #[test]
    fn the_walk_over_non_empty_rows_is_bitwise_the_row_loop() {
        let t = TILE_ROWS as u64;
        for nrows in [1, 2, 9, t - 1, t, t + 1, 2 * t + 1, 3 * t + 7] {
            for seed in 0..3 {
                let m = mostly_empty(nrows, 23, seed);
                let a = m.arrays();
                let mut x: Vec<f64> = (0..23).map(|i| (i as f64 * 0.7).sin()).collect();
                x[1] = -0.0;
                x[2] = f64::INFINITY;
                x[3] = f64::from_bits(0x7ff8_0000_dead_beef);
                let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let mut plain = vec![f64::NAN; nrows as usize];
                a.plain_rows(&x, 0, &mut plain);
                let want = bits(&plain);
                for cut in [0, 1, t - 1, t, nrows / 2, nrows] {
                    let cut = cut.min(nrows);
                    let mut y = vec![f64::NAN; nrows as usize];
                    let (lo, hi) = y.split_at_mut(cut as usize);
                    a.spmv_rows_into(&x, 0, lo);
                    a.spmv_rows_into(&x, cut, hi);
                    assert_eq!(bits(&y), want, "{nrows} rows, seed {seed}, cut at {cut}");
                }
                for par in 1..=6 {
                    let mut y = vec![f64::NAN; nrows as usize];
                    a.spmv_checking(&x, &mut y, par).expect("valid");
                    assert_eq!(
                        bits(&y),
                        want,
                        "{nrows} rows, seed {seed}, checking at {par}"
                    );
                }
            }
        }
    }
}
