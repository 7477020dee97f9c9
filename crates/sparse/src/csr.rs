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
//! file lend their sections where they lie, with 4-byte indices (format
//! version 2) or 8-byte ones (version 1). All run the same code, so they
//! accept the same matrices and produce the same bits.

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
/// from native `f64`s or from its stored bytes.
#[inline]
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

/// Borrowed CSR arrays that satisfy the invariants listed on [`CsrMatrix`]:
/// the one place they are checked ([`CsrRef::new`]) and the one
/// implementation of the SpMV walks, for owned matrices (`I = u64`,
/// `V = f64`) and for file bytes (`V = [u8; 8]`, `I = [u8; 4]` or `[u8; 8]`).
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
    ///
    /// The checks are flat passes over `row_ptr` and `col_idx` rather than a
    /// loop per row: the rows of a sub-matrix are short (a handful of
    /// entries), and a per-row loop spends its time mispredicting their
    /// lengths — it cost as much as the SpMV it guards. The first two passes
    /// are branch-free; the last, over the row starts, branches once per
    /// row to skip empty ones.
    pub fn new(
        nrows: u64,
        ncols: u64,
        row_ptr: &'a [I],
        col_idx: &'a [I],
        values: &'a [V],
    ) -> Result<Self> {
        let bad = |m: String| Err(SparseError::InvalidStructure(m));
        if nrows.checked_add(1) != Some(row_ptr.len() as u64) {
            return bad(format!("row_ptr.len()={} but nrows={nrows}", row_ptr.len()));
        }
        let nnz = col_idx.len();
        if values.len() != nnz {
            return bad(format!(
                "col_idx.len()={nnz} but values.len()={}",
                values.len()
            ));
        }
        // 0 = row_ptr[0] <= row_ptr[1] <= ... <= row_ptr[nrows] = nnz.
        let (rises, last) = row_ptr.iter().fold((true, 0u64), |(ok, prev), p| {
            (ok & (prev <= p.get()), p.get())
        });
        if row_ptr[0].get() != 0 || !rises || last != nnz as u64 {
            return bad(format!(
                "row_ptr must rise from 0 to nnz={nnz} without decreasing \
                 (starts at {}, ends at {last})",
                row_ptr[0].get()
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
            return bad(format!("a column index is >= ncols {ncols}"));
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
            return bad("column indices not strictly increasing within a row".into());
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Borrows arrays that are already known to satisfy the invariants
    /// (they passed [`CsrRef::new`] before, or were built to satisfy them).
    pub(crate) fn trusted(
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

    /// Row `r` of `A * x`.
    #[inline]
    fn row<X: Elem<f64>>(&self, r: usize, x: &[X]) -> f64 {
        let (s, e) = (
            self.row_ptr[r].get() as usize,
            self.row_ptr[r + 1].get() as usize,
        );
        row_dot(&self.col_idx[s..e], &self.values[s..e], x)
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
    pub(crate) fn spmv_rows_into<X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        x: &[X],
        r0: u64,
        y: &mut [Y],
    ) {
        for (r, yr) in (r0 as usize..).zip(y) {
            *yr = Y::of(self.row(r, x));
        }
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
            let row = self.row_ptr.partition_point(|p| p.get() <= target) as u64 - 1;
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
        CsrRef::trusted(
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
}
