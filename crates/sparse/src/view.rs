//! Zero-copy CSR over the bytes of a binary CRS file.
//!
//! A sub-matrix reaches a task as the bytes of its file (see [`crate::fileio`]
//! for the layout), pinned in a storage block. Decoding them into a
//! [`crate::CsrMatrix`] costs three fresh arrays the size of the block on every
//! task; [`CsrView`] instead borrows the three sections where they lie and
//! multiplies straight from them, fetching each index and value with
//! `from_le_bytes`. Whichever way the arrays are held — a file's 4-byte
//! indices or an owned matrix's vectors — a view is one instance of
//! [`CsrRef`], chosen once per block, so it is validated by, and multiplies
//! with, exactly the code the other one runs: same accepted inputs, same
//! result bits.
//!
//! [`CsrBytes`] is a validated view that owns its buffer: a matrix that
//! lives in a storage block, held by the block's reference count for as
//! long as a task needs it. Its first multiply can be its validation too
//! ([`CsrBytes::new_multiplying`]): no product of bytes that fail the checks
//! is returned.

use crate::csr::{CsrMatrix, CsrRef, Elem, ElemMut};
use crate::fileio::{read_header_from, CrsHeader, HEADER_BYTES, INDEX_BYTES};
use crate::pool::{spmv_fanout, ComputePool};
use crate::{Result, SparseError};
use bytes::Bytes;

/// A borrowed, allocation-free CSR matrix: the arrays of an owned
/// [`CsrMatrix`], or the sections of a binary CRS file
/// ([`CsrView::parse`]). Each method picks the instance once and runs
/// [`CsrRef`]'s code for it; nothing branches per element.
#[derive(Clone, Copy, Debug)]
pub enum CsrView<'a> {
    /// The `u64`/`f64` vectors of a [`CsrMatrix`].
    Owned(CsrRef<'a, u64, f64>),
    /// File bytes, format version 2: 4-byte indices.
    V2(CsrRef<'a, [u8; INDEX_BYTES], [u8; 8]>),
}

/// Evaluates `$body` with `$a` bound to whichever [`CsrRef`] `$view` holds.
macro_rules! with_csr {
    ($view:expr, $a:ident => $body:expr) => {
        match $view {
            CsrView::Owned($a) => $body,
            CsrView::V2($a) => $body,
        }
    };
}

impl<'a> CsrView<'a> {
    /// Borrows `bytes` as a matrix after validating them: no kernel can run
    /// on bytes that are not one. `bytes` may start at any address.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let h = parse_header(bytes)?;
        padded_sections(bytes, &h)?.validated().map(CsrView::V2)
    }

    /// Number of rows.
    pub fn nrows(&self) -> u64 {
        with_csr!(self, a => a.nrows())
    }

    /// Number of columns.
    pub fn ncols(&self) -> u64 {
        with_csr!(self, a => a.ncols())
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> u64 {
        with_csr!(self, a => a.nnz())
    }

    pub(crate) fn check_dims<X, Y>(&self, x: &[X], y: &[Y]) -> Result<()> {
        with_csr!(self, a => a.check_dims(x, y))
    }

    /// Serial SpMV into a caller-provided output: `y = A * x` (see
    /// [`CsrRef::spmv_into`] for the element types).
    pub fn spmv_into<X: Elem<f64>, Y: ElemMut<f64>>(&self, x: &[X], y: &mut [Y]) -> Result<()> {
        with_csr!(self, a => a.spmv_into(x, y))
    }

    /// Rows `[r0, r0 + y.len())` of `A * x`, stored into `y` (see
    /// [`CsrRef::spmv_rows_into`]).
    pub(crate) fn spmv_rows_into<X: Elem<f64>, Y: ElemMut<f64>>(
        &self,
        x: &[X],
        r0: u64,
        y: &mut [Y],
    ) {
        with_csr!(self, a => a.spmv_rows_into(x, r0, y))
    }

    /// Row boundaries of `parts` pieces of roughly equal non-zero count (see
    /// [`CsrRef::nnz_balanced_row_partition`]).
    pub fn nnz_balanced_row_partition(&self, parts: usize) -> Vec<u64> {
        with_csr!(self, a => a.nnz_balanced_row_partition(parts))
    }

    /// Decodes the borrowed arrays into an owned matrix.
    pub fn to_matrix(&self) -> CsrMatrix {
        with_csr!(self, a => a.to_matrix())
    }
}

/// Reads the 32-byte header and checks the size it implies — in checked
/// arithmetic, the counts are untrusted — against the bytes actually there.
fn parse_header(bytes: &[u8]) -> Result<CrsHeader> {
    let h = read_header_from(&mut &bytes[..])?;
    match h.checked_file_size_bytes() {
        Some(size) if size == bytes.len() as u64 => Ok(h),
        implied => Err(SparseError::BadFormat(format!(
            "header {h:?} implies {implied:?} bytes, found {} (truncated, \
             trailing data or corrupt counts)",
            bytes.len()
        ))),
    }
}

/// The matrix's arrays over `bytes`, whose header `h` must have come from
/// [`parse_header`] on the same bytes (so every range is in bounds), none of
/// its structure checked; and whether the padding after each index section
/// is zero.
fn sections<'a>(bytes: &'a [u8], h: &CrsHeader) -> (V2Ref<'a>, bool) {
    let mut rest = &bytes[HEADER_BYTES as usize..];
    // Splits `count` index words and their padding off the front of `rest`.
    let mut index_section = |count: usize| {
        let len = INDEX_BYTES * count;
        let (section, tail) = rest.split_at(len.next_multiple_of(8));
        rest = tail;
        let (words, padding) = section.split_at(len);
        (words.as_chunks::<INDEX_BYTES>().0, padding)
    };
    let (row_ptr, pad_ptr) = index_section(h.nrows as usize + 1);
    let (col_idx, pad_idx) = index_section(h.nnz as usize);
    let (values, _) = rest.as_chunks::<8>();
    let zero_padding = pad_ptr.iter().chain(pad_idx).all(|&b| b == 0);
    let arrays = CsrRef::unchecked(h.nrows, h.ncols, row_ptr, col_idx, values);
    (arrays, zero_padding)
}

/// [`sections`], refused unless the padding is zero: what is left to check
/// is the CSR structure.
fn padded_sections<'a>(bytes: &'a [u8], h: &CrsHeader) -> Result<V2Ref<'a>> {
    match sections(bytes, h) {
        (arrays, true) => Ok(arrays),
        (_, false) => Err(SparseError::BadFormat(
            "non-zero padding after an index section".into(),
        )),
    }
}

/// The arrays of a format-version-2 file.
type V2Ref<'a> = CsrRef<'a, [u8; INDEX_BYTES], [u8; 8]>;

/// A validated binary CRS buffer that owns its bytes: the checks of
/// [`CsrView::parse`] ran at construction — in one pass with the first
/// product for [`CsrBytes::new_multiplying`], or, for
/// [`CsrBytes::already_validated`], at an earlier construction over the same
/// bytes — and [`CsrBytes::view`] re-borrows the sections for free. Cloning
/// shares the buffer.
#[derive(Clone, Debug)]
pub struct CsrBytes {
    bytes: Bytes,
    header: CrsHeader,
}

impl CsrBytes {
    /// Takes ownership of `bytes` after validating them as a matrix.
    pub fn new(bytes: Bytes) -> Result<Self> {
        let header = parse_header(&bytes)?;
        padded_sections(&bytes, &header)?.validated()?;
        Ok(Self { bytes, header })
    }

    /// [`CsrBytes::new`] and `y = A * x` in one call, split as
    /// [`ComputePool::spmv`] splits a product: the constructor for a
    /// matrix's first multiply. A matrix with fewer entries than rows is
    /// checked by the walk that multiplies it ([`CsrRef::spmv_checking`]):
    /// one pass over its indices instead of two. Any other runs
    /// [`CsrRef::new`] and then the product. On `Err` the bytes are not a
    /// matrix (or `x`, `y` do not fit it) and `y` holds nothing to keep.
    pub fn new_multiplying<X: Elem<f64>, Y: ElemMut<f64>>(
        bytes: Bytes,
        pool: &ComputePool,
        x: &[X],
        y: &mut [Y],
    ) -> Result<Self> {
        let header = parse_header(&bytes)?;
        let parallelism = pool.spmv_parallelism(header.nnz);
        Self::multiplying(bytes, header, x, y, parallelism)
    }

    /// [`CsrBytes::new_multiplying`] at an explicit `parallelism`, without
    /// the serial routing (public so tests cover the fan-out at any size).
    pub fn new_multiplying_at<X: Elem<f64>, Y: ElemMut<f64>>(
        bytes: Bytes,
        x: &[X],
        y: &mut [Y],
        parallelism: usize,
    ) -> Result<Self> {
        let header = parse_header(&bytes)?;
        Self::multiplying(bytes, header, x, y, parallelism)
    }

    fn multiplying<X: Elem<f64>, Y: ElemMut<f64>>(
        bytes: Bytes,
        header: CrsHeader,
        x: &[X],
        y: &mut [Y],
        parallelism: usize,
    ) -> Result<Self> {
        let arrays = padded_sections(&bytes, &header)?;
        if arrays.nnz() < arrays.nrows() {
            arrays.spmv_checking(x, y, parallelism)?;
        } else {
            spmv_fanout(CsrView::V2(arrays.validated()?), x, y, parallelism)?;
        }
        Ok(Self { bytes, header })
    }

    /// Takes ownership of bytes that [`CsrBytes::new`] has already accepted
    /// — the same bytes, unchanged since — running only the O(1) header and
    /// size check, none of the O(nnz) passes. Handing it anything else gives
    /// a matrix whose kernels may panic on an out-of-range index.
    pub fn already_validated(bytes: Bytes) -> Result<Self> {
        let header = parse_header(&bytes)?;
        Ok(Self { bytes, header })
    }

    /// The matrix over the owned bytes.
    pub fn view(&self) -> CsrView<'_> {
        CsrView::V2(sections(&self.bytes, &self.header).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fileio::to_bytes;
    use crate::genmat::GapGenerator;
    use crate::CsrMatrix;

    #[test]
    fn view_reads_what_was_written() {
        let m = GapGenerator::with_d(3).generate(50, 70, 11);
        let bytes = to_bytes(&m);
        let v = CsrView::parse(&bytes).expect("own encoding parses");
        assert_eq!((v.nrows(), v.ncols(), v.nnz()), (50, 70, m.nnz()));
        assert_eq!(v.to_matrix(), m);
        let x: Vec<f64> = (0..70).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y = vec![0.0; 50];
        v.spmv_into(&x, &mut y).expect("dims");
        assert_eq!(y, m.spmv(&x).expect("dims"));
    }

    #[test]
    fn owned_bytes_lend_the_same_view() {
        let m = GapGenerator::with_d(2).generate(9, 9, 4);
        let owned = CsrBytes::new(Bytes::from(to_bytes(&m))).expect("valid");
        assert_eq!(owned.view().to_matrix(), m);
        assert_eq!(owned.clone().view().nnz(), m.nnz());
        assert!(CsrBytes::new(Bytes::from(vec![0u8; 40])).is_err());
    }

    /// The cheap constructor lends the view the full one does, and still
    /// refuses bytes whose header or size is wrong.
    #[test]
    fn already_validated_bytes_skip_only_the_structure_passes() {
        let m = GapGenerator::with_d(2).generate(30, 20, 6);
        let bytes = Bytes::from(to_bytes(&m));
        let full = CsrBytes::new(bytes.clone()).expect("valid");
        let cheap = CsrBytes::already_validated(bytes.clone()).expect("header ok");
        assert_eq!(cheap.view().to_matrix(), full.view().to_matrix());
        assert!(CsrBytes::already_validated(bytes.slice(..bytes.len() - 8)).is_err());
        assert!(CsrBytes::already_validated(Bytes::from(vec![0u8; 40])).is_err());
    }

    #[test]
    fn size_mismatch_is_bad_format() {
        let bytes = to_bytes(&CsrMatrix::identity(3));
        for wrong in [
            &bytes[..bytes.len() - 1],
            &[&bytes[..], &[0u8][..]].concat(),
        ] {
            assert!(matches!(
                CsrView::parse(wrong),
                Err(SparseError::BadFormat(_))
            ));
        }
    }
}
