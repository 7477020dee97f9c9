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
//! long as a task needs it.

use crate::csr::{CsrMatrix, CsrRef, Elem, ElemMut};
use crate::fileio::{read_header_from, CrsHeader, HEADER_BYTES, INDEX_BYTES};
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
        view_of(bytes, &h, true)
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

/// The matrix over `bytes`, whose header `h` must have come from
/// [`parse_header`] on the same bytes (so every range is in bounds). With
/// `validate`, padding and every CSR invariant are checked in one streaming
/// pass with nothing allocated; without, the bytes must have passed that
/// before.
fn view_of<'a>(bytes: &'a [u8], h: &CrsHeader, validate: bool) -> Result<CsrView<'a>> {
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
    if !validate {
        return Ok(CsrView::V2(CsrRef::trusted(
            h.nrows, h.ncols, row_ptr, col_idx, values,
        )));
    }
    if pad_ptr.iter().chain(pad_idx).any(|&b| b != 0) {
        return Err(SparseError::BadFormat(
            "non-zero padding after an index section".into(),
        ));
    }
    CsrRef::new(h.nrows, h.ncols, row_ptr, col_idx, values).map(CsrView::V2)
}

/// A validated binary CRS buffer that owns its bytes: the checks of
/// [`CsrView::parse`] ran at construction — or, for
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
        view_of(&bytes, &header, true)?;
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
        view_of(&self.bytes, &self.header, false).expect("validated at construction")
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
