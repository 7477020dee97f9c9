//! Zero-copy CSR over the bytes of a binary CRS file.
//!
//! A sub-matrix reaches a task as the bytes of its file (see [`crate::fileio`]
//! for the layout), pinned in a storage block. Decoding them into a
//! [`crate::CsrMatrix`] costs three fresh arrays the size of the block on every
//! task; [`CsrView`] instead borrows the three sections where they lie and
//! multiplies straight from them, fetching each index and value with
//! `from_le_bytes`. It is the byte-backed instance of [`CsrRef`], so it is
//! validated by, and multiplies with, exactly the code an owned matrix runs:
//! same accepted inputs, same result bits.
//!
//! [`CsrBytes`] is a validated view that owns its buffer, which is what lets
//! a matrix that lives in a storage block cross into the compute pool's
//! `'static` jobs ([`SpmvOperand`]).

use crate::csr::{CsrRef, SpmvOperand};
use crate::fileio::{read_header_from, CrsHeader, HEADER_BYTES};
use crate::{Result, SparseError};
use bytes::Bytes;

/// A borrowed, allocation-free CSR matrix over binary CRS bytes.
pub type CsrView<'a> = CsrRef<'a, [u8; 8], [u8; 8]>;

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

/// The three sections of `bytes` as 8-byte words. `h` must have come from
/// [`parse_header`] on the same bytes (so every range is in bounds).
fn sections<'a>(bytes: &'a [u8], h: &CrsHeader) -> [&'a [[u8; 8]]; 3] {
    let (words, _) = bytes[HEADER_BYTES as usize..].as_chunks::<8>();
    let (row_ptr, rest) = words.split_at(h.nrows as usize + 1);
    let (col_idx, values) = rest.split_at(h.nnz as usize);
    [row_ptr, col_idx, values]
}

/// Header, size and every CSR invariant of `bytes`, checked in one streaming
/// pass with nothing allocated.
fn parse(bytes: &[u8]) -> Result<(CrsHeader, CsrView<'_>)> {
    let h = parse_header(bytes)?;
    let [row_ptr, col_idx, values] = sections(bytes, &h);
    Ok((h, CsrRef::new(h.nrows, h.ncols, row_ptr, col_idx, values)?))
}

impl<'a> CsrView<'a> {
    /// Borrows `bytes` as a matrix after validating them: no kernel can run
    /// on bytes that are not one. `bytes` may start at any address.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        parse(bytes).map(|(_, view)| view)
    }
}

/// A validated binary CRS buffer that owns its bytes: the checks of
/// [`CsrView::parse`] ran once at construction, [`CsrBytes::view`]
/// re-borrows the sections for free. Cloning shares the buffer.
#[derive(Clone, Debug)]
pub struct CsrBytes {
    bytes: Bytes,
    header: CrsHeader,
}

impl CsrBytes {
    /// Takes ownership of `bytes` after validating them as a matrix.
    pub fn new(bytes: Bytes) -> Result<Self> {
        let (header, _) = parse(&bytes)?;
        Ok(Self { bytes, header })
    }

    /// The matrix over the owned bytes.
    pub fn view(&self) -> CsrView<'_> {
        let [row_ptr, col_idx, values] = sections(&self.bytes, &self.header);
        CsrRef::trusted(
            self.header.nrows,
            self.header.ncols,
            row_ptr,
            col_idx,
            values,
        )
    }
}

impl SpmvOperand for CsrBytes {
    type Index = [u8; 8];
    type Value = [u8; 8];
    fn csr(&self) -> CsrView<'_> {
        self.view()
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
        assert_eq!(owned.clone().csr().nnz(), m.nnz());
        assert!(CsrBytes::new(Bytes::from(vec![0u8; 40])).is_err());
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
