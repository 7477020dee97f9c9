//! Binary CRS file format.
//!
//! The paper stores each sub-matrix "in a separate file in binary Compressed
//! Row Storage (CRS) format". Layout (all integers little-endian):
//!
//! ```text
//! offset  size            field
//! 0       8               magic  b"DOOCCRS1"
//! 8       8               nrows  (u64)
//! 16      8               ncols  (u64)
//! 24      8               nnz    (u64)
//! 32      8*(nrows+1)     row_ptr
//! ...     8*nnz           col_idx
//! ...     8*nnz           values (f64 bits)
//! ```
//!
//! Reads and writes stream through `BufReader`/`BufWriter` in fixed-size
//! chunks so that a sub-matrix larger than memory never requires a second
//! resident copy during (de)serialization. The header's counts are
//! untrusted: nothing is allocated for them before the payload they
//! describe has been seen.
//!
//! Bytes already in memory need no decoding at all: see
//! [`crate::view::CsrView`], which [`from_bytes`] is built on.

use crate::csr::CsrMatrix;
use crate::view::CsrView;
use crate::{Result, SparseError};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a DOoC binary CRS file, version 1.
pub const MAGIC: &[u8; 8] = b"DOOCCRS1";

pub(crate) const HEADER_BYTES: u64 = 32;

/// Size in bytes of the serialized form of a matrix with the given shape.
pub fn file_size_bytes(nrows: u64, nnz: u64) -> u64 {
    HEADER_BYTES + 8 * (nrows + 1) + 8 * nnz + 8 * nnz
}

/// Header of a binary CRS file (what `stat`+`peek` can learn without reading
/// the payload; the storage layer's startup scan uses this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrsHeader {
    /// Number of matrix rows.
    pub nrows: u64,
    /// Number of matrix columns.
    pub ncols: u64,
    /// Number of stored non-zeros.
    pub nnz: u64,
}

impl CrsHeader {
    /// Total file size implied by this header.
    pub fn file_size_bytes(&self) -> u64 {
        file_size_bytes(self.nrows, self.nnz)
    }

    /// [`CrsHeader::file_size_bytes`] for a header that may be corrupt:
    /// `None` when the counts overflow `u64`.
    pub(crate) fn checked_file_size_bytes(&self) -> Option<u64> {
        let row_ptr = self.nrows.checked_add(1)?.checked_mul(8)?;
        let arrays = self.nnz.checked_mul(16)?;
        HEADER_BYTES.checked_add(row_ptr)?.checked_add(arrays)
    }
}

fn write_u64s<W: Write>(w: &mut W, xs: &[u64]) -> std::io::Result<()> {
    // Chunked conversion keeps the scratch buffer small and the writes large.
    let mut buf = Vec::with_capacity(8 * 8192.min(xs.len().max(1)));
    for chunk in xs.chunks(8192) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

fn write_f64s<W: Write>(w: &mut W, xs: &[f64]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 * 8192.min(xs.len().max(1)));
    for chunk in xs.chunks(8192) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads `n` little-endian 8-byte words, decoded by `decode`. `n` comes from
/// a header nobody has vouched for, so the vector grows with the bytes that
/// actually arrive instead of reserving `n` up front.
fn read_words<R: Read, T>(
    r: &mut R,
    n: u64,
    what: &str,
    decode: fn([u8; 8]) -> T,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 8 * 8192];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(8192) as usize;
        let bytes = &mut buf[..8 * take];
        r.read_exact(bytes).map_err(|e| truncated_or_io(e, what))?;
        let (words, _) = bytes.as_chunks::<8>();
        out.extend(words.iter().map(|&w| decode(w)));
        remaining -= take as u64;
    }
    Ok(out)
}

fn truncated_or_io(e: std::io::Error, what: &str) -> SparseError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        SparseError::BadFormat(format!("file truncated while reading {what}"))
    } else {
        SparseError::Io(e)
    }
}

/// Writes `m` to `path` in binary CRS format, replacing any existing file.
pub fn write_matrix(path: &Path, m: &CsrMatrix) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_matrix_to(&mut w, m)?;
    w.flush()?;
    Ok(())
}

/// Writes `m` to an arbitrary sink in binary CRS format.
pub fn write_matrix_to<W: Write>(w: &mut W, m: &CsrMatrix) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&m.nrows().to_le_bytes())?;
    w.write_all(&m.ncols().to_le_bytes())?;
    w.write_all(&m.nnz().to_le_bytes())?;
    write_u64s(w, m.row_ptr())?;
    write_u64s(w, m.col_idx())?;
    write_f64s(w, m.values())?;
    Ok(())
}

/// Reads only the header of a binary CRS file.
pub fn read_header(path: &Path) -> Result<CrsHeader> {
    let mut r = BufReader::new(File::open(path)?);
    read_header_from(&mut r)
}

/// Reads a header from an arbitrary source.
pub fn read_header_from<R: Read>(r: &mut R) -> Result<CrsHeader> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| truncated_or_io(e, "magic"))?;
    if &magic != MAGIC {
        return Err(SparseError::BadFormat(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let mut word = [0u8; 8];
    r.read_exact(&mut word)
        .map_err(|e| truncated_or_io(e, "nrows"))?;
    let nrows = u64::from_le_bytes(word);
    r.read_exact(&mut word)
        .map_err(|e| truncated_or_io(e, "ncols"))?;
    let ncols = u64::from_le_bytes(word);
    r.read_exact(&mut word)
        .map_err(|e| truncated_or_io(e, "nnz"))?;
    let nnz = u64::from_le_bytes(word);
    Ok(CrsHeader { nrows, ncols, nnz })
}

/// Reads a full matrix from `path`, validating all CSR invariants.
pub fn read_matrix(path: &Path) -> Result<CsrMatrix> {
    let mut r = BufReader::new(File::open(path)?);
    read_matrix_from(&mut r)
}

/// Reads a full matrix from an arbitrary source.
pub fn read_matrix_from<R: Read>(r: &mut R) -> Result<CsrMatrix> {
    let h = read_header_from(r)?;
    let nptrs = h
        .nrows
        .checked_add(1)
        .ok_or_else(|| SparseError::BadFormat(format!("header {h:?}: nrows + 1 overflows")))?;
    let row_ptr = read_words(r, nptrs, "row_ptr", u64::from_le_bytes)?;
    let col_idx = read_words(r, h.nnz, "col_idx", u64::from_le_bytes)?;
    let values = read_words(r, h.nnz, "values", f64::from_le_bytes)?;
    // Full validation: files may come from outside this process.
    CsrMatrix::new(h.nrows, h.ncols, row_ptr, col_idx, values)
}

/// Serializes a matrix into an in-memory byte vector (used when a matrix
/// travels through the storage layer as array bytes).
pub fn to_bytes(m: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.file_size_bytes() as usize);
    write_matrix_to(&mut out, m).expect("Vec<u8> writes are infallible");
    out
}

/// Deserializes a matrix from bytes produced by [`to_bytes`]: the one
/// in-memory decoder is a validated [`CsrView`] copied out.
pub fn from_bytes(bytes: &[u8]) -> Result<CsrMatrix> {
    Ok(CsrView::parse(bytes)?.to_matrix())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genmat::GapGenerator;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dooc-sparse-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn roundtrip_via_file() {
        let dir = tmpdir();
        let path = dir.join("m.crs");
        let m = GapGenerator::with_d(3).generate(100, 120, 5);
        write_matrix(&path, &m).expect("write");
        let m2 = read_matrix(&path).expect("read");
        assert_eq!(m, m2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_via_bytes() {
        let m = GapGenerator::with_d(2).generate(37, 41, 9);
        let bytes = to_bytes(&m);
        assert_eq!(bytes.len() as u64, m.file_size_bytes());
        let m2 = from_bytes(&bytes).expect("decode");
        assert_eq!(m, m2);
    }

    #[test]
    fn header_only_read() {
        let m = GapGenerator::with_d(2).generate(10, 20, 1);
        let bytes = to_bytes(&m);
        let h = read_header_from(&mut &bytes[..]).expect("header");
        assert_eq!(h.nrows, 10);
        assert_eq!(h.ncols, 20);
        assert_eq!(h.nnz, m.nnz());
        assert_eq!(h.file_size_bytes(), bytes.len() as u64);
    }

    #[test]
    fn rejects_bad_magic() {
        let m = CsrMatrix::identity(3);
        let mut bytes = to_bytes(&m);
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(SparseError::BadFormat(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let m = GapGenerator::with_d(2).generate(8, 8, 2);
        let bytes = to_bytes(&m);
        // Chop at a few representative places: header, row_ptr, col_idx, values.
        for cut in [4usize, 20, 40, bytes.len() - 4] {
            let err = from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupted_structure() {
        let m = CsrMatrix::identity(4);
        let mut bytes = to_bytes(&m);
        // Corrupt the first row_ptr entry (offset 32) to a huge value.
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_bytes(&bytes).is_err());
        // Hostile headers: counts whose implied size overflows or dwarfs
        // the payload must be refused as a bad file, not abort on a
        // capacity overflow before the first payload byte is read.
        for (nrows, nnz) in [(4u64, 1u64 << 60), (u64::MAX, 4)] {
            let mut bytes = to_bytes(&m);
            bytes[8..16].copy_from_slice(&nrows.to_le_bytes());
            bytes[24..32].copy_from_slice(&nnz.to_le_bytes());
            for decoded in [from_bytes(&bytes), read_matrix_from(&mut &bytes[..])] {
                assert!(
                    matches!(decoded, Err(SparseError::BadFormat(_))),
                    "nrows={nrows} nnz={nnz}: {decoded:?}"
                );
            }
        }
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = CsrMatrix::zeros(5, 6);
        let m2 = from_bytes(&to_bytes(&m)).expect("decode");
        assert_eq!(m, m2);
    }

    #[test]
    fn file_size_formula_matches() {
        let m = GapGenerator::with_d(4).generate(64, 64, 3);
        assert_eq!(to_bytes(&m).len() as u64, file_size_bytes(64, m.nnz()));
    }
}
