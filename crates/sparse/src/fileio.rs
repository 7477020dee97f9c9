//! Binary CRS file format.
//!
//! The paper stores each sub-matrix "in a separate file in binary Compressed
//! Row Storage (CRS) format". The workload is bandwidth-bound, so bytes per
//! non-zero are cost: inside one cell of the K×K grid a row pointer and a
//! column index are local and fit 32 bits. Layout of format version 2, the
//! only one written (all integers little-endian):
//!
//! ```text
//! offset  size                 field
//! 0       8                    magic  b"DOOCCRS2"
//! 8       8                    nrows  (u64)
//! 16      8                    ncols  (u64, <= u32::MAX)
//! 24      8                    nnz    (u64, <= u32::MAX)
//! 32      pad8(4*(nrows+1))    row_ptr (u32 each, then zeros up to a multiple of 8)
//! ...     pad8(4*nnz)          col_idx (u32 each, then zeros up to a multiple of 8)
//! ...     8*nnz                values  (f64 bits)
//! ```
//!
//! * **Eligibility.** A matrix is written only if `ncols` and `nnz` fit
//!   `u32` — then every column index (`< ncols`) and every row pointer
//!   (`<= nnz`) does. Anything larger is a block of at least 48 GiB that no
//!   memory budget holds; the writer refuses it with
//!   [`SparseError::IndexOverflow`] instead of falling back to a wider
//!   layout, so there is one layout to stage, measure and keep resident.
//! * **Padding.** Each index section is zero-padded to a multiple of 8 bytes
//!   so the values keep the 8-byte alignment within the file they always
//!   had, and every section boundary is a whole word for streaming readers.
//!   Readers reject non-zero padding: a file has one encoding.
//! * **Values stay `f64`.** The indices only address; the values are the
//!   operands. Keeping their bits keeps the summation order and therefore
//!   every result bit — 12 instead of 16 bytes per non-zero, same answer.
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

/// Magic bytes of the format version the writer emits and the readers
/// accept (version 2).
pub const MAGIC: &[u8; 8] = b"DOOCCRS2";

pub(crate) const HEADER_BYTES: u64 = 32;

/// Bytes one row pointer or column index occupies.
pub(crate) const INDEX_BYTES: usize = 4;

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
    /// Counts too large for any file saturate to `u64::MAX`, which no size
    /// compares equal to.
    pub fn file_size_bytes(&self) -> u64 {
        self.checked_file_size_bytes().unwrap_or(u64::MAX)
    }

    /// [`CrsHeader::file_size_bytes`] for a header that may be corrupt:
    /// `None` when the counts overflow `u64`.
    pub(crate) fn checked_file_size_bytes(&self) -> Option<u64> {
        let row_ptr = index_section_bytes(self.nrows.checked_add(1)?)?;
        let col_idx = index_section_bytes(self.nnz)?;
        let values = self.nnz.checked_mul(8)?;
        HEADER_BYTES
            .checked_add(row_ptr)?
            .checked_add(col_idx)?
            .checked_add(values)
    }
}

/// Size of an index section of `count` entries, padding included.
fn index_section_bytes(count: u64) -> Option<u64> {
    count
        .checked_mul(INDEX_BYTES as u64)?
        .checked_next_multiple_of(8)
}

/// Zero bytes that follow `count` `width`-byte words up to a multiple of 8.
fn padding(count: u64, width: usize) -> usize {
    ((8 - count % 8 * width as u64 % 8) % 8) as usize
}

/// Writes `xs` as little-endian `N`-byte words followed by the section's
/// padding; returns the bytes written.
fn write_words<W: Write, T: Copy, const N: usize>(
    w: &mut W,
    xs: &[T],
    encode: fn(T) -> [u8; N],
) -> std::io::Result<u64> {
    // Chunked conversion keeps the scratch buffer small and the writes large.
    let mut buf = Vec::with_capacity(N * 8192.min(xs.len().max(1)));
    for chunk in xs.chunks(8192) {
        buf.clear();
        for &x in chunk {
            buf.extend_from_slice(&encode(x));
        }
        w.write_all(&buf)?;
    }
    let pad = padding(xs.len() as u64, N);
    w.write_all(&[0u8; 8][..pad])?;
    Ok((N * xs.len() + pad) as u64)
}

/// Reads `n` little-endian `N`-byte words, decoded by `decode`, and the
/// section's padding. `n` comes from a header nobody has vouched for, so the
/// vector grows with the bytes that actually arrive instead of reserving `n`
/// up front.
fn read_words<R: Read, T, const N: usize>(
    r: &mut R,
    n: u64,
    what: &str,
    decode: fn([u8; N]) -> T,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 8 * 8192];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(8192) as usize;
        let bytes = &mut buf[..N * take];
        r.read_exact(bytes).map_err(|e| truncated_or_io(e, what))?;
        let (words, _) = bytes.as_chunks::<N>();
        out.extend(words.iter().map(|&w| decode(w)));
        remaining -= take as u64;
    }
    let pad = &mut buf[..padding(n, N)];
    r.read_exact(pad).map_err(|e| truncated_or_io(e, what))?;
    if pad.iter().any(|&b| b != 0) {
        return Err(SparseError::BadFormat(format!(
            "non-zero padding after {what}"
        )));
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
/// Returns the file's size in bytes.
pub fn write_matrix(path: &Path, m: &CsrMatrix) -> Result<u64> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let written = write_matrix_to(&mut w, m)?;
    w.flush()?;
    Ok(written)
}

/// The version-2 header of `m`, or the refusal if `ncols` or `nnz` exceeds
/// `u32::MAX` — the eligibility rule, in the one place the writer and
/// [`encoded_size`] ask it.
fn header_of(m: &CsrMatrix) -> Result<CrsHeader> {
    for (what, value) in [("ncols", m.ncols()), ("nnz", m.nnz())] {
        if value > u64::from(u32::MAX) {
            return Err(SparseError::IndexOverflow { what, value });
        }
    }
    Ok(CrsHeader {
        nrows: m.nrows(),
        ncols: m.ncols(),
        nnz: m.nnz(),
    })
}

/// The bytes [`write_matrix_to`] writes for `m`, without encoding it: the
/// size its header implies (the number readers check a file against), or
/// the writer's refusal.
pub fn encoded_size(m: &CsrMatrix) -> Result<u64> {
    Ok(header_of(m)?.file_size_bytes())
}

/// Writes `m` to an arbitrary sink in binary CRS format and returns the
/// bytes written. A matrix whose `ncols` or `nnz` exceeds `u32::MAX` is
/// refused before anything is written.
pub fn write_matrix_to<W: Write>(w: &mut W, m: &CsrMatrix) -> Result<u64> {
    let h = header_of(m)?;
    w.write_all(MAGIC)?;
    for word in [h.nrows, h.ncols, h.nnz] {
        w.write_all(&word.to_le_bytes())?;
    }
    // Every row pointer is <= nnz and every column index < ncols, so the
    // narrowing below is lossless.
    let narrow = |x: u64| (x as u32).to_le_bytes();
    Ok(HEADER_BYTES
        + write_words(w, m.row_ptr(), narrow)?
        + write_words(w, m.col_idx(), narrow)?
        + write_words(w, m.values(), f64::to_le_bytes)?)
}

/// Reads only the header of a binary CRS file.
pub fn read_header(path: &Path) -> Result<CrsHeader> {
    let mut r = BufReader::new(File::open(path)?);
    read_header_from(&mut r)
}

/// Reads a header from an arbitrary source. Any magic but version 2's is
/// refused: another version digit as an unsupported version, anything else
/// as a bad magic.
pub fn read_header_from<R: Read>(r: &mut R) -> Result<CrsHeader> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| truncated_or_io(e, "magic"))?;
    if &magic != MAGIC {
        return Err(SparseError::BadFormat(if magic[..7] == MAGIC[..7] {
            format!(
                "unsupported format version '{}' (this build reads 2)",
                magic[7].escape_ascii()
            )
        } else {
            format!("bad magic {magic:?}, expected {MAGIC:?}")
        }));
    }
    let mut word = || -> Result<u64> {
        let mut word = [0u8; 8];
        r.read_exact(&mut word)
            .map_err(|e| truncated_or_io(e, "header"))?;
        Ok(u64::from_le_bytes(word))
    };
    let h = CrsHeader {
        nrows: word()?,
        ncols: word()?,
        nnz: word()?,
    };
    if h.ncols.max(h.nnz) > u64::from(u32::MAX) {
        return Err(SparseError::BadFormat(format!(
            "header {h:?}: ncols and nnz of a version-2 file must fit 32 bits"
        )));
    }
    Ok(h)
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
    let widen = |w| u64::from(u32::from_le_bytes(w));
    let row_ptr = read_words(r, nptrs, "row_ptr", widen)?;
    let col_idx = read_words(r, h.nnz, "col_idx", widen)?;
    let values = read_words(r, h.nnz, "values", f64::from_le_bytes)?;
    // Full validation: files may come from outside this process.
    CsrMatrix::new(h.nrows, h.ncols, row_ptr, col_idx, values)
}

/// Serializes a matrix into an in-memory byte vector (used when a matrix
/// travels through the storage layer as array bytes).
///
/// # Panics
///
/// If `ncols` or `nnz` exceeds `u32::MAX`; [`write_matrix_to`] returns that
/// as an error instead.
pub fn to_bytes(m: &CsrMatrix) -> Vec<u8> {
    let size = encoded_size(m).expect("matrix fits the format's 32-bit indices");
    let mut out = Vec::with_capacity(size as usize);
    write_matrix_to(&mut out, m).expect("writing to memory cannot fail");
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
        assert_eq!(&bytes[..8], MAGIC);
        let m2 = from_bytes(&bytes).expect("decode");
        assert_eq!(m, m2);
    }

    #[test]
    fn the_writer_reports_the_size_it_wrote() {
        // Odd and even section lengths: with and without padding.
        for (nrows, seed) in [(36, 1), (37, 2), (1, 3)] {
            let m = GapGenerator::with_d(2).generate(nrows, 41, seed);
            let mut out = Vec::new();
            let written = write_matrix_to(&mut out, &m).expect("fits");
            assert_eq!(written, out.len() as u64);
            assert_eq!(encoded_size(&m).expect("fits"), written);
            let h = read_header_from(&mut &out[..]).expect("header");
            assert_eq!(h.file_size_bytes(), written);
            // Values start on an 8-byte boundary within the file.
            assert_eq!((written - 8 * m.nnz()) % 8, 0);
        }
    }

    #[test]
    fn a_matrix_too_wide_for_the_indices_is_refused_not_widened() {
        let m = CsrMatrix::zeros(2, u64::from(u32::MAX) + 1);
        let mut out = Vec::new();
        assert!(matches!(
            write_matrix_to(&mut out, &m),
            Err(SparseError::IndexOverflow { what: "ncols", .. })
        ));
        assert!(out.is_empty(), "nothing written before the refusal");
        // The widest eligible shape still round-trips.
        let m =
            CsrMatrix::from_triplets(1, u64::from(u32::MAX), &[(0, u64::from(u32::MAX) - 1, 2.5)])
                .expect("in bounds");
        assert_eq!(from_bytes(&to_bytes(&m)).expect("decode"), m);
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
    fn an_unknown_version_is_named_as_such() {
        // '1' is the retired 8-byte-index layout: refused like any other.
        for version in [b'1', b'3'] {
            let mut bytes = to_bytes(&CsrMatrix::identity(3));
            bytes[7] = version;
            let named = format!("unsupported format version '{}'", version as char);
            for decoded in [from_bytes(&bytes), read_matrix_from(&mut &bytes[..])] {
                match decoded {
                    Err(SparseError::BadFormat(m)) => {
                        assert!(m.contains(&named) && !m.contains("reads 1"), "{m}")
                    }
                    other => panic!("{named} must be a format error, got {other:?}"),
                }
            }
        }
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
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
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
}
