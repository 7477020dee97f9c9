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
//! Reads stream through a `BufReader` in fixed-size chunks, and the
//! header's counts are untrusted: nothing is allocated for them before the
//! payload they describe has been seen. Writes encode the whole file into
//! one buffer ([`encode_into`]), sized once from the header, and hand it to
//! the file in one `write_all`: the matrix being written is in memory
//! already, and its file is half its size (12 bytes per non-zero against
//! 24).
//!
//! Bytes already in memory need no decoding at all: see
//! [`crate::view::CsrView`], which [`from_bytes`] is built on.

use crate::csr::CsrMatrix;
use crate::view::CsrView;
use crate::{Result, SparseError};
use std::fs::File;
use std::io::{BufReader, Read, Write};
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

/// Stores `xs` as little-endian `N`-byte words at the front of `out`,
/// zeroes the section's padding after them, and returns the rest of `out`.
fn encode_words<'o, T: Copy, const N: usize>(
    out: &'o mut [u8],
    xs: &[T],
    encode: fn(T) -> [u8; N],
) -> &'o mut [u8] {
    let (words, rest) = out.split_at_mut(N * xs.len());
    for (word, &x) in words.as_chunks_mut::<N>().0.iter_mut().zip(xs) {
        *word = encode(x);
    }
    let (pad, rest) = rest.split_at_mut(padding(xs.len() as u64, N));
    pad.fill(0);
    rest
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
    let mut buf = Vec::new();
    let written = encode_into(m, &mut buf)?;
    std::fs::write(path, &buf)?;
    Ok(written)
}

/// The version-2 header of `m`, or the refusal if `ncols` or `nnz` exceeds
/// `u32::MAX` — the eligibility rule, in the one place the encoder and
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

/// The bytes [`encode_into`] writes for `m`, without encoding it: the size
/// its header implies (the number readers check a file against), or the
/// encoder's refusal.
pub fn encoded_size(m: &CsrMatrix) -> Result<u64> {
    Ok(header_of(m)?.file_size_bytes())
}

/// Encodes `m` in binary CRS format into `out`, replacing its contents, and
/// returns the bytes encoded: the one encoder behind [`write_matrix`],
/// [`write_matrix_to`] and [`to_bytes`]. A matrix whose `ncols` or `nnz`
/// exceeds `u32::MAX` is refused before `out` is touched.
///
/// `out` is resized, not cleared, and every byte of it is then written: a
/// buffer reused for one cell after another zero-fills only what it grows
/// by, and keeps its allocation.
pub fn encode_into(m: &CsrMatrix, out: &mut Vec<u8>) -> Result<u64> {
    let h = header_of(m)?;
    let size = h.file_size_bytes();
    out.resize(size as usize, 0);
    let (head, rest) = out.split_at_mut(HEADER_BYTES as usize);
    head[..8].copy_from_slice(MAGIC);
    for (field, word) in head[8..].chunks_exact_mut(8).zip([h.nrows, h.ncols, h.nnz]) {
        field.copy_from_slice(&word.to_le_bytes());
    }
    // Every row pointer is <= nnz and every column index < ncols, so the
    // narrowing below is lossless.
    let narrow = |x: u64| (x as u32).to_le_bytes();
    let rest = encode_words(rest, m.row_ptr(), narrow);
    let rest = encode_words(rest, m.col_idx(), narrow);
    let rest = encode_words(rest, m.values(), f64::to_le_bytes);
    assert!(rest.is_empty(), "the header sized the file exactly");
    Ok(size)
}

/// Writes `m` to an arbitrary sink in binary CRS format, as one
/// [`encode_into`] and one `write_all`, and returns the bytes written. A
/// matrix whose `ncols` or `nnz` exceeds `u32::MAX` is refused before
/// anything is written.
pub fn write_matrix_to<W: Write>(w: &mut W, m: &CsrMatrix) -> Result<u64> {
    let mut buf = Vec::new();
    let written = encode_into(m, &mut buf)?;
    w.write_all(&buf)?;
    Ok(written)
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
/// If `ncols` or `nnz` exceeds `u32::MAX`; [`encode_into`] returns that as
/// an error instead.
pub fn to_bytes(m: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(m, &mut out).expect("matrix fits the format's 32-bit indices");
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
    fn the_bytes_of_a_generated_grid_are_pinned() {
        // FNV-1a over every cell's file in grid order: the generator and
        // the encoder together, held to the bytes these grids have always
        // staged as.
        for ((k, n, d, seed), want) in [
            ((3, 100, 3, 11), (0x4570_7a79_65a9_9250, 35_160)),
            ((8, 400, 2, 5), (0x7a01_bb92_a936_df95, 774_904)),
        ] {
            let grid = crate::BlockGrid::new(k, n);
            let gen = GapGenerator::with_d(d);
            let (mut hash, mut len) = (0xcbf2_9ce4_8422_2325u64, 0usize);
            for coord in grid.coords() {
                let bytes = to_bytes(&grid.generate_block(&gen, seed, coord));
                len += bytes.len();
                for b in bytes {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!((hash, len), want, "K={k} n={n} d={d} seed={seed}");
        }
    }

    #[test]
    fn a_reused_buffer_holds_only_the_last_encoding() {
        // Larger, smaller (odd sections: padding), empty, larger again.
        let gen = GapGenerator::with_d(2);
        let mut buf = Vec::new();
        for (nrows, ncols) in [(40, 50), (7, 9), (0, 3), (60, 61)] {
            let m = gen.generate(nrows, ncols, nrows + ncols);
            let written = encode_into(&m, &mut buf).expect("fits");
            assert_eq!(written, buf.len() as u64);
            let mut streamed = Vec::new();
            write_matrix_to(&mut streamed, &m).expect("fits");
            assert!(buf == streamed, "{nrows}x{ncols}");
            assert_eq!(from_bytes(&buf).expect("decode"), m);
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
