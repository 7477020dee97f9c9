//! The one format-version-1 writer (8-byte indices, no padding). The library
//! only reads that layout, so tests that need such bytes assemble them here:
//! every test crate that does includes this file by path — with `CsrMatrix`
//! and `GapGenerator` in scope at its root — and so also runs the check
//! below, which holds the writer to the file the old `to_bytes` left.

use super::{CsrMatrix, GapGenerator};

/// The format-version-1 encoding of `m`.
pub fn v1_bytes(m: &CsrMatrix) -> Vec<u8> {
    let mut out = b"DOOCCRS1".to_vec();
    for word in [m.nrows(), m.ncols(), m.nnz()]
        .iter()
        .chain(m.row_ptr())
        .chain(m.col_idx())
    {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend(m.values().iter().flat_map(|v| v.to_le_bytes()));
    out
}

#[test]
fn the_v1_writer_is_the_old_writer() {
    // `tests/fixtures/cell_v1.crs` is this matrix through `fileio::to_bytes`
    // of the last commit that wrote version 1.
    let m = GapGenerator::with_d(2).generate(7, 11, 2012);
    assert_eq!(v1_bytes(&m), include_bytes!("../fixtures/cell_v1.crs"));
}
