//! Property tests for the zero-copy CSR view: multiplying straight from
//! binary CRS bytes must be **bitwise** the owned matrix's SpMV — across
//! shapes, empty rows, every row length mod the 4-wide unroll, forced pool
//! fan-out and buffers that start at odd addresses — and the view must
//! accept exactly the byte strings the decoder accepts. The shared validator
//! (flat passes, no per-row loop) is checked against a per-row reference on
//! arrays that are usually *invalid*.

use bytes::Bytes;
use dooc_sparse::fileio::{self, file_size_bytes};
use dooc_sparse::{ComputePool, CsrBytes, CsrMatrix, CsrView};
use proptest::prelude::*;
use std::sync::Arc;

/// A valid matrix whose row `r` holds exactly `lens[r]` entries: lengths are
/// drawn from 0..=9, so empty rows and every remainder of the 4-wide unroll
/// turn up in every case.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (10u64..40, proptest::collection::vec(0u64..10, 1..40)).prop_map(|(ncols, lens)| {
        let mut triplets = Vec::new();
        for (r, &len) in lens.iter().enumerate() {
            for j in 0..len {
                // `len <= 9 < ncols` distinct columns from a row-dependent
                // start, wrapping.
                let c = (r as u64 + j) % ncols;
                triplets.push((r as u64, c, (r as f64 + 1.0) * 0.37 - j as f64 * 1.3));
            }
        }
        CsrMatrix::from_triplets(lens.len() as u64, ncols, &triplets).expect("in bounds")
    })
}

fn wave(n: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.71).sin() * 3.0 - 0.2)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The per-row validator `CsrMatrix::new` used to run, as the oracle for
/// the flat one.
fn reference_valid(nrows: u64, ncols: u64, row_ptr: &[u64], col_idx: &[u64], nvals: usize) -> bool {
    if row_ptr.len() as u64 != nrows + 1 || row_ptr[0] != 0 {
        return false;
    }
    let nnz = row_ptr[nrows as usize];
    if col_idx.len() as u64 != nnz || nvals as u64 != nnz {
        return false;
    }
    if row_ptr.windows(2).any(|w| w[1] < w[0]) {
        return false;
    }
    (0..nrows as usize).all(|r| {
        let row = &col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize];
        row.windows(2).all(|w| w[0] < w[1]) && row.last().is_none_or(|&c| c < ncols)
    })
}

proptest! {
    #[test]
    fn view_spmv_is_bitwise_owned_spmv(m in arb_matrix(), off in 0usize..8, par in 1usize..5) {
        let x = wave(m.ncols());
        let mut owned = vec![0.0; m.nrows() as usize];
        m.spmv_into(&x, &mut owned).expect("dims");

        // The file bytes at an arbitrary (odd, for off = 1, 3, …) address.
        let mut buf = vec![0xEEu8; off];
        buf.extend_from_slice(&fileio::to_bytes(&m));
        let view = CsrView::parse(&buf[off..]).expect("own encoding parses");
        prop_assert_eq!((view.nrows(), view.ncols(), view.nnz()), (m.nrows(), m.ncols(), m.nnz()));
        let mut borrowed = vec![f64::NAN; m.nrows() as usize];
        view.spmv_into(&x, &mut borrowed).expect("dims");
        prop_assert_eq!(bits(&borrowed), bits(&owned));
        prop_assert_eq!(view.to_matrix(), m.clone());

        // Through the pool, from an owned buffer: the public routing and the
        // fork-join body at forced parallelism.
        let pool = ComputePool::new(3);
        let shared = Arc::new(CsrBytes::new(Bytes::from(buf).slice(off..)).expect("valid"));
        let x = Arc::new(x);
        let mut y = vec![f64::NAN; m.nrows() as usize];
        pool.spmv(&shared, &x, &mut y).expect("dims");
        prop_assert_eq!(bits(&y), bits(&owned));
        let mut y = vec![f64::NAN; m.nrows() as usize];
        pool.spmv_fanout(&shared, &x, &mut y, par);
        prop_assert_eq!(bits(&y), bits(&owned));
    }

    #[test]
    fn view_and_decoder_accept_the_same_bytes(
        m in arb_matrix(),
        kind in 0usize..6,
        pick in 0usize..1000,
        val in 0u64..60,
    ) {
        let mut b = fileio::to_bytes(&m);
        let (nrows, nnz) = (m.nrows() as usize, m.nnz() as usize);
        // Section boundaries: magic, header, row_ptr, col_idx, values.
        let bounds = [0, 8, 32, 32 + 8 * (nrows + 1), 32 + 8 * (nrows + 1) + 8 * nnz, b.len()];
        let word = |i: usize| 32 + 8 * i;
        match kind {
            // Truncated at, just before or just after a section boundary.
            0 => b.truncate((bounds[pick % 6] + pick / 6 % 3).saturating_sub(1).min(b.len())),
            1 => b[pick % 8] ^= 0x20, // bad magic
            // A row pointer, a column index or a header count overwritten:
            // non-monotone row_ptr, unsorted / duplicate / out-of-range
            // columns, a size that no longer matches — or, sometimes, a
            // matrix that is still valid.
            2 => b[word(pick % (nrows + 1))..][..8].copy_from_slice(&val.to_le_bytes()),
            3 if nnz > 0 => {
                b[word(nrows + 1 + pick % nnz)..][..8].copy_from_slice(&val.to_le_bytes())
            }
            4 => b[8 + 8 * (pick % 3)..][..8].copy_from_slice(&val.to_le_bytes()),
            _ => {} // untouched
        }
        let viewed = CsrView::parse(&b);
        let decoded = fileio::from_bytes(&b);
        let streamed = fileio::read_matrix_from(&mut &b[..]);
        prop_assert_eq!(viewed.is_ok(), decoded.is_ok());
        // The streaming reader stops at the end of the matrix, so it alone
        // tolerates trailing bytes; a size the header does not imply is
        // otherwise an error for all three.
        if let Ok(v) = &viewed {
            prop_assert_eq!(b.len() as u64, file_size_bytes(v.nrows(), v.nnz()));
            prop_assert_eq!(&v.to_matrix(), streamed.as_ref().expect("valid for the view"));
        }
        if kind == 5 {
            prop_assert!(viewed.is_ok());
        }
    }

    #[test]
    fn flat_validator_matches_per_row_reference(
        nrows in 0u64..6,
        ncols in 1u64..6,
        row_ptr in proptest::collection::vec(0u64..8, 1..8),
        col_idx in proptest::collection::vec(0u64..7, 0..8),
        short_vals in 0usize..4,
    ) {
        // Steer a good share of cases to the right lengths, where the
        // ordering rules (not the length checks) decide.
        let mut row_ptr = row_ptr;
        if short_vals > 0 {
            row_ptr.resize(nrows as usize + 1, col_idx.len() as u64);
            row_ptr[0] = 0;
            row_ptr.sort_unstable();
        }
        let nvals = if short_vals == 3 { col_idx.len().saturating_sub(1) } else { col_idx.len() };
        let expect = reference_valid(nrows, ncols, &row_ptr, &col_idx, nvals);
        let got = CsrMatrix::new(nrows, ncols, row_ptr.clone(), col_idx.clone(), vec![1.0; nvals]);
        prop_assert_eq!(got.is_ok(), expect, "{:?} {:?} nvals={}", row_ptr, col_idx, nvals);
    }
}

/// Truncation at *every* section boundary, deterministically (the proptest
/// above samples them).
#[test]
fn every_section_boundary_truncation_is_rejected_by_both() {
    let m = dooc_sparse::GapGenerator::with_d(2).generate(12, 15, 5);
    let b = fileio::to_bytes(&m);
    let (nrows, nnz) = (m.nrows() as usize, m.nnz() as usize);
    for cut in [
        0,
        8,
        32,
        32 + 8 * (nrows + 1),
        32 + 8 * (nrows + 1) + 8 * nnz,
        b.len() - 1,
    ] {
        assert!(
            CsrView::parse(&b[..cut]).is_err(),
            "view accepted a cut at {cut}"
        );
        assert!(
            fileio::from_bytes(&b[..cut]).is_err(),
            "decoder accepted a cut at {cut}"
        );
    }
    assert!(CsrView::parse(&b).is_ok() && fileio::from_bytes(&b).is_ok());
}
