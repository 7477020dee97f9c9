//! Property tests for the zero-copy CSR view: multiplying straight from
//! binary CRS bytes (4-byte indices) must be **bitwise** the owned matrix's
//! SpMV, across shapes, empty rows, every row length mod the 4-wide unroll,
//! forced pool fan-out and buffers that start at odd addresses — the
//! vectors' buffers too: `x` gathered from its stored bytes and `y` written
//! as stored bytes give exactly the bytes of decode, multiply, serialize;
//! and the view must accept exactly the byte strings the decoder accepts.
//! The shared validator (flat passes, no per-row loop) is checked against a
//! per-row reference on arrays that are usually *invalid*. So is the
//! first-touch constructor (`CsrBytes::new_multiplying`), which checks a
//! matrix with fewer entries than rows in the pass that multiplies it: it
//! accepts exactly what the validator accepts, and then stores exactly the
//! trusted walk's bits.

use bytes::Bytes;
use dooc_sparse::csr::TILE_ROWS;
use dooc_sparse::fileio;
use dooc_sparse::pool::spmv_fanout;
use dooc_sparse::{ComputePool, CsrBytes, CsrMatrix, CsrView, GapGenerator, SparseError};
use proptest::prelude::*;

/// Bytes per row pointer or column index in the file.
const WIDTH: usize = 4;

/// The encoding of a matrix with where its sections lie: section starts
/// `[row_ptr, col_idx, values]`.
struct Encoded {
    bytes: Vec<u8>,
    starts: [usize; 3],
}

fn encode(m: &CsrMatrix) -> Encoded {
    let (nptrs, nnz) = (m.nrows() as usize + 1, m.nnz() as usize);
    let bytes = fileio::to_bytes(m);
    let col_idx = 32 + (WIDTH * nptrs).next_multiple_of(8);
    let values = col_idx + (WIDTH * nnz).next_multiple_of(8);
    assert_eq!(bytes.len(), values + 8 * nnz);
    Encoded {
        bytes,
        starts: [32, col_idx, values],
    }
}

impl Encoded {
    /// Overwrites index `i` of section `section` (0 = row_ptr, 1 = col_idx).
    fn set_index(&mut self, section: usize, i: usize, val: u64) {
        let at = self.starts[section] + WIDTH * i;
        self.bytes[at..at + WIDTH].copy_from_slice(&val.to_le_bytes()[..WIDTH]);
    }
}

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

/// A valid matrix with about nine rows in ten empty — fewer entries than
/// rows, the matrices the first touch checks as it multiplies — whose other
/// rows hold 1-9 entries. Row counts straddle the walk's tiles.
fn arb_hypersparse() -> impl Strategy<Value = CsrMatrix> {
    let t = TILE_ROWS as u64;
    let nrows = [
        1,
        2,
        7,
        40,
        t - 1,
        t,
        t + 1,
        2 * t - 1,
        2 * t + 1,
        3 * t + 5,
    ];
    (0usize..nrows.len(), 10u64..40, any::<u64>()).prop_map(move |(pick, ncols, seed)| {
        let nrows = nrows[pick];
        let mut state = seed | 1;
        let mut next = move |span: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % span
        };
        let mut triplets = Vec::new();
        for r in 0..nrows {
            if next(10) == 0 {
                let (len, start) = (1 + next(9), next(ncols));
                for j in 0..len {
                    let c = (start + j) % ncols;
                    triplets.push((r, c, (r as f64 + 1.0) * 0.37 - j as f64 * 1.3));
                }
            }
        }
        CsrMatrix::from_triplets(nrows, ncols, &triplets).expect("in bounds")
    })
}

/// What the first-touch constructor makes of `bytes`: its verdict, and on
/// `Ok` the product's bytes, `x` and `y` each starting `off` bytes into
/// its buffer, split into `parallelism` pieces. `x` and `y` take the
/// dimensions the header declares (checked again by the constructor).
fn first_touch(
    bytes: &[u8],
    x: &[f64],
    off: usize,
    parallelism: usize,
) -> Result<Vec<u8>, SparseError> {
    let nrows = fileio::read_header_from(&mut &bytes[..]).map_or(0, |h| h.nrows);
    let mut xbuf = vec![0xEEu8; off];
    xbuf.extend(x.iter().flat_map(|v| v.to_le_bytes()));
    let mut ybuf = vec![0xEEu8; off + 8 * nrows.min(1 << 20) as usize];
    CsrBytes::new_multiplying_at(
        Bytes::copy_from_slice(bytes),
        xbuf[off..].as_chunks::<8>().0,
        ybuf[off..].as_chunks_mut::<8>().0,
        parallelism,
    )?;
    Ok(ybuf.split_off(off))
}

/// `x` for the matrix whose header `bytes` start with: `ncols` values of
/// `hostile_vector`, none if the header is unreadable.
fn x_for(bytes: &[u8], seed: u64) -> Vec<f64> {
    let ncols = fileio::read_header_from(&mut &bytes[..]).map_or(0, |h| h.ncols);
    hostile_vector(ncols.min(1 << 20), seed)
}

fn wave(n: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.71).sin() * 3.0 - 0.2)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `n` values drawn from `seed`, a third of them the ones arithmetic treats
/// specially: `-0.0`, subnormals, infinities, quiet and signalling NaNs with
/// payloads.
fn hostile_vector(n: u64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 11;
            let payload = r & 0x0007_ffff_ffff_ffff | 1;
            match r % 16 {
                0 => -0.0,
                1 => f64::from_bits(payload >> 20),
                2 => f64::from_bits(0x8000_0000_0000_0000 | payload >> 3),
                3 => f64::from_bits(0x7ff8_0000_0000_0000 | payload),
                4 => f64::from_bits(0xfff0_0000_0000_0000 | payload),
                5 => f64::INFINITY,
                _ => (r % 2000) as f64 * 0.01 - 10.0,
            }
        })
        .collect()
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
    fn view_spmv_is_bitwise_owned_spmv(m in arb_matrix(), off in 0usize..8, par in 1usize..7) {
        let x = wave(m.ncols());
        let mut owned = vec![0.0; m.nrows() as usize];
        m.spmv_into(&x, &mut owned).expect("dims");
        let pool = ComputePool::new(3);

        // The file bytes at an arbitrary (odd, for off = 1, 3, …) address.
        let mut buf = vec![0xEEu8; off];
        buf.extend_from_slice(&encode(&m).bytes);
        let view = CsrView::parse(&buf[off..]).expect("a well-formed encoding parses");
        prop_assert_eq!((view.nrows(), view.ncols(), view.nnz()), (m.nrows(), m.ncols(), m.nnz()));
        let mut borrowed = vec![f64::NAN; m.nrows() as usize];
        view.spmv_into(&x, &mut borrowed).expect("dims");
        prop_assert_eq!(bits(&borrowed), bits(&owned));
        prop_assert_eq!(view.to_matrix(), m.clone());

        // Through the pool, from an owned buffer: the public routing and
        // the fan-out at forced parallelism.
        let held = CsrBytes::new(Bytes::from(buf).slice(off..)).expect("valid");
        let mut y = vec![f64::NAN; m.nrows() as usize];
        pool.spmv(held.view(), &x, &mut y).expect("dims");
        prop_assert_eq!(bits(&y), bits(&owned));
        let mut y = vec![f64::NAN; m.nrows() as usize];
        spmv_fanout(held.view(), &x, &mut y, par).expect("dims");
        prop_assert_eq!(bits(&y), bits(&owned));
    }

    /// A multiply that gathers `x` from its little-endian bytes and writes
    /// `y` as little-endian bytes, both where they lie at any address,
    /// leaves exactly the bytes the old path produced by decoding `x` into
    /// `f64`s, multiplying into `f64`s and serializing them.
    #[test]
    fn byte_backed_x_and_in_place_y_give_the_bytes_of_decode_multiply_serialize(
        m in arb_matrix(),
        seed in any::<u64>(),
        xoff in 0usize..8,
        yoff in 0usize..8,
        par in 1usize..7,
    ) {
        let x = hostile_vector(m.ncols(), seed);
        let mut decoded = vec![0.0; m.nrows() as usize];
        m.spmv_into(&x, &mut decoded).expect("dims");
        let old: Vec<u8> = decoded.iter().flat_map(|v| v.to_le_bytes()).collect();

        let mut xbuf = vec![0xEEu8; xoff];
        xbuf.extend(x.iter().flat_map(|v| v.to_le_bytes()));
        let xbytes = xbuf[xoff..].as_chunks::<8>().0;
        // `y` as the executor holds it: a zeroed byte buffer cut into
        // 8-byte chunks, here starting `yoff` bytes into its allocation.
        let multiply = |kernel: &dyn Fn(&mut [[u8; 8]])| {
            let mut ybuf = vec![0u8; yoff + old.len()];
            kernel(ybuf[yoff..].as_chunks_mut::<8>().0);
            ybuf.split_off(yoff)
        };
        let pool = ComputePool::new(3);
        let encoded = encode(&m).bytes;
        let view = CsrView::parse(&encoded).expect("parses");
        let serial = multiply(&|y| view.spmv_into(xbytes, y).expect("dims"));
        prop_assert_eq!(&serial, &old, "serial");
        let held = CsrBytes::new(Bytes::from(encoded)).expect("valid");
        let routed = multiply(&|y| pool.spmv(held.view(), xbytes, y).expect("dims"));
        prop_assert_eq!(&routed, &old, "pool routing");
        let fanned = multiply(&|y| spmv_fanout(held.view(), xbytes, y, par).expect("dims"));
        prop_assert_eq!(&fanned, &old, "fan-out at {}", par);
        // The owned matrix through the same generic walk: bytes in, bytes out.
        let fanned = multiply(&|y| spmv_fanout(m.view(), xbytes, y, par).expect("dims"));
        prop_assert_eq!(&fanned, &old);
        // And a mixed pair: byte-backed `x`, native `y`.
        let mut native = vec![f64::NAN; m.nrows() as usize];
        pool.spmv(m.view(), xbytes, &mut native).expect("dims");
        prop_assert_eq!(bits(&native), bits(&decoded));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn view_and_decoder_accept_the_same_bytes(
        m in prop_oneof![arb_matrix(), arb_hypersparse()],
        kind in 0usize..7,
        pick in 0usize..1000,
        val in 0u64..60,
        (off, par) in (0usize..8, 1usize..7),
    ) {
        let mut e = encode(&m);
        let (nrows, nnz) = (m.nrows() as usize, m.nnz() as usize);
        // Section boundaries: magic, header, row_ptr, col_idx, values.
        let bounds = [0, 8, e.starts[0], e.starts[1], e.starts[2], e.bytes.len()];
        match kind {
            // Truncated at, just before or just after a section boundary.
            0 => {
                let cut = (bounds[pick % 6] + pick / 6 % 3).saturating_sub(1);
                e.bytes.truncate(cut);
            }
            1 => e.bytes[pick % 8] ^= 0x20, // bad magic or another version
            // A row pointer, a column index or a header count overwritten:
            // non-monotone row_ptr, unsorted / duplicate / out-of-range
            // columns, a size that no longer matches — or, sometimes, a
            // matrix that is still valid.
            2 => e.set_index(0, pick % (nrows + 1), val),
            3 if nnz > 0 => e.set_index(1, pick % nnz, val),
            4 => e.bytes[8 + 8 * (pick % 3)..][..8].copy_from_slice(&val.to_le_bytes()),
            // The last byte before the column indices: padding when the row
            // pointers are an odd number of 4-byte words, data otherwise.
            5 => e.bytes[e.starts[1] - 1] ^= 1 + (val as u8),
            _ => {} // untouched
        }
        let b = &e.bytes;
        let viewed = CsrView::parse(b);
        let decoded = fileio::from_bytes(b);
        let streamed = fileio::read_matrix_from(&mut &b[..]);
        prop_assert_eq!(viewed.is_ok(), decoded.is_ok());
        // The streaming reader stops at the end of the matrix, so it alone
        // tolerates trailing bytes; a size the header does not imply is
        // otherwise an error for all three.
        if let Ok(v) = &viewed {
            let header = fileio::read_header_from(&mut &b[..]).expect("parsed");
            prop_assert_eq!(b.len() as u64, header.file_size_bytes());
            prop_assert_eq!(&v.to_matrix(), streamed.as_ref().expect("valid for the view"));
        }
        if kind == 6 {
            prop_assert!(viewed.is_ok());
        }
        // The first touch, which checks a matrix with fewer entries than
        // rows as it multiplies it: the validator's verdict, and on `Ok`
        // the trusted walk's bits — from `x` and into `y` at any offset,
        // in any number of pieces, and through the pool's routing.
        let x = x_for(b, pick as u64);
        let touched = first_touch(b, &x, off, par);
        prop_assert_eq!(touched.is_ok(), viewed.is_ok(), "{:?}", touched.as_ref().err());
        let mut routed = vec![f64::NAN; touched.as_ref().map_or(0, |y| y.len() / 8)];
        let pool = ComputePool::new(3);
        let routed_ok = CsrBytes::new_multiplying(Bytes::copy_from_slice(b), &pool, &x, &mut routed);
        if let (Ok(v), Ok(y)) = (&viewed, &touched) {
            let mut want = vec![0.0; v.nrows() as usize];
            v.spmv_into(x.as_slice(), &mut want).expect("dims");
            let want_bytes: Vec<u8> = want.iter().flat_map(|w| w.to_le_bytes()).collect();
            prop_assert_eq!(y, &want_bytes);
            prop_assert!(routed_ok.is_ok());
            prop_assert_eq!(bits(&routed), bits(&want));
        }
    }

    /// The first touch against the per-row reference on arrays with fewer
    /// entries than rows, usually invalid: pointers that fall or pass nnz,
    /// columns out of order or out of range, in one piece or several.
    #[test]
    fn first_touch_matches_per_row_reference(
        nrows in 1u64..12,
        ncols in 0u64..6,
        row_ptr in proptest::collection::vec(0u64..8, 13..14),
        col_idx in proptest::collection::vec(0u64..7, 0..12),
        (sorted, par) in (0usize..3, 1usize..5),
    ) {
        let mut col_idx = col_idx;
        col_idx.truncate(nrows as usize - 1);
        let nnz = col_idx.len() as u64;
        // Pointers from 0 to nnz, sorted in two cases of three: there the
        // columns decide.
        let mut row_ptr: Vec<u64> = row_ptr[..=nrows as usize].iter().map(|p| p % (nnz + 2)).collect();
        if sorted > 0 {
            row_ptr.iter_mut().for_each(|p| *p = (*p).min(nnz));
            row_ptr.sort_unstable();
            row_ptr[0] = 0;
            row_ptr[nrows as usize] = nnz;
        }
        let expect = reference_valid(nrows, ncols, &row_ptr, &col_idx, col_idx.len());
        let b = raw_file(nrows, ncols, &row_ptr, &col_idx);
        let got = first_touch(&b, &vec![1.0; ncols as usize], 1, par);
        prop_assert_eq!(got.is_ok(), expect, "{:?} {:?} {:?}", row_ptr, col_idx, got.err());
        prop_assert_eq!(CsrView::parse(&b).is_ok(), expect);
    }

}

/// A binary CRS file holding the given arrays as they are (values all 1.0),
/// valid or not: the sizes are the ones the header implies.
fn raw_file(nrows: u64, ncols: u64, row_ptr: &[u64], col_idx: &[u64]) -> Vec<u8> {
    let mut b = fileio::MAGIC.to_vec();
    for count in [nrows, ncols, col_idx.len() as u64] {
        b.extend(count.to_le_bytes());
    }
    for section in [row_ptr, col_idx] {
        b.extend(section.iter().flat_map(|&i| (i as u32).to_le_bytes()));
        b.resize(b.len().next_multiple_of(8), 0);
    }
    b.extend(col_idx.iter().flat_map(|_| 1.0f64.to_le_bytes()));
    b
}

/// Truncation at *every* section boundary, deterministically (the proptests
/// above sample them).
#[test]
fn every_section_boundary_truncation_is_rejected_by_both() {
    // 12 rows: 13 row pointers, so the row pointer section is padded.
    let m = GapGenerator::with_d(2).generate(12, 15, 5);
    let e = encode(&m);
    let b = &e.bytes;
    let [row_ptr, col_idx, values] = e.starts;
    // `col_idx - 2` is inside the padding word.
    for cut in [0, 8, row_ptr, col_idx - 2, col_idx, values, b.len() - 1] {
        assert!(
            CsrView::parse(&b[..cut]).is_err(),
            "view accepted a cut at {cut}"
        );
        assert!(
            fileio::from_bytes(&b[..cut]).is_err(),
            "decoder accepted a cut at {cut}"
        );
        assert!(
            fileio::read_matrix_from(&mut &b[..cut]).is_err(),
            "streaming reader accepted a cut at {cut}"
        );
        assert!(
            first_touch(&b[..cut], &x_for(b, 1), 1, 2).is_err(),
            "first touch accepted a cut at {cut}"
        );
    }
    assert!(CsrView::parse(b).is_ok() && fileio::from_bytes(b).is_ok());
    assert!(first_touch(b, &x_for(b, 1), 1, 2).is_ok());
}

/// Hostile input is a typed error from every reader, and a count
/// nobody has vouched for reserves nothing: the cases with absurd counts
/// finish at all only because no reader allocates for them.
#[test]
fn hostile_input_is_a_typed_error() {
    // 4 rows (5 row pointers: padded) of 3 entries each (12: not padded).
    let triplets: Vec<_> = (0..4u64)
        .flat_map(|r| (0..3u64).map(move |j| (r, r + 2 * j, 1.5 + j as f64)))
        .collect();
    let m = CsrMatrix::from_triplets(4, 11, &triplets).expect("in bounds");
    let good = encode(&m);
    assert_eq!(good.starts, [32, 56, 104], "the layout this test pokes at");

    type Mutate = fn(&mut Encoded);
    let cases: [(&str, &str, Mutate); 9] = [
        ("non-zero padding", "padding", |e| e.bytes[52] = 1),
        ("ncols above u32::MAX", "32 bits", |e| {
            e.bytes[16..24].copy_from_slice(&(1u64 << 32).to_le_bytes())
        }),
        ("nnz above u32::MAX", "32 bits", |e| {
            e.bytes[24..32].copy_from_slice(&(1u64 << 60).to_le_bytes())
        }),
        ("nnz that fits u32 but not the file", "", |e| {
            e.bytes[24..32].copy_from_slice(&u64::from(u32::MAX).to_le_bytes())
        }),
        ("column >= ncols", "ncols", |e| e.set_index(1, 11, 11)),
        ("row pointer past nnz", "row_ptr", |e| e.set_index(0, 4, 13)),
        ("truncation inside a padding word", "", |e| {
            e.bytes.truncate(54)
        }),
        ("trailing bytes", "trailing", |e| e.bytes.push(0)),
        (
            "unknown version digit",
            "unsupported format version '3'",
            |e| e.bytes[7] = b'3',
        ),
    ];
    for (what, says, mutate) in cases {
        let mut e = encode(&m);
        mutate(&mut e);
        let structural = what.starts_with("column") || what.starts_with("row pointer");
        let readers = [
            ("view", CsrView::parse(&e.bytes).map(|v| v.to_matrix())),
            (
                "bytes",
                CsrBytes::new(Bytes::from(e.bytes.clone())).map(|b| b.view().to_matrix()),
            ),
            ("decoder", fileio::from_bytes(&e.bytes)),
            ("stream", fileio::read_matrix_from(&mut &e.bytes[..])),
            (
                "first touch",
                first_touch(&e.bytes, &[1.0; 11], 3, 2).map(|_| m.clone()),
            ),
        ];
        for (reader, got) in readers {
            if what == "trailing bytes" && reader == "stream" {
                assert_eq!(got.expect("stops at the matrix's end"), m);
                continue;
            }
            let msg = match got {
                Err(SparseError::InvalidStructure(msg)) if structural => msg,
                Err(SparseError::BadFormat(msg)) if !structural => msg,
                other => panic!("{what} through the {reader}: {other:?}"),
            };
            // The in-memory readers see the size mismatch first; what the
            // message must name is only checked where it is the first defect.
            if reader == "stream" || !what.starts_with("truncation") {
                assert!(msg.contains(says), "{what} through the {reader}: {msg}");
            }
        }
    }
}

/// Hostile bytes for a matrix with fewer entries than rows, which the first
/// touch checks in the pass that multiplies it: the same typed verdict as
/// the validator for each case, never a panic. One case is valid and must
/// be accepted by both: a row may start below where the previous
/// non-empty row ended, however many empty rows lie between.
#[test]
fn hostile_cells_with_mostly_empty_rows_get_the_validators_verdict() {
    // Two tiles and a bit of rows; one entry in every ninth row, two in
    // every 45th (so some row holds a pair to put out of order).
    let nrows = 2 * TILE_ROWS as u64 + 10;
    let triplets: Vec<_> = (0..nrows)
        .filter(|r| r % 9 == 0)
        .flat_map(|r| {
            let c = r % 13 + 2;
            let pair = (r % 45 == 0).then_some((r, c + 3, -2.5));
            std::iter::once((r, c, 1.0 + r as f64)).chain(pair)
        })
        .collect();
    let m = CsrMatrix::from_triplets(nrows, 20, &triplets).expect("in bounds");
    let (nnz, ptr) = (m.nnz(), m.row_ptr());
    assert!(nnz < nrows, "the walk is what this test exercises");
    // Where the entries of the first row of the second tile that holds a
    // pair start: a run of empty rows lies before it.
    let pair = (TILE_ROWS..nrows as usize)
        .find(|&r| ptr[r + 1] - ptr[r] == 2)
        .map(|r| ptr[r] as usize)
        .expect("a pair in the second tile");
    type Mutate = Box<dyn Fn(&mut Encoded)>;
    let cases: Vec<(&str, bool, &str, Mutate)> = vec![
        (
            "row_ptr passes nnz in one tile and falls in a later one",
            false,
            "row_ptr",
            Box::new(move |e| {
                // Rows 10..TILE_ROWS+4 end past nnz (their columns would
                // be read out of bounds); row TILE_ROWS+4 falls back.
                for r in 10..TILE_ROWS + 4 {
                    e.set_index(0, r, nnz + 7);
                }
            }),
        ),
        (
            "a column equal to ncols as a row's last entry",
            false,
            "ncols",
            Box::new(move |e| e.set_index(1, pair + 1, 20)),
        ),
        (
            "a descent at the first entry after a run of empty rows",
            true,
            "",
            // The row before the run now ends at column 19; the row after
            // it starts, as it did, lower.
            Box::new(move |e| e.set_index(1, pair - 1, 19)),
        ),
        (
            "a descent inside the first row after a run of empty rows",
            false,
            "strictly increasing",
            Box::new(move |e| {
                e.set_index(1, pair, 1);
                e.set_index(1, pair + 1, 0);
            }),
        ),
        (
            "ncols = 0 with nnz > 0",
            false,
            "ncols",
            Box::new(|e| e.bytes[16..24].copy_from_slice(&0u64.to_le_bytes())),
        ),
    ];
    for (what, valid, says, mutate) in cases {
        let mut e = encode(&m);
        mutate(&mut e);
        let viewed = CsrView::parse(&e.bytes);
        let x = x_for(&e.bytes, 5);
        for par in [1, 2, 5] {
            match (first_touch(&e.bytes, &x, 1, par), &viewed) {
                (Ok(y), Ok(v)) if valid => {
                    let mut want = vec![0.0; v.nrows() as usize];
                    v.spmv_into(x.as_slice(), &mut want).expect("dims");
                    let want: Vec<u8> = want.iter().flat_map(|w| w.to_le_bytes()).collect();
                    assert_eq!(y, want, "{what} at {par}");
                }
                (
                    Err(SparseError::InvalidStructure(msg)),
                    Err(SparseError::InvalidStructure(by_validator)),
                ) if !valid => {
                    assert!(msg.contains(says), "{what} at {par}: {msg}");
                    assert!(by_validator.contains(says), "{what}: {by_validator}");
                }
                (touched, viewed) => panic!("{what} at {par}: {touched:?} / {viewed:?}"),
            }
        }
    }
}
