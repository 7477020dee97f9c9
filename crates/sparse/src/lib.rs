//! Sparse-matrix substrate for the DOoC out-of-core middleware reproduction.
//!
//! This crate provides everything the middleware and the experiment harness
//! need to represent, generate, store and multiply the sparse matrices of the
//! paper's evaluation (§IV–§V):
//!
//! * [`csr::CsrMatrix`] — Compressed Row Storage matrices with `f64` values,
//!   validated invariants and the SpMV kernel;
//! * [`view::CsrView`] — the same kernel run in place on the bytes of a
//!   binary CRS file, with nothing decoded or allocated;
//! * [`fileio`] — the binary CRS on-disk format the paper stores each
//!   sub-matrix in ("Each sub-matrix is stored in a separate file in binary
//!   Compressed Row Storage (CRS) format"), with 32-bit cell-local indices;
//! * [`genmat`] — the paper's synthetic matrix generator: the gap between two
//!   consecutive non-zeros of a row is uniformly distributed in `[1 : 2d]`,
//!   with `d` chosen to reach a target number of non-zeros;
//! * [`blockgrid`] — the K×K square grid partitioning of a global matrix into
//!   sub-matrices, including the file naming scheme and per-block generation;
//! * [`dense`] — dense vector kernels (axpy/dot/norms/…) used by the iterated
//!   SpMV application and by the Lanczos solver;
//! * [`pool`] — the split of one SpMV or sum across the node's cores, as
//!   scoped threads over borrowed pieces of its operands.
//!
//! Everything is deterministic under a caller-supplied seed, `#![forbid(unsafe_code)]`,
//! and sized with `u64` row/column indices so that paper-scale shapes
//! (trillions of non-zeros) are representable even though laptop-scale tests
//! only materialize a few million.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockgrid;
pub mod csr;
pub mod dense;
pub mod fileio;
pub mod genmat;
pub mod pool;
pub mod view;

pub use blockgrid::{BlockCoord, BlockGrid};
pub use csr::CsrMatrix;
pub use genmat::GapGenerator;
pub use pool::ComputePool;
pub use view::{CsrBytes, CsrView};

/// Errors produced by the sparse substrate.
#[derive(Debug)]
pub enum SparseError {
    /// A CSR structural invariant was violated (message explains which).
    InvalidStructure(String),
    /// Dimension mismatch between operands of a kernel.
    DimensionMismatch {
        /// What the caller supplied.
        got: (u64, u64),
        /// What the operation required.
        expected: (u64, u64),
    },
    /// An I/O error while reading or writing a matrix file.
    Io(std::io::Error),
    /// A matrix file had an invalid header or was truncated.
    BadFormat(String),
    /// A matrix cannot be written: the file format stores 32-bit row
    /// pointers and column indices, and this count does not fit them.
    IndexOverflow {
        /// Which count (`"ncols"` or `"nnz"`).
        what: &'static str,
        /// Its value.
        value: u64,
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::InvalidStructure(m) => write!(f, "invalid CSR structure: {m}"),
            SparseError::DimensionMismatch { got, expected } => {
                write!(f, "dimension mismatch: got {got:?}, expected {expected:?}")
            }
            SparseError::Io(e) => write!(f, "I/O error: {e}"),
            SparseError::BadFormat(m) => write!(f, "bad matrix file format: {m}"),
            SparseError::IndexOverflow { what, value } => write!(
                f,
                "matrix not writable: {what} = {value} exceeds the file format's 32-bit indices"
            ),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
