//! K×K square-grid partitioning of a global matrix (§IV).
//!
//! "The A matrix … is partitioned into sub-matrices of a K*K square grid,
//! such that each sub-matrix is small enough to fit into the local memory
//! available to a compute node … Each sub-matrix is labeled by its
//! coordinates on the grid, i.e., A_{u,v} … Each sub-matrix is stored in a
//! separate file in binary Compressed Row Storage (CRS) format."
//!
//! [`BlockGrid`] carries the partition geometry; [`BlockGrid::write_cells`]
//! materializes a full grid of generator-produced sub-matrix files the way
//! the paper's experiments seed their runs, one cell per task of a fan-out,
//! and [`BlockGrid::cut`] cuts an existing in-memory matrix into blocks
//! (used by correctness tests to verify that the distributed product equals
//! the monolithic one).

use crate::csr::CsrMatrix;
use crate::fileio;
use crate::genmat::GapGenerator;
use crate::{pool, Result};
use std::path::{Path, PathBuf};

/// Coordinates of a sub-matrix on the K×K grid: `A_{u,v}` is row-block `u`,
/// column-block `v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockCoord {
    /// Row-block index `u` in `0..K`.
    pub u: u64,
    /// Column-block index `v` in `0..K`.
    pub v: u64,
}

impl std::fmt::Display for BlockCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A_{{{},{}}}", self.u, self.v)
    }
}

/// Geometry of a K×K block partition of an `n × n` matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockGrid {
    /// Grid dimension K.
    pub k: u64,
    /// Global matrix order (rows == cols; the iterated-SpMV matrix is square).
    pub n: u64,
}

impl BlockGrid {
    /// Creates a grid; `k` must divide into at most `n` non-empty blocks.
    pub fn new(k: u64, n: u64) -> Self {
        assert!(k >= 1, "grid dimension must be at least 1");
        assert!(n >= k, "matrix order must be at least the grid dimension");
        Self { k, n }
    }

    /// Row (equivalently, column) range `[start, end)` of block index `i`.
    /// Remainder rows are spread over the leading blocks so that sizes differ
    /// by at most one.
    pub fn range(&self, i: u64) -> (u64, u64) {
        assert!(i < self.k, "block index {i} out of range for K={}", self.k);
        let base = self.n / self.k;
        let rem = self.n % self.k;
        let start = i * base + i.min(rem);
        let len = base + u64::from(i < rem);
        (start, start + len)
    }

    /// Number of rows (== columns) of block row/column `i`.
    pub fn block_dim(&self, i: u64) -> u64 {
        let (s, e) = self.range(i);
        e - s
    }

    /// All K² block coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = BlockCoord> + '_ {
        (0..self.k).flat_map(move |u| (0..self.k).map(move |v| BlockCoord { u, v }))
    }

    /// Conventional file name of sub-matrix `A_{u,v}`.
    pub fn file_name(coord: BlockCoord) -> String {
        format!("A_{}_{}.crs", coord.u, coord.v)
    }

    /// Conventional storage-array name of sub-matrix `A_{u,v}` (the name the
    /// distributed storage layer registers the file under).
    pub fn array_name(coord: BlockCoord) -> String {
        format!("A_{}_{}", coord.u, coord.v)
    }

    /// Conventional name of the input sub-vector `x_u` at iteration `i`.
    pub fn vector_name(iteration: u64, u: u64) -> String {
        format!("x_{iteration}_{u}")
    }

    /// Conventional name of the intermediate result `x^i_{u,v} = A_{u,v} x^{i-1}_u`.
    pub fn partial_name(iteration: u64, u: u64, v: u64) -> String {
        format!("x_{iteration}_{u}_{v}")
    }

    /// Cuts an in-memory matrix into its K×K blocks (row-major order).
    /// The matrix must be `n × n` with `n == self.n`.
    pub fn cut(&self, m: &CsrMatrix) -> Result<Vec<(BlockCoord, CsrMatrix)>> {
        assert_eq!(m.nrows(), self.n, "matrix rows must match grid");
        assert_eq!(m.ncols(), self.n, "matrix cols must match grid");
        let mut out = Vec::with_capacity((self.k * self.k) as usize);
        for coord in self.coords() {
            let (r0, r1) = self.range(coord.u);
            let (c0, c1) = self.range(coord.v);
            out.push((coord, m.submatrix(r0, r1, c0, c1)?));
        }
        Ok(out)
    }

    /// Generates all K² sub-matrix files in `dir` using the paper's gap
    /// generator, one deterministic seed per block derived from `seed`
    /// ([`BlockGrid::write_cells`] at the host's parallelism).
    /// Returns `(coord, path, nnz)` per block.
    pub fn generate_files(
        &self,
        dir: &Path,
        gen: &GapGenerator,
        seed: u64,
    ) -> Result<Vec<(BlockCoord, PathBuf, u64)>> {
        let dirs = vec![Some(dir); (self.k * self.k) as usize];
        let cells = self.write_cells(gen, seed, &dirs, pool::host_parallelism())?;
        Ok(self
            .coords()
            .zip(cells)
            .map(|(coord, cell)| (coord, dir.join(Self::file_name(coord)), cell.nnz))
            .collect())
    }

    /// Generates every cell of the grid and writes each one that `dirs`
    /// (one entry per cell, in [`BlockGrid::coords`] order) names a
    /// directory for, as [`BlockGrid::file_name`] in it; a `None` cell is
    /// generated only to learn its size. Returns each cell's non-zeros and
    /// the size of its file — for an unwritten cell the size its header
    /// implies ([`fileio::encoded_size`]).
    ///
    /// The cells are generated and written on [`pool::fork_join_with`] at
    /// `parallelism`, each thread into one matrix and one byte buffer it
    /// reuses for every cell it stages. A cell's bytes depend only on the
    /// generator, `seed` and its coordinates (one seed per cell), never on
    /// the parallelism or on which thread staged it. The directories are
    /// created before the fan-out starts; the first error in cell order is
    /// returned once every thread has joined.
    pub fn write_cells(
        &self,
        gen: &GapGenerator,
        seed: u64,
        dirs: &[Option<&Path>],
        parallelism: usize,
    ) -> Result<Vec<CellSize>> {
        let coords: Vec<BlockCoord> = self.coords().collect();
        assert_eq!(dirs.len(), coords.len(), "one directory entry per cell");
        let mut distinct: Vec<&Path> = dirs.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        for dir in distinct {
            std::fs::create_dir_all(dir)?;
        }
        let buffers = || (CsrMatrix::zeros(0, 0), Vec::new());
        pool::fork_join_with(coords.len(), parallelism, buffers, |(m, buf), i| {
            self.generate_block_into(gen, seed, coords[i], m);
            let bytes = match dirs[i] {
                Some(dir) => {
                    let bytes = fileio::encode_into(m, buf)?;
                    std::fs::write(dir.join(Self::file_name(coords[i])), &buf[..])?;
                    bytes
                }
                None => fileio::encoded_size(m)?,
            };
            Ok(CellSize {
                nnz: m.nnz(),
                bytes,
            })
        })
        .into_iter()
        .collect()
    }

    /// Generates the single block `A_{u,v}` deterministically (same content
    /// as the corresponding entry of [`BlockGrid::generate_files`]).
    pub fn generate_block(&self, gen: &GapGenerator, seed: u64, coord: BlockCoord) -> CsrMatrix {
        let mut m = CsrMatrix::zeros(0, 0);
        self.generate_block_into(gen, seed, coord, &mut m);
        m
    }

    /// [`BlockGrid::generate_block`] into `m`, refilled in place
    /// ([`GapGenerator::generate_into`]).
    pub fn generate_block_into(
        &self,
        gen: &GapGenerator,
        seed: u64,
        coord: BlockCoord,
        m: &mut CsrMatrix,
    ) {
        let rows = self.block_dim(coord.u);
        let cols = self.block_dim(coord.v);
        // Mix the coordinates into the seed; SplitMix-style odd constants
        // keep distinct blocks decorrelated.
        let block_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(coord.u.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(coord.v.wrapping_mul(0x94D0_49BB_1331_11EB));
        gen.generate_into(rows, cols, block_seed, m);
    }
}

/// What [`BlockGrid::write_cells`] learned of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellSize {
    /// Stored non-zeros.
    pub nnz: u64,
    /// Size of the cell's file in bytes.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_order() {
        for (k, n) in [(1u64, 5u64), (3, 9), (3, 10), (4, 10), (5, 23)] {
            let g = BlockGrid::new(k, n);
            let mut covered = 0;
            for i in 0..k {
                let (s, e) = g.range(i);
                assert_eq!(s, covered, "contiguous");
                covered = e;
                assert!(e > s, "non-empty block");
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let g = BlockGrid::new(4, 10);
        let dims: Vec<u64> = (0..4).map(|i| g.block_dim(i)).collect();
        assert_eq!(dims.iter().sum::<u64>(), 10);
        let (min, max) = (dims.iter().min().unwrap(), dims.iter().max().unwrap());
        assert!(max - min <= 1);
    }

    #[test]
    fn coords_row_major() {
        let g = BlockGrid::new(2, 4);
        let cs: Vec<_> = g.coords().collect();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0], BlockCoord { u: 0, v: 0 });
        assert_eq!(cs[1], BlockCoord { u: 0, v: 1 });
        assert_eq!(cs[3], BlockCoord { u: 1, v: 1 });
    }

    #[test]
    fn naming_conventions() {
        let c = BlockCoord { u: 2, v: 7 };
        assert_eq!(BlockGrid::file_name(c), "A_2_7.crs");
        assert_eq!(BlockGrid::array_name(c), "A_2_7");
        assert_eq!(BlockGrid::vector_name(1, 0), "x_1_0");
        assert_eq!(BlockGrid::partial_name(2, 0, 1), "x_2_0_1");
        assert_eq!(format!("{c}"), "A_{2,7}");
    }

    #[test]
    fn cut_blocks_reassemble_product() {
        // (blocked SpMV) == (monolithic SpMV): y_u = sum_v A_{u,v} x_v.
        let n = 30u64;
        let k = 3u64;
        let m = GapGenerator::with_d(3).generate(n, n, 77);
        let grid = BlockGrid::new(k, n);
        let blocks = grid.cut(&m).expect("cut");
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let reference = m.spmv(&x).expect("dims ok");

        let mut y = vec![0.0; n as usize];
        for (coord, block) in &blocks {
            let (r0, r1) = grid.range(coord.u);
            let (c0, c1) = grid.range(coord.v);
            let part = block.spmv(&x[c0 as usize..c1 as usize]).expect("dims ok");
            for (i, val) in part.iter().enumerate() {
                y[r0 as usize + i] += val;
            }
            assert_eq!(block.nrows(), r1 - r0);
            assert_eq!(block.ncols(), c1 - c0);
        }
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn cut_preserves_total_nnz() {
        let n = 25u64;
        let m = GapGenerator::with_d(2).generate(n, n, 5);
        let grid = BlockGrid::new(5, n);
        let blocks = grid.cut(&m).expect("cut");
        let total: u64 = blocks.iter().map(|(_, b)| b.nnz()).sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn generate_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dooc-grid-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let grid = BlockGrid::new(2, 20);
        let gen = GapGenerator::with_d(2);
        let files = grid.generate_files(&dir, &gen, 123).expect("generate");
        assert_eq!(files.len(), 4);
        for (coord, path, nnz) in &files {
            let m = crate::fileio::read_matrix(path).expect("read back");
            assert_eq!(m.nnz(), *nnz);
            assert_eq!(m, grid.generate_block(&gen, 123, *coord), "deterministic");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_blocks_decorrelated() {
        let grid = BlockGrid::new(2, 40);
        let gen = GapGenerator::with_d(2);
        let a = grid.generate_block(&gen, 1, BlockCoord { u: 0, v: 0 });
        let b = grid.generate_block(&gen, 1, BlockCoord { u: 0, v: 1 });
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_rejects_out_of_bounds() {
        BlockGrid::new(2, 10).range(2);
    }

    use crate::genmat::GapGenerator;
}
