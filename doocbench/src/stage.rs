//! Set-up: turning `(workload, seed)` into files on disk, and the checks on
//! what a round leaves there.
//!
//! The seed feeds the gap generator and `x0`; the program under test sees
//! only the staged files — a round (its own process) rebuilds the block list
//! from the file headers, never from the generator.

use crate::scratch::node_dirs;
use crate::workload::Workload;
use dooc_core::{runtime_lane_specs, TaskGraph};
use dooc_linalg::spmv_app::{striped_owner, SpmvAppBuilder, StagedBlock};
use dooc_sparse::blockgrid::BlockGrid;
use dooc_sparse::fileio;
use dooc_sparse::genmat::GapGenerator;
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A workload staged on disk, as the orchestrating process sees it.
pub struct Staged {
    pub dirs: Vec<PathBuf>,
    pub app: SpmvAppBuilder,
    pub x0: Vec<f64>,
    /// Bytes of matrix block files (the "dataset" of read amplification).
    pub dataset_bytes: u64,
    /// Total non-zeros (flop accounting for the baseline).
    pub nnz: u64,
    /// The graph set-up built and audited; rounds build their own.
    pub graph: TaskGraph,
    pub external: HashMap<String, u64>,
    /// What staging wrote, per node directory; everything else is a round's
    /// output and is removed before the next round.
    staged_files: Vec<HashSet<OsString>>,
}

/// The generator a workload's matrix comes from.
pub fn generator(w: &Workload) -> GapGenerator {
    GapGenerator::with_d(w.gap_d())
}

/// `x0` from the seed: SplitMix64 mapped to `[0.5, 1.5)`, so no entry is
/// zero and four iterations stay far from overflow.
pub fn initial_vector(n: u64, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Stages `w` under `base` and returns it with the set-up time in seconds:
/// writing the K×K block files and `x0`, `SpmvAppBuilder::build`, and the
/// pre-run audit — everything a user pays before the first task can run.
pub fn stage(w: &Workload, seed: u64, base: &Path) -> Result<(Staged, f64), String> {
    let dirs = node_dirs(base, w.nodes);
    let t0 = Instant::now();
    let grid = BlockGrid::new(w.k, w.n);
    let blocks = SpmvAppBuilder::stage(
        &dirs,
        grid,
        &generator(w),
        seed,
        striped_owner(w.nodes as u64),
    )
    .map_err(|e| format!("stage matrix: {e}"))?;
    let dataset_bytes = blocks.iter().map(|b| b.bytes).sum();
    let nnz = blocks.iter().map(|b| b.nnz).sum();
    let app = SpmvAppBuilder::new(grid, w.iterations, blocks);
    let x0 = initial_vector(w.n, seed);
    app.stage_initial_vector(&dirs, &x0)
        .map_err(|e| format!("stage x0: {e}"))?;
    let (graph, external, _geometry) = app.build();
    dooc_scheduler::audit(
        &graph,
        w.budget_bytes,
        &runtime_lane_specs(&graph, w.nodes as u64),
    )
    .map_err(|e| format!("audit rejected the {} graph: {e}", w.name))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let staged_files = dirs
        .iter()
        .map(|d| list_dir(d).map(|names| names.into_iter().collect()))
        .collect::<Result<_, _>>()?;
    Ok((
        Staged {
            dirs,
            app,
            x0,
            dataset_bytes,
            nnz,
            graph,
            external,
            staged_files,
        },
        setup_s,
    ))
}

/// What a round process sees of a staged workload: the app rebuilt from the
/// block files' headers.
pub fn open_staged(w: &Workload, base: &Path) -> Result<(Vec<PathBuf>, SpmvAppBuilder), String> {
    let dirs = node_dirs(base, w.nodes);
    let grid = BlockGrid::new(w.k, w.n);
    let owner = striped_owner(w.nodes as u64);
    let mut blocks = Vec::with_capacity((w.k * w.k) as usize);
    for coord in grid.coords() {
        let node = owner(coord);
        let path = dirs[node as usize].join(BlockGrid::file_name(coord));
        let header =
            fileio::read_header(&path).map_err(|e| format!("header {}: {e}", path.display()))?;
        blocks.push(StagedBlock {
            coord,
            node,
            bytes: header.file_size_bytes(),
            nnz: header.nnz,
        });
    }
    Ok((dirs, SpmvAppBuilder::new(grid, w.iterations, blocks)))
}

impl Staged {
    /// Removes everything a round wrote (spilled blocks, metadata journals,
    /// the persisted result) so the next round starts from the staged state:
    /// the storage layer adopts whatever it finds in a scratch directory.
    pub fn clean_round_outputs(&self) -> Result<(), String> {
        for (dir, keep) in self.dirs.iter().zip(&self.staged_files) {
            for name in list_dir(dir)? {
                if keep.contains(&name) {
                    continue;
                }
                let path = dir.join(&name);
                let removed = if path.is_dir() {
                    std::fs::remove_dir_all(&path)
                } else {
                    std::fs::remove_file(&path)
                };
                removed.map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }

    /// The in-core reference for this workload and seed, regenerated from
    /// the generator (so it also checks the staged files themselves).
    pub fn reference(&self, w: &Workload, seed: u64) -> Vec<f64> {
        self.app.reference_result(&generator(w), seed, &self.x0)
    }
}

fn list_dir(dir: &Path) -> Result<Vec<OsString>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    entries
        .map(|e| {
            e.map(|e| e.file_name())
                .map_err(|e| format!("list {}: {e}", dir.display()))
        })
        .collect()
}

/// FNV-1a over the bit patterns: two vectors hash equal only if they are
/// bitwise identical (the house rule across rounds, modes and transports).
pub fn hash_vector(x: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Largest entry-wise difference as a share of the reference's largest
/// entry. Relative to the norm, not per entry: a sum that cancels to nearly
/// zero would otherwise fail on rounding alone.
pub fn relative_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let scale = want.iter().fold(0.0f64, |m, w| m.max(w.abs()));
    let diff = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    if diff == 0.0 {
        0.0
    } else {
        diff / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_x0_and_nothing_else_does() {
        let a = initial_vector(1000, 7);
        assert_eq!(a, initial_vector(1000, 7));
        assert_ne!(a, initial_vector(1000, 8));
        assert!(a.iter().all(|v| (0.5..1.5).contains(v)));
    }

    #[test]
    fn hashes_see_single_bit_differences() {
        let a = vec![1.0, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(hash_vector(&a), hash_vector(&b));
        b[1] = f64::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(hash_vector(&a), hash_vector(&b));
        assert_ne!(hash_vector(&[0.0]), hash_vector(&[-0.0]));
    }

    #[test]
    fn relative_error_is_norm_relative() {
        assert_eq!(relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(relative_error(&[0.0, 64.0], &[0.5, 64.0]), 0.0078125);
        assert_eq!(relative_error(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(relative_error(&[], &[]), 0.0);
    }
}
