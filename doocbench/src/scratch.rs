//! Where the benchmark writes: one directory under the build's target
//! directory for result files and traces, and per-run scratch directories
//! below it that are removed when their handle drops — on success, on an
//! error return and on a panic alike. Nothing is written outside the
//! directory the benchmark was started in.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `<CARGO_TARGET_DIR or ./target>/doocbench`, created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("doocbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates a fresh, empty directory named after `tag`, this process and
    /// a per-process counter.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        // Relaxed: the counter only has to hand out distinct numbers.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir()?.join(format!(
            "scratch-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is under the ignored target dir.
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// The per-node scratch directories of a staged workload under `base`.
pub fn node_dirs(base: &Path, nodes: usize) -> Vec<PathBuf> {
    (0..nodes).map(|i| base.join(format!("node{i}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let s = Scratch::new("unit").expect("scratch");
            kept = s.path().to_path_buf();
            std::fs::write(kept.join("f"), b"x").expect("write");
            assert!(kept.is_dir());
        }
        assert!(!kept.exists(), "removed on success");

        let s = Scratch::new("unit").expect("scratch");
        let path = s.path().to_path_buf();
        let unwound = std::panic::catch_unwind(move || {
            let _held = s;
            panic!("simulated failure");
        });
        assert!(unwound.is_err());
        assert!(!path.exists(), "removed on failure");
    }

    #[test]
    fn two_scratches_never_share_a_directory() {
        let a = Scratch::new("unit").expect("a");
        let b = Scratch::new("unit").expect("b");
        assert_ne!(a.path(), b.path());
    }
}
