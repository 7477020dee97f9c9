//! The four workloads and the rule their names (and every metric name) obey.
//!
//! Only the parameters listed here are set on the runtime; everything else
//! (`LocalAggregation`, `IterationBarrier`, the iteration mode, ordering
//! policy, retry policies) is left at the library default, so a later change
//! to a default is measured, not bypassed.

/// Worker threads per node, set explicitly on `DoocConfig`.
pub const THREADS_PER_NODE: usize = 1;
/// Local-scheduler prefetch window, set explicitly on `DoocConfig`.
pub const PREFETCH_WINDOW: usize = 2;
/// `--quick` divides `n` and the budget by this; such numbers are smoke-test
/// numbers and are marked as not comparable wherever they are printed.
pub const QUICK_DIVISOR: u64 = 8;

/// One set of inputs the benchmark runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// Matrix order.
    pub n: u64,
    /// The matrix is a K×K grid of CSR block files.
    pub k: u64,
    /// Mean non-zeros per matrix row (the gap generator's `d` is `n / this`).
    pub nnz_per_row: u64,
    /// Nodes; more than one means loopback TCP between thread groups.
    pub nodes: usize,
    /// Storage memory budget per node, bytes.
    pub budget_bytes: u64,
    /// SpMV iterations per round.
    pub iterations: u64,
}

const MIB: u64 = 1 << 20;

/// The workloads, in the order `all` runs them.
///
/// Sizes are the issue's halved (times 0.35 for `spmv_vec_1n`) with every
/// dataset/budget ratio kept: the driver allows 3420 s for 92 runs, so one
/// run — seven stagings, a warm-up round, at least five timed rounds and the
/// in-core reference — has to fit in about half a minute.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spmv_ooc_1n",
        why: "matrix 8x the memory budget: every iteration re-reads it, so storage \
              load/evict/prefetch and the worker read pipeline do the work; peers and lanes idle",
        n: 400_000,
        k: 8,
        nnz_per_row: 40,
        nodes: 1,
        budget_bytes: 32 * MIB,
        iterations: 4,
    },
    Workload {
        name: "spmv_incore_1n",
        why: "same matrix, budget 4x the data: loaded once then all hits, so decode, kernels, \
              the storage hit path and the scheduler dominate; the gap to spmv_ooc_1n is the \
              out-of-core cost",
        n: 400_000,
        k: 8,
        nnz_per_row: 40,
        nodes: 1,
        budget_bytes: 1024 * MIB,
        iterations: 4,
    },
    Workload {
        name: "spmv_ooc_2n_tcp",
        why: "same matrix striped over 2 nodes on loopback TCP, 1/16 of the data per node budget: \
              the only workload where codec, TCP mesh, remote lanes, peer fetch and placement run",
        n: 400_000,
        k: 8,
        nnz_per_row: 40,
        nodes: 2,
        budget_bytes: 16 * MIB,
        iterations: 4,
    },
    Workload {
        name: "spmv_vec_1n",
        why: "long thin matrix (4 nnz/row): partial vectors written, sealed and spilled outweigh \
              matrix reads, dense sums outweigh SpMV; a storage change that trades writes for \
              reads shows here",
        n: 1_400_000,
        k: 8,
        nnz_per_row: 4,
        nodes: 1,
        budget_bytes: 17 * MIB,
        iterations: 4,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .cloned()
            .ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The `--quick` variant: same shape, `n` and budget divided by
    /// [`QUICK_DIVISOR`], so the dataset/budget ratio is unchanged.
    pub fn quick(&self) -> Workload {
        Workload {
            n: self.n / QUICK_DIVISOR,
            budget_bytes: self.budget_bytes / QUICK_DIVISOR,
            ..self.clone()
        }
    }

    /// The gap generator's `d`: gaps between non-zeros of a row are uniform
    /// on `[1, 2d]`, so a row of `n` columns carries about `n / d` of them.
    pub fn gap_d(&self) -> u64 {
        (self.n / self.nnz_per_row).max(1)
    }
}

/// Names of workloads and metrics: a letter or digit first, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_rule() {
        for ok in ["spmv_ooc_1n", "storage.hit_us", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "caf\u{e9}", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_rule() {
        for ok in ["s", "ms", "1/s", "MB/s", "%", "count", "GFLOP/s", "us/task"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "MB per s", "a_very_long_unit_name", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn workloads_are_well_formed_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} listed twice", w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert_eq!(Workload::find(w.name).as_ref(), Ok(w));
        }
        assert!(Workload::find("nope").is_err());
    }

    #[test]
    fn quick_keeps_the_dataset_to_budget_ratio() {
        for w in &WORKLOADS {
            let q = w.quick();
            assert_eq!(q.n * QUICK_DIVISOR, w.n);
            assert_eq!(q.budget_bytes * QUICK_DIVISOR, w.budget_bytes);
            assert_eq!((q.k, q.nnz_per_row, q.nodes), (w.k, w.nnz_per_row, w.nodes));
            assert_eq!(q.gap_d() * QUICK_DIVISOR, w.gap_d());
        }
    }
}
