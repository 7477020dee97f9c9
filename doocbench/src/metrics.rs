//! The metric catalogue: every number the benchmark reports, with its unit,
//! which way is better, and what it is for. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step), and the result line is checked
//! against this table before it is printed.

use crate::jsonout::{num, nums, obj, s, Json};
use crate::stats::Summary;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// One sentence: what it measures, and which end-to-end metric on which
    /// workload it should move.
    pub why: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    why: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        why,
    }
}

use Better::{Higher, Lower};

/// What a scientist running an out-of-core solver pays. Read bandwidth is
/// deliberately absent: better block reuse lowers it while improving wall
/// time, so gating on it would reject good changes.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s_per_iter", "s", Lower,
        "median over rounds of RunReport.elapsed / iterations (slowest node for TCP): the paper's time per iteration"),
    def("cpu_s_per_iter", "s", Lower,
        "process user+sys CPU per iteration over the same runs: the paper's CPU-hour column; catches 'faster by spinning a core'"),
    def("peak_rss_mb", "MB", Lower,
        "VmHWM of the run's process: the middleware promises to live inside memory_budget, so caching outside it shows here"),
    def("setup_s", "s", Lower,
        "staging the K x K CSR files and x0, SpmvAppBuilder::build and the pre-run audit; median of 7 stagings, so work moved into set-up shows"),
];

/// Single-layer metrics (layer = crate). From the rounds' `RunReport`s where
/// marked (per workload), otherwise from probes that time calls into the
/// layer's public functions.
pub const PER_LAYER: &[MetricDef] = &[
    // storage, from RunReport.node_stats
    def("storage.disk_read_mb", "MB", Lower,
        "bytes read from scratch per round; with read_amplification moves wall_s_per_iter on the ooc workloads, not on incore"),
    def("storage.disk_write_mb", "MB", Lower,
        "bytes spilled or persisted per round; moves wall_s_per_iter on spmv_vec_1n"),
    def("storage.evictions", "count", Lower,
        "blocks evicted per round; 0 on spmv_incore_1n by construction"),
    def("storage.peer_recv_mb", "MB", Lower,
        "block bytes fetched from peers per round; non-zero only on spmv_ooc_2n_tcp"),
    def("storage.read_bw_mb_s", "MB/s", Higher,
        "disk_read_mb / wall: the paper's bandwidth column, served by the sandbox's page cache, not a device"),
    def("storage.read_amplification", "ratio", Lower,
        "disk bytes read / (dataset bytes x iterations); 1 is one pass per iteration, below 1 is reuse"),
    def("storage.pinned_peak_mb", "MB", Lower,
        "largest per-node watermark of pinned bytes; tracks peak_rss_mb on every workload"),
    // storage, probes through StorageCluster/StorageClient
    def("storage.hit_us", "us", Lower,
        "read+release of a resident 64 KiB block; moves wall_s_per_iter on spmv_incore_1n"),
    def("storage.load_us", "us", Lower,
        "read of an evicted 64 KiB block (disk load + eviction); moves wall_s_per_iter on the ooc workloads"),
    def("storage.spill_mb_s", "MB/s", Higher,
        "write+seal of 16x the budget, so most of it spills; moves wall_s_per_iter on spmv_vec_1n"),
    def("storage.peer_fetch_us", "us", Lower,
        "first read of a 64 KiB block homed on the other node; moves spmv_ooc_2n_tcp only"),
    // sparse, probes on one block of the workload's own shape
    def("sparse.decode_mb_s", "MB/s", Higher,
        "fileio::from_bytes on one block; paid per multiply task, so moves wall and cpu on every workload, most on incore"),
    def("sparse.spmv_gflops", "GFLOP/s", Higher,
        "CsrMatrix::spmv_into on one block; moves wall and cpu on spmv_incore_1n most"),
    def("sparse.add_gb_s", "GB/s", Higher,
        "dense::add_assign, 24 B moved per element; moves spmv_vec_1n"),
    def("sparse.dot_gb_s", "GB/s", Higher,
        "dense::dot, 16 B moved per element; no workload here uses it, so no end-to-end effect is predicted"),
    def("sparse.pool_forkjoin_us", "us", Lower,
        "ComputePool::fork_join of empty tasks; blocks here are below SPMV_SERIAL_MAX_NNZ, so it predicts no end-to-end change"),
    // core
    def("core.read_array_us", "us", Lower,
        "WorkerContext::read_array of 64 resident 64 KiB blocks; the pipelined read path every task input takes"),
    def("core.write_mb_s", "MB/s", Higher,
        "WorkerContext::write_bytes of 64 x 64 KiB blocks within budget; the path every task output takes"),
    def("core.busy_frac", "ratio", Higher,
        "sum of task spans / (elapsed x nodes) from RunReport.trace; 1 - busy_frac stands in for the paper's non-overlap %"),
    def("core.multiply_s", "s", Lower, "task time in multiply tasks per round (read + decode + SpMV + write)"),
    def("core.sum_s", "s", Lower, "task time in sum tasks per round (reads + adds + write)"),
    def("core.barrier_s", "s", Lower, "task time in barrier tasks per round"),
    // scheduler and graph construction, on the workload's real graph
    def("scheduler.assign_us_per_task", "us/task", Lower, "assign_affinity over the workload's graph"),
    def("scheduler.next_task_us", "us", Lower, "LocalScheduler::next_task, mean over a full drain of the graph"),
    def("scheduler.audit_us_per_task", "us/task", Lower, "the pre-run audit; part of setup_s"),
    def("linalg.build_us_per_task", "us/task", Lower, "SpmvAppBuilder::build; part of setup_s"),
    def("scheduler.wall_share_pct", "%", Lower,
        "the four costs above x tasks per iteration / wall_s_per_iter: predicted under 1 %, so scheduler changes should not move wall"),
    // filterstream
    def("filterstream.codec_encode_mb_s", "MB/s", Higher, "Frame::encode of 64 KiB payloads"),
    def("filterstream.codec_decode_frames_s", "1/s", Higher, "FrameDecoder over 64 KiB frames, one chunk per frame"),
    def("filterstream.codec_copied_bytes", "bytes", Lower, "payload bytes the decoder copied in that run; 0 means zero-copy held"),
    def("filterstream.tcp_loopback_mb_s", "MB/s", Higher, "64 KiB frames through a 2-node TcpTransport on loopback"),
    def("filterstream.tcp_frames_s", "1/s", Higher, "empty frames through the same mesh"),
    def("filterstream.lane_local_msgs_s", "1/s", Higher, "tag-only buffers over a stream between two filters on one node"),
    def("filterstream.lane_remote_msgs_s", "1/s", Higher,
        "the same stream with the consumer on another node; filterstream numbers can move spmv_ooc_2n_tcp only"),
    // process and baseline
    def("proc.minflt_per_iter", "1/iter", Lower, "minor page faults per iteration; per-task decode buffers show here"),
    def("proc.sys_frac", "ratio", Lower, "sys / (user + sys) CPU over the rounds"),
    def("baseline.plain_loop_s_per_iter", "s", Lower,
        "single-threaded read_matrix + spmv_into over the same files: what the work costs without a middleware"),
    def("baseline.overhead_factor", "ratio", Lower, "wall_s_per_iter / plain_loop_s_per_iter"),
    def("obs.overhead_pct", "%", Lower,
        "wall of rounds run with dooc_obs::enable_sampled(16) against the untraced median"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One metric as measured: its samples (one per round, staging or probe
/// batch) and their summary.
#[derive(Clone, Debug)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub values: Vec<f64>,
    pub summary: Summary,
}

impl Measured {
    /// Summarises `values` under the catalogued metric `name`.
    pub fn new(name: &str, values: Vec<f64>) -> Result<Measured, String> {
        let def = find(name).ok_or_else(|| format!("metric '{name}' is not in the catalogue"))?;
        let summary = Summary::of(&values)
            .ok_or_else(|| format!("metric '{name}' has no finite samples: {values:?}"))?;
        Ok(Measured {
            def,
            values,
            summary,
        })
    }

    /// `{"value": median, "unit": …}` — the form of the final result line.
    pub fn to_line_json(&self) -> Json {
        obj([
            ("value", num(self.summary.median)),
            ("unit", s(self.def.unit)),
        ])
    }

    /// The result-file form: the summary plus every sample.
    pub fn to_file_json(&self) -> Json {
        obj([
            ("unit", s(self.def.unit)),
            ("better", s(self.def.better.as_str())),
            ("median", num(self.summary.median)),
            ("min", num(self.summary.min)),
            ("max", num(self.summary.max)),
            ("n", num(self.summary.n as f64)),
            ("values", nums(&self.values)),
        ])
    }

    /// One aligned text row.
    pub fn row(&self) -> String {
        format!(
            "  {:<36} {:>14} {:<8} min {:<12} max {:<12} n {}",
            self.def.name,
            sig(self.summary.median),
            self.def.unit,
            sig(self.summary.min),
            sig(self.summary.max),
            self.summary.n
        )
    }
}

/// Six significant digits, for the human-readable tables only.
pub fn sig(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonout::{get_arr, get_str, parse};
    use crate::workload::{valid_name, valid_unit, WORKLOADS};

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(!d.why.is_empty());
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue_and_the_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = get_arr(&v, key).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}: count");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(get_str(entry, "name"), Ok(d.name), "{key}");
                assert_eq!(get_str(entry, "unit"), Ok(d.unit), "{}", d.name);
                assert_eq!(
                    get_str(entry, "better"),
                    Ok(d.better.as_str()),
                    "{}",
                    d.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    let b = bound.expect("end-to-end metrics carry a bound");
                    assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
                } else {
                    assert_eq!(bound, None, "{}: per-layer metrics have no bound", d.name);
                }
            }
        }
        let listed = get_arr(&v, "workloads").expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(get_str(entry, "name"), Ok(w.name));
            assert_eq!(get_str(entry, "why"), Ok(w.why));
        }
    }

    #[test]
    fn measured_rejects_unknown_names_and_empty_samples() {
        assert!(Measured::new("no.such_metric", vec![1.0]).is_err());
        assert!(Measured::new("setup_s", vec![]).is_err());
        assert!(Measured::new("setup_s", vec![f64::NAN]).is_err());
        let m = Measured::new("setup_s", vec![0.3, 0.25, 0.35]).expect("measured");
        assert_eq!(m.summary.median, 0.3);
        assert_eq!(
            m.to_line_json().get("unit").and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn sig_keeps_six_significant_digits() {
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(1.23456789), "1.23457");
        assert_eq!(sig(123456.789), "123457");
        assert_eq!(sig(0.000123456789), "0.000123457");
        assert_eq!(sig(-2.5), "-2.50000");
    }
}
