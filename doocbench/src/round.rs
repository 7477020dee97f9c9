//! One round = one run of the iterated SpMV in a process of its own.
//!
//! A scientist's solver run is one process, and measuring rounds inside a
//! long-lived process measures something else: glibc's per-thread arenas
//! are recycled between runtime instances, and depending on which arena the
//! worker thread inherits a round takes 52k or 374k minor faults (0.19 s or
//! 0.30 s per iteration on the sizing host) — a coin flip no change to the
//! repo controls. A fresh process starts every round from the same
//! allocator state, and its `VmHWM` is the run's own peak, not the
//! orchestrator's.
//!
//! The parent ([`spawn`]) starts `doocbench round …`; the child
//! ([`child_main`]) runs the workload once over the staged files and prints
//! one JSON line.

use crate::jsonout::{self, get_arr, get_f64, get_str, num, obj, s, Json};
use crate::procfs::{self, CpuSample};
use crate::stage;
use crate::workload::{Workload, PREFETCH_WINDOW, THREADS_PER_NODE};
use dooc_core::{DoocConfig, DoocRuntime, RunReport};
use dooc_filterstream::{ClusterSpec, TcpTransport, Transport};
use dooc_linalg::spmv_app::SpmvExecutor;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Span sampling period of the traced round (`dooc_obs::enable_sampled`).
pub const OBS_SAMPLE_PERIOD: u32 = 16;

/// Where a traced round writes its Chrome trace and metrics dump.
#[derive(Clone, Debug)]
pub struct ObsPaths {
    pub trace: PathBuf,
    pub metrics: PathBuf,
}

/// Storage counters of one node over one round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeCounters {
    pub disk_read_bytes: f64,
    pub disk_write_bytes: f64,
    pub peer_recv_bytes: f64,
    pub evictions: f64,
    pub pinned_peak_bytes: f64,
}

/// Everything one round measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundResult {
    /// `RunReport.elapsed` of the slowest node, seconds.
    pub wall_s: f64,
    /// Process CPU over the run (both nodes' threads when there are two).
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: f64,
    /// `VmHWM` of the round's process after the run, MB.
    pub peak_rss_mb: f64,
    /// Hash of the final vector's bit patterns.
    pub hash: String,
    pub nodes: Vec<NodeCounters>,
    /// Task spans from `RunReport.trace`, summed by kind, seconds.
    pub busy_s: f64,
    pub multiply_s: f64,
    pub sum_s: f64,
    pub barrier_s: f64,
    pub tasks: f64,
    /// Events in the exported trace (traced rounds only).
    pub obs_events: Option<f64>,
}

impl RoundResult {
    pub fn total(&self, field: impl Fn(&NodeCounters) -> f64) -> f64 {
        self.nodes.iter().map(field).sum()
    }

    fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                obj([
                    ("disk_read_bytes", num(n.disk_read_bytes)),
                    ("disk_write_bytes", num(n.disk_write_bytes)),
                    ("peer_recv_bytes", num(n.peer_recv_bytes)),
                    ("evictions", num(n.evictions)),
                    ("pinned_peak_bytes", num(n.pinned_peak_bytes)),
                ])
            })
            .collect();
        obj([
            ("ok", Json::Bool(true)),
            ("wall_s", num(self.wall_s)),
            ("user_s", num(self.user_s)),
            ("sys_s", num(self.sys_s)),
            ("minflt", num(self.minflt)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("hash", s(self.hash.clone())),
            ("nodes", Json::Arr(nodes)),
            ("busy_s", num(self.busy_s)),
            ("multiply_s", num(self.multiply_s)),
            ("sum_s", num(self.sum_s)),
            ("barrier_s", num(self.barrier_s)),
            ("tasks", num(self.tasks)),
            ("obs_events", self.obs_events.map(num).unwrap_or(Json::Null)),
        ])
    }

    fn from_json(v: &Json) -> Result<RoundResult, String> {
        if v.get("ok") != Some(&Json::Bool(true)) {
            let why = get_str(v, "error").unwrap_or("no reason given");
            return Err(format!("round failed: {why}"));
        }
        let nodes = get_arr(v, "nodes")?
            .iter()
            .map(|n| {
                Ok(NodeCounters {
                    disk_read_bytes: get_f64(n, "disk_read_bytes")?,
                    disk_write_bytes: get_f64(n, "disk_write_bytes")?,
                    peer_recv_bytes: get_f64(n, "peer_recv_bytes")?,
                    evictions: get_f64(n, "evictions")?,
                    pinned_peak_bytes: get_f64(n, "pinned_peak_bytes")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RoundResult {
            wall_s: get_f64(v, "wall_s")?,
            user_s: get_f64(v, "user_s")?,
            sys_s: get_f64(v, "sys_s")?,
            minflt: get_f64(v, "minflt")?,
            peak_rss_mb: get_f64(v, "peak_rss_mb")?,
            hash: get_str(v, "hash")?.to_string(),
            nodes,
            busy_s: get_f64(v, "busy_s")?,
            multiply_s: get_f64(v, "multiply_s")?,
            sum_s: get_f64(v, "sum_s")?,
            barrier_s: get_f64(v, "barrier_s")?,
            tasks: get_f64(v, "tasks")?,
            obs_events: v.get("obs_events").and_then(Json::as_f64),
        })
    }
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// Runs one round of `w` over the files staged under `base` in a child
/// process and waits for it. An `Err` is a failed round.
pub fn spawn(
    w: &Workload,
    quick: bool,
    base: &Path,
    obs: Option<&ObsPaths>,
) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("round")
        .arg("--workload")
        .arg(w.name)
        .arg("--dir")
        .arg(base);
    if quick {
        cmd.arg("--quick");
    }
    if let Some(paths) = obs {
        cmd.arg("--obs-trace").arg(&paths.trace);
        cmd.arg("--obs-metrics").arg(&paths.metrics);
    }
    // `output` waits for the child, so no round outlives its measurement.
    let out = cmd
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn round: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("round printed nothing ({})", out.status))?;
    let v = jsonout::parse(line).map_err(|e| format!("round output is not JSON: {e}"))?;
    let result = RoundResult::from_json(&v)?;
    if !out.status.success() {
        return Err(format!("round exited with {}", out.status));
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// `doocbench round …`: runs once, prints one JSON line, and reports success
/// through the return value (the caller turns it into the exit code).
pub fn child_main(w: &Workload, base: &Path, obs: Option<&ObsPaths>) -> bool {
    match run_once(w, base, obs) {
        Ok(result) => {
            println!("{}", jsonout::to_line(&result.to_json()));
            true
        }
        Err(e) => {
            let line = obj([("ok", Json::Bool(false)), ("error", s(e))]);
            println!("{}", jsonout::to_line(&line));
            false
        }
    }
}

fn run_once(w: &Workload, base: &Path, obs: Option<&ObsPaths>) -> Result<RoundResult, String> {
    let (dirs, app) = stage::open_staged(w, base)?;
    let (graph, external, geometry) = app.build();
    let mut cfg = DoocConfig::new(dirs.clone())
        .memory_budget(w.budget_bytes)
        .threads_per_node(THREADS_PER_NODE)
        .prefetch_window(PREFETCH_WINDOW);
    for (name, len, block) in geometry {
        cfg = cfg.with_geometry(name, len, block);
    }
    // The mesh is connected before the clock starts: `RunReport.elapsed`
    // does not cover it either.
    let transports = if w.nodes > 1 {
        tcp_mesh(w.nodes)?
    } else {
        Vec::new()
    };

    if obs.is_some() {
        dooc_obs::take_events();
        dooc_obs::enable_sampled(OBS_SAMPLE_PERIOD);
    }
    let cpu0 = CpuSample::now()?;
    let reports: Vec<RunReport> = if transports.is_empty() {
        let report = DoocRuntime::new(cfg)
            .run(graph, external, Arc::new(SpmvExecutor))
            .map_err(|e| format!("run: {e}"))?;
        vec![report]
    } else {
        // One thread per node stands in for one process per node; each calls
        // `run_distributed` with its own transport, as `dooc-node` would.
        let handles: Vec<_> = transports
            .into_iter()
            .map(|t| {
                let cfg = cfg.clone();
                let graph = graph.clone();
                let external = external.clone();
                std::thread::spawn(move || {
                    DoocRuntime::new(cfg).run_distributed(
                        graph,
                        external,
                        Arc::new(SpmvExecutor),
                        t,
                    )
                })
            })
            .collect();
        // Join every node before looking at any result, so a failed node
        // never leaves its peer's thread behind.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let mut reports = Vec::with_capacity(joined.len());
        for (node, j) in joined.into_iter().enumerate() {
            let report = j
                .map_err(|_| format!("node {node} panicked"))?
                .map_err(|e| format!("node {node}: {e}"))?;
            reports.push(report);
        }
        reports
    };
    let cpu = CpuSample::now()?.since(&cpu0);

    let mut obs_events = None;
    if let Some(paths) = obs {
        dooc_obs::disable();
        obs_events = Some(export_obs(paths)? as f64);
    }
    let peak_rss_mb = procfs::peak_rss_mb()?;

    let x = app
        .collect_final_vector(&dirs)
        .map_err(|e| format!("read final vector: {e}"))?;

    let mut result = RoundResult {
        wall_s: reports
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .fold(0.0, f64::max),
        user_s: cpu.user_s,
        sys_s: cpu.sys_s,
        minflt: cpu.minflt as f64,
        peak_rss_mb,
        hash: stage::hash_vector(&x),
        nodes: vec![NodeCounters::default(); w.nodes],
        busy_s: 0.0,
        multiply_s: 0.0,
        sum_s: 0.0,
        barrier_s: 0.0,
        tasks: 0.0,
        obs_events,
    };
    // A distributed report fills only its own node's counters and trace.
    for (i, report) in reports.iter().enumerate() {
        let local: Vec<usize> = if reports.len() == 1 {
            (0..w.nodes).collect()
        } else {
            vec![i]
        };
        for node in local {
            let st = &report.node_stats[node];
            result.nodes[node] = NodeCounters {
                disk_read_bytes: st.disk_read_bytes as f64,
                disk_write_bytes: st.disk_write_bytes as f64,
                peer_recv_bytes: st.peer_recv_bytes as f64,
                evictions: st.evictions as f64,
                pinned_peak_bytes: st.pinned_peak_bytes as f64,
            };
        }
        for ev in &report.trace {
            let span = ev.end.saturating_sub(ev.start).as_secs_f64();
            result.busy_s += span;
            result.tasks += 1.0;
            match ev.kind.as_str() {
                "multiply" => result.multiply_s += span,
                "barrier" => result.barrier_s += span,
                k if k.starts_with("sum") => result.sum_s += span,
                _ => {}
            }
        }
    }
    Ok(result)
}

/// Writes the Chrome trace and the metrics dump, checks both with the
/// validators `obs_validate` runs, and returns the event count.
fn export_obs(paths: &ObsPaths) -> Result<usize, String> {
    let snap = dooc_obs::take_events();
    let trace = dooc_obs::chrome_trace(&snap);
    std::fs::write(&paths.trace, &trace)
        .map_err(|e| format!("write {}: {e}", paths.trace.display()))?;
    let dump = dooc_obs::dump_metrics();
    std::fs::write(&paths.metrics, &dump)
        .map_err(|e| format!("write {}: {e}", paths.metrics.display()))?;
    let check = dooc_obs::validate::validate_chrome_trace(&trace)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    dooc_obs::validate::validate_metrics_dump(&dump)
        .map_err(|e| format!("exported metrics failed validation: {e}"))?;
    Ok(check.events)
}

/// A loopback TCP mesh on OS-assigned ports: listeners are bound before the
/// spec is written, and the handshakes (which block until the peer dials in)
/// run concurrently.
pub fn tcp_mesh(nodes: usize) -> Result<Vec<Arc<dyn Transport>>, String> {
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}")))
        .collect::<Result<_, _>>()?;
    let addrs = listeners
        .iter()
        .map(|l| {
            l.local_addr()
                .map(|a| a.to_string())
                .map_err(|e| format!("local_addr: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spec = ClusterSpec::new(addrs);
    let fingerprint = spec.fingerprint();
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let spec = spec.clone();
            std::thread::spawn(move || TcpTransport::with_listener(&spec, i, fingerprint, l))
        })
        .collect();
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    joined
        .into_iter()
        .map(|j| {
            let t = j
                .map_err(|_| "tcp connect thread panicked".to_string())?
                .map_err(|e| format!("tcp mesh: {e}"))?;
            Ok(Arc::new(t) as Arc<dyn Transport>)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundResult {
        RoundResult {
            wall_s: 1.8125,
            user_s: 1.32,
            sys_s: 0.84,
            minflt: 186479.0,
            peak_rss_mb: 97.14453125,
            hash: "00ff00ff00ff00ff".to_string(),
            nodes: vec![
                NodeCounters {
                    disk_read_bytes: 1.1e9,
                    disk_write_bytes: 1.07e8,
                    peer_recv_bytes: 0.0,
                    evictions: 832.0,
                    pinned_peak_bytes: 3.5e6,
                },
                NodeCounters::default(),
            ],
            busy_s: 1.5,
            multiply_s: 1.2,
            sum_s: 0.25,
            barrier_s: 0.05,
            tasks: 291.0,
            obs_events: None,
        }
    }

    #[test]
    fn a_round_result_survives_the_pipe() {
        for r in [
            sample(),
            RoundResult {
                obs_events: Some(1234.0),
                ..sample()
            },
        ] {
            let line = jsonout::to_line(&r.to_json());
            let back = RoundResult::from_json(&jsonout::parse(&line).expect("parses"));
            assert_eq!(back, Ok(r));
        }
    }

    #[test]
    fn a_failed_round_carries_its_reason() {
        let v = jsonout::parse(r#"{"ok":false,"error":"run: storage error"}"#).expect("parses");
        let err = RoundResult::from_json(&v).expect_err("failed round");
        assert!(err.contains("storage error"), "{err}");
        let v = jsonout::parse(r#"{"wall_s":1}"#).expect("parses");
        assert!(RoundResult::from_json(&v).is_err(), "no ok flag");
    }

    #[test]
    fn totals_sum_over_nodes() {
        let r = sample();
        assert_eq!(r.total(|n| n.evictions), 832.0);
        assert_eq!(r.total(|n| n.disk_read_bytes), 1.1e9);
    }
}
