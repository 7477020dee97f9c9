//! One benchmark run of one workload: set-up, rounds, verification, and —
//! for a traced run — the layer probes, the traced rounds and the baseline.

use crate::baseline;
use crate::host;
use crate::jsonout::{self, num, obj, s, Json};
use crate::metrics::{sig, Measured, PER_LAYER};
use crate::probes::{self, MIB};
use crate::round::{self, ObsPaths, RoundResult, OBS_SAMPLE_PERIOD};
use crate::scratch::{self, Scratch};
use crate::spans::SpanLog;
use crate::stage::{self, Staged};
use crate::workload::{Workload, PREFETCH_WINDOW, QUICK_DIVISOR, THREADS_PER_NODE};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Round 1 must match the in-core reference to this relative error.
const REFERENCE_TOLERANCE: f64 = 1e-9;
/// Stagings per untraced run; `setup_s` is their median.
const STAGINGS: usize = 7;
/// Timed rounds an untraced run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// The same for `--quick` and for the untraced part of a traced run.
const MIN_ROUNDS_SHORT: usize = 2;
/// No run makes more rounds than this.
const MAX_ROUNDS: usize = 200;

/// What `run` and `trace` were asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the rounds may take in all, seconds.
    pub seconds: f64,
    /// Per-layer run: probes, traced rounds and baseline; end-to-end metrics
    /// are never taken from such a run.
    pub trace: bool,
    pub quick: bool,
    /// Result file; defaults to `RESULT_<workload>[.trace].json` under the
    /// benchmark's output directory.
    pub out: Option<PathBuf>,
}

/// The verdict of a run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final result line, in catalogue order.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// The final result line.
    pub fn line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| (m.def.name.to_string(), m.to_line_json()))
                .collect(),
        );
        jsonout::to_line(&obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", metrics),
        ]))
    }
}

/// The rounds of one run.
struct Rounds {
    good: Vec<RoundResult>,
    attempted: u64,
    failed: u64,
    /// The warm-up round's final vector and its hash: what every later
    /// round must reproduce bit for bit.
    first_vector: Vec<f64>,
    first_hash: String,
}

/// Warm-up round, then timed rounds until `window` is used up (at least
/// `min_rounds`). A round fails if its process fails or its final vector is
/// not bitwise the warm-up's.
fn run_rounds(
    w: &Workload,
    quick: bool,
    staged: &Staged,
    base: &Path,
    window: Duration,
    min_rounds: usize,
) -> Result<Rounds, String> {
    let begin = Instant::now();
    let warm = round::spawn(w, quick, base, None).map_err(|e| format!("warm-up round: {e}"))?;
    let first_vector = staged
        .app
        .collect_final_vector(&staged.dirs)
        .map_err(|e| format!("read the warm-up round's result: {e}"))?;
    staged.clean_round_outputs()?;
    let mut rounds = Rounds {
        good: Vec::new(),
        attempted: 0,
        failed: 0,
        first_vector,
        first_hash: warm.hash,
    };
    let mut last = begin.elapsed();
    while rounds.attempted < MAX_ROUNDS as u64
        && (rounds.good.len() < min_rounds || begin.elapsed() + last < window)
    {
        let t0 = Instant::now();
        rounds.attempted += 1;
        match round::spawn(w, quick, base, None) {
            Ok(r) if r.hash == rounds.first_hash => rounds.good.push(r),
            Ok(r) => {
                rounds.failed += 1;
                eprintln!(
                    "round {}: final vector hash {} differs from round 1's {}",
                    rounds.attempted, r.hash, rounds.first_hash
                );
            }
            Err(e) => {
                rounds.failed += 1;
                eprintln!("round {}: {e}", rounds.attempted);
            }
        }
        staged.clean_round_outputs()?;
        last = t0.elapsed();
        if rounds.failed > min_rounds as u64 {
            break; // nothing useful comes from hammering a broken build
        }
    }
    if rounds.good.is_empty() {
        return Err(format!(
            "all {} timed rounds failed; no metric can be reported",
            rounds.attempted
        ));
    }
    Ok(rounds)
}

fn per_round(rounds: &[RoundResult], f: impl Fn(&RoundResult) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// The per-layer metrics that fall out of the rounds' `RunReport`s and
/// `/proc` samples; one value per round.
fn metrics_from_rounds(
    w: &Workload,
    staged: &Staged,
    rounds: &[RoundResult],
) -> Result<Vec<Measured>, String> {
    let iters = w.iterations as f64;
    let dataset = staged.dataset_bytes as f64;
    let nodes = w.nodes as f64;
    let read = |r: &RoundResult| r.total(|n| n.disk_read_bytes);
    let table: Vec<(&str, Vec<f64>)> = vec![
        ("storage.disk_read_mb", per_round(rounds, |r| read(r) / MIB)),
        (
            "storage.disk_write_mb",
            per_round(rounds, |r| r.total(|n| n.disk_write_bytes) / MIB),
        ),
        (
            "storage.evictions",
            per_round(rounds, |r| r.total(|n| n.evictions)),
        ),
        (
            "storage.peer_recv_mb",
            per_round(rounds, |r| r.total(|n| n.peer_recv_bytes) / MIB),
        ),
        (
            "storage.read_bw_mb_s",
            per_round(rounds, |r| read(r) / MIB / r.wall_s),
        ),
        (
            "storage.read_amplification",
            per_round(rounds, |r| read(r) / (dataset * iters)),
        ),
        (
            "storage.pinned_peak_mb",
            per_round(rounds, |r| {
                r.nodes
                    .iter()
                    .map(|n| n.pinned_peak_bytes)
                    .fold(0.0, f64::max)
                    / MIB
            }),
        ),
        (
            "core.busy_frac",
            per_round(rounds, |r| r.busy_s / (r.wall_s * nodes)),
        ),
        ("core.multiply_s", per_round(rounds, |r| r.multiply_s)),
        ("core.sum_s", per_round(rounds, |r| r.sum_s)),
        ("core.barrier_s", per_round(rounds, |r| r.barrier_s)),
        (
            "proc.minflt_per_iter",
            per_round(rounds, |r| r.minflt / iters),
        ),
        (
            "proc.sys_frac",
            per_round(rounds, |r| r.sys_s / (r.user_s + r.sys_s).max(1e-9)),
        ),
    ];
    table
        .into_iter()
        .map(|(name, values)| Measured::new(name, values))
        .collect()
}

fn end_to_end_from_rounds(w: &Workload, rounds: &[RoundResult]) -> Result<Vec<Measured>, String> {
    let iters = w.iterations as f64;
    Ok(vec![
        Measured::new("wall_s_per_iter", per_round(rounds, |r| r.wall_s / iters))?,
        Measured::new(
            "cpu_s_per_iter",
            per_round(rounds, |r| (r.user_s + r.sys_s) / iters),
        )?,
        Measured::new("peak_rss_mb", per_round(rounds, |r| r.peak_rss_mb))?,
    ])
}

fn print_table(title: &str, rows: &[Measured]) {
    println!("{title}");
    for m in rows {
        println!("{}", m.row());
    }
}

fn median_of(metrics: &[Measured], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|m| m.def.name == name)
        .map(|m| m.summary.median)
        .ok_or_else(|| format!("metric '{name}' was not measured"))
}

/// What only a traced run does, after its untraced rounds: the layer probes
/// under the benchmark's spans, rounds with `dooc_obs` sampling on, and the
/// plain-loop baseline.
struct LayerRun<'a> {
    w: &'a Workload,
    opts: &'a Options,
    staged: &'a Staged,
    base: &'a Path,
    /// Hash every round must reproduce.
    first_hash: &'a str,
    /// The untraced rounds' median, the base of every ratio here.
    wall_s_per_iter: f64,
}

#[derive(Default)]
struct LayerMeasurements {
    metrics: Vec<Measured>,
    notes: Vec<String>,
    artifacts: Vec<(String, PathBuf)>,
    attempted: u64,
    failed: u64,
}

impl LayerRun<'_> {
    fn measure(&self, log: &mut SpanLog, out_dir: &Path) -> Result<LayerMeasurements, String> {
        let (w, quick, wall) = (self.w, self.opts.quick, self.wall_s_per_iter);
        let mut out = LayerMeasurements::default();
        for probe in [
            probes::storage::run(quick, log),
            probes::sparse::run(w, self.opts.seed, quick, log),
            probes::core::run(quick, log),
            probes::scheduler::run(w, self.staged, quick, log),
            probes::filterstream::run(quick, log),
        ] {
            let (metrics, notes) = probe?;
            out.metrics.extend(metrics);
            out.notes.extend(notes);
        }
        let per_task_us = median_of(&out.metrics, "scheduler.assign_us_per_task")?
            + median_of(&out.metrics, "scheduler.next_task_us")?
            + median_of(&out.metrics, "scheduler.audit_us_per_task")?
            + median_of(&out.metrics, "linalg.build_us_per_task")?;
        let tasks_per_iter = self.staged.graph.len() as f64 / w.iterations as f64;
        out.metrics.push(Measured::new(
            "scheduler.wall_share_pct",
            vec![100.0 * per_task_us * 1e-6 * tasks_per_iter / wall],
        )?);

        let obs = ObsPaths {
            trace: out_dir.join(format!("TRACE_{}.json", w.name)),
            metrics: out_dir.join(format!("METRICS_{}.txt", w.name)),
        };
        let mut overhead = Vec::new();
        for _ in 0..if quick { 1 } else { 2 } {
            out.attempted += 1;
            let traced = log.scope("traced_round", |_| {
                round::spawn(w, quick, self.base, Some(&obs))
            });
            self.staged.clean_round_outputs()?;
            match traced {
                Ok(r) if r.hash == self.first_hash => {
                    overhead.push(100.0 * (r.wall_s / w.iterations as f64 / wall - 1.0));
                    out.notes.push(format!(
                        "traced round: {} events at 1-in-{OBS_SAMPLE_PERIOD} span sampling, trace and metrics dump pass the obs validators",
                        r.obs_events.unwrap_or(0.0)
                    ));
                }
                Ok(_) => {
                    out.failed += 1;
                    eprintln!("traced round: final vector differs from round 1's");
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("traced round: {e}");
                }
            }
        }
        out.metrics
            .push(Measured::new("obs.overhead_pct", overhead)?);
        out.artifacts.push(("obs_trace".to_string(), obs.trace));
        out.artifacts.push(("obs_metrics".to_string(), obs.metrics));

        let plain = log.scope("baseline.plain_loop", |_| {
            baseline::plain_loop(w, self.staged, if quick { 1 } else { 2 })
        })?;
        let plain = Measured::new("baseline.plain_loop_s_per_iter", plain)?;
        out.metrics.push(Measured::new(
            "baseline.overhead_factor",
            vec![wall / plain.summary.median],
        )?);
        out.metrics.push(plain);
        Ok(out)
    }
}

/// Runs one workload and prints its report (everything but the final line,
/// which the caller prints last).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let full = Workload::find(&opts.workload)?;
    let w = if opts.quick { full.quick() } else { full };
    let out_dir = scratch::out_dir()?;
    let mode = if opts.trace { "trace" } else { "end_to_end" };
    println!(
        "doocbench {mode}: workload {} seed {} — n {} K {} ~{} nnz/row, {} node(s), budget {:.0} MB/node, {} iterations, {} thread/node, prefetch {}",
        w.name,
        opts.seed,
        w.n,
        w.k,
        w.nnz_per_row,
        w.nodes,
        w.budget_bytes as f64 / MIB,
        w.iterations,
        THREADS_PER_NODE,
        PREFETCH_WINDOW
    );
    println!("  why: {}", w.why);
    if opts.quick {
        println!(
            "  --quick: n and budget divided by {QUICK_DIVISOR}, {MIN_ROUNDS_SHORT} rounds — a smoke run, NOT comparable with any other result"
        );
    }
    let host = host::descriptor();
    println!("  host: {}", jsonout::to_line(&host));

    // --- set-up -------------------------------------------------------------
    // Each staging goes into a fresh directory; the last one is kept for the
    // rounds, the earlier ones are removed as they are replaced.
    let mut log = SpanLog::new();
    let stagings = if opts.trace || opts.quick {
        1
    } else {
        STAGINGS
    };
    let mut setup_s = Vec::with_capacity(stagings);
    let mut kept: Option<(Scratch, Staged)> = None;
    for i in 0..stagings {
        drop(kept.take());
        let scratch = Scratch::new(&format!("{}-{i}", w.name))?;
        let (staged, secs) = log.scope("setup", |_| stage::stage(&w, opts.seed, scratch.path()))?;
        setup_s.push(secs);
        kept = Some((scratch, staged));
    }
    let (scratch, staged) = kept.ok_or("no staging was made")?;
    println!(
        "  staged: {:.1} MB in {} block files ({:.1}x the budget of all nodes), {} nnz, {} tasks",
        staged.dataset_bytes as f64 / MIB,
        w.k * w.k,
        staged.dataset_bytes as f64 / (w.budget_bytes as f64 * w.nodes as f64),
        staged.nnz,
        staged.graph.len()
    );

    // --- rounds -------------------------------------------------------------
    // A traced run spends half its time on untraced rounds (the rest goes
    // to probes, traced rounds and the baseline); a quick run makes the
    // minimum number of rounds whatever the clock says.
    let window = Duration::from_secs_f64(match (opts.quick, opts.trace) {
        (true, _) => 0.0,
        (false, true) => opts.seconds / 2.0,
        (false, false) => opts.seconds,
    });
    let min_rounds = if opts.quick || opts.trace {
        MIN_ROUNDS_SHORT
    } else {
        MIN_ROUNDS
    };
    let rounds = log.scope("rounds", |_| {
        run_rounds(&w, opts.quick, &staged, scratch.path(), window, min_rounds)
    })?;
    let mut attempted = rounds.attempted;
    let mut failed = rounds.failed;

    let mut e2e = end_to_end_from_rounds(&w, &rounds.good)?;
    e2e.push(Measured::new("setup_s", setup_s)?);
    let mut layer = metrics_from_rounds(&w, &staged, &rounds.good)?;
    let mut notes: Vec<String> = Vec::new();

    // --- traced run: probes, traced rounds, baseline ------------------------
    let mut artifacts: Vec<(String, PathBuf)> = Vec::new();
    if opts.trace {
        let wall = median_of(&e2e, "wall_s_per_iter")?;
        let run = LayerRun {
            w: &w,
            opts,
            staged: &staged,
            base: scratch.path(),
            first_hash: &rounds.first_hash,
            wall_s_per_iter: wall,
        };
        let extra = run.measure(&mut log, &out_dir)?;
        layer.extend(extra.metrics);
        notes.extend(extra.notes);
        artifacts.extend(extra.artifacts);
        attempted += extra.attempted;
        failed += extra.failed;
    }

    // --- verification ---------------------------------------------------------
    let reference = log.scope("reference", |_| staged.reference(&w, opts.seed));
    let rel = stage::relative_error(&rounds.first_vector, &reference);
    let verified = rel <= REFERENCE_TOLERANCE;
    if !verified {
        // Every round reproduced round 1 bit for bit, so every round is wrong.
        failed = attempted;
    }
    let (dataset_bytes, nnz, tasks) = (staged.dataset_bytes, staged.nnz, staged.graph.len());
    drop(staged);
    drop(scratch);

    // --- report ---------------------------------------------------------------
    let layer = in_catalogue_order(layer, opts.trace)?;
    let n = rounds.good.len();
    print_table(
        &format!(
            "end-to-end ({n} timed rounds after 1 warm-up, each its own process; tracing off):"
        ),
        &e2e,
    );
    if opts.trace {
        println!("  (a traced run reports these for orientation only; compare end-to-end numbers from untraced runs)");
    }
    print_table(
        if opts.trace {
            "per-layer (rounds' RunReports, then probes; layer = crate):"
        } else {
            "per-layer, from the same rounds' RunReports (not gated):"
        },
        &layer,
    );
    for note in &notes {
        println!("  note: {note}");
    }
    if opts.trace {
        println!("benchmark spans (top level: seconds, self seconds):");
        for (name, total, own) in log.top_level() {
            println!("  {name:<28} {:>10} {:>10}", sig(total), sig(own));
        }
        let spans_path = out_dir.join(format!("SPANS_{}.json", w.name));
        std::fs::write(&spans_path, jsonout::to_pretty(&log.to_json()))
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        artifacts.push(("spans".to_string(), spans_path));
    }
    println!(
        "verification: round 1 vs in-core reference: relative error {rel:.3e} (limit {REFERENCE_TOLERANCE:e}) — {}; every round bitwise equal to round 1: {}",
        if verified { "ok" } else { "FAILED" },
        if rounds.failed == 0 { "yes" } else { "NO" }
    );
    println!("failed_rounds/attempted_rounds: {failed}/{attempted}");

    let correct = verified && failed == 0;
    let file_metrics = |rows: &[Measured]| {
        Json::Obj(
            rows.iter()
                .map(|m| (m.def.name.to_string(), m.to_file_json()))
                .collect(),
        )
    };
    let entry = obj([
        ("workload", s(w.name)),
        ("mode", s(mode)),
        (
            "params",
            obj([
                ("n", num(w.n as f64)),
                ("k", num(w.k as f64)),
                ("nnz_per_row", num(w.nnz_per_row as f64)),
                ("nodes", num(w.nodes as f64)),
                ("budget_bytes", num(w.budget_bytes as f64)),
                ("iterations", num(w.iterations as f64)),
                ("threads_per_node", num(THREADS_PER_NODE as f64)),
                ("prefetch_window", num(PREFETCH_WINDOW as f64)),
                ("dataset_bytes", num(dataset_bytes as f64)),
                ("nnz", num(nnz as f64)),
                ("tasks", num(tasks as f64)),
            ]),
        ),
        ("rounds", num(n as f64)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("correct", Json::Bool(correct)),
        ("reference_relative_error", num(rel)),
        ("end_to_end", file_metrics(&e2e)),
        ("per_layer", file_metrics(&layer)),
        (
            "notes",
            Json::Arr(notes.iter().map(|n| s(n.clone())).collect()),
        ),
        (
            "artifacts",
            Json::Obj(
                artifacts
                    .iter()
                    .map(|(k, p)| (k.clone(), s(p.display().to_string())))
                    .collect(),
            ),
        ),
    ]);
    let file = result_file(host, opts.seed, opts.quick, vec![entry]);
    let result_path = opts.out.clone().unwrap_or_else(|| {
        out_dir.join(format!(
            "RESULT_{}{}.json",
            w.name,
            if opts.trace { ".trace" } else { "" }
        ))
    });
    std::fs::write(&result_path, jsonout::to_pretty(&file))
        .map_err(|e| format!("write {}: {e}", result_path.display()))?;
    println!("result file: {}", result_path.display());
    for (what, path) in &artifacts {
        println!("{what}: {}", path.display());
    }

    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: if opts.trace { layer } else { e2e },
    })
}

/// The envelope every result file has: host descriptor, seed, and one entry
/// per workload.
pub fn result_file(host: Json, seed: u64, quick: bool, results: Vec<Json>) -> Json {
    obj([
        ("benchmark", s("doocbench")),
        ("format", num(1.0)),
        ("host", host),
        // A string: the parser keeps numbers as f64, which would round a u64.
        ("seed", s(seed.to_string())),
        ("quick", Json::Bool(quick)),
        ("results", Json::Arr(results)),
    ])
}

/// Orders per-layer metrics as the catalogue lists them. A traced run must
/// have every one of them; an untraced run has those from the rounds.
fn in_catalogue_order(mut have: Vec<Measured>, all: bool) -> Result<Vec<Measured>, String> {
    let mut out = Vec::with_capacity(have.len());
    for def in PER_LAYER {
        match have.iter().position(|m| m.def.name == def.name) {
            Some(i) => out.push(have.swap_remove(i)),
            None if all => return Err(format!("traced run did not measure '{}'", def.name)),
            None => {}
        }
    }
    debug_assert!(have.is_empty(), "metric outside the catalogue");
    Ok(out)
}
