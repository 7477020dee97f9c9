//! `doocbench check a.json b.json`: is `b` worse than `a` by more than the
//! bounds `BENCHMARK.json` fixes?
//!
//! One row per (end-to-end metric, workload) with both medians and their
//! ratio (base: `a`). A row is `unresolved` when either file's own rounds
//! spread wider than the bound — then the comparison cannot tell "unchanged"
//! from "moved". Any breach or failed round makes the check fail.

use crate::jsonout::{get_arr, get_f64, get_str, parse, Json};
use crate::metrics::sig;
use crate::stats::Summary;
use std::path::Path;

/// A bounded end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What a row concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Breach,
    Unresolved,
}

/// One compared (metric, workload) pair.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug)]
pub struct Report {
    pub rows: Vec<Row>,
    /// Problems that fail the check on their own: failed rounds, a workload
    /// or metric present in one file only, quick results.
    pub problems: Vec<String>,
    /// Things a reader must know that do not fail it: differing hosts.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Breach)
    }
}

/// Reads the bounded metrics out of `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    get_arr(&v, "end_to_end")?
        .iter()
        .map(|m| {
            let better = get_str(m, "better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("\"better\" is '{better}', not lower or higher"));
            }
            Ok(Bound {
                name: get_str(m, "name")?.to_string(),
                lower_is_better: better == "lower",
                bound: get_f64(m, "bound")?,
            })
        })
        .collect()
}

fn entries(file: &Json) -> Result<Vec<(&str, &Json)>, String> {
    if get_str(file, "benchmark")? != "doocbench" {
        return Err("not a doocbench result file".to_string());
    }
    get_arr(file, "results")?
        .iter()
        .map(|e| Ok((get_str(e, "workload")?, e)))
        .collect()
}

fn summary_of(entry: &Json, metric: &str) -> Result<Summary, String> {
    let m = entry
        .get("end_to_end")
        .and_then(|t| t.get(metric))
        .ok_or_else(|| format!("no end-to-end metric '{metric}'"))?;
    let values: Vec<f64> = get_arr(m, "values")?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Summary::of(&values).ok_or_else(|| format!("metric '{metric}' has no samples"))
}

/// Compares two parsed result files against `bounds`.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Report, String> {
    let mut report = Report {
        rows: Vec::new(),
        problems: Vec::new(),
        warnings: Vec::new(),
    };
    for (label, file) in [("a", a), ("b", b)] {
        if file.get("quick") == Some(&Json::Bool(true)) {
            report.problems.push(format!(
                "{label} holds --quick results, which are not comparable"
            ));
        }
    }
    for key in ["cpus", "ram_mb", "kernel", "rustc"] {
        let (ha, hb) = (
            a.get("host").and_then(|h| h.get(key)),
            b.get("host").and_then(|h| h.get(key)),
        );
        if ha != hb {
            report.warnings.push(format!(
                "host.{key} differs ({ha:?} vs {hb:?}): these numbers come from different machines or toolchains"
            ));
        }
    }
    let (ea, eb) = (entries(a)?, entries(b)?);
    for (name, _) in &eb {
        if !ea.iter().any(|(n, _)| n == name) {
            report
                .problems
                .push(format!("workload {name} is in b only"));
        }
    }
    for (name, entry_a) in &ea {
        let Some((_, entry_b)) = eb.iter().find(|(n, _)| n == name) else {
            report
                .problems
                .push(format!("workload {name} is in a only"));
            continue;
        };
        for (label, entry) in [("a", entry_a), ("b", entry_b)] {
            let failed = get_f64(entry, "failed")?;
            if failed > 0.0 || entry.get("correct") != Some(&Json::Bool(true)) {
                report.problems.push(format!(
                    "{name}: {label} has {failed} failed rounds of {} (correct: {:?})",
                    get_f64(entry, "attempted")?,
                    entry.get("correct")
                ));
            }
        }
        for bound in bounds {
            let (sa, sb) = match (
                summary_of(entry_a, &bound.name),
                summary_of(entry_b, &bound.name),
            ) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => {
                    report.problems.push(format!("{name}: {e}"));
                    continue;
                }
            };
            let worse_by = if bound.lower_is_better {
                (sb.median - sa.median) / sa.median
            } else {
                (sa.median - sb.median) / sa.median
            };
            let verdict = if sa.spread() > bound.bound || sb.spread() > bound.bound {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Breach
            } else {
                Verdict::Ok
            };
            report.rows.push(Row {
                workload: name.to_string(),
                metric: bound.name.clone(),
                a: sa.median,
                b: sb.median,
                spread_a: sa.spread(),
                spread_b: sb.spread(),
                bound: bound.bound,
                verdict,
            });
        }
    }
    Ok(report)
}

/// Prints the comparison; returns whether it passed.
pub fn print(report: &Report) -> bool {
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "spread a", "spread b", "bound"
    );
    for r in &report.rows {
        println!(
            "{:<18} {:<16} {:>12} {:>12} {:>8.4} {:>8.1}% {:>8.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            sig(r.a),
            sig(r.b),
            r.b / r.a,
            100.0 * r.spread_a,
            100.0 * r.spread_b,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let unresolved = report
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    let breaches = report
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Breach)
        .count();
    println!(
        "{} rows: {breaches} breached, {unresolved} unresolved, {} problems — {}",
        report.rows.len(),
        report.problems.len(),
        if report.passed() { "PASS" } else { "FAIL" }
    );
    report.passed()
}

/// `check` end to end: reads the three files, prints, returns pass/fail.
pub fn run(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()));
    let bounds = parse_bounds(&read(benchmark_json)?)?;
    let load = |p: &Path| parse(&read(p)?).map_err(|e| format!("{}: {e}", p.display()));
    let report = compare(&load(a)?, &load(b)?, &bounds)?;
    Ok(print(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::result_file;
    use crate::jsonout::{num, nums, obj, s, to_pretty};

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "wall_s_per_iter", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]}"#;

    fn entry(workload: &str, wall: &[f64], setup: &[f64], failed: f64) -> Json {
        let metric = |values: &[f64]| obj([("unit", s("s")), ("values", nums(values))]);
        obj([
            ("workload", s(workload)),
            ("attempted", num(wall.len() as f64)),
            ("failed", num(failed)),
            ("correct", Json::Bool(failed == 0.0)),
            (
                "end_to_end",
                obj([
                    ("wall_s_per_iter", metric(wall)),
                    ("setup_s", metric(setup)),
                ]),
            ),
        ])
    }

    /// Through text, as `check` reads it.
    fn file(entries: Vec<Json>) -> Json {
        let host = obj([("cpus", num(2.0)), ("kernel", s("6.18"))]);
        parse(&to_pretty(&result_file(host, 7, false, entries))).expect("round-trips")
    }

    const STEADY: [f64; 5] = [1.00, 1.01, 0.99, 1.02, 0.98];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn a_pair_within_bounds_passes() {
        let bounds = parse_bounds(BOUNDS).expect("bounds");
        let a = file(vec![entry("w1", &STEADY, &[0.3, 0.31, 0.29], 0.0)]);
        let b = file(vec![entry("w1", &scaled(1.05), &[0.35, 0.36, 0.34], 0.0)]);
        let r = compare(&a, &b, &bounds).expect("compares");
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows.iter().all(|row| row.verdict == Verdict::Ok), "{r:?}");
        assert!(r.passed());
        assert!((r.rows[0].b / r.rows[0].a - 1.05).abs() < 1e-9);
        // An improvement of any size is never a breach.
        let faster = file(vec![entry("w1", &scaled(0.5), &[0.1, 0.1, 0.1], 0.0)]);
        assert!(compare(&a, &faster, &bounds).expect("compares").passed());
    }

    #[test]
    fn a_regression_past_the_bound_is_a_breach() {
        let bounds = parse_bounds(BOUNDS).expect("bounds");
        let a = file(vec![entry("w1", &STEADY, &[0.3, 0.3, 0.3], 0.0)]);
        let b = file(vec![entry("w1", &scaled(1.2), &[0.3, 0.3, 0.3], 0.0)]);
        let r = compare(&a, &b, &bounds).expect("compares");
        assert_eq!(r.rows[0].verdict, Verdict::Breach);
        assert_eq!(r.rows[1].verdict, Verdict::Ok);
        assert!(!r.passed());
    }

    #[test]
    fn a_noisy_file_makes_the_row_unresolved_not_failed() {
        let bounds = parse_bounds(BOUNDS).expect("bounds");
        let noisy = [0.8, 1.0, 1.3, 0.7, 1.2];
        let a = file(vec![entry("w1", &noisy, &[0.3, 0.3, 0.3], 0.0)]);
        let b = file(vec![entry("w1", &scaled(1.5), &[0.3, 0.3, 0.3], 0.0)]);
        let r = compare(&a, &b, &bounds).expect("compares");
        assert_eq!(r.rows[0].verdict, Verdict::Unresolved, "{r:?}");
        assert!(r.passed(), "unresolved is reported, not failed");
    }

    #[test]
    fn failed_rounds_missing_workloads_and_quick_files_fail_the_check() {
        let bounds = parse_bounds(BOUNDS).expect("bounds");
        let good = file(vec![entry("w1", &STEADY, &[0.3, 0.3, 0.3], 0.0)]);
        let failed = file(vec![entry("w1", &STEADY, &[0.3, 0.3, 0.3], 1.0)]);
        let r = compare(&good, &failed, &bounds).expect("compares");
        assert!(!r.passed());
        assert!(r.problems[0].contains("failed rounds"), "{:?}", r.problems);

        let other = file(vec![entry("w2", &STEADY, &[0.3, 0.3, 0.3], 0.0)]);
        let r = compare(&good, &other, &bounds).expect("compares");
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);

        let host = obj([("cpus", num(64.0))]);
        let quick = result_file(host, 7, true, vec![entry("w1", &STEADY, &[0.3], 0.0)]);
        let r = compare(&good, &quick, &bounds).expect("compares");
        assert!(!r.passed());
        assert!(
            r.warnings.iter().any(|w| w.contains("host.cpus")),
            "{:?}",
            r.warnings
        );
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        assert!(parse_bounds("{}").is_err());
        assert!(
            parse_bounds(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}"#)
                .is_err()
        );
        let bounds = parse_bounds(BOUNDS).expect("bounds");
        let good = file(vec![entry("w1", &STEADY, &[0.3], 0.0)]);
        assert!(compare(&good, &obj([("benchmark", s("other"))]), &bounds).is_err());
    }
}
