//! Static task-graph auditor entry point:
//! `cargo run -p dooc-check --bin dooc-audit -- --spmv none`.
//!
//! Builds the requested graph (no disk staging), runs the two static
//! analyses — the peak-residency sweep against the budget and lane-capacity
//! deadlock freedom — and prints the report. With `--json`, output is one
//! JSON object, `{"graphs_audited": N, "findings": [...]}`, with one finding
//! per graph: `graph`, `digest` (16 hex digits) and `clean`, then
//! `peak_bytes`, `critical_path`, `widest_antichain`, `max_task_bytes`,
//! `max_task` and `exact` for a clean graph or `error` for a rejected one.
//! The exit code is 0 when every audited graph is clean, 1 when any is
//! rejected, 2 on usage errors.
//!
//! `--selftest` instead runs the seeded-bug negative twins and asserts
//! each fails on the *intended* analysis (CI's proof the auditor catches
//! what it claims to catch).

use dooc_check::audit::{audit_graph, selftest, spmv_graph, AuditOutcome};
use dooc_linalg::spmv_app::SyncPolicy;
use std::process::ExitCode;

/// Minimal JSON string escaping (the only non-trivial JSON we emit).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn outcome_json(o: &AuditOutcome) -> String {
    match &o.result {
        Ok(r) => format!(
            "{{\"graph\":{},\"digest\":\"{:016x}\",\"clean\":true,\
             \"peak_bytes\":{},\"critical_path\":{},\"widest_antichain\":{},\
             \"max_task_bytes\":{},\"max_task\":{},\"exact\":{}}}",
            json_str(&o.graph),
            o.digest,
            r.peak_bytes,
            r.critical_path,
            r.widest_antichain,
            r.max_task_bytes,
            json_str(&r.max_task),
            r.exact,
        ),
        Err(e) => format!(
            "{{\"graph\":{},\"digest\":\"{:016x}\",\"clean\":false,\"error\":{}}}",
            json_str(&o.graph),
            o.digest,
            json_str(&e.to_string()),
        ),
    }
}

fn print_json(outcomes: &[AuditOutcome]) {
    let rows: Vec<String> = outcomes.iter().map(outcome_json).collect();
    println!(
        "{{\"graphs_audited\":{},\"findings\":[{}]}}",
        outcomes.len(),
        rows.join(",")
    );
}

/// The shipping graphs by sync policy, under their `--spmv` names.
const POLICIES: [(&str, SyncPolicy); 3] = [
    ("none", SyncPolicy::None),
    ("iteration", SyncPolicy::IterationBarrier),
    ("phase", SyncPolicy::PhaseBarriers),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: dooc-audit [--json] [--spmv none|iteration|phase|all] \
         [--k K] [--n N] [--iters I] [--nodes P] [--budget BYTES] [--selftest]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut policies: Vec<(&'static str, SyncPolicy)> = Vec::new();
    let mut run_selftest = false;
    let (mut k, mut n, mut iters, mut nodes) = (4u64, 2000u64, 4u64, 4u64);
    let mut budget: u64 = 256 << 20;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<u64> {
            *i += 1;
            args.get(*i).and_then(|v| v.parse().ok())
        };
        match args[i].as_str() {
            "--json" => json = true,
            "--selftest" => run_selftest = true,
            "--spmv" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("all") => policies.extend(POLICIES),
                    Some(name) => match POLICIES.iter().find(|(n, _)| *n == name) {
                        Some(p) => policies.push(*p),
                        None => return usage(),
                    },
                    None => return usage(),
                }
            }
            "--k" => match take(&mut i) {
                Some(v) if v >= 1 => k = v,
                _ => return usage(),
            },
            "--n" => match take(&mut i) {
                Some(v) if v >= 1 => n = v,
                _ => return usage(),
            },
            "--iters" => match take(&mut i) {
                Some(v) if v >= 1 => iters = v,
                _ => return usage(),
            },
            "--nodes" => match take(&mut i) {
                Some(v) if v >= 1 => nodes = v,
                _ => return usage(),
            },
            "--budget" => match take(&mut i) {
                Some(v) if v >= 1 => budget = v,
                _ => return usage(),
            },
            _ => return usage(),
        }
        i += 1;
    }

    if run_selftest {
        let results = selftest();
        let all_ok = results.iter().all(|(_, ok)| *ok);
        if json {
            let rows: Vec<String> = results
                .iter()
                .map(|(name, ok)| format!("{{\"twin\":{},\"caught\":{}}}", json_str(name), ok))
                .collect();
            println!("{{\"selftest\":{},\"twins\":[{}]}}", all_ok, rows.join(","));
        } else {
            for (name, ok) in &results {
                println!("selftest {name}: {}", if *ok { "caught" } else { "MISSED" });
            }
        }
        return if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if policies.is_empty() {
        policies.extend(POLICIES);
    }

    let outcomes: Vec<AuditOutcome> = policies
        .iter()
        .map(|(name, sync)| {
            let graph = spmv_graph(*sync, k, n, iters, nodes);
            let full = format!("spmv-{name} k={k} n={n} iters={iters} nodes={nodes}");
            audit_graph(&full, &graph, budget, nodes)
        })
        .collect();

    let clean = outcomes.iter().all(|o| o.result.is_ok());
    if json {
        print_json(&outcomes);
    } else {
        for o in &outcomes {
            match &o.result {
                Ok(r) => println!(
                    "{} [digest {:016x}]: clean — peak {} bytes, critical path {}, \
                     widest antichain {}, max task '{}' {} bytes{}",
                    o.graph,
                    o.digest,
                    r.peak_bytes,
                    r.critical_path,
                    r.widest_antichain,
                    r.max_task,
                    r.max_task_bytes,
                    if r.exact { "" } else { " (conservative bound)" }
                ),
                Err(e) => eprintln!("{} [digest {:016x}]: REJECTED — {e}", o.graph, o.digest),
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
