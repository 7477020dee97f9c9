//! DOoC lint pass entry point: `cargo run -p dooc-check --bin lint`.
//!
//! Scans the workspace (rooted at the first non-flag CLI argument, or found
//! by walking up from the current directory to the first `Cargo.toml` with a
//! `crates/` sibling) and exits nonzero if any rule is violated. With
//! `--json`, findings go to stdout as one JSON object
//! (`{"files_scanned": N, "findings": [{"file", "line", "rule",
//! "message"}, ...]}`) for editor and CI integration; the exit code is the
//! same as in text mode.

#![forbid(unsafe_code)]

use std::path::PathBuf;
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

fn print_json(report: &dooc_check::lint::LintReport) {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                json_str(&f.file.display().to_string()),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            )
        })
        .collect();
    println!(
        "{{\"files_scanned\":{},\"findings\":[{}]}}",
        report.files_scanned,
        findings.join(",")
    );
}

fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg = None;
    for arg in std::env::args_os().skip(1) {
        if arg == "--json" {
            json = true;
        } else if root_arg.is_none() {
            root_arg = Some(PathBuf::from(arg));
        } else {
            eprintln!("lint: unexpected argument {arg:?}");
            return ExitCode::from(2);
        }
    }
    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("lint: cannot determine working directory: {e}");
                std::process::exit(2);
            });
            match find_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!("lint: no workspace root found (pass it as an argument)");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match dooc_check::lint::lint_workspace(&root) {
        Ok(report) => {
            if json {
                print_json(&report);
            } else if report.findings.is_empty() {
                println!(
                    "lint clean: {} source files scanned under {}",
                    report.files_scanned,
                    root.display()
                );
            } else {
                for f in &report.findings {
                    eprintln!("{f}");
                }
                eprintln!("lint: {} finding(s)", report.findings.len());
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: scan failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
