//! CLI validator for emitted trace/metrics artifacts; CI runs this against
//! the files a traced `doocbench` run, `dooc-node` and the chaos suite
//! write.
//!
//! ```text
//! obs_validate --trace TRACE.json --metrics METRICS.txt \
//!     --require-cats filterstream,storage,scheduler,worker \
//!     --require-metrics storage.bytes_loaded,storage.blocks_evicted
//! ```
//!
//! Exits 0 when every given artifact validates and every required
//! category/metric is present, 1 on validation failure, 2 on usage errors.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use dooc_obs::validate::{validate_chrome_trace, validate_metrics_dump};
use std::process::ExitCode;

struct Args {
    trace: Option<String>,
    metrics: Option<String>,
    require_cats: Vec<String>,
    require_metrics: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: None,
        metrics: None,
        require_cats: Vec::new(),
        require_metrics: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--trace" => args.trace = Some(value("--trace")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--require-cats" => args
                .require_cats
                .extend(value("--require-cats")?.split(',').map(str::to_string)),
            "--require-metrics" => args
                .require_metrics
                .extend(value("--require-metrics")?.split(',').map(str::to_string)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.trace.is_none() && args.metrics.is_none() {
        return Err("need --trace and/or --metrics".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: obs_validate [--trace F] [--metrics F] [--require-cats a,b] [--require-metrics x,y]");
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;

    if let Some(path) = &args.trace {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("FAIL {path}: {e}");
                failed = true;
            }
            Ok(text) => match validate_chrome_trace(&text) {
                Err(e) => {
                    eprintln!("FAIL {path}: {e}");
                    failed = true;
                }
                Ok(check) => {
                    let cats: Vec<&String> = check.categories.iter().collect();
                    println!(
                        "OK {path}: {} events, {} spans, {} instants, cats {cats:?}",
                        check.events, check.spans, check.instants
                    );
                    for cat in &args.require_cats {
                        if !check.categories.contains(cat) {
                            eprintln!("FAIL {path}: required category \"{cat}\" absent");
                            failed = true;
                        }
                    }
                }
            },
        }
    }

    if let Some(path) = &args.metrics {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("FAIL {path}: {e}");
                failed = true;
            }
            Ok(text) => match validate_metrics_dump(&text) {
                Err(e) => {
                    eprintln!("FAIL {path}: {e}");
                    failed = true;
                }
                Ok(check) => {
                    println!("OK {path}: {} metrics", check.entries);
                    for name in &args.require_metrics {
                        if !check.names.contains(name) {
                            eprintln!("FAIL {path}: required metric \"{name}\" absent");
                            failed = true;
                        }
                    }
                }
            },
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
