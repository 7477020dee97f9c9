//! `doocbench` — the out-of-core iterated-SpMV benchmark of the DOoC
//! reproduction: what a run costs end to end, and where each layer stands.
//!
//! ```text
//! doocbench run   --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//! doocbench trace --workload <name|all> --seed <u64> [...]      (= run --trace 1)
//! doocbench check <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! doocbench list                                                (workload and metric tables)
//! ```
//!
//! `run` prints every metric by name with its unit, verifies the result
//! against the in-core reference, writes a result file, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. See README.md
//! in this directory for the metric and workload tables.

mod baseline;
mod bench;
mod check;
mod host;
mod jsonout;
mod metrics;
mod probes;
mod procfs;
mod round;
mod scratch;
mod spans;
mod stage;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json: the default length of the rounds.
const DEFAULT_SECONDS: f64 = 28.0;

const USAGE: &str = "usage:
  doocbench run   --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
  doocbench trace --workload <name|all> --seed <u64> [--seconds <s>] [--quick] [--out <file>]
  doocbench check <a.json> <b.json> [--benchmark <BENCHMARK.json>]
  doocbench list
workloads: spmv_ooc_1n spmv_incore_1n spmv_ooc_2n_tcp spmv_vec_1n";

/// Flags after the subcommand: `--key value` pairs, bare switches, and
/// positional arguments.
struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if switches.contains(&key) => out.switches.push(key.to_string()),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.pairs.push((key.to_string(), value.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn parse_options(args: &Args, force_trace: bool) -> Result<bench::Options, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "out"])?;
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument '{}'", args.positional[0]));
    }
    let workload = args.get("workload").ok_or("--workload is required")?;
    if workload != "all" && !workload::valid_name(workload) {
        return Err(format!("'{workload}' is not a workload name"));
    }
    let seed = args
        .get("seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = args
        .get("seconds")
        .map(|v| v.parse::<f64>().map_err(|e| format!("--seconds: {e}")))
        .transpose()?
        .unwrap_or(DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match args.get("trace") {
        None => force_trace,
        Some("0") => force_trace,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(bench::Options {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        quick: args.has("quick"),
        out: args.get("out").map(PathBuf::from),
    })
}

/// One workload in this process; the result line goes last.
fn run_one(opts: &bench::Options) -> Result<ExitCode, String> {
    let outcome = bench::run(opts)?;
    println!("{}", outcome.line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `--workload all`: the four in turn, each in a fresh child process, then
/// one result file holding all of them.
fn run_all(opts: &bench::Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = scratch::out_dir()?;
    let suffix = if opts.trace { ".trace" } else { "" };
    let mut entries = Vec::new();
    let mut host = None;
    let mut all_ok = true;
    for w in &workload::WORKLOADS {
        let part = out_dir.join(format!("RESULT_{}{suffix}.json", w.name));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if opts.quick {
            cmd.arg("--quick");
        }
        // `status` waits; the child shares our stdout, so its report and its
        // result line appear in order.
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{} left no result file ({status}): {e}", w.name))?;
        let file = jsonout::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        host = file.get("host").cloned().or(host);
        entries.extend(jsonout::get_arr(&file, "results")?.iter().cloned());
    }
    let merged = bench::result_file(
        host.ok_or("no workload reported a host")?,
        opts.seed,
        opts.quick,
        entries,
    );
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("RESULTS_all{suffix}.json")));
    std::fs::write(&path, jsonout::to_pretty(&merged))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("all workloads: result file {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// `list`: the workload and metric tables (the README's are these).
fn list() {
    println!("| workload | why |\n|---|---|");
    for w in &workload::WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    for (title, table) in [
        ("end-to-end metric", metrics::END_TO_END),
        ("per-layer metric", metrics::PER_LAYER),
    ] {
        println!("\n| {title} | unit | better | what and why |\n|---|---|---|---|");
        for d in table {
            println!(
                "| `{}` | {} | {} | {} |",
                d.name,
                d.unit,
                d.better.as_str(),
                d.why
            );
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = argv.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "run" | "trace" => {
            let args = Args::parse(rest, &["quick"])?;
            let opts = parse_options(&args, cmd == "trace")?;
            if opts.workload == "all" {
                run_all(&opts)
            } else {
                run_one(&opts)
            }
        }
        "check" => {
            let args = Args::parse(rest, &[])?;
            args.reject_unknown(&["benchmark"])?;
            let [a, b] = args.positional.as_slice() else {
                return Err(format!("check takes two result files\n{USAGE}"));
            };
            let benchmark = args.get("benchmark").unwrap_or("BENCHMARK.json");
            let passed = check::run(a.as_ref(), b.as_ref(), benchmark.as_ref())?;
            Ok(if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
        // Internal: one round in this process (see round.rs).
        "round" => {
            let args = Args::parse(rest, &["quick"])?;
            args.reject_unknown(&["workload", "dir", "obs-trace", "obs-metrics"])?;
            let w = workload::Workload::find(args.get("workload").ok_or("--workload")?)?;
            let w = if args.has("quick") { w.quick() } else { w };
            let dir = PathBuf::from(args.get("dir").ok_or("--dir")?);
            let obs = match (args.get("obs-trace"), args.get("obs-metrics")) {
                (Some(t), Some(m)) => Some(round::ObsPaths {
                    trace: t.into(),
                    metrics: m.into(),
                }),
                (None, None) => None,
                _ => return Err("--obs-trace and --obs-metrics go together".to_string()),
            };
            Ok(if round::child_main(&w, &dir, obs.as_ref()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "list" => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("doocbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let raw = args(&[
            "--workload",
            "spmv_ooc_1n",
            "--seed",
            "18446744073709551615",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        let parsed = Args::parse(&raw, &["quick"]).expect("parses");
        let o = parse_options(&parsed, false).expect("options");
        assert_eq!(o.workload, "spmv_ooc_1n");
        assert_eq!(o.seed, u64::MAX);
        assert_eq!(o.seconds, 20.0);
        assert!(o.trace && !o.quick);
        assert_eq!(o.out, None);
    }

    #[test]
    fn trace_subcommand_forces_tracing_and_quick_is_a_switch() {
        let raw = args(&["--quick", "--workload", "all", "--trace", "0"]);
        let parsed = Args::parse(&raw, &["quick"]).expect("parses");
        let o = parse_options(&parsed, true).expect("options");
        assert!(o.trace && o.quick);
        assert_eq!((o.seed, o.seconds), (1, DEFAULT_SECONDS));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let bad: &[&[&str]] = &[
            &[],
            &["--workload"],
            &["--workload", "bad name"],
            &["--workload", "w", "--seed", "-1"],
            &["--workload", "w", "--seconds", "0"],
            &["--workload", "w", "--seconds", "nan"],
            &["--workload", "w", "--trace", "2"],
            &["--workload", "w", "--bogus", "1"],
            &["--workload", "w", "stray"],
        ];
        for raw in bad {
            let refused = Args::parse(&args(raw), &["quick"])
                .and_then(|a| parse_options(&a, false))
                .is_err();
            assert!(refused, "{raw:?}");
        }
    }

    #[test]
    fn unknown_commands_and_workloads_fail_without_a_result() {
        assert!(dispatch(&args(&["frobnicate"])).is_err());
        assert!(dispatch(&args(&["run", "--workload", "no_such_workload"])).is_err());
        assert!(dispatch(&args(&["check", "only-one.json"])).is_err());
    }
}
