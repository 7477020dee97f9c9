//! End-to-end smoke runs of the built binary at `--quick` sizes: the result
//! line has the contract's shape, it names exactly the metrics
//! `BENCHMARK.json` declares for its mode, the result file carries host and
//! parameters, and no scratch directory is left behind.

use dooc_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn declared(key: &str) -> Vec<String> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the binary with its output directory under cargo's test tmpdir.
fn doocbench(tag: &str, args: &[&str]) -> (PathBuf, std::process::Output) {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_doocbench"))
        .args(args)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("spawn doocbench");
    (target.join("doocbench"), out)
}

fn result_line(out: &std::process::Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn assert_contract_shape(line: &Json, metrics: &[String]) {
    let Json::Obj(fields) = line else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(
        line.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(got)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, metrics, "exactly the declared metrics, in order");
    for (name, m) in got {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

fn no_scratch_left(out_dir: &Path) {
    for e in std::fs::read_dir(out_dir).expect("output dir") {
        let name = e.expect("entry").file_name();
        assert!(
            !name.to_string_lossy().starts_with("scratch-"),
            "{name:?} left behind"
        );
    }
}

#[test]
fn quick_end_to_end_run_meets_the_contract() {
    let (out_dir, out) = doocbench(
        "e2e",
        &[
            "run",
            "--workload",
            "spmv_ooc_1n",
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ],
    );
    let line = result_line(&out);
    assert_contract_shape(&line, &declared("end_to_end"));
    no_scratch_left(&out_dir);

    let file = std::fs::read_to_string(out_dir.join("RESULT_spmv_ooc_1n.json")).expect("file");
    let file = parse(&file).expect("result file parses");
    assert_eq!(file.get("quick"), Some(&Json::Bool(true)));
    assert_eq!(file.get("seed").and_then(Json::as_str), Some("11"));
    for key in ["cpus", "ram_mb", "kernel", "rustc", "git_commit"] {
        assert!(file.get("host").and_then(|h| h.get(key)).is_some(), "{key}");
    }
    let entry = &file.get("results").and_then(Json::as_arr).expect("results")[0];
    assert_eq!(
        entry
            .get("params")
            .and_then(|p| p.get("n"))
            .and_then(Json::as_f64),
        Some(50_000.0)
    );
    // Out of core by construction: blocks were evicted and re-read.
    let layer = entry.get("per_layer").expect("per_layer");
    let median = |name: &str| {
        layer
            .get(name)
            .and_then(|m| m.get("median"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    assert!(median("storage.evictions") > 0.0);
    assert!(median("storage.read_amplification") >= 1.0);

    // A quick file is never accepted as one side of a comparison.
    let path = out_dir.join("RESULT_spmv_ooc_1n.json");
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let check = Command::new(env!("CARGO_BIN_EXE_doocbench"))
        .arg("check")
        .args([&path, &path])
        .args(["--benchmark", bench])
        .output()
        .expect("spawn check");
    assert_eq!(check.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&check.stdout).contains("not comparable"));
}

#[test]
fn quick_traced_tcp_run_reports_every_layer() {
    let (out_dir, out) = doocbench(
        "trace",
        &[
            "trace",
            "--workload",
            "spmv_ooc_2n_tcp",
            "--seed",
            "12",
            "--quick",
        ],
    );
    let line = result_line(&out);
    assert_contract_shape(&line, &declared("per_layer"));
    no_scratch_left(&out_dir);
    let value = |name: &str| {
        line.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    assert!(
        value("storage.peer_recv_mb") > 0.0,
        "two nodes exchange blocks"
    );
    assert!(value("storage.evictions") > 0.0);

    // The traced round's artifacts pass the validators obs_validate runs.
    let trace = std::fs::read_to_string(out_dir.join("TRACE_spmv_ooc_2n_tcp.json")).expect("trace");
    dooc_obs::validate::validate_chrome_trace(&trace).expect("valid chrome trace");
    let dump = std::fs::read_to_string(out_dir.join("METRICS_spmv_ooc_2n_tcp.txt")).expect("dump");
    dooc_obs::validate::validate_metrics_dump(&dump).expect("valid metrics dump");
    let spans = std::fs::read_to_string(out_dir.join("SPANS_spmv_ooc_2n_tcp.json")).expect("spans");
    let spans = parse(&spans).expect("spans parse");
    assert!(spans.as_arr().expect("array").len() > 20);
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [
        &["run", "--workload", "no_such_workload", "--seed", "1"][..],
        &["run", "--seed", "1"][..],
        &["frobnicate"][..],
    ] {
        let (_, out) = doocbench("bad", args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
