//! DOoC source lint pass: repo-specific rules, plain line scanning.
//!
//! The rules (deliberately simple — no parser, no dependencies):
//!
//! 1. **No `unwrap()`/`expect(` in protocol library code** — the four
//!    runtime crates (`filterstream`, `storage`, `scheduler`, `core`) must
//!    surface errors through their `Result` types; a stray unwrap in a
//!    filter thread kills the whole dataflow with an opaque panic. Test
//!    code (a trailing `#[cfg(test)]` module, or files under `tests/`) is
//!    exempt.
//! 2. **No `std::sync` locks** — the workspace standardises on the
//!    `dooc-sync` facade (`Mutex`, `RwLock`); a lock from another family,
//!    with poisoning and a `LockResult` at every call site, would be a
//!    second sync vocabulary in the runtime.
//! 3. **No unbounded channels** — filter graphs rely on bounded streams
//!    for backpressure; an unbounded channel reintroduces the unbounded
//!    memory growth the paper's design avoids. The `sync` crate, which
//!    implements the channel facade, is exempt.
//! 4. **`#![forbid(unsafe_code)]` in every crate root** — every library,
//!    binary, example and bench target of the umbrella package and of each
//!    `crates/*` package, plus the vendored `vendor/*/src/lib.rs` stubs.
//!    This is what lets the repo do without a data-race
//!    detector: safe Rust cannot race, so the compiler checks what a
//!    detector would. Integration tests (`tests/*.rs`) are exempt because
//!    the root `tests/rss_budget.rs` counts allocations with a
//!    `GlobalAlloc`, which cannot be implemented without `unsafe`; test
//!    crates never ship.
//! 5. **No bare `release_read` calls outside the `storage` crate** — the
//!    storage client hands out RAII [`ReadGuard`]s that release their pin on
//!    drop; callers that release manually reintroduce the leak class the
//!    guard API removed. No call whose name starts with `release_read` is
//!    exempt: the worker's pipelined window, the last manual caller, holds
//!    guards too. Unlike rules 1–3 this rule also applies to `tests/` and
//!    `benches/` trees: migrated test code must not drift back to the manual
//!    protocol.
//! 6. *(retired)* Fault sites are the `dooc_filterstream::Site` enum, so an
//!    unregistered site does not compile; the other rules keep their numbers.
//! 7. **Runtime crates import sync primitives from `dooc-sync`** — the
//!    crates in [`SYNC_DISCIPLINED_CRATES`] must not reference
//!    `parking_lot` or `crossbeam` directly. The dooc-sync facade keeps
//!    every lock, atomic, channel and thread of the runtime behind one
//!    crate, so the runtime has one sync vocabulary and one place where a
//!    primitive is chosen or swapped; a direct import is a second
//!    vocabulary that no review of the facade sees. The exemption
//!    list ([`SYNC_DISCIPLINE_EXEMPT_CRATES`]) is closed: a mirror test
//!    asserts the two lists exactly partition `crates/`, so a new crate
//!    must be classified explicitly.
//! 8. **No raw `std::thread::sleep` or spin-loop busy-waits in runtime
//!    crates** — the crates in [`SYNC_DISCIPLINED_CRATES`] must block
//!    through the facade (`dooc_sync::thread::sleep`, condvar
//!    `wait_for`, channel timeouts), so every wait in the runtime is a
//!    facade call a reader can find; a spin loop burns a core the node's
//!    compute needs and turns a blocked state into a livelock. Test code is exempt, like rules 1–3.
//!
//! Scanning is line-based: lines whose trimmed form starts with `//` are
//! skipped, and within a file everything from the first `#[cfg(test)]`
//! attribute onward is treated as test code (the repo convention places the
//! test module last).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose *library* code must be panic-free (rule 1).
pub const PANIC_FREE_CRATES: &[&str] = &["filterstream", "storage", "scheduler", "core", "obs"];

/// Crates whose library code must take locks, atomics and channels from
/// `dooc-sync` rather than `parking_lot`/`crossbeam` directly (rule 7), so
/// the runtime has one sync vocabulary behind one crate. They are also the
/// crates rule 8 keeps free of raw sleeps and busy-waits.
pub const SYNC_DISCIPLINED_CRATES: &[&str] = &["core", "filterstream", "scheduler", "storage"];

/// Crates exempt from rule 7. `sync` implements the facade itself; the rest
/// sit outside the runtime (tooling, observability, math kernels,
/// benches and the discrete-event simulator). Together with
/// [`SYNC_DISCIPLINED_CRATES`] this must exactly partition `crates/` — a
/// mirror test enforces it so new crates are classified deliberately.
pub const SYNC_DISCIPLINE_EXEMPT_CRATES: &[&str] = &[
    "bench",
    "check",
    "linalg",
    "obs",
    "simulator",
    "sparse",
    "sync",
];

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the finding is in (as given to the scanner).
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Short rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// Patterns are assembled with `concat!` so this file does not itself
// contain the banned tokens verbatim (the lint scans its own crate).
const PAT_UNWRAP: &str = concat!(".unwrap", "()");
const PAT_EXPECT: &str = concat!(".expect", "(");
const PAT_STD_MUTEX: &str = concat!("std::sync::", "Mutex");
const PAT_STD_RWLOCK: &str = concat!("std::sync::", "RwLock");
const PAT_UNBOUNDED: &str = concat!("unbounded", "(");
const PAT_FORBID_UNSAFE: &str = concat!("#![forbid(", "unsafe_code)]");
const PAT_RELEASE_READ: &str = concat!(".release", "_read");
const PAT_PARKING_LOT: &str = concat!("parking", "_lot");
const PAT_CROSSBEAM: &str = concat!("cross", "beam");
const PAT_STD_SLEEP: &str = concat!("std::thread::", "sleep(");
const PAT_SPIN_LOOP: &str = concat!("spin_", "loop(");

/// Per-file rule toggles for [`lint_source`], derived from the crate the
/// file belongs to ([`lint_workspace`] sets them; tests set them directly).
#[derive(Clone, Copy, Debug, Default)]
pub struct LintOpts {
    /// Rule 1: ban `unwrap()`/`expect(` ([`PANIC_FREE_CRATES`]).
    pub panic_free: bool,
    /// Rule 3: ban unbounded channels (off only for the `sync` crate, which
    /// implements the channel facade itself).
    pub ban_unbounded: bool,
    /// Rule 5: ban bare `release_read*(` calls (off for the `storage` crate).
    pub ban_release_read: bool,
    /// Rule 7: sync primitives must come from `dooc-sync`
    /// ([`SYNC_DISCIPLINED_CRATES`]).
    pub sync_discipline: bool,
    /// Rule 8: no raw `std::thread::sleep` / spin-loop busy-waits —
    /// blocking goes through the facade ([`SYNC_DISCIPLINED_CRATES`]).
    pub no_raw_blocking: bool,
}

/// Lints one source file's content under the given rule toggles; rules 2
/// and 4 have no toggle (rule 2 runs on every file here, rule 4 runs via
/// [`lint_crate_root`]).
pub fn lint_source(file: &Path, content: &str, opts: LintOpts) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_tests = false;
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.contains("#[cfg(test)]") {
            in_tests = true;
        }
        if line.starts_with("//") {
            continue;
        }
        let mut report = |rule: &'static str, message: String| {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                rule,
                message,
            });
        };
        // Rule 5 applies to test code too — check before the test-module skip.
        if opts.ban_release_read && line.contains(PAT_RELEASE_READ) {
            report(
                "no-bare-release-read",
                "manual release_read — hold a ReadGuard (wait_read/read) and let drop \
                 release the pin"
                    .into(),
            );
        }
        if in_tests {
            continue;
        }
        if opts.panic_free {
            if line.contains(PAT_UNWRAP) {
                report(
                    "no-unwrap",
                    "unwrap() in protocol library code — propagate the error".into(),
                );
            }
            if line.contains(PAT_EXPECT) {
                report(
                    "no-unwrap",
                    "expect() in protocol library code — propagate the error".into(),
                );
            }
        }
        if line.contains(PAT_STD_MUTEX) || line.contains(PAT_STD_RWLOCK) {
            report("no-std-locks", "std::sync lock — use dooc-sync".into());
        }
        if opts.ban_unbounded && line.contains(PAT_UNBOUNDED) {
            report(
                "no-unbounded-channels",
                "unbounded channel — streams must be bounded for backpressure".into(),
            );
        }
        if opts.sync_discipline && (line.contains(PAT_PARKING_LOT) || line.contains(PAT_CROSSBEAM))
        {
            report(
                "sync-discipline",
                "direct parking_lot/crossbeam reference in a runtime crate — import \
                 the primitive from dooc-sync, the runtime's one sync vocabulary"
                    .into(),
            );
        }
        if opts.no_raw_blocking {
            if line.contains(PAT_STD_SLEEP) {
                report(
                    "no-raw-blocking",
                    "raw std::thread::sleep in a runtime crate — use \
                     dooc_sync::thread::sleep or block on a facade condvar/channel"
                        .into(),
                );
            }
            if line.contains(PAT_SPIN_LOOP) {
                report(
                    "no-raw-blocking",
                    "spin-loop busy-wait in a runtime crate — block on a facade \
                     condvar/channel so the thread sleeps until its wakeup"
                        .into(),
                );
            }
        }
    }
    findings
}

/// Scans content for rule 5 only (bare `release_read`) — used on `tests/`
/// and `benches/` trees where the other rules do not apply.
pub fn lint_release_read(file: &Path, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("//") {
            continue;
        }
        if line.contains(PAT_RELEASE_READ) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: i + 1,
                rule: "no-bare-release-read",
                message: "manual release_read — hold a ReadGuard (wait_read/read) and let \
                          drop release the pin"
                    .into(),
            });
        }
    }
    findings
}

/// Checks rule 4 on a crate-root file's content.
pub fn lint_crate_root(file: &Path, content: &str) -> Vec<Finding> {
    if content.contains(PAT_FORBID_UNSAFE) {
        Vec::new()
    } else {
        vec![Finding {
            file: file.to_path_buf(),
            line: 0,
            rule: "forbid-unsafe",
            message: format!("crate root lacks {PAT_FORBID_UNSAFE}"),
        }]
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The `.rs` files directly inside `dir` (none when it does not exist).
fn rust_files_in(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Every crate root rule 4 covers under `root`: for the umbrella package
/// and each `crates/*` package, `src/lib.rs`, `src/main.rs` and every
/// `src/bin`, `examples` and `benches` target; for each `vendor/*` stub,
/// `src/lib.rs`. Integration tests (`tests/*.rs`) are left out on purpose,
/// see rule 4.
fn crate_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut packages = vec![root.to_path_buf()];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    packages.extend(members);

    let mut roots = Vec::new();
    for pkg in &packages {
        for file in ["src/lib.rs", "src/main.rs"] {
            roots.push(pkg.join(file));
        }
        for dir in ["src/bin", "examples", "benches"] {
            roots.extend(rust_files_in(&pkg.join(dir))?);
        }
    }
    let vendor = root.join("vendor");
    if vendor.is_dir() {
        let mut stubs: Vec<PathBuf> = fs::read_dir(&vendor)?
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("src/lib.rs"))
            .collect();
        stubs.sort();
        roots.extend(stubs);
    }
    roots.retain(|f| f.is_file());
    Ok(roots)
}

/// Scan summary of [`lint_workspace`].
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All rule violations found.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

/// Lints the workspace rooted at `root`: every `crates/*/src` tree (rules
/// 1–3, 5, 7 and 8, with rule 1 scoped to [`PANIC_FREE_CRATES`] and rule 5
/// exempting the `storage` crate's own internals) and every crate root
/// (rule 4, the only rule that reads `vendor/`).
/// `crates/*/tests` and `crates/*/benches` trees, plus the root-level
/// `tests/` and `examples/` trees, are scanned for rule 5 only.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in &crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let opts = LintOpts {
            panic_free: PANIC_FREE_CRATES.contains(&crate_name),
            // The sync crate implements the channel facade (it re-exports
            // `unbounded` itself); everyone else must stay bounded.
            ban_unbounded: crate_name != "sync",
            // The storage crate implements the protocol; its internal
            // `release_read` handling is the thing everyone else must not
            // call.
            ban_release_read: crate_name != "storage",
            sync_discipline: SYNC_DISCIPLINED_CRATES.contains(&crate_name),
            no_raw_blocking: SYNC_DISCIPLINED_CRATES.contains(&crate_name),
        };
        let mut files = Vec::new();
        rust_sources(&src, &mut files)?;
        files.sort();
        for file in files {
            let content = fs::read_to_string(&file)?;
            report.files_scanned += 1;
            let rel = file.strip_prefix(root).unwrap_or(&file);
            report.findings.extend(lint_source(rel, &content, opts));
        }
        for sub in ["tests", "benches"] {
            let tree = dir.join(sub);
            if !tree.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            rust_sources(&tree, &mut files)?;
            files.sort();
            for file in files {
                let content = fs::read_to_string(&file)?;
                report.files_scanned += 1;
                let rel = file.strip_prefix(root).unwrap_or(&file);
                report.findings.extend(lint_release_read(rel, &content));
            }
        }
    }

    // Root-level integration tests and examples: rule 5 applies (the
    // per-crate rules do not).
    for tree in ["tests", "examples"] {
        let dir = root.join(tree);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_sources(&dir, &mut files)?;
        files.sort();
        for file in files {
            let content = fs::read_to_string(&file)?;
            report.files_scanned += 1;
            let rel = file.strip_prefix(root).unwrap_or(&file);
            report.findings.extend(lint_release_read(rel, &content));
        }
    }

    for file in crate_roots(root)? {
        let content = fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file);
        report.findings.extend(lint_crate_root(rel, &content));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Old-signature shim: rule-3 on (the pre-LintOpts default), rule 7 off.
    fn opts(panic_free: bool, ban_release_read: bool) -> LintOpts {
        LintOpts {
            panic_free,
            ban_unbounded: true,
            ban_release_read,
            sync_discipline: false,
            no_raw_blocking: false,
        }
    }

    #[test]
    fn unwrap_flagged_only_in_panic_free_crates() {
        let src = "fn f() { x.unwrap(); }\n";
        let f = lint_source(Path::new("a.rs"), src, opts(true, false));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-unwrap");
        assert_eq!(f[0].line, 1);
        assert!(lint_source(Path::new("a.rs"), src, opts(false, false)).is_empty());
    }

    #[test]
    fn test_module_and_comments_are_exempt() {
        let src = "\
// x.unwrap() in a comment is fine
fn f() {}
#[cfg(test)]
mod tests {
    fn g() { x.unwrap(); }
}
";
        assert!(lint_source(Path::new("a.rs"), src, opts(true, false)).is_empty());
    }

    #[test]
    fn std_locks_and_unbounded_channels_flagged_everywhere() {
        let src = format!(
            "use {};\nlet (tx, rx) = {}{};\n",
            concat!("std::sync::", "Mutex"),
            concat!("unbounded", ""),
            "()"
        );
        let f = lint_source(Path::new("a.rs"), &src, opts(false, false));
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"no-std-locks"), "{rules:?}");
        assert!(rules.contains(&"no-unbounded-channels"), "{rules:?}");
    }

    #[test]
    fn unwrap_or_variants_not_flagged() {
        let src = "let x = y.unwrap_or(0).unwrap_or_else(f).unwrap_or_default();\n";
        assert!(lint_source(Path::new("a.rs"), src, opts(true, false)).is_empty());
    }

    #[test]
    fn bare_release_read_flagged_even_in_test_modules() {
        let src = format!(
            "fn f() {{ sc{}iv); }}\n#[cfg(test)]\nmod t {{ fn g() {{ sc{}iv); }} }}\n",
            concat!(".release", "_read(\"a\", "),
            concat!(".release", "_read(\"a\", "),
        );
        let f = lint_source(Path::new("a.rs"), &src, opts(false, true));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "no-bare-release-read"));
        assert!(
            lint_source(Path::new("a.rs"), &src, opts(false, false)).is_empty(),
            "rule off for the storage crate itself"
        );
    }

    #[test]
    fn release_read_scan_for_test_trees() {
        let src = format!(
            "// sc{}iv) in a comment is fine\nfn f() {{ sc{}iv); }}\n",
            concat!(".release", "_read(\"a\", "),
            concat!(".release", "_read(\"a\", "),
        );
        let f = lint_release_read(Path::new("tests/t.rs"), &src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].rule, "no-bare-release-read");
    }

    #[test]
    fn crate_root_needs_forbid_unsafe() {
        let ok = format!("{}\npub mod x;\n", concat!("#![forbid(", "unsafe_code)]"));
        assert!(lint_crate_root(Path::new("lib.rs"), &ok).is_empty());
        let bad = "pub mod x;\n";
        let f = lint_crate_root(Path::new("lib.rs"), bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "forbid-unsafe");
    }

    #[test]
    fn direct_sync_primitive_use_flagged_in_disciplined_crates() {
        let src = format!(
            "use {}::Mutex;\nlet (tx, rx) = {}::channel::bounded(4);\n",
            concat!("parking", "_lot"),
            concat!("cross", "beam"),
        );
        let on = LintOpts {
            sync_discipline: true,
            ..LintOpts::default()
        };
        let f = lint_source(Path::new("a.rs"), &src, on);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "sync-discipline"), "{f:?}");
        assert!(
            lint_source(Path::new("a.rs"), &src, LintOpts::default()).is_empty(),
            "rule off for exempt crates"
        );
    }

    #[test]
    fn sync_discipline_exempt_in_test_modules() {
        let src = format!(
            "fn f() {{}}\n#[cfg(test)]\nmod t {{ use {}::Mutex; }}\n",
            concat!("parking", "_lot"),
        );
        let on = LintOpts {
            sync_discipline: true,
            ..LintOpts::default()
        };
        assert!(lint_source(Path::new("a.rs"), &src, on).is_empty());
    }

    #[test]
    fn raw_sleep_and_spin_loops_flagged_in_disciplined_crates() {
        let src = format!(
            "fn f() {{ {}Duration::from_millis(5)); }}\nfn g() {{ loop {{ std::hint::{}); }} }}\n",
            concat!("std::thread::", "sleep("),
            concat!("spin_", "loop("),
        );
        let on = LintOpts {
            no_raw_blocking: true,
            ..LintOpts::default()
        };
        let f = lint_source(Path::new("a.rs"), &src, on);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "no-raw-blocking"), "{f:?}");
        assert!(
            lint_source(Path::new("a.rs"), &src, LintOpts::default()).is_empty(),
            "rule off for exempt crates"
        );
    }

    #[test]
    fn facade_sleep_and_test_modules_pass_rule_8() {
        let src = format!(
            "fn f() {{ dooc_sync::thread::sleep(d); }}\n\
             #[cfg(test)]\nmod t {{ fn g() {{ {}d); }} }}\n",
            concat!("std::thread::", "sleep("),
        );
        let on = LintOpts {
            no_raw_blocking: true,
            ..LintOpts::default()
        };
        assert!(lint_source(Path::new("a.rs"), &src, on).is_empty());
    }

    #[test]
    fn sync_discipline_lists_partition_the_workspace() {
        // The disciplined and exempt lists must exactly cover `crates/` with
        // no overlap, so adding a crate forces an explicit classification.
        let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/check sits under crates/");
        let mut actual: Vec<String> = std::fs::read_dir(crates_dir)
            .expect("read crates/")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        actual.sort();
        let mut classified: Vec<String> = SYNC_DISCIPLINED_CRATES
            .iter()
            .chain(SYNC_DISCIPLINE_EXEMPT_CRATES)
            .map(|s| s.to_string())
            .collect();
        classified.sort();
        assert_eq!(
            classified, actual,
            "SYNC_DISCIPLINED_CRATES + SYNC_DISCIPLINE_EXEMPT_CRATES must \
             exactly partition crates/"
        );
    }
}
