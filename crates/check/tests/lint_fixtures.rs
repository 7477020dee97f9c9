//! Per-rule fixture snippets for the dooc-check lint.
//!
//! Each rule gets a positive fixture (a minimal snippet that must be
//! flagged) and a negative twin (the disciplined spelling of the same
//! code, which must pass). Banned tokens are assembled with `concat!` so
//! the workspace lint never flags this file's own source.

use dooc_check::lint::{lint_crate_root, lint_release_read, lint_source, lint_workspace, LintOpts};
use std::path::Path;

/// All rules on, as `lint_workspace` would configure a disciplined
/// runtime crate such as `dooc-storage`.
fn disciplined() -> LintOpts {
    LintOpts {
        panic_free: true,
        ban_unbounded: true,
        ban_release_read: true,
        sync_discipline: true,
        no_raw_blocking: true,
    }
}

fn rules(src: &str, opts: LintOpts) -> Vec<&'static str> {
    lint_source(Path::new("fixture.rs"), src, opts)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn rule1_unwrap_flagged_and_propagation_passes() {
    let positive = format!("let v = compute(){};\n", concat!(".unwrap", "()"));
    assert_eq!(rules(&positive, disciplined()), ["no-unwrap"]);
    let with_expect = format!("let v = compute(){}\"boom\");\n", concat!(".expect", "("));
    assert_eq!(rules(&with_expect, disciplined()), ["no-unwrap"]);

    let negative = "let v = compute()?;\n";
    assert!(rules(negative, disciplined()).is_empty());
    // Rule 1 is a per-crate toggle: utility crates may unwrap.
    assert!(rules(&positive, LintOpts::default()).is_empty());
}

#[test]
fn rule2_std_locks_flagged_and_facade_passes() {
    let positive = format!("use {}<u32>;\n", concat!("std::sync::", "Mutex"));
    assert_eq!(rules(&positive, disciplined()), ["no-std-locks"]);
    let rwlock = format!("let l = {}::new(0);\n", concat!("std::sync::", "RwLock"));
    // Rule 2 has no toggle — it holds even where every other rule is off.
    assert_eq!(rules(&rwlock, LintOpts::default()), ["no-std-locks"]);

    let negative = "use dooc_sync::{Mutex, RwLock};\n";
    assert!(rules(negative, disciplined()).is_empty());
}

#[test]
fn rule3_unbounded_channels_flagged_and_bounded_passes() {
    let positive = format!("let (tx, rx) = {});\n", concat!("unbounded", "("));
    assert_eq!(rules(&positive, disciplined()), ["no-unbounded-channels"]);

    let negative = "let (tx, rx) = dooc_sync::mpsc::channel(64);\n";
    assert!(rules(negative, disciplined()).is_empty());
    // The sync crate implements the facade itself and is exempt.
    let exempt = LintOpts {
        ban_unbounded: false,
        ..disciplined()
    };
    assert!(rules(&positive, exempt).is_empty());
}

#[test]
fn rule4_crate_root_must_forbid_unsafe() {
    let root = Path::new("lib.rs");
    let positive = "//! A crate.\npub mod foo;\n";
    let findings = lint_crate_root(root, positive);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "forbid-unsafe");

    let negative = format!(
        "//! A crate.\n{}\npub mod foo;\n",
        concat!("#![forbid(", "unsafe_code)]")
    );
    assert!(lint_crate_root(root, &negative).is_empty());
}

#[test]
fn rule4_covers_bin_example_bench_and_vendor_roots_but_not_tests() {
    let tree = std::env::temp_dir().join(format!("dooc-lint-roots-{}", std::process::id()));
    let forbid = concat!("#![forbid(", "unsafe_code)]");
    let files = [
        (
            "crates/demo/src/lib.rs",
            format!("{forbid}\npub fn f() {{}}\n"),
        ),
        ("crates/demo/src/bin/tool.rs", "fn main() {}\n".to_string()),
        (
            "crates/demo/benches/b.rs",
            format!("{forbid}\nfn main() {{}}\n"),
        ),
        ("examples/demo.rs", "fn main() {}\n".to_string()),
        ("vendor/stub/src/lib.rs", "pub fn g() {}\n".to_string()),
        // Integration tests stay exempt (a counting `GlobalAlloc` needs
        // `unsafe`).
        ("tests/alloc.rs", "#[test]\nfn t() {}\n".to_string()),
    ];
    for (rel, content) in &files {
        let path = tree.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&path, content).expect("write fixture");
    }
    let report = lint_workspace(&tree);
    std::fs::remove_dir_all(&tree).ok();
    let mut flagged: Vec<String> = report
        .expect("scan succeeds")
        .findings
        .into_iter()
        .filter(|f| f.rule == "forbid-unsafe")
        .map(|f| f.file.display().to_string())
        .collect();
    flagged.sort();
    assert_eq!(
        flagged,
        [
            "crates/demo/src/bin/tool.rs",
            "examples/demo.rs",
            "vendor/stub/src/lib.rs"
        ]
    );
}

#[test]
fn rule5_bare_release_read_flagged_even_in_tests() {
    let call = concat!(".release", "_read(");
    let positive = format!("client{}id)?;\n", call);
    assert_eq!(rules(&positive, disciplined()), ["no-bare-release-read"]);
    // Rule 5 is the one rule that also applies inside test modules…
    let in_tests = format!("#[cfg(test)]\nmod tests {{\n    client{}id);\n}}\n", call);
    assert_eq!(rules(&in_tests, disciplined()), ["no-bare-release-read"]);
    // …and to `tests/` trees via the dedicated scanner.
    let findings = lint_release_read(Path::new("tests/it.rs"), &positive);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "no-bare-release-read");

    // No spelling of a manual release is exempt (the `*_raw` pair is gone).
    let raw = format!("client{}id)?;\n", concat!(".release", "_read_raw("));
    assert_eq!(rules(&raw, disciplined()), ["no-bare-release-read"]);

    let negative = "let g = client.wait_read(id)?; // drop releases the pin\n";
    assert!(rules(negative, disciplined()).is_empty());
    assert!(lint_release_read(Path::new("tests/it.rs"), negative).is_empty());
}

#[test]
fn rule7_direct_parking_lot_and_crossbeam_flagged() {
    let positive = format!("use {}::Mutex;\n", concat!("parking", "_lot"));
    assert_eq!(rules(&positive, disciplined()), ["sync-discipline"]);
    let cb = format!("use {}::channel::bounded;\n", concat!("cross", "beam"));
    assert_eq!(rules(&cb, disciplined()), ["sync-discipline"]);

    let negative = "use dooc_sync::mpsc::channel;\n";
    assert!(rules(negative, disciplined()).is_empty());
    // The facade crate itself is exempt (it wraps the real primitives).
    let exempt = LintOpts {
        sync_discipline: false,
        ..disciplined()
    };
    assert!(rules(&positive, exempt).is_empty());
}

#[test]
fn rule8_raw_sleep_and_spin_loops_flagged() {
    let positive = format!(
        "{}Duration::from_millis(5));\n",
        concat!("std::thread::", "sleep(")
    );
    assert_eq!(rules(&positive, disciplined()), ["no-raw-blocking"]);
    let spin = format!("std::hint::{});\n", concat!("spin_", "loop("));
    assert_eq!(rules(&spin, disciplined()), ["no-raw-blocking"]);

    let negative = "dooc_sync::thread::sleep(Duration::from_millis(5));\n";
    assert!(rules(negative, disciplined()).is_empty());
    // Rule 8 is scoped to the sync-disciplined crates.
    let exempt = LintOpts {
        no_raw_blocking: false,
        ..disciplined()
    };
    assert!(rules(&positive, exempt).is_empty());
}

#[test]
fn test_modules_and_comments_are_exempt_from_crate_rules() {
    let sleeper = format!(
        "#[cfg(test)]\nmod tests {{\n    fn nap() {{ {}d); }}\n}}\n",
        concat!("std::thread::", "sleep(")
    );
    assert!(rules(&sleeper, disciplined()).is_empty());
    let comment = format!(
        "// {}d) is banned outside tests\n",
        concat!("std::thread::", "sleep(")
    );
    assert!(rules(&comment, disciplined()).is_empty());
}
