//! The host descriptor every result file carries, so numbers from different
//! machines, toolchains or commits are never compared silently.

use crate::jsonout::{num, obj, s, Json};
use crate::procfs;

/// cpus, RAM, kernel, rustc and git commit of this run.
pub fn descriptor() -> Json {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    obj([
        ("cpus", num(cpus as f64)),
        ("ram_mb", num(procfs::mem_total_mb().unwrap_or(0.0).round())),
        ("kernel", s(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("rustc", s(rustc_version())),
        ("git_commit", s(git_commit())),
        ("llc_bytes", num(llc_bytes().unwrap_or(0) as f64)),
    ])
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|t| t.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path (the one cargo just built
/// this binary with, when started through `cargo run`).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the current directory only
/// (no `git` process, no walking up): "unknown" in an exported tree.
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let resolved = read_trimmed(&format!(".git/{reference}"));
            if resolved == "unknown" {
                reference.to_string()
            } else {
                resolved
            }
        }
        None => head,
    }
}

/// Size of the last-level cache as the kernel reports it for cpu0.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u64, u64)> = None;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = std::fs::read_to_string(format!("{base}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u64>(), parse_cache_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// `"2048K"`, `"32M"` or plain bytes.
fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_and_without_suffix() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("266240K"), Some(266240 << 10));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size("lots"), None);
    }

    #[test]
    fn descriptor_has_every_field_the_result_file_promises() {
        let d = descriptor();
        for key in [
            "cpus",
            "ram_mb",
            "kernel",
            "rustc",
            "git_commit",
            "llc_bytes",
        ] {
            assert!(d.get(key).is_some(), "{key}");
        }
        assert!(d.get("cpus").and_then(Json::as_f64).expect("cpus") >= 1.0);
    }
}
