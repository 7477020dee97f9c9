//! `/proc` readers: CPU time, minor faults and peak resident set of this
//! process, and the host's memory size. Parsing is split from reading so the
//! parsers are tested on fixture strings.

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes `USER_HZ` at 100 on every architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Process-wide CPU seconds and minor faults since process start.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct CpuSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl CpuSample {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Result<CpuSample, String> {
        let text = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("read /proc/self/stat: {e}"))?;
        parse_stat(&text)
    }

    /// What was consumed between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Result<CpuSample, String> {
    let close = text
        .rfind(')')
        .ok_or("stat: no ')' after the command name")?;
    // After ") ": state is field 3, so minflt (10), utime (14) and stime (15)
    // sit at offsets 7, 11 and 12.
    let fields: Vec<&str> = text[close + 1..].split_ascii_whitespace().collect();
    let num = |idx: usize, what: &str| -> Result<u64, String> {
        fields
            .get(idx)
            .ok_or_else(|| format!("stat: missing {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("stat: bad {what}: {e}"))
    };
    Ok(CpuSample {
        minflt: num(7, "minflt")?,
        user_s: num(11, "utime")? as f64 / USER_HZ,
        sys_s: num(12, "stime")? as f64 / USER_HZ,
    })
}

/// The value in kB of `key` (e.g. `VmHWM`, `MemTotal`) in a
/// `/proc/self/status`- or `/proc/meminfo`-shaped text.
pub fn parse_kb(text: &str, key: &str) -> Result<u64, String> {
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(key) else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let value = rest.trim().strip_suffix("kB").unwrap_or(rest).trim();
        return value
            .parse::<u64>()
            .map_err(|e| format!("{key}: bad value '{value}': {e}"));
    }
    Err(format!("{key}: not found"))
}

/// Peak resident set size of this process so far, in MB (2^20 bytes, as for
/// every size this benchmark prints).
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    Ok(parse_kb(&text, "VmHWM")? as f64 / 1024.0)
}

/// Host RAM in MB.
pub fn mem_total_mb() -> Result<f64, String> {
    let text =
        std::fs::read_to_string("/proc/meminfo").map_err(|e| format!("read /proc/meminfo: {e}"))?;
    Ok(parse_kb(&text, "MemTotal")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (dooc bench) x) S 1 4242 4242 0 -1 4194304 69140 0 3 0 \
                        153 27 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.minflt, 69140);
        assert_eq!(s.user_s, 1.53);
        assert_eq!(s.sys_s, 0.27);
    }

    #[test]
    fn stat_rejects_truncated_or_garbled_lines() {
        assert!(parse_stat("1 (x) S 1 2 3").is_err());
        assert!(parse_stat("no parens at all").is_err());
        let garbled = STAT.replace(" 153 ", " abc ");
        assert!(parse_stat(&garbled).is_err());
    }

    #[test]
    fn deltas_subtract_fieldwise() {
        let a = CpuSample {
            user_s: 1.0,
            sys_s: 0.5,
            minflt: 10,
        };
        let b = CpuSample {
            user_s: 1.75,
            sys_s: 0.75,
            minflt: 25,
        };
        let d = b.since(&a);
        assert_eq!((d.user_s, d.sys_s, d.minflt), (0.75, 0.25, 15));
    }

    #[test]
    fn kb_values_are_found_by_exact_key() {
        let status =
            "Name:\tdoocbench\nVmPeak:\t  900000 kB\nVmHWM:\t   62496 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_kb(status, "VmHWM"), Ok(62496));
        assert_eq!(parse_kb(status, "VmRSS"), Ok(100));
        assert!(parse_kb(status, "Vm").is_err(), "prefix is not a key");
        assert!(parse_kb(status, "MemTotal").is_err());
        assert_eq!(
            parse_kb("MemTotal:       16000000 kB\n", "MemTotal"),
            Ok(16000000)
        );
        assert!(parse_kb("VmHWM:\tlots kB\n", "VmHWM").is_err());
    }
}
