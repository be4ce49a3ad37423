//! Process-level measurements read from `/proc`, and the host stamp a record carries.

use std::process::Command;

/// `sysconf(_SC_CLK_TCK)` on every Linux this runs on; `/proc/self/stat` counts in it.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds this process has used so far (`/proc/self/stat` fields 14
/// and 15, counted after the parenthesised command name, which may itself hold spaces).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLOCK_TICKS_PER_S
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a committed record is stamped with: where and from what it was measured.
pub fn host_stamp() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "git_revision".into(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("rustc".into(), command_line("rustc", &["--version"])),
        ("nproc".into(), crate::fixture::nproc().to_string()),
        ("cpu_model".into(), cpu),
        ("isa".into(), crate::layers::isa_name().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 1.0);
        let stamp = host_stamp();
        assert_eq!(stamp.len(), 5);
        assert!(stamp.iter().all(|(_, v)| !v.is_empty()));
    }
}
