//! What the host is, so numbers from different machines are never
//! compared silently, and how much memory this process has held.

use std::fs;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string, or `unknown` off Linux.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per-core L2 size in bytes, from sysfs (`index2` is the unified L2 on
/// x86 and most arm64 parts); 2 MiB when the host does not say.
pub fn l2_bytes() -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..8 {
        let level = fs::read_to_string(format!("{base}/index{idx}/level")).unwrap_or_default();
        if level.trim() != "2" {
            continue;
        }
        let size = fs::read_to_string(format!("{base}/index{idx}/size")).unwrap_or_default();
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        if let Ok(n) = digits.parse::<u64>() {
            return n * scale;
        }
    }
    2 * 1024 * 1024
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
