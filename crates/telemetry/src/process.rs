//! Process-level probes: resident-set-size readings from the kernel.
//!
//! The benchmark (`benchmark/`) records **peak RSS** alongside throughput so
//! that memory regressions (e.g. a scheduler that starts materializing
//! per-client state eagerly) show up in its reports, not just in
//! out-of-memory kills at scale. On Linux the numbers come from
//! `/proc/self/status` (`VmHWM` = peak, `VmRSS` = current); elsewhere the
//! probes return `None` and the exporters record `null`.

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Current resident set size of this process in bytes (`VmRSS`).
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Reads a `kB`-denominated field from `/proc/self/status`.
fn read_status_kib(field: &str) -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            // Format: "VmHWM:\t  123456 kB"
            return rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_probes_report_plausible_values() {
        let peak = peak_rss_bytes().expect("VmHWM is present on Linux");
        let current = current_rss_bytes().expect("VmRSS is present on Linux");
        // A running test binary occupies at least a few hundred KiB and
        // (sanity bound) less than a terabyte.
        assert!(peak > 100 * 1024, "peak RSS {peak} too small");
        assert!(peak < 1 << 40, "peak RSS {peak} implausibly large");
        assert!(
            current <= peak + (64 << 20),
            "current {current} > peak {peak}"
        );
    }
}
