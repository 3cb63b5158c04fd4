//! Host fingerprint and noise evidence, written into every result file so
//! that a noisy run, or a comparison across hosts, is recognisable.

use fedadmm::prelude::DispatchConfig;
use serde_json::{json, Value};
use std::process::Command;

fn first_line_of(command: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(command).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`, eighth field of the
/// `cpu` line): time the hypervisor ran someone else while this guest had
/// work to do.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
}

fn load_average() -> Value {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Value::Array(
        text.split_whitespace()
            .take(3)
            .filter_map(|field| field.parse::<f64>().ok())
            .map(Value::from)
            .collect(),
    )
}

/// The fingerprint taken when a run starts. `dispatch_workers` is what the
/// engine's default pool resolves to; `steal_ticks_at_start` pairs with a
/// reading at the end.
pub fn fingerprint() -> Value {
    let dispatch_workers = DispatchConfig::default().resolved_workers();
    let logical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    json!({
        "logical_cpus": logical_cpus as u64,
        "cpu_model": cpu_model(),
        "dispatch_workers": dispatch_workers as u64,
        "rustc": first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        "git_sha": first_line_of(
            "git",
            &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short", "HEAD"],
        )
        .unwrap_or_else(|| "nogit".to_string()),
        "load_average_at_start": load_average(),
        "steal_ticks_at_start": steal_ticks(),
    })
}
