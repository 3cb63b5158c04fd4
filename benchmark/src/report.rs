//! Result files and the tables printed from them.
//!
//! A result file is one JSON object: the host fingerprint and noise
//! evidence, the seed, and per workload its metrics by name with unit, its
//! trajectory digest, its failure counts and the unfiltered per-pass walls.

use crate::host;
use crate::orchestrate::Summary;
use crate::workloads::Workload;
use serde_json::{json, Value};

fn metrics_json(summary: &Summary) -> Value {
    Value::Object(
        summary
            .metrics
            .iter()
            .map(|&(name, unit, value)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    )
}

/// The one-line result of a driver run: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn driver_line(summary: &Summary) -> String {
    serde_json::to_string(&json!({
        "correct": summary.correct,
        "attempted": summary.attempted as u64,
        "failed": summary.failed as u64,
        "metrics": metrics_json(summary),
    }))
    .expect("a value tree always serializes")
}

fn workload_json(workload: &Workload, summary: &Summary) -> Value {
    let walls = &summary.pass_walls_s;
    let spread = match (
        walls.iter().copied().reduce(f64::max),
        walls.iter().copied().reduce(f64::min),
    ) {
        (Some(max), Some(min)) if min > 0.0 => max / min,
        _ => 0.0,
    };
    let readings: Vec<Value> = summary
        .readings
        .iter()
        .map(|r| json!({"name": r.name, "calls": r.calls as u64, "shape": r.shape.clone()}))
        .collect();
    json!({
        "name": workload.name,
        "correct": summary.correct,
        "attempted": summary.attempted as u64,
        "failed": summary.failed as u64,
        "failed_share": summary.failed as f64 / summary.attempted as f64,
        "digest": format!("{:016x}", summary.digest),
        "rounds": summary.rounds as u64,
        "tail_percentile": summary.tail_percentile,
        "passes": walls.len() as u64,
        "pass_walls_s": Value::Array(walls.iter().map(|&w| Value::from(w)).collect()),
        "pass_wall_max_over_min": spread,
        "problems": Value::Array(summary.problems.iter().map(|p| Value::from(p.clone())).collect()),
        "metrics": metrics_json(summary),
        "probes": Value::Array(readings),
    })
}

/// A whole result file. `host_at_start` is [`host::fingerprint`] taken
/// before the first pass.
pub fn result_file(
    kind: &str,
    seed: u64,
    mut host_at_start: Value,
    entries: &[(Workload, Summary)],
) -> Value {
    let start = host_at_start
        .get("steal_ticks_at_start")
        .and_then(Value::as_u64);
    if let (Value::Object(fields), Some(start)) = (&mut host_at_start, start) {
        fields.push((
            "steal_ticks_during_run".to_string(),
            Value::from(host::steal_ticks().saturating_sub(start)),
        ));
    }
    let workloads: Vec<Value> = entries.iter().map(|(w, s)| workload_json(w, s)).collect();
    json!({
        "schema": 1u64,
        "kind": kind,
        "seed": seed,
        "host": host_at_start,
        "workloads": workloads,
    })
}

/// Prints one workload's metrics, by name with unit, and what went wrong.
pub fn print_summary(workload: &Workload, summary: &Summary, out: &mut dyn std::io::Write) {
    let walls = &summary.pass_walls_s;
    let _ = writeln!(
        out,
        "{}: {} | {} passes | {} rounds attempted, {} failed | digest {:016x}",
        workload.name,
        if summary.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        walls.len(),
        summary.attempted,
        summary.failed,
        summary.digest,
    );
    if !walls.is_empty() {
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        let _ = writeln!(out, "  pass walls (s, unfiltered): {}", listed.join(" "));
    }
    for &(name, unit, value) in &summary.metrics {
        let note = match name {
            "round_ms_p50" => format!("  ({} samples)", summary.rounds),
            "round_ms_tail" => format!(
                "  (p{:.0} of {} samples)",
                summary.tail_percentile * 100.0,
                summary.rounds
            ),
            _ => summary
                .readings
                .iter()
                .find(|r| r.name == name)
                .map_or_else(String::new, |r| {
                    format!("  ({} calls; {})", r.calls, r.shape)
                }),
        };
        let _ = writeln!(out, "  {name:<46} {value:>16.6} {unit}{note}");
    }
    for problem in &summary.problems {
        let _ = writeln!(out, "  problem: {problem}");
    }
}
