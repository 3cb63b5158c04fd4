//! The benchmark's declaration: every metric by name with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! is this table written out (`list --json`); a test keeps the two equal.

use crate::workloads;
use serde_json::{json, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
    /// Whether two runs of one commit under one seed must agree exactly.
    pub exact: bool,
    pub about: &'static str,
}

/// A metric of a single layer; reported by the traced run, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Reported only by a workload on the spill store. No gated workload
    /// is, so `BENCHMARK.json` leaves these out.
    pub spill_only: bool,
}

/// How long one driver run measures (`--seconds`), in seconds: as long as
/// the pipeline's time cap allows for five workloads (4 + 22 x 5 runs,
/// traced runs of up to a minute among them, inside 3420 s with a margin).
pub const RUN_SECONDS: u64 = 24;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    about: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
        about,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, false,
        "dataset generation + partition + engine construction, median over passes"),
    e2e("time_to_target_s", "s", Lower, 0.25, false,
        "sum of the min-series through the first round that reaches the workload's target accuracy (the whole run where no target is stated)"),
    e2e("rounds_to_target", "rounds", Lower, 0.25, true,
        "1-based round of that crossing; exact under seed (the paper's Table III metric)"),
    e2e("rounds_per_s", "1/s", Higher, 0.25, false,
        "fixed round count / sum of the min-series"),
    e2e("round_ms_p50", "ms", Lower, 0.25, false,
        "median of the min-series"),
    e2e("round_ms_tail", "ms", Lower, 0.25, false,
        "p90 of the min-series where ten samples lie beyond it (>= 100 rounds), else the highest percentile that has ten beyond it; the median where that would not lie above it"),
    e2e("cpu_ms_per_round", "ms", Lower, 0.25, false,
        "process CPU time of the timed rounds, all threads, / rounds, min over passes"),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, false,
        "child VmHWM at exit, min over passes"),
    e2e("upload_mib_per_round", "MiB", Lower, 0.01, true,
        "client -> server wire bytes per round; exact under seed"),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        spill_only: false,
    }
}

const fn spill(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        spill_only: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Round spans (TracedSync), summed over rounds.
    layer("core.selection.select_s", "s", Lower),
    layer("core.scheduler.orders_s", "s", Lower),
    layer("core.dispatch.wall_s", "s", Lower),
    layer("core.aggregate.wall_s", "s", Lower),
    layer("core.record.wall_s", "s", Lower),
    layer("core.scheduler.unattributed_s", "s", Lower),
    layer("core.scheduler.coverage", "share", Higher),
    layer("trace.overhead_share", "share", Lower),
    // Counts, exact under seed.
    layer("core.dispatch.jobs", "count", Lower),
    layer("core.trainer.samples", "count", Lower),
    layer("core.trainer.epochs", "count", Lower),
    layer("core.aggregate.messages", "count", Lower),
    layer("core.scheduler.broadcast_bytes", "bytes", Lower),
    layer("core.wire.upload_bytes", "bytes", Lower),
    layer("core.wire.dense_ratio", "ratio", Higher),
    layer("core.algorithms.final_accuracy", "fraction", Higher),
    layer("core.algorithms.final_loss", "loss", Lower),
    layer("clientstore.materializations", "count", Lower),
    spill("clientstore.spill_writes", "count", Lower),
    spill("clientstore.spill_loads", "count", Lower),
    spill("clientstore.evictions", "count", Lower),
    layer("clientstore.resident_mib", "MiB", Lower),
    spill("clientstore.reload_ratio", "ratio", Lower),
    // Layer probes: isolated timed calls at the workload's shapes.
    layer("tensor.gemm_a_bt.gflops", "GFLOP/s", Higher),
    layer("tensor.gemm_at_b.gflops", "GFLOP/s", Higher),
    layer("tensor.gemm.gflops", "GFLOP/s", Higher),
    layer("tensor.linear_forward.gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_forward.gflops", "GFLOP/s", Higher),
    layer("tensor.conv2d_backward.gflops", "GFLOP/s", Higher),
    layer("tensor.max_pool2d.ns_per_elem", "ns", Lower),
    layer("tensor.vecops.copy.gbps", "GB/s", Higher),
    layer("tensor.vecops.axpy.gbps", "GB/s", Higher),
    layer("tensor.vecops.weighted_sum.gbps", "GB/s", Higher),
    layer("tensor.vecops.dequant_sum.gbps", "GB/s", Higher),
    layer("tensor.vecops.min_max.gbps", "GB/s", Higher),
    layer("tensor.vecops.norm.gbps", "GB/s", Higher),
    layer("nn.forward.us_per_batch", "us", Lower),
    layer("nn.backward.us_per_batch", "us", Lower),
    layer("nn.loss.us_per_batch", "us", Lower),
    layer("nn.set_params.us", "us", Lower),
    layer("nn.grads_flat.us", "us", Lower),
    layer("data.generate_s", "s", Lower),
    layer("data.partition_s", "s", Lower),
    layer("data.shuffle_gather.ns_per_sample", "ns", Lower),
    layer("core.trainer.local_sgd.ns_per_sample", "ns", Lower),
    layer("core.trainer.kernel_share", "share", Higher),
    layer("core.eval.ms_per_call", "ms", Lower),
    layer("core.eval.ns_per_sample", "ns", Lower),
    layer("core.algorithms.client_update.ns_per_sample", "ns", Lower),
    layer("core.algorithms.overhead_share", "share", Lower),
    layer("core.algorithms.server_update.us", "us", Lower),
    layer("core.dispatch.workers", "count", Higher),
    layer("core.dispatch.empty_job_ns", "ns", Lower),
    layer("core.dispatch.speedup", "ratio", Higher),
    layer("core.wire.encode.ns_per_param", "ns", Lower),
    layer("core.compression.quantize.ns_per_param", "ns", Lower),
    layer("privacy.gaussian.ns_per_param", "ns", Lower),
    layer("clientstore.borrow_resident.ns_per_client", "ns", Lower),
    spill("clientstore.borrow_spill.us_per_client", "us", Lower),
    spill("clientstore.spill_io.mibps", "MiB/s", Higher),
    spill("clientstore.hierarchical_fold.gbps", "GB/s", Higher),
    layer("telemetry.recorder.overhead_share", "share", Lower),
];

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = workloads::gated()
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.label(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .filter(|m| !m.spill_only)
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.label()}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--quiet", "--release", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// The `list` subcommand's human-readable table.
pub fn list_text() -> String {
    let mut out = String::from("workloads\n");
    for w in workloads::all() {
        out.push_str(&format!(
            "  {:<22} {:>4} rounds, target {}{}\n    {}\n",
            w.name,
            w.rounds,
            w.target
                .map_or_else(|| "none (fixed horizon)".to_string(), |t| format!("{t:.2}")),
            if w.gated {
                ""
            } else {
                "; reported, not gated (not in BENCHMARK.json)"
            },
            w.why
        ));
    }
    out.push_str("\nend-to-end metrics\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<22} {:<7} {:<7} bound {:>4.0}%{}  {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            if m.exact { " exact" } else { "      " },
            m.about
        ));
    }
    out.push_str("\nper-layer metrics (traced run, not gated)\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<46} {:<8} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            if m.spill_only {
                "spill store only (not in BENCHMARK.json)"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            serde_json::to_string(&committed).unwrap(),
            serde_json::to_string(&benchmark_json()).unwrap(),
            "regenerate with `list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_meets_the_contract_limits() {
        let name_ok = |name: &str| {
            let mut chars = name.chars();
            name.len() <= 64
                && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
                && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        let gated = workloads::gated();
        assert!((2..=8).contains(&gated.len()));
        for w in &workloads::all() {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            names.push(m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        // A metric no gated workload can move has no place in the contract.
        assert!(gated.iter().all(|w| !w.spills()));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(count, names.len(), "every name is used once");
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
