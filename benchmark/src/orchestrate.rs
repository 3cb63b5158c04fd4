//! The orchestrator: runs passes as child processes, strictly one at a
//! time, and turns their reports into the end-to-end and per-layer metrics.

use crate::pass::{PassReport, Variant};
use crate::probes::{self, Reading};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, min_series, tail, time_to_target};
use crate::traced_sync::PHASES;
use crate::workloads::Workload;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every timing is the element-wise minimum across at least this many
/// deterministic passes.
pub const MIN_PASSES: usize = 3;
/// Passes of each variant in a traced run.
const TRACE_PASSES: usize = 3;
/// The round spans must account for this share of the tick.
const MIN_COVERAGE: f64 = 0.95;

const MIB: f64 = (1u64 << 20) as f64;

/// The benchmark's scratch root, `benchmark/.scratch`: every spill
/// directory lives under it. Emptied when a run starts and removed when it
/// ends, also on the error path (a killed sizing run once left 2.8 GB of
/// shard files in `/tmp`).
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh, empty directory under the root.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Spawns passes of this same executable.
pub struct Runner {
    exe: PathBuf,
    scratch: Scratch,
    spawned: usize,
}

impl Runner {
    pub fn new() -> Result<Self, String> {
        Ok(Runner {
            exe: std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?,
            scratch: Scratch::new()?,
            spawned: 0,
        })
    }

    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// Runs one pass in a child process and waits for it. The child's spill
    /// directory is removed whether or not it succeeded.
    pub fn pass(
        &mut self,
        workload: &Workload,
        seed: u64,
        variant: Variant,
        spans_out: Option<PathBuf>,
    ) -> Result<PassReport, String> {
        self.spawned += 1;
        let spill_dir = self.scratch.dir(&format!("pass-{}", self.spawned))?;
        let mut command = Command::new(&self.exe);
        command
            .args(["pass", "--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--variant", variant.label()])
            .arg("--spill-dir")
            .arg(&spill_dir);
        if let Some(path) = spans_out {
            command.arg("--spans-out").arg(path);
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let _ = std::fs::remove_dir_all(&spill_dir);
        let output = output.map_err(|e| format!("spawning a pass of {}: {e}", workload.name))?;
        if !output.status.success() {
            return Err(format!(
                "{} ({}) pass exited with {}",
                workload.name,
                variant.label(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        serde_json::from_str::<Value>(line)
            .ok()
            .and_then(|value| PassReport::from_json(&value))
            .ok_or_else(|| format!("{}: unreadable pass report: {line:.120}", workload.name))
    }
}

/// The passes of one workload and variant.
#[derive(Debug, Default)]
pub struct Passes {
    pub reports: Vec<PassReport>,
    /// Children that exited non-zero or printed no report.
    pub child_failures: usize,
    /// Wall seconds spent in this workload's children, set-up included.
    pub spent_s: f64,
}

impl Passes {
    fn run(
        &mut self,
        runner: &mut Runner,
        workload: &Workload,
        seed: u64,
        variant: Variant,
        spans_out: Option<PathBuf>,
    ) {
        let start = Instant::now();
        match runner.pass(workload, seed, variant, spans_out) {
            Ok(report) => self.reports.push(report),
            Err(error) => {
                eprintln!("{error}");
                self.child_failures += 1;
            }
        }
        self.spent_s += start.elapsed().as_secs_f64();
    }

    /// Whether another pass is due: always below [`MIN_PASSES`], then while
    /// one more pass of the usual length still fits into `seconds`.
    fn wants_more(&self, seconds: f64) -> bool {
        let done = self.reports.len() + self.child_failures;
        if self.child_failures >= MIN_PASSES {
            return false;
        }
        done < MIN_PASSES || self.spent_s + self.spent_s / done as f64 <= seconds
    }

    fn series(&self) -> Vec<u64> {
        let rounds: Vec<&[u64]> = self.reports.iter().map(|r| r.round_ns.as_slice()).collect();
        min_series(&rounds)
    }

    /// Median over the passes of one of their fields.
    fn median_of(&self, field: impl Fn(&PassReport) -> f64) -> f64 {
        median(&self.reports.iter().map(field).collect::<Vec<_>>())
    }

    /// Unfiltered wall seconds of each pass's timed rounds.
    fn walls(&self) -> impl Iterator<Item = f64> + '_ {
        self.reports.iter().map(PassReport::wall_s)
    }
}

/// Runs the measured passes of `workloads`, interleaved (`w1 .. wn, w1 ..
/// wn, ..`) so that slow drift of the host spreads over all of them, each
/// workload until it has measured for `seconds`.
pub fn measure(
    runner: &mut Runner,
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
) -> Vec<Passes> {
    let mut all: Vec<Passes> = workloads.iter().map(|_| Passes::default()).collect();
    loop {
        let mut ran = false;
        for (workload, passes) in workloads.iter().zip(all.iter_mut()) {
            if passes.wants_more(seconds) {
                passes.run(runner, workload, seed, Variant::Plain, None);
                ran = true;
            }
        }
        if !ran {
            return all;
        }
    }
}

/// What one workload's run came to.
#[derive(Debug, Clone)]
pub struct Summary {
    /// One value per metric of the table the run reports, in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub correct: bool,
    /// Rounds attempted over all passes, and those that failed.
    pub attempted: usize,
    pub failed: usize,
    pub digest: u64,
    /// Unfiltered wall seconds of each pass's timed rounds: the noise
    /// evidence (max / min says how steady the host was).
    pub pass_walls_s: Vec<f64>,
    /// Samples behind `round_ms_p50`, and the percentile `round_ms_tail` is.
    pub rounds: usize,
    pub tail_percentile: f64,
    pub problems: Vec<String>,
    pub readings: Vec<Reading>,
}

/// Trajectory checks shared by the measured and the traced run.
fn check_trajectory(
    workload: &Workload,
    reports: &[PassReport],
    rounds: usize,
    problems: &mut Vec<String>,
) {
    let Some(first) = reports.first() else {
        problems.push("no pass completed".to_string());
        return;
    };
    for (i, report) in reports.iter().enumerate() {
        if report.round_ns.len() != rounds {
            problems.push(format!(
                "pass {i} ran {} of {rounds} rounds",
                report.round_ns.len()
            ));
        }
        if report.failed_rounds > 0 {
            problems.push(format!("pass {i}: {} rounds failed", report.failed_rounds));
        }
        if report.digest != first.digest {
            problems.push(format!(
                "pass {i} digest {:016x} differs from pass 0 digest {:016x}",
                report.digest, first.digest
            ));
        }
    }
    if let Some(target) = workload.target {
        if !first.accuracy.iter().any(|&a| a >= target) {
            problems.push(format!(
                "target accuracy {target} not reached in {rounds} rounds"
            ));
        }
    }
    if workload.loss_falls {
        if let (Some(&start), Some(&end)) = (first.loss.first(), first.loss.last()) {
            // A non-finite loss is already counted as a failed round.
            if end >= start {
                problems.push(format!(
                    "final loss {end} is not below round-0 loss {start}"
                ));
            }
        }
    }
}

/// Rounds attempted and failed over a set of passes. A failed child, a pass
/// whose digest disagrees, and every pass of a run whose correctness check
/// failed count all their rounds as failed.
fn failure_counts(passes: &Passes, rounds: usize, correct: bool) -> (usize, usize) {
    let attempted = (passes.reports.len() + passes.child_failures) * rounds;
    let failed = if correct {
        0
    } else {
        let first_digest = passes.reports.first().map(|r| r.digest);
        let bad_passes = passes.child_failures
            + passes
                .reports
                .iter()
                .filter(|r| Some(r.digest) != first_digest || r.failed_rounds > 0)
                .count();
        // A check on the trajectory itself (target, loss) fails every pass.
        if bad_passes == 0 {
            attempted
        } else {
            bad_passes * rounds
        }
    };
    (attempted, failed)
}

/// The end-to-end metrics of one workload from its measured passes.
pub fn summarize(workload: &Workload, passes: &Passes) -> Summary {
    let rounds = workload.rounds;
    let mut problems = Vec::new();
    if passes.child_failures > 0 {
        problems.push(format!("{} child passes failed", passes.child_failures));
    }
    check_trajectory(workload, &passes.reports, rounds, &mut problems);
    let series = passes.series();
    if series.len() != rounds {
        problems.push("no complete per-round series".to_string());
    }
    let correct = problems.is_empty();
    let (attempted, failed) = failure_counts(passes, rounds, correct);
    let mut summary = Summary {
        metrics: Vec::new(),
        correct,
        attempted: attempted.max(1),
        failed,
        digest: passes.reports.first().map_or(0, |r| r.digest),
        pass_walls_s: passes.walls().collect(),
        rounds,
        tail_percentile: 0.0,
        problems,
        readings: Vec::new(),
    };
    if series.len() != rounds {
        return summary;
    }
    let first = &passes.reports[0];
    let total_ns: u64 = series.iter().sum();
    let (rounds_to_target, to_target_ns) = workload
        .target
        .and_then(|target| time_to_target(&series, &first.accuracy, target))
        .unwrap_or((rounds, total_ns));
    let series_ms: Vec<f64> = series.iter().map(|&ns| ns as f64 / 1e6).collect();
    let (tail_ms, tail_percentile) = tail(&series_ms);
    summary.tail_percentile = tail_percentile;
    let min_over_passes = |field: fn(&PassReport) -> u64| {
        passes
            .reports
            .iter()
            .map(field)
            .min()
            .expect("a complete series has passes") as f64
    };
    let values = [
        passes.median_of(|r| r.setup.total_s),
        to_target_ns as f64 / 1e9,
        rounds_to_target as f64,
        rounds as f64 / (total_ns as f64 / 1e9),
        median(&series_ms),
        tail_ms,
        min_over_passes(|r| r.cpu_ns) / rounds as f64 / 1e6,
        min_over_passes(|r| r.peak_rss_bytes) / MIB,
        first.wire_bytes as f64 / rounds as f64 / MIB,
    ];
    summary.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| (metric.name, metric.unit, value))
        .collect();
    summary
}

/// Per-round phase durations of the traced passes, taking each round whole
/// from the pass whose tick was fastest, so that phases and tick stay
/// consistent. Returns `(tick sum, per-phase sums)` in nanoseconds over the
/// first `rounds` rounds.
fn fastest_rounds(reports: &[PassReport], rounds: usize) -> Option<(u64, [u64; 5])> {
    let series: Vec<_> = reports.iter().filter_map(|r| r.phases.as_ref()).collect();
    if series.is_empty() || series.iter().any(|s| s.tick.len() < rounds) {
        return None;
    }
    let (mut tick_sum, mut phase_sums) = (0u64, [0u64; 5]);
    for round in 0..rounds {
        let best = series
            .iter()
            .min_by_key(|s| s.tick[round])
            .expect("at least one traced pass");
        tick_sum += best.tick[round];
        for (sum, phase) in phase_sums.iter_mut().zip(&best.phases) {
            *sum += phase.get(round).copied().unwrap_or(0);
        }
    }
    Some((tick_sum, phase_sums))
}

/// The traced run of one workload: plain, traced, serial-traced and
/// recorder passes interleaved, then the layer probes. `spans_out`
/// receives the first traced pass's span log.
pub fn trace(
    runner: &mut Runner,
    workload: &Workload,
    seed: u64,
    spans_out: Option<PathBuf>,
) -> Result<Summary, String> {
    let rounds = workload.rounds;
    let mut by_variant: Vec<Passes> = Variant::ALL.iter().map(|_| Passes::default()).collect();
    let mut spans_out = spans_out;
    for k in 0..TRACE_PASSES {
        // Rotate which variant goes first, so that no variant always runs
        // in the same position of the cycle.
        let mut order: Vec<(Variant, &mut Passes)> = Variant::ALL
            .into_iter()
            .zip(by_variant.iter_mut())
            .collect();
        order.rotate_left(k % Variant::ALL.len());
        for (variant, passes) in order {
            // Only the first traced pass writes its span log out.
            let spans = (variant == Variant::Traced)
                .then(|| spans_out.take())
                .flatten();
            passes.run(runner, workload, seed, variant, spans);
        }
    }
    let [plain, traced, serial, recorder] = &by_variant[..] else {
        unreachable!("one entry per variant")
    };

    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut child_failures = 0;
    for (variant, passes) in Variant::ALL.into_iter().zip(&by_variant) {
        let variant_rounds = variant.rounds(workload);
        attempted += (passes.reports.len() + passes.child_failures) * variant_rounds;
        child_failures += passes.child_failures;
        let mut found = Vec::new();
        if variant == Variant::TracedSerial {
            // A prefix run has no digest of its own to compare: hold its
            // trajectory against the plain run's first rounds bit for bit.
            for report in &passes.reports {
                let same = plain.reports.first().is_some_and(|p| {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    p.accuracy.len() >= variant_rounds
                        && bits(&p.accuracy[..variant_rounds]) == bits(&report.accuracy)
                        && bits(&p.loss[..variant_rounds]) == bits(&report.loss)
                });
                if !same || report.failed_rounds > 0 {
                    found.push("trajectory differs from the plain run's prefix".to_string());
                }
            }
        } else {
            check_trajectory(workload, &passes.reports, variant_rounds, &mut found);
            let digest = passes.reports.first().map(|r| r.digest);
            if digest != plain.reports.first().map(|r| r.digest) {
                found.push("digest differs from the untraced run".to_string());
            }
        }
        problems.extend(
            found
                .into_iter()
                .map(|p| format!("{}: {p}", variant.label())),
        );
    }
    if child_failures > 0 {
        problems.push(format!("{child_failures} child passes failed"));
    }

    let seconds = |ns: u64| ns as f64 / 1e9;
    let sum = |passes: &Passes| passes.series().iter().sum::<u64>() as f64;
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let spans = fastest_rounds(&traced.reports, rounds);
    let prefix = Variant::TracedSerial.rounds(workload);
    match (&spans, plain.reports.first()) {
        (Some((tick, phases)), Some(first)) => {
            let attributed: u64 = phases.iter().sum();
            let coverage = attributed as f64 / *tick as f64;
            if coverage < MIN_COVERAGE {
                problems.push(format!(
                    "span coverage {coverage:.4} is below {MIN_COVERAGE}"
                ));
            }
            for (name, ns) in [
                "core.selection.select_s",
                "core.scheduler.orders_s",
                "core.dispatch.wall_s",
                "core.aggregate.wall_s",
                "core.record.wall_s",
            ]
            .into_iter()
            .zip(phases)
            {
                values.push((name, seconds(*ns)));
            }
            values.push(("core.scheduler.unattributed_s", seconds(tick - attributed)));
            values.push(("core.scheduler.coverage", coverage));
            values.push(("trace.overhead_share", sum(traced) / sum(plain) - 1.0));
            values.push((
                "telemetry.recorder.overhead_share",
                sum(recorder) / sum(plain) - 1.0,
            ));
            let dispatch = PHASES
                .iter()
                .position(|&p| p == "core.dispatch")
                .expect("dispatch is a phase");
            let speedup = match (
                fastest_rounds(&serial.reports, prefix),
                fastest_rounds(&traced.reports, prefix),
            ) {
                (Some((_, one)), Some((_, many))) => one[dispatch] as f64 / many[dispatch] as f64,
                _ => 0.0,
            };
            values.push(("core.dispatch.speedup", speedup));
            values.push(("core.dispatch.workers", first.workers as f64));

            let borrows = traced.reports.first().map_or(0, |r| r.shard_borrows);
            values.extend([
                ("core.dispatch.jobs", first.jobs as f64),
                ("core.trainer.samples", first.samples as f64),
                ("core.trainer.epochs", first.epochs as f64),
                ("core.aggregate.messages", first.jobs as f64),
                (
                    "core.scheduler.broadcast_bytes",
                    (first.jobs * first.dim as u64 * 4) as f64,
                ),
                ("core.wire.upload_bytes", first.wire_bytes as f64),
                (
                    "core.wire.dense_ratio",
                    (4 * first.upload_floats) as f64 / first.wire_bytes as f64,
                ),
                (
                    "core.algorithms.final_accuracy",
                    first.accuracy.last().copied().unwrap_or(0.0) as f64,
                ),
                (
                    "core.algorithms.final_loss",
                    first.loss.last().copied().unwrap_or(0.0) as f64,
                ),
                (
                    "clientstore.materializations",
                    first.store.materializations as f64,
                ),
                ("clientstore.spill_writes", first.store.spill_writes as f64),
                ("clientstore.spill_loads", first.store.spill_loads as f64),
                ("clientstore.evictions", first.store.evictions as f64),
                (
                    "clientstore.resident_mib",
                    first.resident_bytes as f64 / MIB,
                ),
                (
                    "clientstore.reload_ratio",
                    if borrows == 0 {
                        0.0
                    } else {
                        first.store.spill_loads as f64 / borrows as f64
                    },
                ),
                ("data.generate_s", plain.median_of(|r| r.setup.generate_s)),
                ("data.partition_s", plain.median_of(|r| r.setup.partition_s)),
            ]);
        }
        _ => problems.push("the traced passes produced no span series".to_string()),
    }

    let probe_dir = runner.scratch().dir("probes")?;
    let readings = probes::run(workload, seed, &probe_dir)?;
    let _ = std::fs::remove_dir_all(&probe_dir);
    values.extend(readings.iter().map(|r| (r.name, r.value)));

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for metric in PER_LAYER
        .iter()
        .filter(|m| !m.spill_only || workload.spills())
    {
        match values.iter().find(|(name, _)| *name == metric.name) {
            Some(&(_, value)) if value.is_finite() => {
                metrics.push((metric.name, metric.unit, value));
            }
            _ => problems.push(format!("per-layer metric {} has no value", metric.name)),
        }
    }
    let correct = problems.is_empty();
    Ok(Summary {
        metrics,
        correct,
        attempted: attempted.max(1),
        failed: if correct { 0 } else { attempted.max(1) },
        digest: plain.reports.first().map_or(0, |r| r.digest),
        pass_walls_s: by_variant.iter().flat_map(Passes::walls).collect(),
        rounds,
        tail_percentile: 0.0,
        problems,
        readings,
    })
}
