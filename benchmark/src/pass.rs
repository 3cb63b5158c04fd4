//! One pass of one workload, run in a child process of its own so that it
//! starts from a clean allocator and its peak RSS and CPU time are its own.
//! The child prints a single JSON line ([`PassReport`]) and exits.

use crate::stats::Digest;
use crate::traced_sync::{phase_series, spans_jsonl, PhaseSeries, TracedSync, PHASES};
use crate::workloads::{Engine, EngineOptions, SetupTimes, Workload};
use fedadmm::prelude::*;
use fedadmm::telemetry::peak_rss_bytes;
use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// What a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The measured run: `SyncRounds`, engine defaults.
    Plain,
    /// `TracedSync` in place of `SyncRounds`; spans recorded.
    Traced,
    /// `TracedSync` with one dispatch worker, over the first rounds only
    /// (the denominator of `core.dispatch.speedup`).
    TracedSerial,
    /// The measured run with a `Recorder` installed.
    Recorder,
}

impl Variant {
    pub const ALL: [Variant; 4] = [
        Variant::Plain,
        Variant::Traced,
        Variant::TracedSerial,
        Variant::Recorder,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Traced => "traced",
            Variant::TracedSerial => "traced-serial",
            Variant::Recorder => "recorder",
        }
    }

    pub fn parse(label: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.label() == label)
    }

    /// Rounds this variant runs of a workload's fixed count.
    pub fn rounds(self, workload: &Workload) -> usize {
        match self {
            Variant::TracedSerial => workload.rounds.min(SERIAL_PREFIX_ROUNDS),
            _ => workload.rounds,
        }
    }
}

/// `core.dispatch.speedup` compares dispatch wall over at most this many
/// leading rounds.
pub const SERIAL_PREFIX_ROUNDS: usize = 50;

/// Everything one pass reports to the orchestrator.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub setup: SetupTimes,
    /// Wall time of each `run_round()` call, in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Process CPU time (all threads) across the timed rounds.
    pub cpu_ns: u64,
    pub peak_rss_bytes: u64,
    pub digest: u64,
    pub accuracy: Vec<f32>,
    pub loss: Vec<f32>,
    /// Rounds that returned `Err` or a non-finite loss or accuracy.
    pub failed_rounds: usize,
    pub wire_bytes: u64,
    pub upload_floats: u64,
    pub jobs: u64,
    pub samples: u64,
    pub epochs: u64,
    pub workers: usize,
    pub dim: usize,
    pub store: StoreStats,
    pub resident_bytes: u64,
    /// Per-round phase durations (traced variants only).
    pub phases: Option<PhaseSeries>,
    /// Distinct store shards borrowed, summed over rounds (traced only).
    pub shard_borrows: u64,
}

/// Process CPU time of this process, all threads, in nanoseconds.
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, correctly laid-out value (two
    // 64-bit fields on every 64-bit Linux target this benchmark supports),
    // and has no other effect.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `rounds` rounds, timing each `run_round()` call.
fn run_rounds<S: Scheduler>(
    engine: &mut Engine<S>,
    rounds: usize,
    setup: SetupTimes,
) -> PassReport {
    let mut report = PassReport {
        setup,
        round_ns: Vec::with_capacity(rounds),
        cpu_ns: 0,
        peak_rss_bytes: 0,
        digest: 0,
        accuracy: Vec::with_capacity(rounds),
        loss: Vec::with_capacity(rounds),
        failed_rounds: 0,
        wire_bytes: 0,
        upload_floats: 0,
        jobs: 0,
        samples: 0,
        epochs: 0,
        workers: engine.dispatch_pool().workers(),
        dim: engine.global_model().len(),
        store: StoreStats::default(),
        resident_bytes: 0,
        phases: None,
        shard_borrows: 0,
    };
    let mut digest = Digest::default();
    let cpu_start = process_cpu_ns();
    for _ in 0..rounds {
        let start = Instant::now();
        let outcome = engine.run_round();
        report.round_ns.push(start.elapsed().as_nanos() as u64);
        match outcome {
            Ok(record) => {
                if !(record.test_loss.is_finite() && record.test_accuracy.is_finite()) {
                    report.failed_rounds += 1;
                }
                for word in [
                    u64::from(record.test_accuracy.to_bits()),
                    u64::from(record.test_loss.to_bits()),
                    record.upload_floats as u64,
                    record.wire_bytes as u64,
                    record.samples_processed as u64,
                ] {
                    digest.push(word);
                }
                report.accuracy.push(record.test_accuracy);
                report.loss.push(record.test_loss);
                report.wire_bytes += record.wire_bytes as u64;
                report.upload_floats += record.upload_floats as u64;
                report.jobs += record.num_selected as u64;
                report.samples += record.samples_processed as u64;
                report.epochs += record.total_local_epochs as u64;
            }
            Err(error) => {
                eprintln!("round failed: {error}");
                report.failed_rounds += 1;
                report.accuracy.push(f32::NAN);
                report.loss.push(f32::NAN);
            }
        }
    }
    report.cpu_ns = process_cpu_ns() - cpu_start;
    report.digest = digest.finish();
    report.store = engine.store().stats();
    report.resident_bytes = engine.store().resident_bytes();
    report.peak_rss_bytes = peak_rss_bytes().expect("VmHWM in /proc/self/status (Linux only)");
    report
}

/// Runs one pass. `spill_dir` holds the spill store's shard files;
/// `spans_out` receives the span log of a traced pass as JSONL.
pub fn run(
    workload: &Workload,
    seed: u64,
    variant: Variant,
    spill_dir: &Path,
    spans_out: Option<&Path>,
) -> Result<PassReport, String> {
    let rounds = variant.rounds(workload);
    let options = EngineOptions {
        workers: (variant == Variant::TracedSerial).then_some(1),
        recorder: variant == Variant::Recorder,
    };
    match variant {
        Variant::Plain | Variant::Recorder => {
            let (mut engine, setup) = workload.build(seed, SyncRounds, options, spill_dir)?;
            Ok(run_rounds(&mut engine, rounds, setup))
        }
        Variant::Traced | Variant::TracedSerial => {
            let (mut engine, setup) =
                workload.build(seed, TracedSync::new(rounds), options, spill_dir)?;
            let mut report = run_rounds(&mut engine, rounds, setup);
            let spans = engine.scheduler().spans();
            report.phases = Some(phase_series(spans));
            report.shard_borrows = engine.scheduler().shard_borrows();
            if let Some(path) = spans_out {
                std::fs::write(path, spans_jsonl(spans))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            Ok(report)
        }
    }
}

fn u64s(values: &[u64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::from(v)).collect())
}

fn f32s(values: &[f32]) -> Value {
    // Bit patterns, so NaN survives the trip and equality stays exact.
    Value::Array(
        values
            .iter()
            .map(|&v| Value::from(u64::from(v.to_bits())))
            .collect(),
    )
}

impl PassReport {
    /// Unfiltered wall seconds of the timed rounds.
    pub fn wall_s(&self) -> f64 {
        self.round_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn to_json(&self) -> Value {
        let phases = match &self.phases {
            Some(series) => {
                let mut fields = vec![("tick".to_string(), u64s(&series.tick))];
                for (name, values) in PHASES.iter().zip(&series.phases) {
                    fields.push((name.to_string(), u64s(values)));
                }
                Value::Object(fields)
            }
            None => Value::Null,
        };
        json!({
            "generate_s": self.setup.generate_s,
            "partition_s": self.setup.partition_s,
            "setup_s": self.setup.total_s,
            "round_ns": u64s(&self.round_ns),
            "cpu_ns": self.cpu_ns,
            "peak_rss_bytes": self.peak_rss_bytes,
            "digest": self.digest,
            "accuracy_bits": f32s(&self.accuracy),
            "loss_bits": f32s(&self.loss),
            "failed_rounds": self.failed_rounds as u64,
            "wire_bytes": self.wire_bytes,
            "upload_floats": self.upload_floats,
            "jobs": self.jobs,
            "samples": self.samples,
            "epochs": self.epochs,
            "workers": self.workers as u64,
            "dim": self.dim as u64,
            "materializations": self.store.materializations,
            "spill_writes": self.store.spill_writes,
            "spill_loads": self.store.spill_loads,
            "evictions": self.store.evictions,
            "resident_bytes": self.resident_bytes,
            "phases": phases,
            "shard_borrows": self.shard_borrows,
        })
    }

    pub fn from_json(value: &Value) -> Option<PassReport> {
        let u = |key: &str| value.get(key)?.as_u64();
        let f = |key: &str| value.get(key)?.as_f64();
        let series =
            |v: &Value| -> Option<Vec<u64>> { v.as_array()?.iter().map(Value::as_u64).collect() };
        let floats = |key: &str| -> Option<Vec<f32>> {
            Some(
                series(value.get(key)?)?
                    .into_iter()
                    .map(|bits| f32::from_bits(bits as u32))
                    .collect(),
            )
        };
        let phases = match value.get("phases")? {
            Value::Null => None,
            object => {
                let mut out = PhaseSeries {
                    tick: series(object.get("tick")?)?,
                    ..PhaseSeries::default()
                };
                for (slot, name) in out.phases.iter_mut().zip(PHASES) {
                    *slot = series(object.get(name)?)?;
                }
                Some(out)
            }
        };
        Some(PassReport {
            setup: SetupTimes {
                generate_s: f("generate_s")?,
                partition_s: f("partition_s")?,
                total_s: f("setup_s")?,
            },
            round_ns: series(value.get("round_ns")?)?,
            cpu_ns: u("cpu_ns")?,
            peak_rss_bytes: u("peak_rss_bytes")?,
            digest: u("digest")?,
            accuracy: floats("accuracy_bits")?,
            loss: floats("loss_bits")?,
            failed_rounds: u("failed_rounds")? as usize,
            wire_bytes: u("wire_bytes")?,
            upload_floats: u("upload_floats")?,
            jobs: u("jobs")?,
            samples: u("samples")?,
            epochs: u("epochs")?,
            workers: u("workers")? as usize,
            dim: u("dim")? as usize,
            store: StoreStats {
                materializations: u("materializations")?,
                spill_writes: u("spill_writes")?,
                spill_loads: u("spill_loads")?,
                evictions: u("evictions")?,
            },
            resident_bytes: u("resident_bytes")?,
            phases,
            shard_borrows: u("shard_borrows")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_report_round_trips_through_json() {
        let report = PassReport {
            setup: SetupTimes {
                generate_s: 0.25,
                partition_s: 0.5,
                total_s: 1.0,
            },
            round_ns: vec![3, 1, 2],
            cpu_ns: 77,
            peak_rss_bytes: 1 << 33,
            digest: u64::MAX - 5,
            accuracy: vec![0.5, f32::NAN],
            loss: vec![1.25, f32::INFINITY],
            failed_rounds: 1,
            wire_bytes: 10,
            upload_floats: 11,
            jobs: 12,
            samples: 13,
            epochs: 14,
            workers: 2,
            dim: 7850,
            store: StoreStats {
                materializations: 1,
                spill_writes: 2,
                spill_loads: 3,
                evictions: 4,
            },
            resident_bytes: 99,
            phases: Some(PhaseSeries {
                tick: vec![9, 9],
                phases: [vec![1], vec![2], vec![3], vec![4], vec![5]],
            }),
            shard_borrows: 6,
        };
        let text = serde_json::to_string(&report.to_json()).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = PassReport::from_json(&parsed).expect("all fields present");
        assert_eq!(back.round_ns, report.round_ns);
        assert_eq!(back.digest, report.digest);
        assert_eq!(back.peak_rss_bytes, report.peak_rss_bytes);
        assert_eq!(back.accuracy[0], 0.5);
        assert!(back.accuracy[1].is_nan());
        assert_eq!(back.loss[1], f32::INFINITY);
        assert_eq!(back.store, report.store);
        assert_eq!(back.phases.unwrap().phases[4], vec![5]);
        assert_eq!(back.setup.total_s, 1.0);
    }
}
