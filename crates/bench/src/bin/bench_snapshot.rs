//! CLI for the `BENCH_*.json` perf-snapshot harness (see
//! [`fedadmm_bench::snapshot`]).
//!
//! ```text
//! bench-snapshot [--scale smoke|medium|scaled] [--rounds N] [--out DIR]
//! bench-snapshot --validate FILE
//! bench-snapshot --diff A.json B.json
//! ```

use fedadmm_bench::snapshot::{
    build_snapshot, diff_snapshots, repo_root, rounds_for, snapshot_filename, validate_snapshot,
};
use fedadmm_experiments::common::Scale;
use serde_json::Value;
use std::process::ExitCode;

fn read_snapshot(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_scale(s: &str) -> Option<Scale> {
    // `medium` is the documented CI alias for the minutes-scale config.
    if s.eq_ignore_ascii_case("medium") {
        return Some(Scale::Scaled);
    }
    Scale::parse(s)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-snapshot [--scale smoke|medium|scaled] [--rounds N] [--out DIR]\n\
         \x20      bench-snapshot --validate FILE\n\
         \x20      bench-snapshot --diff A.json B.json"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Smoke;
    let mut rounds: Option<usize> = None;
    let mut out_dir = repo_root();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--validate" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                return match read_snapshot(path)
                    .and_then(|s| validate_snapshot(&s).map_err(|e| format!("{path}: {e}")))
                {
                    Ok(()) => {
                        println!(
                            "{path}: valid (schema v{})",
                            fedadmm_bench::snapshot::SCHEMA_VERSION
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("invalid snapshot: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "--diff" => {
                let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage();
                };
                return match (read_snapshot(a), read_snapshot(b)) {
                    (Ok(a), Ok(b)) => {
                        print!("{}", diff_snapshots(&a, &b));
                        ExitCode::SUCCESS
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "--scale" => {
                let Some(value) = args.get(i + 1).and_then(|s| parse_scale(s)) else {
                    return usage();
                };
                scale = value;
                i += 2;
            }
            "--rounds" => {
                let Some(value) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                rounds = Some(value);
                i += 2;
            }
            "--out" => {
                let Some(dir) = args.get(i + 1) else {
                    return usage();
                };
                out_dir = std::path::PathBuf::from(dir);
                i += 2;
            }
            _ => return usage(),
        }
    }

    // Before the run, not after it: a snapshot takes minutes and must not be
    // lost to a missing directory.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let rounds = rounds.unwrap_or_else(|| rounds_for(scale));
    eprintln!("running {scale:?} snapshot ({rounds} rounds per scenario)...");
    let snapshot = match build_snapshot(scale, rounds) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snapshot run failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_snapshot(&snapshot) {
        eprintln!("generated snapshot fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(snapshot_filename(&snapshot));
    let text = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if let Some(scenarios) = snapshot["scenarios"].as_array() {
        for s in scenarios {
            println!(
                "  {:24} {:8.2} rounds/s  {:>12} bytes  staleness p99 {:.1}",
                s["name"].as_str().unwrap_or("?"),
                s["rounds_per_sec"].as_f64().unwrap_or(0.0),
                s["bytes_moved"].as_u64().unwrap_or(0),
                s["staleness"]["p99"].as_f64().unwrap_or(0.0),
            );
        }
    }
    println!(
        "  overhead: recorder {:+.2}% (noise floor {:+.2}%)",
        snapshot["overhead"]["recorder_pct"].as_f64().unwrap_or(0.0),
        snapshot["overhead"]["noop_rerun_pct"]
            .as_f64()
            .unwrap_or(0.0),
    );
    ExitCode::SUCCESS
}
