//! The `experiments` binary: regenerates the paper's tables and figures,
//! and writes the reproduction scorecard.
//!
//! ```text
//! experiments <name> [--scale smoke|scaled|paper] [--json <path>]
//! experiments all    [--scale smoke|scaled|paper] [--json <path>]
//! experiments scorecard
//! experiments list
//! ```

use fedadmm_experiments::claims::{report_named, reports};
use fedadmm_experiments::common::Scale;
use fedadmm_experiments::render::{run_report, scorecard, SCORECARD_PATH, TIMING_PATH};
use fedadmm_experiments::table2;
use fedadmm_tensor::dispatch::DispatchConfig;
use std::process::ExitCode;

/// The first line of `path` that starts with `key`, after its `:` if any.
fn first_line(path: &str, key: &str) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let line = text
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or("unknown");
    line.rsplit(':').next().unwrap_or(line).trim().to_string()
}

/// Runs the scorecard and writes it, with its timings beside it.
fn write_scorecard() -> Result<(), String> {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output();
    let commit = git.map_or(Vec::new(), |o| o.stdout);
    let host = [
        format!("host: {}", first_line("/proc/sys/kernel/hostname", "")),
        format!("CPU: {}", first_line("/proc/cpuinfo", "model name")),
        format!(
            "dispatch workers: {}",
            DispatchConfig::default().resolved_workers()
        ),
        format!("GEMM kernels: {}", fedadmm_tensor::ops::gemm_isa()),
        format!("commit: {}", String::from_utf8_lossy(&commit).trim()),
    ];
    let header = format!(
        "# Scorecard timings\n\nWall-clock seconds of each arm of `{SCORECARD_PATH}` from its \
         first round to its target. They depend on the host and are not compared.\n\n- {}\n",
        host.join("\n- ")
    );
    let (body, timing) = scorecard(&header).map_err(|e| format!("scorecard failed: {e}"))?;
    for (path, text) in [(SCORECARD_PATH, body), (TIMING_PATH, timing)] {
        std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or(
        "usage: experiments <name>|all|list|scorecard [--scale smoke|scaled|paper] [--json <path>]",
    )?;
    match name.as_str() {
        "list" => {
            println!("available experiments:");
            reports()
                .chain(["scorecard"])
                .for_each(|e| println!("  {e}"));
            return Ok(());
        }
        "scorecard" => return write_scorecard(),
        _ => {}
    }
    let (mut scale, mut json_path) = (Scale::Scaled, None);
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        match (flag.as_str(), flags.next()) {
            ("--scale", Some(value)) => {
                let unknown = || format!("unknown scale '{value}' (expected smoke|scaled|paper)");
                scale = Scale::parse(value).ok_or_else(unknown)?;
            }
            ("--json", Some(path)) => json_path = Some(path),
            ("--scale", None) => return Err("--scale requires a value".into()),
            ("--json", None) => return Err("--json requires a path".into()),
            (other, _) => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names: Vec<&str> = match name.as_str() {
        "all" => reports().collect(),
        one => vec![one],
    };
    // The runtime-selected GEMM instantiation (avx512 / avx2 / baseline) is
    // part of the host fingerprint of any timing.
    let isa = fedadmm_tensor::ops::gemm_isa();
    println!("scale: {scale:?} | gemm kernels: {isa}\n");
    let mut reports = Vec::new();
    for n in names {
        let unknown = || format!("unknown experiment '{n}'; try `experiments list`");
        let report = match report_named(n).ok_or_else(unknown)? {
            "table2" => table2::run(scale),
            claims => run_report(claims, scale),
        };
        let report = report.map_err(|e| format!("experiment '{n}' failed: {e}"))?;
        report.print();
        println!();
        reports.push(report.to_json());
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&reports).expect("a value tree always serializes");
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote JSON results to {path}");
    }
    Ok(())
}
