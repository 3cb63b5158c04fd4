//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! fedadmm-benchmark --workload W --seed N --seconds S --trace 0|1   (the driver's call)
//! fedadmm-benchmark list [--json]
//! fedadmm-benchmark run   [--seed N] [--workload W] [--seconds S] [--out FILE]
//! fedadmm-benchmark trace [--seed N] [--workload W] [--out DIR]
//! fedadmm-benchmark check A.json B.json
//! ```

mod check;
mod host;
mod orchestrate;
mod pass;
mod probes;
mod report;
mod spec;
mod stats;
mod traced_sync;
mod workloads;

use orchestrate::{Runner, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const DEFAULT_SEED: u64 = 42;

/// `--flag value` pairs after the subcommand, plus bare positionals.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(flag) if allowed.contains(&flag) => {
                    // `--json` is the one switch without a value.
                    let value = if flag == "json" {
                        String::new()
                    } else {
                        iter.next()
                            .ok_or_else(|| format!("--{flag} needs a value"))?
                            .clone()
                    };
                    args.flags.push((flag.to_string(), value));
                }
                Some(flag) => return Err(format!("unknown option --{flag}")),
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{flag}: `{text}` is not a valid number")),
            None => Ok(default),
        }
    }

    /// The workloads `--workload` selects: one by name, or all.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get("workload") {
            Some(name) => workloads::by_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}` (see `list`)")),
            None => Ok(workloads::all()),
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn pretty(value: &serde_json::Value) -> String {
    serde_json::to_string_pretty(value).expect("a value tree always serializes") + "\n"
}

/// The `run` subcommand and `--trace 0`: the end-to-end metrics.
fn measure(
    selected: &[Workload],
    seed: u64,
    seconds: f64,
) -> Result<Vec<(Workload, Summary)>, String> {
    let mut runner = Runner::new()?;
    let passes = orchestrate::measure(&mut runner, selected, seed, seconds);
    Ok(selected
        .iter()
        .zip(&passes)
        .map(|(w, p)| (w.clone(), orchestrate::summarize(w, p)))
        .collect())
}

/// The `trace` subcommand and `--trace 1`: the per-layer metrics. Span
/// logs go to `<out>/<workload>.spans.jsonl` when `out` is given.
fn trace(
    selected: &[Workload],
    seed: u64,
    out: Option<&Path>,
) -> Result<Vec<(Workload, Summary)>, String> {
    let mut runner = Runner::new()?;
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    selected
        .iter()
        .map(|w| {
            let spans = out.map(|dir| dir.join(format!("{}.spans.jsonl", w.name)));
            Ok((w.clone(), orchestrate::trace(&mut runner, w, seed, spans)?))
        })
        .collect()
}

fn all_correct(entries: &[(Workload, Summary)]) -> bool {
    entries.iter().all(|(_, summary)| summary.correct)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let command = argv.first().map(String::as_str).unwrap_or("");
    match command {
        "list" => {
            let args = Args::parse(&argv[1..], &["json"])?;
            if args.get("json").is_some() {
                print!("{}", pretty(&spec::benchmark_json()));
            } else {
                print!("{}", spec::list_text());
            }
            Ok(true)
        }
        "run" => {
            let args = Args::parse(&argv[1..], &["seed", "workload", "seconds", "out"])?;
            let seed = args.number("seed", DEFAULT_SEED)?;
            let seconds = args.number("seconds", spec::RUN_SECONDS as f64)?;
            let host = host::fingerprint();
            let entries = measure(&args.workloads()?, seed, seconds)?;
            for (workload, summary) in &entries {
                report::print_summary(workload, summary, &mut std::io::stdout());
            }
            if let Some(out) = args.get("out") {
                let file = report::result_file("run", seed, host, &entries);
                write_file(Path::new(out), &pretty(&file))?;
            }
            Ok(all_correct(&entries))
        }
        "trace" => {
            let args = Args::parse(&argv[1..], &["seed", "workload", "out"])?;
            let seed = args.number("seed", DEFAULT_SEED)?;
            let out = args.get("out").map(PathBuf::from);
            let host = host::fingerprint();
            let entries = trace(&args.workloads()?, seed, out.as_deref())?;
            for (workload, summary) in &entries {
                report::print_summary(workload, summary, &mut std::io::stdout());
            }
            if let Some(dir) = &out {
                let file = report::result_file("trace", seed, host, &entries);
                write_file(&dir.join("per-layer.json"), &pretty(&file))?;
            }
            Ok(all_correct(&entries))
        }
        "check" => {
            let args = Args::parse(&argv[1..], &[])?;
            match &args.positional[..] {
                [a, b] => check::run(a, b),
                _ => Err("usage: check A.json B.json".to_string()),
            }
        }
        // One pass, in a child of the orchestrator (not for direct use).
        "pass" => {
            let args = Args::parse(
                &argv[1..],
                &["workload", "seed", "variant", "spill-dir", "spans-out"],
            )?;
            let workload = args.workloads()?.remove(0);
            let variant = args
                .get("variant")
                .and_then(pass::Variant::parse)
                .ok_or("pass: --variant is missing or unknown")?;
            let spill_dir = args
                .get("spill-dir")
                .ok_or("pass: --spill-dir is missing")?;
            let report = pass::run(
                &workload,
                args.number("seed", DEFAULT_SEED)?,
                variant,
                Path::new(spill_dir),
                args.get("spans-out").map(Path::new),
            )?;
            println!(
                "{}",
                serde_json::to_string(&report.to_json()).expect("a value tree always serializes")
            );
            Ok(report.failed_rounds == 0)
        }
        // The benchmark contract's call: one workload, one JSON line.
        _ => {
            let args = Args::parse(argv, &["workload", "seed", "seconds", "trace"])?;
            let workload = match args.get("workload") {
                Some(_) => args.workloads()?,
                None => return Err("usage: --workload W --seed N --seconds S --trace 0|1 (or list | run | trace | check)".to_string()),
            };
            let seed = args.number("seed", DEFAULT_SEED)?;
            let seconds = args.number("seconds", spec::RUN_SECONDS as f64)?;
            let entries = match args.get("trace") {
                None | Some("0") => measure(&workload, seed, seconds)?,
                Some("1") => trace(&workload, seed, None)?,
                Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            };
            let (workload, summary) = &entries[0];
            report::print_summary(workload, summary, &mut std::io::stderr());
            // A printed result is a completed run; `correct` travels in it.
            println!("{}", report::driver_line(summary));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    // The program under test runs on its defaults: no `FEDADMM_*` override
    // reaches it, here or in the child passes (which inherit this
    // environment). Done first, before any thread exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("FEDADMM_") {
            std::env::remove_var(&name);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
    }
}
