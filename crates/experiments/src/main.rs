//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <name> [--scale smoke|scaled|paper] [--json <path>]
//! experiments all    [--scale smoke|scaled|paper] [--json <path>]
//! experiments list
//! ```

use fedadmm_experiments::common::{ExperimentReport, Scale};
use fedadmm_experiments::{
    fig3_fig4, fig5, fig6, fig8, table2, table3, table4_fig7, table5_fig9, table6_fig10,
};
use std::io::Write;
use std::process::ExitCode;

const EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig3_fig4",
    "fig5",
    "fig6",
    "table4_fig7",
    "fig8",
    "table5_fig9",
    "table6_fig10",
];

fn run_one(name: &str, scale: Scale) -> Result<ExperimentReport, String> {
    let result = match name {
        "table2" => table2::run(scale),
        "table3" => table3::run(scale),
        "fig3_fig4" | "fig3" | "fig4" => fig3_fig4::run(scale),
        "fig5" => fig5::run(scale),
        "fig6" => fig6::run(scale),
        "table4_fig7" | "table4" | "fig7" => table4_fig7::run(scale),
        "fig8" => fig8::run(scale),
        "table5_fig9" | "table5" | "fig9" => table5_fig9::run(scale),
        "table6_fig10" | "table6" | "fig10" => table6_fig10::run(scale),
        other => {
            return Err(format!(
                "unknown experiment '{other}'; try `experiments list`"
            ))
        }
    };
    result.map_err(|e| format!("experiment '{name}' failed: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: experiments <name>|all|list [--scale smoke|scaled|paper] [--json <path>]"
        );
        return ExitCode::FAILURE;
    }
    let name = args[0].clone();
    if name == "list" {
        println!("available experiments:");
        for e in EXPERIMENTS {
            println!("  {e}");
        }
        return ExitCode::SUCCESS;
    }

    let mut scale = Scale::Scaled;
    let mut json_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                if let Some(value) = args.get(i + 1) {
                    match Scale::parse(value) {
                        Some(s) => scale = s,
                        None => {
                            eprintln!("unknown scale '{value}' (expected smoke|scaled|paper)");
                            return ExitCode::FAILURE;
                        }
                    }
                    i += 2;
                } else {
                    eprintln!("--scale requires a value");
                    return ExitCode::FAILURE;
                }
            }
            "--json" => {
                if let Some(value) = args.get(i + 1) {
                    json_path = Some(value.clone());
                    i += 2;
                } else {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let names: Vec<&str> = if name == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![name.as_str()]
    };
    // A runtime-selected kernel is part of the host fingerprint of any timing.
    println!(
        "scale: {scale:?} | gemm kernels: {}",
        fedadmm_tensor::ops::gemm_isa()
    );
    println!();
    let mut reports = Vec::new();
    for n in names {
        match run_one(n, scale) {
            Ok(report) => {
                report.print();
                println!();
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = json_path {
        let reports: Vec<_> = reports.iter().map(ExperimentReport::to_json).collect();
        let json = serde_json::to_string_pretty(&reports).expect("a value tree always serializes");
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => println!("wrote JSON results to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
