//! The one renderer: the paper's tables from the runner's results, and the
//! scorecard (`REPRODUCTION.md`) that gives every claim its verdict.

use crate::claims::{Measure, Verdict, CLAIMS, PROX_RHOS, RHO_LARGE, RHO_SMALL};
use crate::common::SUBSTRATE_RHO;
use crate::common::{format_rounds, format_speedup, render_table, ExperimentReport, Scale};
use crate::runner::{run_claim, ArmResult, SettingResult};
use fedadmm_core::metrics::{reduction_over_best_baseline, speedup};
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};
use std::fmt::Write;

/// Runs every claim of the claim report `report` at `scale` and renders it.
pub fn run_report(report: &str, scale: Scale) -> TensorResult<ExperimentReport> {
    let description = match report {
        "table3" => "Rounds to target accuracy with speedup vs FedSGD (Table III)",
        "fig3_fig4" => "Scaling with the client population (Figures 3 and 4)",
        "fig5" => {
            "Adaptability to heterogeneous data with fixed FedADMM hyperparameters (Figure 5)"
        }
        "fig6" => "Server gathering step size η sweep and mid-run decrease (Figure 6)",
        "table4_fig7" => "Rounds to target accuracy vs local epoch budget E (Table IV / Figure 7)",
        "fig8" => "Warm-start vs global-model local initialisation (Figure 8)",
        "table5_fig9" => {
            "ρ sensitivity of FedProx vs fixed-ρ FedADMM, and dynamic ρ (Table V / Figure 9)"
        }
        "table6_fig10" => "Imbalanced client data volumes (Table VI / Figure 10)",
        other => panic!("'{other}' is not a claim report"),
    };
    let claims = CLAIMS
        .iter()
        .filter(|c| report.split('_').any(|p| p == c.name));
    let results = claims.map(|claim| run_claim(claim, scale, None));
    let (rendered, data) = render_report(report, &results.collect::<TensorResult<Vec<_>>>()?);
    let (name, description) = (report.to_string(), description.to_string());
    Ok(ExperimentReport {
        name,
        description,
        rendered,
        data,
    })
}

fn names(s: &SettingResult) -> Vec<String> {
    s.arms.iter().map(|a| a.name.clone()).collect()
}

/// `first`, then `rest`: a table row or header.
fn row(first: impl Into<String>, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.into()).chain(rest).collect()
}

/// `f` of every item, as a JSON array.
fn each<T>(items: &[T], f: impl Fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(f).collect())
}

fn table(headers: &[String], rows: &[Vec<String>]) -> String {
    render_table(
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        rows,
    )
}

fn accuracy3(accuracy: f32) -> String {
    format!("{accuracy:.3}")
}

fn rounds_cell(s: &SettingResult, a: &ArmResult) -> String {
    format_rounds(a.rounds_to_target, s.setting.max_rounds)
}

/// FedADMM's (arm 1) reduction over the best of FedAvg, FedProx and
/// SCAFFOLD (arms 2–4), in percent.
fn reduction(s: &SettingResult) -> Option<f64> {
    let baselines: Vec<Option<usize>> = s.arms[2..].iter().map(|a| a.rounds_to_target).collect();
    reduction_over_best_baseline(s.arms[1].rounds_to_target, &baselines)
}

/// A Table III column or a Figure 4 row as JSON.
fn rounds_json(s: &SettingResult) -> Value {
    let rounds = each(&s.arms, |a| json!([a.name, a.rounds_to_target]));
    json!({ "label": s.setting.label(), "rounds": rounds, "reduction_percent": reduction(s) })
}

fn format_percent(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_string(), |p| format!("{p:.1}%"))
}

/// Headers `first` and the arms' names, and one row per setting: its label,
/// then `cell` of each arm.
fn per_arm_table(
    settings: &[SettingResult],
    first: &str,
    cell: impl Fn(&SettingResult, &ArmResult) -> String,
) -> String {
    let rows: Vec<_> = settings
        .iter()
        .map(|s| row(s.setting.label(), s.arms.iter().map(|a| cell(s, a))))
        .collect();
    table(&row(first, names(&settings[0])), &rows)
}

/// The text and the JSON of the claim report `report` from its claims'
/// results.
fn render_report(report: &str, results: &[Vec<SettingResult>]) -> (String, Value) {
    let first = &results[0];
    match report {
        "table3" => {
            // One row per method, one column per setting.
            let mut rows: Vec<Vec<String>> = Vec::new();
            for (i, name) in names(&first[0]).into_iter().enumerate() {
                let cell = |c: &SettingResult| {
                    let (rounds, fedsgd) = (c.arms[i].rounds_to_target, c.arms[0].rounds_to_target);
                    let gain = format!("({})", format_speedup(speedup(rounds, fedsgd)));
                    rounds_cell(c, &c.arms[i]) + if i == 0 { "" } else { &gain }
                };
                rows.push(row(name, first.iter().map(cell)));
            }
            let reductions = first.iter().map(|c| format_percent(reduction(c)));
            rows.push(row("Reduction", reductions));
            let headers = row("Method", first.iter().map(|c| c.setting.label()));
            (table(&headers, &rows), each(first, rounds_json))
        }
        "fig3_fig4" => {
            let fig4 = &results[1];
            let mut rendered =
                String::from("Figure 3 — final accuracy after the round budget, per population:\n");
            rendered.push_str(&per_arm_table(first, "Setting", |_, a| {
                format!("{}={:.3}", a.name, a.final_accuracy())
            }));
            rendered.push_str(
                "\nFigure 4 — rounds to target accuracy per population (reversed settings):\n",
            );
            let mut rows = Vec::new();
            for s in fig4 {
                let cells = s.arms.iter().map(|a| rounds_cell(s, a));
                rows.push(row(
                    s.setting.label(),
                    cells.chain([format_percent(reduction(s))]),
                ));
            }
            let mut headers = row("Setting", names(&fig4[0]));
            headers.push("Reduction".into());
            rendered.push_str(&table(&headers, &rows));
            let panels = each(first, |s| {
                let series = each(&s.arms, |a| json!([a.name, a.accuracy]));
                let (label, target) = (s.setting.label(), s.setting.target_accuracy);
                json!({ "label": label, "target_accuracy": target, "series": series })
            });
            let data = json!({ "fig3_panels": panels, "fig4": each(fig4, rounds_json) });
            (rendered, data)
        }
        "fig5" => {
            let data = each(first, |s| {
                let arms = each(&s.arms, |a| {
                    let (rounds, best) = (a.rounds_to_target, a.best_accuracy());
                    json!({ "algorithm": a.name, "rounds": rounds, "best_accuracy": best })
                });
                let (label, target) = (s.setting.label(), s.setting.target_accuracy);
                json!({ "label": label, "target": target, "results": arms })
            });
            (per_arm_table(first, "Setting", rounds_cell), data)
        }
        "fig6" => {
            let mut rows = Vec::new();
            for s in first {
                for a in &s.arms {
                    let (last, best) =
                        (accuracy3(a.final_accuracy()), accuracy3(a.best_accuracy()));
                    rows.push(vec![s.setting.label(), a.name.clone(), last, best]);
                }
            }
            let data = each(first, |s| {
                let series = each(
                    &s.arms,
                    |a| json!({ "label": a.name, "accuracy": a.accuracy }),
                );
                json!({ "setting": s.setting.label(), "series": series })
            });
            let headers = ["Setting", "Step-size rule", "Final acc", "Best acc"];
            (render_table(&headers, &rows), data)
        }
        "table4_fig7" => {
            // Table IV's settings come row by row, in growing E.
            let (mut rows, mut data, mut headers) = (Vec::new(), Vec::new(), Vec::new());
            let key = |s: &SettingResult| (s.setting.dataset, s.setting.distribution);
            for points in first.chunk_by(|a, b| key(a) == key(b)) {
                let (dataset, distribution) = key(&points[0]);
                let epochs = points.iter().map(|p| p.setting.local_epochs);
                if headers.is_empty() {
                    headers = row("Setting", epochs.clone().map(|e| format!("rounds @ E={e}")));
                }
                let cells = epochs
                    .zip(points)
                    .map(|(e, p)| format!("E={e}: {}", rounds_cell(p, &p.arms[0])));
                rows.push(row(format!("{dataset:?} {}", distribution.label()), cells));
                let points = each(points, |p| {
                    let (arm, epochs) = (&p.arms[0], p.setting.local_epochs);
                    let (rounds, best) = (arm.rounds_to_target, arm.best_accuracy());
                    json!({ "epochs": epochs, "rounds": rounds, "best_accuracy": best })
                });
                let (dataset, distribution) = (format!("{dataset:?}"), distribution.label());
                data.push(json!({
                    "dataset": dataset, "distribution": distribution, "points": points,
                }));
            }
            (table(&headers, &rows), json!(data))
        }
        "fig8" => {
            let s = &first[0];
            let (mut rows, mut series) = (Vec::new(), Vec::new());
            for a in &s.arms {
                let (init, eta) = a.name.split_once(", ").expect("arm names are `init, eta`");
                let (last, best) = (accuracy3(a.final_accuracy()), accuracy3(a.best_accuracy()));
                rows.push(vec![init.to_string(), eta.to_string(), last, best]);
                series.push(json!({ "init": init, "eta": eta, "accuracy": a.accuracy }));
            }
            let headers = ["Initialisation", "Server step", "Final acc", "Best acc"];
            let data = json!({ "setting": s.setting.label(), "series": series });
            (render_table(&headers, &rows), data)
        }
        "table5_fig9" => {
            let fig9 = &results[1][0];
            let table5 = each(first, |s| {
                let prox: Vec<_> = PROX_RHOS.iter().zip(&s.arms[1..]).collect();
                let prox = each(
                    &prox,
                    |(rho, a)| json!({ "rho": rho, "rounds": a.rounds_to_target }),
                );
                json!({
                    "label": s.setting.label(),
                    "fedadmm_fixed_rho": SUBSTRATE_RHO,
                    "fedadmm_rounds": s.arms[0].rounds_to_target,
                    "fedprox": prox,
                })
            });
            let mut rendered = per_arm_table(first, "Setting", rounds_cell);
            rendered.push_str("\nFigure 9 — dynamic ρ for FedADMM (final accuracy):\n");
            let final_row = |a: &ArmResult| vec![a.name.clone(), accuracy3(a.final_accuracy())];
            let rows: Vec<_> = fig9.arms.iter().map(final_row).collect();
            rendered.push_str(&render_table(&["rho schedule", "final acc"], &rows));
            let series = |i: usize| &fig9.arms[i].accuracy;
            let data = json!({
                "table5": table5,
                "fig9": {
                    "setting": fig9.setting.label(),
                    "rho_small_fixed": series(0),
                    "rho_large_fixed": series(1),
                    "dynamic": series(2),
                    "rho_small": RHO_SMALL,
                    "rho_large": RHO_LARGE,
                    "switch_round": fig9.setting.max_rounds / 2,
                }
            });
            (rendered, data)
        }
        "table6_fig10" => {
            let (mut stat_rows, mut fig10_rows, mut data) = (Vec::new(), Vec::new(), Vec::new());
            for s in first {
                let (setting, dataset) = (&s.setting, format!("{:?}", s.setting.dataset));
                // Table VI: per-client volume statistics of the partition.
                let (train, _) = setting.generate_data();
                let (clients, samples) = (setting.num_clients, train.len());
                let partition = setting
                    .distribution
                    .partition(&train, clients, setting.seed);
                let (mean, stdev) = partition.size_stats();
                let (mean_cell, stdev_cell) = (format!("{mean:.1}"), format!("{stdev:.2}"));
                let stats = [
                    clients.to_string(),
                    samples.to_string(),
                    mean_cell,
                    stdev_cell,
                ];
                stat_rows.push(row(dataset.clone(), stats));
                let best = s.arms.iter().map(|a| accuracy3(a.best_accuracy()));
                fig10_rows.push(row(dataset.clone(), best));
                let accuracy = each(&s.arms, |a| {
                    let (last, best) = (a.final_accuracy(), a.best_accuracy());
                    json!({ "algorithm": a.name, "final": last, "best": best })
                });
                data.push(json!({
                    "dataset": dataset, "clients": clients, "samples": samples,
                    "mean": mean, "stdev": stdev, "accuracy": accuracy,
                }));
            }
            let mut rendered = String::from("Table VI — imbalanced partition statistics:\n");
            let stat_headers = ["Dataset", "Clients", "Samples", "Mean", "Stdev"];
            rendered.push_str(&render_table(&stat_headers, &stat_rows));
            rendered.push_str("\nFigure 10 — best accuracy within the round budget:\n");
            rendered.push_str(&table(&row("Dataset", names(&first[0])), &fig10_rows));
            (rendered, json!(data))
        }
        _ => unreachable!("run_report names every claim report"),
    }
}

/// The scorecard's round budget: the paper's 100 rounds, for every claim.
pub const SCORECARD_BUDGET: usize = 100;
/// Where the scorecard is written, in the working directory.
pub const SCORECARD_PATH: &str = "REPRODUCTION.md";
/// Where its wall-clock times are written; CI does not compare this file.
pub const TIMING_PATH: &str = "REPRODUCTION-timing.md";

/// A Markdown table row of `cells`.
fn md_row(cells: impl IntoIterator<Item = String>) -> String {
    let cells: Vec<String> = cells.into_iter().map(|c| c.replace('|', "\\|")).collect();
    format!("| {} |\n", cells.join(" | "))
}

/// Every claim at `scaled` with the [`SCORECARD_BUDGET`]: the
/// deterministic body of [`SCORECARD_PATH`], and the wall-clock times for
/// [`TIMING_PATH`] after `timing_header`.
pub fn scorecard(timing_header: &str) -> TensorResult<(String, String)> {
    let mut body = format!(
        "# Reproduction scorecard\n\n\
         Generated by `experiments scorecard`; do not edit. Every claim ran at \
         `--scale scaled` (synthetic stand-in data, a 32-unit MLP; see the README) \
         with the paper's {SCORECARD_BUDGET}-round budget. A cell gives an arm's \
         rounds to the target accuracy (`{SCORECARD_BUDGET}+`: not reached) and, in \
         brackets, the local epochs its clients ran; a claim measured by accuracy \
         leads with it. A verdict is *holds* (every decided comparison goes the \
         paper's way), *reversed* (every one goes the other way), *mixed*, \
         *inconclusive* (every compared arm missed the target) or *diverged* (a \
         compared arm's global model went non-finite). CI regenerates this file and \
         fails on any difference; wall-clock times are in `{TIMING_PATH}`.\n\n\
         | Artefact | Claim | Verdict |\n|---|---|---|\n"
    );
    let mut sections = String::new();
    let mut timing = format!("{timing_header}\n| Claim | Setting | Arm | Seconds to target |\n");
    timing.push_str("|---|---|---|---|\n");
    for claim in &CLAIMS {
        let results = run_claim(claim, Scale::Scaled, Some(SCORECARD_BUDGET))?;
        let verdict_of = |v: Option<Verdict>| v.map_or("-".to_string(), |v| v.to_string());
        let verdict = verdict_of(claim.verdict(&results));
        println!("{:<22} {verdict}", claim.artefact);
        let (artefact, name) = (claim.artefact, claim.name);
        let link = format!("[{artefact}](#{name})");
        body += &md_row([link, claim.claim.to_string(), format!("**{verdict}**")]);
        let names = names(&results[0]);
        let (quote, rule) = (claim.claim, claim.describe_rule(&names));
        let heading = format!("## {artefact} <a id=\"{name}\"></a>");
        let _ = write!(sections, "\n{heading}\n\n> {quote}\n\nRule: {rule}.\n\n");
        let columns = names.len() + 2;
        sections += &md_row(row(
            "Setting",
            names.into_iter().chain(["Seed".into(), "Verdict".into()]),
        ));
        sections += &format!("|---|{}\n", "---|".repeat(columns));
        for (i, s) in results.iter().enumerate() {
            let cells = s.arms.iter().map(|a| {
                let mut text = format!("{} ({})", rounds_cell(s, a), a.local_epochs);
                if claim.measure != Measure::RoundsToTarget {
                    text = format!("{:.3}; {text}", claim.accuracy(a));
                }
                match a.diverged_at {
                    Some(rounds) => format!("diverged after {rounds} rounds; {text}"),
                    None => text,
                }
            });
            let end = [
                s.setting.seed.to_string(),
                verdict_of(Verdict::combine(claim.comparisons(&results, i))),
            ];
            let label = format!("{}, E={}", s.setting.label(), s.setting.local_epochs);
            sections += &md_row(row(label, cells.chain(end)));
            for a in &s.arms {
                let to_target = a
                    .seconds_to_target
                    .map_or("-".into(), |t| format!("{t:.2}"));
                timing += &md_row([
                    artefact.into(),
                    s.setting.label(),
                    a.name.clone(),
                    to_target,
                ]);
            }
        }
        sections += &format!("\n**Verdict: {verdict}.**\n");
    }
    Ok((body + &sections, timing))
}
