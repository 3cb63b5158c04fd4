//! Figures 3 and 4 — behaviour as the client population grows.
//!
//! Figure 3 plots convergence paths (test accuracy per round) for FMNIST
//! (IID) and CIFAR-10 (non-IID) at 100, 500 and 1,000 clients, with
//! hyperparameters tuned once at the 100-client scale and then frozen; the
//! paper's conclusion is that FedADMM's lead *grows* with the population.
//! Figure 4 reports the complementary rounds-to-target numbers for the
//! reversed settings (FMNIST non-IID, CIFAR-10 IID) together with the
//! reduction over the best baseline.

use crate::common::{
    distinct, format_rounds, render_table, table3_suite, ExperimentReport, Scale, Setting,
};
use fedadmm_core::metrics::reduction_over_best_baseline;
use fedadmm_core::prelude::DataDistribution;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};

/// The client populations swept by Figures 3 and 4 (the paper's values; the
/// scaled/smoke configurations shrink them through [`Setting::for_dataset`]).
pub const PAPER_POPULATIONS: [usize; 3] = [100, 500, 1000];

/// Figure 3's panels: FMNIST IID and CIFAR-10 non-IID.
pub(crate) const FIG3: [(SyntheticDataset, DataDistribution); 2] = [
    (SyntheticDataset::Fmnist, DataDistribution::Iid),
    (SyntheticDataset::Cifar10, DataDistribution::NonIidShards),
];

/// Figure 4's reversed settings: FMNIST non-IID and CIFAR-10 IID.
pub(crate) const FIG4: [(SyntheticDataset, DataDistribution); 2] = [
    (SyntheticDataset::Fmnist, DataDistribution::NonIidShards),
    (SyntheticDataset::Cifar10, DataDistribution::Iid),
];

/// One figure's settings at `scale`: `figure`'s pairs at every population
/// of [`PAPER_POPULATIONS`], population by population. A setting the scale
/// makes equal to an earlier one is dropped.
pub(crate) fn population_settings(
    figure: [(SyntheticDataset, DataDistribution); 2],
    scale: Scale,
) -> Vec<Setting> {
    distinct(PAPER_POPULATIONS.into_iter().flat_map(|population| {
        figure.map(|(dataset, distribution)| {
            Setting::for_dataset(dataset, distribution, population, scale)
        })
    }))
}

/// Accuracy-per-round series for every algorithm under one setting
/// (one panel of Figure 3).
#[derive(Debug, Clone)]
pub struct ConvergencePanel {
    /// Panel label, e.g. "Fmnist (50 clients) IID".
    pub label: String,
    /// Target accuracy shown as the dashed line in the paper's plots.
    pub target_accuracy: f32,
    /// Accuracy series per algorithm.
    pub series: Vec<(String, Vec<f32>)>,
}

/// Runs one convergence panel for `rounds` rounds.
pub fn run_panel(setting: &Setting, rounds: usize) -> TensorResult<ConvergencePanel> {
    let mut series = Vec::new();
    for (name, algorithm) in table3_suite(setting) {
        let history = setting.run_rounds(algorithm, rounds)?;
        series.push((name.to_string(), history.accuracy_series()));
    }
    Ok(ConvergencePanel {
        label: setting.label(),
        target_accuracy: setting.target_accuracy,
        series,
    })
}

/// Regenerates Figure 3 (convergence paths across populations) and Figure 4
/// (rounds-to-target across populations, reversed settings).
pub fn run(scale: Scale) -> TensorResult<ExperimentReport> {
    let rounds = match scale {
        Scale::Smoke => 8,
        Scale::Scaled => 30,
        Scale::Paper => 100,
    };
    // Figure 3 panels: FMNIST IID and CIFAR-10 non-IID across populations.
    let mut panels = Vec::new();
    for setting in population_settings(FIG3, scale) {
        panels.push(run_panel(&setting, rounds)?);
    }

    // Figure 4: rounds-to-target for the reversed settings, plus reduction.
    let mut fig4_rows = Vec::new();
    let mut fig4_data = Vec::new();
    for setting in population_settings(FIG4, scale) {
        let mut rounds_per_alg = Vec::new();
        for (name, algorithm) in table3_suite(&setting) {
            let (r, _) = setting.run_to_target(algorithm)?;
            rounds_per_alg.push((name.to_string(), r));
        }
        let fedadmm = rounds_per_alg
            .iter()
            .find(|(n, _)| n == "FedADMM")
            .and_then(|(_, r)| *r);
        let baselines: Vec<Option<usize>> = rounds_per_alg
            .iter()
            .filter(|(n, _)| n != "FedADMM" && n != "FedSGD")
            .map(|(_, r)| *r)
            .collect();
        let reduction = reduction_over_best_baseline(fedadmm, &baselines);
        let mut row = vec![setting.label()];
        for (_, r) in &rounds_per_alg {
            row.push(format_rounds(*r, setting.max_rounds));
        }
        row.push(
            reduction
                .map(|p| format!("{p:.1}%"))
                .unwrap_or_else(|| "-".to_string()),
        );
        fig4_rows.push(row);
        fig4_data.push(json!({
            "label": setting.label(),
            "rounds": rounds_per_alg,
            "reduction_percent": reduction,
        }));
    }

    let mut rendered =
        String::from("Figure 3 — final accuracy after the round budget, per population:\n");
    let mut fig3_rows = Vec::new();
    for panel in &panels {
        let mut row = vec![panel.label.clone()];
        for (name, series) in &panel.series {
            row.push(format!(
                "{}={:.3}",
                name,
                series.last().copied().unwrap_or(0.0)
            ));
        }
        fig3_rows.push(row);
    }
    rendered.push_str(&render_table(
        &[
            "Setting", "FedSGD", "FedADMM", "FedAvg", "FedProx", "SCAFFOLD",
        ],
        &fig3_rows,
    ));
    rendered
        .push_str("\nFigure 4 — rounds to target accuracy per population (reversed settings):\n");
    rendered.push_str(&render_table(
        &[
            "Setting",
            "FedSGD",
            "FedADMM",
            "FedAvg",
            "FedProx",
            "SCAFFOLD",
            "Reduction",
        ],
        &fig4_rows,
    ));

    let panels: Vec<Value> = panels
        .iter()
        .map(|p| {
            json!({
                "label": p.label,
                "target_accuracy": p.target_accuracy,
                "series": p.series,
            })
        })
        .collect();
    Ok(ExperimentReport {
        name: "fig3_fig4".to_string(),
        description: "Scaling with the client population (Figures 3 and 4)".to_string(),
        rendered,
        data: json!({ "fig3_panels": panels, "fig4": fig4_data }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_produces_series_for_every_algorithm() {
        let setting = Setting::for_dataset(
            SyntheticDataset::Fmnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let panel = run_panel(&setting, 3).unwrap();
        assert_eq!(panel.series.len(), 5);
        for (_, series) in &panel.series {
            assert_eq!(series.len(), 3);
        }
    }
}
