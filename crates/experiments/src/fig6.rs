//! Figure 6 — the effect of the server gathering step size η.
//!
//! The paper runs FedADMM with η ∈ {0.5, 1.0, 1.5} on a 100-client system
//! (IID and non-IID) and additionally shows that *decreasing* η at a later
//! stage of training (round 60) improves the final accuracy by incorporating
//! past information more cautiously. The observations: η = 1 is consistently
//! good, η = 1.5 stalls under non-IID data, and a late decrease helps.

use crate::common::{render_table, ExperimentReport, Scale, Setting};
use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};

/// The η values swept by Figure 6.
pub const ETAS: [f32; 3] = [0.5, 1.0, 1.5];

/// One accuracy series for a fixed η (or an η schedule).
#[derive(Debug, Clone)]
pub struct EtaSeries {
    /// Description of the step-size rule ("eta=1.0", "eta=1.5->0.5@30"…).
    pub label: String,
    /// Test accuracy per round.
    pub accuracy: Vec<f32>,
}

/// Runs FedADMM with a fixed η for `rounds` rounds.
pub fn run_fixed_eta(setting: &Setting, eta: f32, rounds: usize) -> TensorResult<EtaSeries> {
    let algorithm = FedAdmm::new(crate::common::SUBSTRATE_RHO, ServerStepSize::Constant(eta));
    let history = setting.run_rounds(Box::new(algorithm), rounds)?;
    Ok(EtaSeries {
        label: format!("eta={eta}"),
        accuracy: history.accuracy_series(),
    })
}

/// Runs FedADMM with η switched from `eta_before` to `eta_after` at
/// `switch_round` (the paper switches at round 60 of 100).
pub fn run_eta_schedule(
    setting: &Setting,
    eta_before: f32,
    eta_after: f32,
    switch_round: usize,
    rounds: usize,
) -> TensorResult<EtaSeries> {
    let mut sim = setting.build_sim(FedAdmm::new(
        crate::common::SUBSTRATE_RHO,
        ServerStepSize::Constant(eta_before),
    ))?;
    sim.run_rounds(switch_round.min(rounds))?;
    sim.algorithm_mut()
        .set_server_step(ServerStepSize::Constant(eta_after));
    if rounds > switch_round {
        sim.run_rounds(rounds - switch_round)?;
    }
    Ok(EtaSeries {
        label: format!("eta={eta_before}->{eta_after}@{switch_round}"),
        accuracy: sim.into_history().accuracy_series(),
    })
}

/// Regenerates Figure 6.
pub fn run(scale: Scale) -> TensorResult<ExperimentReport> {
    let rounds = match scale {
        Scale::Smoke => 8,
        Scale::Scaled => 40,
        Scale::Paper => 100,
    };
    let switch_round = (rounds * 3) / 5; // the paper switches at 60/100.
    let mut panels = Vec::new();
    let mut rows = Vec::new();
    for distribution in [DataDistribution::Iid, DataDistribution::NonIidShards] {
        let setting = Setting::for_dataset(SyntheticDataset::Fmnist, distribution, 100, scale);
        let mut series = Vec::new();
        for eta in ETAS {
            series.push(run_fixed_eta(&setting, eta, rounds)?);
        }
        series.push(run_eta_schedule(&setting, 1.5, 0.5, switch_round, rounds)?);
        series.push(run_eta_schedule(&setting, 1.0, 0.5, switch_round, rounds)?);
        for s in &series {
            rows.push(vec![
                setting.label(),
                s.label.clone(),
                format!("{:.3}", s.accuracy.last().copied().unwrap_or(0.0)),
                format!("{:.3}", s.accuracy.iter().copied().fold(0.0f32, f32::max)),
            ]);
        }
        let series: Vec<Value> = series
            .iter()
            .map(|s| json!({ "label": s.label, "accuracy": s.accuracy }))
            .collect();
        panels.push(json!({ "setting": setting.label(), "series": series }));
    }
    let rendered = render_table(
        &["Setting", "Step-size rule", "Final acc", "Best acc"],
        &rows,
    );
    Ok(ExperimentReport {
        name: "fig6".to_string(),
        description: "Server gathering step size η sweep and mid-run decrease (Figure 6)"
            .to_string(),
        rendered,
        data: json!(panels),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_schedule_switches_mid_run() {
        let setting = Setting::for_dataset(
            SyntheticDataset::Fmnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let series = run_eta_schedule(&setting, 1.5, 0.5, 2, 4).unwrap();
        assert_eq!(series.accuracy.len(), 4);
        assert!(series.label.contains("1.5->0.5"));
    }

    #[test]
    fn fixed_eta_produces_full_series() {
        let setting = Setting::for_dataset(
            SyntheticDataset::Fmnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let series = run_fixed_eta(&setting, 1.0, 3).unwrap();
        assert_eq!(series.accuracy.len(), 3);
    }
}
