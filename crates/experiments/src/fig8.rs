//! Figure 8 — local-training initialisation: warm start (`w_i`) vs the
//! global model (`θ`).
//!
//! The paper compares initialising each selected client's local SGD from
//! its stored local model (option I, warm start) against re-initialising
//! from the downloaded global model (option II), across server step sizes.
//! Warm starting wins in every case, which is the paper's argument for
//! clients storing `w_i` between rounds.

use crate::common::{render_table, ExperimentReport, Scale, Setting};
use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};

/// One accuracy series for an initialisation / step-size combination.
#[derive(Debug, Clone)]
pub struct InitSeries {
    /// "I (warm start)" or "II (global model)".
    pub init: String,
    /// Server step-size rule.
    pub eta: String,
    /// Accuracy per round.
    pub accuracy: Vec<f32>,
}

/// Runs FedADMM with the given initialisation and step size.
pub fn run_variant(
    setting: &Setting,
    init: LocalInit,
    step: ServerStepSize,
    rounds: usize,
) -> TensorResult<InitSeries> {
    let algorithm = FedAdmm::new(crate::common::SUBSTRATE_RHO, step).with_local_init(init);
    let history = setting.run_rounds(Box::new(algorithm), rounds)?;
    Ok(InitSeries {
        init: match init {
            LocalInit::LocalModel => "I (warm start w_i)".to_string(),
            LocalInit::GlobalModel => "II (global model θ)".to_string(),
        },
        eta: match step {
            ServerStepSize::Constant(eta) => format!("eta={eta}"),
            ServerStepSize::ParticipationRatio => "eta=|S|/m".to_string(),
        },
        accuracy: history.accuracy_series(),
    })
}

/// Regenerates Figure 8.
pub fn run(scale: Scale) -> TensorResult<ExperimentReport> {
    let rounds = match scale {
        Scale::Smoke => 8,
        Scale::Scaled => 40,
        Scale::Paper => 100,
    };
    let setting = Setting::for_dataset(
        SyntheticDataset::Fmnist,
        DataDistribution::NonIidShards,
        100,
        scale,
    );
    let steps = [
        ServerStepSize::Constant(1.0),
        ServerStepSize::ParticipationRatio,
    ];
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for step in steps {
        for init in [LocalInit::LocalModel, LocalInit::GlobalModel] {
            let s = run_variant(&setting, init, step, rounds)?;
            rows.push(vec![
                s.init.clone(),
                s.eta.clone(),
                format!("{:.3}", s.accuracy.last().copied().unwrap_or(0.0)),
                format!("{:.3}", s.accuracy.iter().copied().fold(0.0f32, f32::max)),
            ]);
            series.push(s);
        }
    }
    let series: Vec<Value> = series
        .iter()
        .map(|s| json!({ "init": s.init, "eta": s.eta, "accuracy": s.accuracy }))
        .collect();
    let rendered = render_table(
        &["Initialisation", "Server step", "Final acc", "Best acc"],
        &rows,
    );
    Ok(ExperimentReport {
        name: "fig8".to_string(),
        description: "Warm-start vs global-model local initialisation (Figure 8)".to_string(),
        rendered,
        data: json!({ "setting": setting.label(), "series": series }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_produce_series() {
        let setting = Setting::for_dataset(
            SyntheticDataset::Fmnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let warm = run_variant(
            &setting,
            LocalInit::LocalModel,
            ServerStepSize::Constant(1.0),
            3,
        )
        .unwrap();
        let cold = run_variant(
            &setting,
            LocalInit::GlobalModel,
            ServerStepSize::Constant(1.0),
            3,
        )
        .unwrap();
        assert_eq!(warm.accuracy.len(), 3);
        assert_eq!(cold.accuracy.len(), 3);
        assert!(warm.init.contains("warm start"));
        assert!(cold.init.contains("global model"));
    }
}
