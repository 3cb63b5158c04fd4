//! Table V and Figure 9 — sensitivity to the proximal coefficient ρ.
//!
//! Table V compares FedProx with ρ ∈ {0.01, 0.1, 1} against FedADMM with a
//! single fixed ρ (0.01 in the paper; the substrate-calibrated
//! [`SUBSTRATE_RHO`] here), on MNIST and FMNIST with 200 and 500 clients
//! (IID and non-IID). The paper's finding: FedProx's best ρ changes across
//! settings (and its performance in ρ is not monotone), while FedADMM with
//! a constant ρ dominates every tested FedProx instance. Figure 9 adds a
//! dynamic ρ schedule for FedADMM (small ρ early, larger ρ later).

use crate::common::{
    distinct, format_rounds, render_table, ExperimentReport, Scale, Setting, SUBSTRATE_RHO,
};
use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_tensor::TensorResult;
use serde_json::json;

/// The FedProx ρ values swept by Table V.
pub const PROX_RHOS: [f32; 3] = [0.01, 0.1, 1.0];

/// Rounds-to-target for one algorithm instance under one setting.
fn rounds_for(setting: &Setting, algorithm: Box<dyn Algorithm>) -> TensorResult<Option<usize>> {
    Ok(setting.run_to_target(algorithm)?.0)
}

/// Runs FedADMM with ρ switched from `rho_before` to `rho_after` at
/// `switch_round` (Figure 9's dynamic adaptation).
pub fn run_rho_schedule(
    setting: &Setting,
    rho_before: f32,
    rho_after: f32,
    switch_round: usize,
    rounds: usize,
) -> TensorResult<Vec<f32>> {
    let mut sim = setting.build_sim(FedAdmm::new(rho_before, ServerStepSize::Constant(1.0)))?;
    sim.run_rounds(switch_round.min(rounds))?;
    sim.algorithm_mut().set_rho(rho_after);
    if rounds > switch_round {
        sim.run_rounds(rounds - switch_round)?;
    }
    Ok(sim.into_history().accuracy_series())
}

/// The rows of Table V at `scale`: MNIST and FMNIST with the paper's 200
/// and 500 clients (MNIST with 200 at `smoke`), each IID then non-IID. A
/// row the scale makes equal to an earlier one is dropped.
pub(crate) fn table5_settings(scale: Scale) -> Vec<Setting> {
    let (datasets, populations): (&[SyntheticDataset], &[usize]) = match scale {
        Scale::Smoke => (&[SyntheticDataset::Mnist], &[200]),
        _ => (
            &[SyntheticDataset::Mnist, SyntheticDataset::Fmnist],
            &[200, 500],
        ),
    };
    distinct(datasets.iter().flat_map(|&dataset| {
        populations.iter().flat_map(move |&population| {
            [DataDistribution::Iid, DataDistribution::NonIidShards]
                .map(|distribution| Setting::for_dataset(dataset, distribution, population, scale))
        })
    }))
}

/// Regenerates Table V and Figure 9.
pub fn run(scale: Scale) -> TensorResult<ExperimentReport> {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for setting in table5_settings(scale) {
        let budget = setting.max_rounds;
        let admm = rounds_for(
            &setting,
            Box::new(FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0))),
        )?;
        let mut row = vec![setting.label(), format_rounds(admm, budget)];
        let mut prox_cells = Vec::new();
        for &rho in &PROX_RHOS {
            let prox = rounds_for(&setting, Box::new(FedProx::new(rho)))?;
            row.push(format_rounds(prox, budget));
            prox_cells.push(json!({ "rho": rho, "rounds": prox }));
        }
        rows.push(row);
        data.push(json!({
            "label": setting.label(),
            "fedadmm_fixed_rho": SUBSTRATE_RHO,
            "fedadmm_rounds": admm,
            "fedprox": prox_cells,
        }));
    }

    // Figure 9: dynamic ρ for FedADMM (increase ρ mid-run).
    let fig9_setting = Setting::for_dataset(
        SyntheticDataset::Fmnist,
        DataDistribution::NonIidShards,
        200,
        scale,
    );
    let rounds = match scale {
        Scale::Smoke => 6,
        Scale::Scaled => 30,
        Scale::Paper => 100,
    };
    let switch = rounds / 2;
    // The paper starts with a small ρ (efficient incorporation of local data
    // while the global model is uninformed) and increases it later (reduce
    // the client/global discrepancy). The substrate-calibrated analogue of
    // the paper's 0.01 → 0.1 schedule is SUBSTRATE_RHO/3 → 3·SUBSTRATE_RHO.
    let rho_small = SUBSTRATE_RHO / 3.0;
    let rho_large = SUBSTRATE_RHO * 3.0;
    let fixed_small = run_rho_schedule(&fig9_setting, rho_small, rho_small, switch, rounds)?;
    let fixed_large = run_rho_schedule(&fig9_setting, rho_large, rho_large, switch, rounds)?;
    let dynamic = run_rho_schedule(&fig9_setting, rho_small, rho_large, switch, rounds)?;

    let mut rendered = render_table(
        &[
            "Setting",
            "FedADMM(fixed)",
            "FedProx(0.01)",
            "FedProx(0.1)",
            "FedProx(1)",
        ],
        &rows,
    );
    rendered.push_str("\nFigure 9 — dynamic ρ for FedADMM (final accuracy):\n");
    rendered.push_str(&render_table(
        &["rho schedule", "final acc"],
        &[
            vec![
                format!("{rho_small} throughout"),
                format!("{:.3}", fixed_small.last().copied().unwrap_or(0.0)),
            ],
            vec![
                format!("{rho_large} throughout"),
                format!("{:.3}", fixed_large.last().copied().unwrap_or(0.0)),
            ],
            vec![
                format!("{rho_small} -> {rho_large} @ round {switch}"),
                format!("{:.3}", dynamic.last().copied().unwrap_or(0.0)),
            ],
        ],
    ));

    Ok(ExperimentReport {
        name: "table5_fig9".to_string(),
        description:
            "ρ sensitivity of FedProx vs fixed-ρ FedADMM, and dynamic ρ (Table V / Figure 9)"
                .to_string(),
        rendered,
        data: json!({
            "table5": data,
            "fig9": {
                "setting": fig9_setting.label(),
                "rho_small_fixed": fixed_small,
                "rho_large_fixed": fixed_large,
                "dynamic": dynamic,
                "rho_small": rho_small,
                "rho_large": rho_large,
                "switch_round": switch,
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_schedule_runs_and_switches() {
        let setting = Setting::for_dataset(
            SyntheticDataset::Mnist,
            DataDistribution::Iid,
            200,
            Scale::Smoke,
        );
        let series = run_rho_schedule(&setting, 0.01, 0.1, 2, 4).unwrap();
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|a| (0.0..=1.0).contains(a)));
    }
}
