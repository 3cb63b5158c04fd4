//! The one runner: every arm of a [`Claim`] on every one of its settings.

use crate::claims::{Claim, Runs};
use crate::common::{Scale, Setting};
use fedadmm_core::prelude::*;
use fedadmm_data::partition::Partition;
use fedadmm_data::Dataset;
use fedadmm_tensor::TensorResult;
use std::time::Instant;

/// One arm's run on one setting.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// The arm's name.
    pub name: String,
    /// The 1-based round that first reached the target accuracy, if any.
    pub rounds_to_target: Option<usize>,
    /// Local epochs run by all clients over the run.
    pub local_epochs: usize,
    /// Test accuracy after every recorded round.
    pub accuracy: Vec<f32>,
    /// The 0-based round that left θ non-finite, where the run stopped.
    pub diverged_at: Option<usize>,
    /// Wall-clock seconds from the first round to the end of the round
    /// that reached the target (data generation excluded).
    pub seconds_to_target: Option<f64>,
}

impl ArmResult {
    /// Test accuracy after the last recorded round (0 for none).
    pub fn final_accuracy(&self) -> f32 {
        self.accuracy.last().copied().unwrap_or(0.0)
    }

    /// Best test accuracy of the run (0 for none).
    pub fn best_accuracy(&self) -> f32 {
        self.accuracy.iter().copied().fold(0.0, f32::max)
    }
}

/// Every arm of a claim on one setting.
#[derive(Debug, Clone)]
pub struct SettingResult {
    /// The setting; its `max_rounds` is the rounds every arm had.
    pub setting: Setting,
    /// One result per arm, in the claim's order.
    pub arms: Vec<ArmResult>,
    /// Training samples the setting generated.
    pub samples: usize,
    /// Mean and population standard deviation of the clients' sample counts
    /// under the setting's partition (Table VI's statistics).
    pub client_sizes: (f64, f64),
}

/// Runs `claim` at `scale` on every one of its settings; `budget`, if
/// given, replaces its rounds (the scorecard's 100).
pub fn run_claim(
    claim: &Claim,
    scale: Scale,
    budget: Option<usize>,
) -> TensorResult<Vec<SettingResult>> {
    let rounds = budget.or(claim.rounds.map(|r| r[scale as usize]));
    let mut results = Vec::new();
    for mut setting in (claim.settings)(scale) {
        setting.max_rounds = rounds.unwrap_or(setting.max_rounds);
        results.push(run_setting(claim, setting)?);
    }
    Ok(results)
}

/// Runs every arm of `claim` on `setting` for `setting.max_rounds`
/// rounds, or, for a claim without fixed rounds, until the target. The
/// setting's data is generated and partitioned once and shared by every
/// arm.
pub fn run_setting(claim: &Claim, setting: Setting) -> TensorResult<SettingResult> {
    let (stop, mut arms) = (claim.rounds.is_none(), Vec::new());
    let data = setting.generate_data();
    let samples = data.0.len();
    let partition = setting.partition(&data.0);
    let client_sizes = partition.size_stats();
    let split = (&data, &partition);
    for arm in (claim.arms)(&setting, setting.max_rounds) {
        arms.push(match arm.runs {
            Runs::Fixed(algorithm) => drive(arm.name, &setting, split, algorithm, |_, _| {}, stop)?,
            Runs::Switched(fedadmm, at, switch) => {
                let switch = |round, a: &mut FedAdmm| {
                    if round == at {
                        switch(a)
                    }
                };
                drive(arm.name, &setting, split, fedadmm, switch, stop)?
            }
        });
    }
    Ok(SettingResult {
        setting,
        arms,
        samples,
        client_sizes,
    })
}

/// Runs `algorithm` on the setting's data and partition round by round,
/// calling `switch` with each round's index first, and stopping at the
/// target if `stop`.
fn drive<A: Algorithm>(
    name: String,
    setting: &Setting,
    (data, partition): (&(Dataset, Dataset), &Partition),
    algorithm: A,
    switch: impl Fn(usize, &mut A),
    stop: bool,
) -> TensorResult<ArmResult> {
    let mut sim = setting.build_sim(data, partition.clone(), algorithm)?;
    let target = setting.target_accuracy;
    let start = Instant::now();
    let (mut diverged_at, mut seconds_to_target) = (None, None);
    for round in 0..setting.max_rounds {
        switch(round, sim.algorithm_mut());
        match sim.run_round() {
            Ok(record) if record.test_accuracy >= target && seconds_to_target.is_none() => {
                seconds_to_target = Some(start.elapsed().as_secs_f64());
                if stop {
                    break;
                }
            }
            Ok(_) => {}
            // The engine refuses to record a round that leaves θ
            // non-finite: the arm ends there, diverged.
            Err(_) if sim.global_model().as_slice().iter().any(|v| !v.is_finite()) => {
                diverged_at = Some(round);
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let history = sim.into_history();
    Ok(ArmResult {
        name,
        rounds_to_target: history.rounds_to_accuracy(target),
        local_epochs: history.total_local_epochs(),
        accuracy: history.accuracy_series(),
        diverged_at,
        seconds_to_target,
    })
}
