//! The paper's checkable claims as data: one [`Claim`] row per artefact of
//! the evaluation (Section V), naming its settings, its arms, what is
//! measured and how the measurements become a [`Verdict`].
//! [`crate::runner`] runs a row; [`crate::render`] prints it as the paper's
//! table and as a section of the scorecard (`REPRODUCTION.md`).

use crate::common::{distinct, table3_suite, Scale, Setting, SUBSTRATE_RHO};
use crate::runner::{ArmResult, SettingResult};
use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset::{self, Cifar10, Fmnist, Mnist};
use std::cmp::Ordering;
use std::fmt;
use DataDistribution::{Iid, NonIidShards};

/// One checkable claim of the paper's evaluation.
pub struct Claim {
    /// Short name, also an `experiments` alias ("table3", "fig4").
    pub name: &'static str,
    /// The paper artefact ("Table III").
    pub artefact: &'static str,
    /// The claim, in the paper's words.
    pub claim: &'static str,
    /// The settings the claim is checked on, at a scale.
    pub settings: fn(Scale) -> Vec<Setting>,
    /// Rounds per run at `smoke`, `scaled` and `paper`. `None`: each arm
    /// runs until the target accuracy, within [`Setting::max_rounds`].
    pub rounds: Option<[usize; 3]>,
    /// The arms, built fresh for a setting and a run length.
    pub arms: fn(&Setting, usize) -> Vec<Arm>,
    /// What each arm's run is scored by.
    pub measure: Measure,
    /// Which scores are compared; each comparison holds or is reversed.
    pub compare: Compare,
    /// Whether an equal score holds. Fixed before any run: a claim of
    /// "fewer" or "highest" is not met by a tie.
    pub ties_hold: bool,
}

/// One arm of a claim: a named algorithm.
pub struct Arm {
    /// The arm's label in tables.
    pub name: String,
    /// What the arm runs.
    pub runs: Runs,
}

/// The algorithm behind an [`Arm`].
pub enum Runs {
    /// Any algorithm, its hyperparameters fixed for the whole run.
    Fixed(Box<dyn Algorithm>),
    /// FedADMM with `.2` applied before the 0-based round `.1`: the η and
    /// ρ schedules of Figures 6 and 9, which need the concrete type.
    Switched(FedAdmm, usize, fn(&mut FedAdmm)),
}

fn arm(name: impl Into<String>, algorithm: impl Algorithm + 'static) -> Arm {
    let (name, runs) = (name.into(), Runs::Fixed(Box::new(algorithm)));
    Arm { name, runs }
}

/// What an arm's run is scored by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Rounds to the target accuracy: fewer is better; a miss is worse
    /// than any hit.
    RoundsToTarget,
    /// Test accuracy after the last round: higher is better.
    FinalAccuracy,
    /// Best test accuracy of the run: higher is better.
    BestAccuracy,
}

/// The comparisons a claim makes.
#[derive(Debug, Clone, Copy)]
pub enum Compare {
    /// In every setting, arm `.0` against the best of arms `.1` (indices
    /// into the claim's arms).
    Arms(&'static [(usize, &'static [usize])]),
    /// Each setting's arm against the previous setting's, where both share
    /// a dataset and a distribution and the later one runs more epochs.
    MoreEpochs,
}

/// The outcome of checking a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every decided comparison goes the paper's way.
    Holds,
    /// Every decided comparison goes the other way.
    Reversed,
    /// Decided comparisons go both ways.
    Mixed,
    /// Every compared arm missed the target within the budget.
    Inconclusive,
    /// A compared arm's global model went non-finite.
    Diverged,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format!("{self:?}").to_lowercase())
    }
}

impl Verdict {
    /// Folds verdicts into one: `Diverged` if any is; otherwise the
    /// inconclusive ones are set aside unless nothing else is left, and the
    /// rest agree (`Holds`, `Reversed`) or not (`Mixed`). `None` for none.
    pub fn combine(verdicts: impl IntoIterator<Item = Verdict>) -> Option<Verdict> {
        let (mut folded, mut inconclusive) = (None, false);
        for verdict in verdicts {
            folded = match (verdict, folded) {
                (Verdict::Diverged, _) => return Some(Verdict::Diverged),
                (Verdict::Inconclusive, _) => {
                    inconclusive = true;
                    folded
                }
                (v, None) => Some(v),
                (v, Some(f)) if v == f => Some(f),
                _ => Some(Verdict::Mixed),
            };
        }
        folded.or(inconclusive.then_some(Verdict::Inconclusive))
    }
}

impl Claim {
    /// The comparisons of setting `i` of `results`, each a verdict.
    pub fn comparisons(&self, results: &[SettingResult], i: usize) -> Vec<Verdict> {
        let arms = &results[i].arms;
        match self.compare {
            Compare::Arms(pairs) => pairs
                .iter()
                .map(|&(a, rivals)| {
                    let rivals: Vec<&ArmResult> = rivals.iter().map(|&r| &arms[r]).collect();
                    self.compare(&arms[a], &rivals)
                })
                .collect(),
            Compare::MoreEpochs => {
                let row = |r: &SettingResult| (r.setting.dataset, r.setting.distribution);
                let (now, before) = (&results[i], i.checked_sub(1).map(|j| &results[j]));
                let more = |b: &&SettingResult| b.setting.local_epochs < now.setting.local_epochs;
                let before = before.filter(|b| row(b) == row(now)).filter(more);
                before
                    .map(|b| self.compare(&arms[0], &[&b.arms[0]]))
                    .into_iter()
                    .collect()
            }
        }
    }

    /// The claim's verdict over every setting of `results`.
    pub fn verdict(&self, results: &[SettingResult]) -> Option<Verdict> {
        Verdict::combine((0..results.len()).flat_map(|i| self.comparisons(results, i)))
    }

    /// `arm` against the best of `rivals` on the claim's measure.
    fn compare(&self, arm: &ArmResult, rivals: &[&ArmResult]) -> Verdict {
        let compared = || std::iter::once(arm).chain(rivals.iter().copied());
        if compared().any(|a| a.diverged_at.is_some()) {
            return Verdict::Diverged;
        }
        let order = if self.measure == Measure::RoundsToTarget {
            if compared().all(|a| a.rounds_to_target.is_none()) {
                return Verdict::Inconclusive;
            }
            let rounds = |a: &ArmResult| a.rounds_to_target.unwrap_or(usize::MAX);
            let best = rivals.iter().map(|a| rounds(a)).min();
            best.cmp(&Some(rounds(arm)))
        } else {
            let best = rivals.iter().map(|a| self.accuracy(a));
            self.accuracy(arm).total_cmp(&best.fold(f32::MIN, f32::max))
        };
        match order {
            Ordering::Greater => Verdict::Holds,
            Ordering::Equal if self.ties_hold => Verdict::Holds,
            _ => Verdict::Reversed,
        }
    }

    /// An arm's accuracy on the claim's measure: the final one, or else
    /// the best one.
    pub fn accuracy(&self, arm: &ArmResult) -> f32 {
        match self.measure {
            Measure::FinalAccuracy => arm.final_accuracy(),
            _ => arm.best_accuracy(),
        }
    }

    /// The rule in words, with the arms named.
    pub fn describe_rule(&self, arm_names: &[String]) -> String {
        let better = match self.measure {
            Measure::RoundsToTarget => "needs fewer rounds to target than",
            Measure::FinalAccuracy => "ends with a higher accuracy than",
            Measure::BestAccuracy => "reaches a higher best accuracy than",
        };
        let compared: Vec<String> = match self.compare {
            Compare::Arms(pairs) => pairs
                .iter()
                .map(|&(a, rivals)| {
                    let rivals: Vec<&str> = rivals.iter().map(|&r| arm_names[r].as_str()).collect();
                    let best = if rivals.len() > 1 { "the best of " } else { "" };
                    format!("{} {better} {best}{}", arm_names[a], rivals.join(", "))
                })
                .collect(),
            Compare::MoreEpochs => {
                vec![format!(
                    "{} at a larger E {better} at the E before it",
                    arm_names[0]
                )]
            }
        };
        let tie = ["counts as reversed", "holds"][usize::from(self.ties_hold)];
        format!("{}, in every setting; a tie {tie}", compared.join("; "))
    }
}

/// The FedProx ρ values swept by Table V.
pub const PROX_RHOS: [f32; 3] = [0.01, 0.1, 1.0];
/// Figure 9's ρ schedule: the paper's 0.01 → 0.1 scaled to
/// [`SUBSTRATE_RHO`], from a third of it to three times it.
pub const RHO_SMALL: f32 = SUBSTRATE_RHO / 3.0;
/// See [`RHO_SMALL`].
pub const RHO_LARGE: f32 = SUBSTRATE_RHO * 3.0;

/// Table III's suite: FedSGD, FedADMM, FedAvg, FedProx, SCAFFOLD.
fn suite(setting: &Setting, _rounds: usize) -> Vec<Arm> {
    let arm = |(name, a): (&str, _)| (name.to_string(), Runs::Fixed(a));
    let arms = table3_suite(setting).into_iter().map(arm);
    arms.map(|(name, runs)| Arm { name, runs }).collect()
}

/// FedADMM at the substrate's ρ and a server step η.
fn fedadmm(eta: f32) -> FedAdmm {
    FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(eta))
}

/// Figure 6: η = 0.5, 1 and 1.5, then 1.5 and 1 decreased to 0.5 at round
/// 60 of 100.
fn fig6_arms(_: &Setting, rounds: usize) -> Vec<Arm> {
    let at = rounds * 3 / 5;
    let halve: fn(&mut FedAdmm) = |a| a.set_server_step(ServerStepSize::Constant(0.5));
    let fixed = [0.5, 1.0, 1.5].map(|eta| arm(format!("eta={eta}"), fedadmm(eta)));
    let switched = [1.5f32, 1.0].map(|eta| {
        let (name, runs) = (
            format!("eta={eta}->0.5@{at}"),
            Runs::Switched(fedadmm(eta), at, halve),
        );
        Arm { name, runs }
    });
    fixed.into_iter().chain(switched).collect()
}

/// Figure 8: warm start (I) and global-model start (II), at η = 1 and at
/// η = |S|/m.
fn fig8_arms(_: &Setting, _: usize) -> Vec<Arm> {
    let steps = [
        ("eta=1", ServerStepSize::Constant(1.0)),
        ("eta=|S|/m", ServerStepSize::ParticipationRatio),
    ];
    let inits = [
        ("I (warm start w_i)", LocalInit::LocalModel),
        ("II (global model θ)", LocalInit::GlobalModel),
    ];
    let variant = |(eta, step), (init, local_init)| {
        let algorithm = FedAdmm::new(SUBSTRATE_RHO, step).with_local_init(local_init);
        arm(format!("{init}, {eta}"), algorithm)
    };
    steps
        .into_iter()
        .flat_map(|s| inits.map(|i| variant(s, i)))
        .collect()
}

/// Table V: FedADMM at its one ρ, then FedProx at each of [`PROX_RHOS`].
fn table5_arms(_: &Setting, _: usize) -> Vec<Arm> {
    let prox = PROX_RHOS.map(|rho| arm(format!("FedProx({rho})"), FedProx::new(rho)));
    std::iter::once(arm("FedADMM(fixed)", fedadmm(1.0)))
        .chain(prox)
        .collect()
}

/// Figure 9: ρ small throughout, large throughout, and small switched to
/// large halfway.
fn fig9_arms(_: &Setting, rounds: usize) -> Vec<Arm> {
    let at = rounds / 2;
    let rho = |rho| FedAdmm::new(rho, ServerStepSize::Constant(1.0));
    let runs = Runs::Switched(rho(RHO_SMALL), at, |a| a.set_rho(RHO_LARGE));
    let name = format!("{RHO_SMALL} -> {RHO_LARGE} @ round {at}");
    let fixed = [RHO_SMALL, RHO_LARGE].map(|r| arm(format!("{r} throughout"), rho(r)));
    fixed.into_iter().chain([Arm { name, runs }]).collect()
}

/// FedADMM against the best of the rest of the suite.
const VS_SUITE: Compare = Compare::Arms(&[(1, &[0, 2, 3, 4])]);

/// The table of claims, in the order `experiments all` prints them.
pub static CLAIMS: [Claim; 10] = [
    Claim {
        name: "table3",
        artefact: "Table III",
        claim: "an average 72% (up to 87%) reduction in rounds for FedADMM over the best \
                baseline",
        settings: table3_settings,
        rounds: None,
        arms: suite,
        measure: Measure::RoundsToTarget,
        compare: VS_SUITE,
        ties_hold: false,
    },
    Claim {
        name: "fig3",
        artefact: "Figure 3",
        claim: "with hyperparameters tuned once and frozen, FedADMM's lead grows with the \
                population",
        settings: |scale| population_settings(FIG3, scale),
        rounds: Some([8, 30, 100]),
        arms: suite,
        measure: Measure::FinalAccuracy,
        compare: VS_SUITE,
        ties_hold: false,
    },
    Claim {
        name: "fig4",
        artefact: "Figure 4",
        claim: "FedADMM needs fewer rounds than the best baseline at every population",
        settings: |scale| population_settings(FIG4, scale),
        rounds: None,
        arms: suite,
        measure: Measure::RoundsToTarget,
        compare: VS_SUITE,
        ties_hold: false,
    },
    Claim {
        name: "fig5",
        artefact: "Figure 5",
        claim: "with fixed hyperparameters FedADMM still reaches the target in fewer rounds in \
                every case",
        settings: fig5_settings,
        rounds: None,
        arms: suite,
        measure: Measure::RoundsToTarget,
        compare: VS_SUITE,
        ties_hold: false,
    },
    Claim {
        name: "fig6",
        artefact: "Figure 6",
        claim: "η = 1 is consistently good, η = 1.5 stalls under non-IID data, and a late \
                decrease helps",
        settings: |scale| [Iid, NonIidShards].map(|d| fmnist(d, 100, scale)).into(),
        rounds: Some([8, 40, 100]),
        arms: fig6_arms,
        measure: Measure::FinalAccuracy,
        compare: Compare::Arms(&[(1, &[0, 2])]),
        ties_hold: false,
    },
    Claim {
        name: "table4",
        artefact: "Table IV / Figure 7",
        claim: "more local work per round means fewer rounds, and convergence never breaks \
                even with a fixed learning rate",
        settings: table4_settings,
        rounds: None,
        arms: |_, _| vec![arm("FedADMM", fedadmm(1.0))],
        measure: Measure::RoundsToTarget,
        compare: Compare::MoreEpochs,
        ties_hold: true,
    },
    Claim {
        name: "fig8",
        artefact: "Figure 8",
        claim: "warm-starting local training from the stored w_i beats restarting from θ in \
                every case",
        settings: |scale| vec![fmnist(NonIidShards, 100, scale)],
        rounds: Some([8, 40, 100]),
        arms: fig8_arms,
        measure: Measure::FinalAccuracy,
        compare: Compare::Arms(&[(0, &[1]), (2, &[3])]),
        ties_hold: false,
    },
    Claim {
        name: "table5",
        artefact: "Table V",
        claim: "FedProx's best ρ changes across settings, while FedADMM with a constant ρ \
                dominates every tested FedProx instance",
        settings: table5_settings,
        rounds: None,
        arms: table5_arms,
        measure: Measure::RoundsToTarget,
        compare: Compare::Arms(&[(0, &[1, 2, 3])]),
        ties_hold: false,
    },
    Claim {
        name: "fig9",
        artefact: "Figure 9",
        claim: "a dynamic ρ, small early and larger later, improves on a fixed one",
        settings: |scale| vec![fmnist(NonIidShards, 200, scale)],
        rounds: Some([6, 30, 100]),
        arms: fig9_arms,
        measure: Measure::FinalAccuracy,
        compare: Compare::Arms(&[(2, &[0, 1])]),
        ties_hold: false,
    },
    Claim {
        name: "fig10",
        artefact: "Table VI / Figure 10",
        claim: "under heavily imbalanced data volumes FedADMM reaches the highest accuracy of \
                all methods",
        settings: |scale| {
            [Fmnist, Cifar10]
                .map(|d| imbalanced_setting(d, scale))
                .into()
        },
        rounds: Some([6, 30, 100]),
        arms: suite,
        measure: Measure::BestAccuracy,
        compare: VS_SUITE,
        ties_hold: false,
    },
];

/// The claim reports of `experiments` in `all` order, space-separated;
/// each prints the claims its name lists ("fig3_fig4": `fig3` and `fig4`).
pub const REPORTS: &str = "table3 fig3_fig4 fig5 fig6 table4_fig7 fig8 table5_fig9 table6_fig10";

/// Every `experiments` report in `all` order: Table II, then [`REPORTS`].
pub fn reports() -> impl Iterator<Item = &'static str> {
    std::iter::once("table2").chain(REPORTS.split(' '))
}

/// The report `name` names: its own name or one of its `_`-separated parts
/// ("fig3" and "fig4" name "fig3_fig4").
pub fn report_named(name: &str) -> Option<&'static str> {
    reports().find(|report| report.split('_').chain([*report]).any(|part| part == name))
}

fn fmnist(distribution: DataDistribution, paper_clients: usize, scale: Scale) -> Setting {
    Setting::for_dataset(Fmnist, distribution, paper_clients, scale)
}

/// Table III: MNIST with the paper's 100 and 1,000 clients, FMNIST and
/// CIFAR-10 with 1,000, each IID then non-IID.
fn table3_settings(scale: Scale) -> Vec<Setting> {
    let columns = [(Mnist, 100), (Mnist, 1000), (Fmnist, 1000), (Cifar10, 1000)];
    distinct(columns.into_iter().flat_map(|(dataset, clients)| {
        [Iid, NonIidShards].map(|d| Setting::for_dataset(dataset, d, clients, scale))
    }))
}

/// Figure 3's panels: FMNIST IID and CIFAR-10 non-IID.
const FIG3: [(SyntheticDataset, DataDistribution); 2] = [(Fmnist, Iid), (Cifar10, NonIidShards)];
/// Figure 4's reversed settings: FMNIST non-IID and CIFAR-10 IID.
const FIG4: [(SyntheticDataset, DataDistribution); 2] = [(Fmnist, NonIidShards), (Cifar10, Iid)];

/// A figure's pairs at the paper's 100, 500 and 1,000 clients.
fn population_settings(
    figure: [(SyntheticDataset, DataDistribution); 2],
    scale: Scale,
) -> Vec<Setting> {
    distinct([100, 500, 1000].into_iter().flat_map(|clients| {
        figure.map(|(dataset, d)| Setting::for_dataset(dataset, d, clients, scale))
    }))
}

/// Figure 5: 200 clients with E = 10 and B = 50 (B = 16 at `scaled`;
/// E = 3, B = 10 at `smoke`) on FMNIST and CIFAR-10, IID and non-IID.
fn fig5_settings(scale: Scale) -> Vec<Setting> {
    let (local_epochs, batch) = [(3, 10), (10, 16), (10, 50)][scale as usize];
    let mut settings = Vec::new();
    for (dataset, distribution) in pairs(Fmnist, Cifar10) {
        let mut setting = Setting::for_dataset(dataset, distribution, 200, scale);
        (setting.local_epochs, setting.batch_size) = (local_epochs, BatchSize::Size(batch));
        settings.push(setting);
    }
    settings
}

/// Table IV: MNIST and CIFAR-10 with 100 clients, IID and non-IID, at
/// E = 1, 5 and 10 (1 and 3 at `smoke`), every client running exactly E.
fn table4_settings(scale: Scale) -> Vec<Setting> {
    let budgets: &[usize] = if scale == Scale::Smoke {
        &[1, 3]
    } else {
        &[1, 5, 10]
    };
    let mut settings = Vec::new();
    for (dataset, distribution) in pairs(Mnist, Cifar10) {
        for &local_epochs in budgets {
            let mut setting = Setting::for_dataset(dataset, distribution, 100, scale);
            (setting.local_epochs, setting.system_heterogeneity) = (local_epochs, false);
            settings.push(setting);
        }
    }
    settings
}

/// Each of two datasets, IID then non-IID.
fn pairs(a: SyntheticDataset, b: SyntheticDataset) -> [(SyntheticDataset, DataDistribution); 4] {
    [(a, Iid), (a, NonIidShards), (b, Iid), (b, NonIidShards)]
}

/// Table V: MNIST and FMNIST with the paper's 200 and 500 clients (MNIST
/// with 200 at `smoke`), each IID then non-IID.
fn table5_settings(scale: Scale) -> Vec<Setting> {
    let (datasets, populations): (&[SyntheticDataset], &[usize]) = match scale {
        Scale::Smoke => (&[Mnist], &[200]),
        _ => (&[Mnist, Fmnist], &[200, 500]),
    };
    distinct(datasets.iter().flat_map(|&dataset| {
        populations.iter().flat_map(move |&clients| {
            [Iid, NonIidShards].map(|d| Setting::for_dataset(dataset, d, clients, scale))
        })
    }))
}

/// Table VI's imbalanced volumes: the label-sorted data is cut into
/// shards, and clients in groups receive as many shards as their group's
/// index. The paper has 200 clients in 100 groups, 10,000 shards, E = 10
/// and B = 50; smaller scales shrink the counts so every group has a shard.
fn imbalanced_setting(dataset: SyntheticDataset, scale: Scale) -> Setting {
    let (num_clients, num_groups, samples_per_shard) = match scale {
        Scale::Smoke => (10, 5, 4),
        Scale::Scaled => (50, 25, 5),
        Scale::Paper => (200, 100, if dataset == Cifar10 { 5 } else { 6 }),
    };
    let train_size = match scale {
        Scale::Paper => dataset.reference_train_size(),
        // Enough shards for the triangular group allocation plus remainder.
        _ => {
            let group_size = num_clients / num_groups;
            let shards: usize =
                (1..=num_groups).map(|g| g * group_size).sum::<usize>() + num_groups;
            shards * samples_per_shard
        }
    };
    let (local_epochs, batch) = [(2, 8), (5, 16), (10, 50)][scale as usize];
    let num_shards = train_size / samples_per_shard;
    Setting {
        num_clients,
        train_size,
        distribution: DataDistribution::ImbalancedGroups {
            num_groups,
            num_shards,
        },
        local_epochs,
        batch_size: BatchSize::Size(batch),
        ..Setting::for_dataset(dataset, Iid, 200, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{claim, runner::run_setting};

    /// A hand-made arm result: its rounds to target (or a miss).
    fn arm(rounds: Option<usize>) -> ArmResult {
        ArmResult {
            name: String::new(),
            rounds_to_target: rounds,
            local_epochs: 0,
            accuracy: vec![0.5],
            diverged_at: None,
            seconds_to_target: None,
        }
    }

    /// A Table III column: FedADMM at `admm` rounds, every other arm at
    /// `rest`.
    fn column(admm: Option<usize>, rest: Option<usize>) -> SettingResult {
        let mut arms = vec![arm(rest); 5];
        arms[1] = arm(admm);
        let setting = table3_settings(Scale::Smoke)[0];
        SettingResult {
            setting,
            arms,
            samples: 0,
            client_sizes: (0.0, 0.0),
        }
    }

    #[test]
    fn the_verdict_rule_gives_each_verdict_on_hand_made_results() {
        use Verdict::*;
        let (holds, reversed) = (column(Some(3), Some(5)), column(Some(9), Some(5)));
        let mut diverged = holds.clone();
        diverged.arms[4].diverged_at = Some(2);
        let cases = [
            (vec![holds.clone()], Holds),
            (vec![reversed.clone()], Reversed),
            (vec![column(None, Some(5))], Reversed),
            (vec![holds.clone(), reversed], Mixed),
            (vec![column(None, None)], Inconclusive),
            // An inconclusive column leaves the decided ones to speak.
            (vec![column(None, None), holds.clone()], Holds),
            (vec![holds, diverged], Diverged),
            // The row fixed what a tie is before any run: no reduction.
            (vec![column(Some(4), Some(4))], Reversed),
        ];
        for (columns, verdict) in cases {
            assert_eq!(claim("table3").verdict(&columns), Some(verdict));
        }
        // Table IV compares a row's settings in growing E; a tie holds, and
        // settings of two rows compare nothing.
        let settings = table4_settings(Scale::Smoke);
        let point = |i: usize, rounds| SettingResult {
            setting: settings[i],
            arms: vec![arm(rounds)],
            samples: 0,
            client_sizes: (0.0, 0.0),
        };
        for (points, verdict) in [
            ([point(0, Some(9)), point(1, Some(9))], Some(Holds)),
            ([point(0, Some(4)), point(1, Some(9))], Some(Reversed)),
            ([point(1, Some(4)), point(2, Some(9))], None),
        ] {
            assert_eq!(claim("table4").verdict(&points), verdict);
        }
    }

    /// Table III's two MNIST-50 columns at `scaled`, with the scorecard's
    /// 100-round budget: SCAFFOLD ties FedADMM under IID data (4 rounds
    /// each) and needs half its rounds under non-IID data (11 against 22).
    #[test]
    fn the_mnist_50_table3_columns_at_scaled_are_reversed() {
        let mut columns = Vec::new();
        for mut setting in table3_settings(Scale::Scaled).into_iter().take(2) {
            assert_eq!(setting.num_clients, 50);
            setting.max_rounds = 100;
            columns.push(run_setting(claim("table3"), setting).unwrap());
        }
        for (i, column) in columns.iter().enumerate() {
            let rounds: Vec<_> = column.arms.iter().map(|a| a.rounds_to_target).collect();
            let verdict = Verdict::combine(claim("table3").comparisons(&columns, i));
            let label = column.setting.label();
            assert_eq!(verdict, Some(Verdict::Reversed), "{label}: {rounds:?}");
        }
    }
}
