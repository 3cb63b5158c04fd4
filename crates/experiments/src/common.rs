//! Shared experiment infrastructure: scales, settings, the algorithm suite
//! and table rendering.

use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_data::Dataset;
use fedadmm_nn::models::ModelSpec;
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};

/// How large an experiment to run.
///
/// The paper's experiments use 100–1,000 clients, the full 50k–60k-sample
/// datasets and the two CNNs from Table II. That configuration is available
/// as [`Scale::Paper`], but the default reproduction ([`Scale::Scaled`])
/// shrinks the client population, dataset and model so that a full table
/// regenerates on a laptop CPU in minutes while preserving the comparisons
/// the paper makes (who wins, by roughly what factor). [`Scale::Smoke`] is
/// the few-second configuration used by integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale configuration for CI.
    Smoke,
    /// Minutes-scale configuration (the default for the `experiments` binary).
    Scaled,
    /// The paper's configuration (CNNs, 100–1,000 clients, full-size data).
    Paper,
}

impl Scale {
    /// Parses a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "scaled" => Some(Scale::Scaled),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// A complete experimental setting: dataset, partition, population, local
/// solver configuration, round budget and target accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setting {
    /// Which synthetic dataset stands in for the paper's dataset.
    pub dataset: SyntheticDataset,
    /// IID / non-IID / imbalanced client data distribution.
    pub distribution: DataDistribution,
    /// Client population size `m`.
    pub num_clients: usize,
    /// Number of training samples to generate.
    pub train_size: usize,
    /// Number of test samples to generate.
    pub test_size: usize,
    /// Maximum local epochs `E`.
    pub local_epochs: usize,
    /// Local batch size `B`.
    pub batch_size: BatchSize,
    /// Local SGD learning rate.
    pub local_lr: f32,
    /// Round budget (the paper uses 100; "100+" means the target was not
    /// reached within the budget).
    pub max_rounds: usize,
    /// Target test accuracy for rounds-to-accuracy comparisons.
    pub target_accuracy: f32,
    /// Model trained by every client.
    pub model: ModelSpec,
    /// Whether clients draw variable local epochs (system heterogeneity).
    pub system_heterogeneity: bool,
    /// Base RNG seed.
    pub seed: u64,
}

/// `settings` without those equal to an earlier one. Below [`Scale::Paper`]
/// several of the paper's populations clamp to one client count, and an
/// experiment runs each setting once.
pub(crate) fn distinct(settings: impl IntoIterator<Item = Setting>) -> Vec<Setting> {
    let mut kept: Vec<Setting> = Vec::new();
    for setting in settings {
        if !kept.contains(&setting) {
            kept.push(setting);
        }
    }
    kept
}

impl Setting {
    /// Builds the setting corresponding to one of the paper's
    /// dataset/population combinations at the requested scale.
    ///
    /// `paper_clients` is the population the paper uses (100, 200, 500 or
    /// 1,000); smaller scales shrink it proportionally.
    pub fn for_dataset(
        dataset: SyntheticDataset,
        distribution: DataDistribution,
        paper_clients: usize,
        scale: Scale,
    ) -> Setting {
        let (num_clients, samples_per_client, test_size, max_rounds) = match scale {
            Scale::Smoke => (paper_clients.clamp(8, 16), 20, 200, 15),
            Scale::Scaled => ((paper_clients / 2).clamp(20, 100), 100, 500, 60),
            Scale::Paper => (
                paper_clients,
                dataset.reference_train_size() / paper_clients.max(1),
                10_000,
                100,
            ),
        };
        let model = match (scale, dataset) {
            (Scale::Paper, SyntheticDataset::Cifar10) => ModelSpec::Cnn2,
            (Scale::Paper, _) => ModelSpec::Cnn1,
            _ => ModelSpec::Mlp {
                input_dim: dataset.feature_dim(),
                hidden_dim: if scale == Scale::Scaled { 32 } else { 16 },
                num_classes: 10,
            },
        };
        // Paper targets: 97% (MNIST), 80% (FMNIST), 45% (CIFAR-10). The
        // synthetic stand-ins support similar orderings but not identical
        // ceilings, so the scaled targets are adjusted per preset. How they
        // were calibrated is not recorded; REPRODUCTION.md (`experiments
        // scorecard`) records the verdicts they produce.
        let target_accuracy = match (scale, dataset) {
            (Scale::Paper, SyntheticDataset::Mnist) => 0.97,
            (Scale::Paper, SyntheticDataset::Fmnist) => 0.80,
            (Scale::Paper, SyntheticDataset::Cifar10) => 0.45,
            (Scale::Scaled, SyntheticDataset::Mnist) => 0.90,
            (Scale::Scaled, SyntheticDataset::Fmnist) => 0.75,
            (Scale::Scaled, SyntheticDataset::Cifar10) => 0.45,
            (Scale::Smoke, SyntheticDataset::Mnist) => 0.60,
            (Scale::Smoke, SyntheticDataset::Fmnist) => 0.50,
            (Scale::Smoke, SyntheticDataset::Cifar10) => 0.30,
        };
        // The paper: E = 5, B = 200 for MNIST/100 clients; E = 20 with B = 10
        // (non-IID) or full batch (IID) for the 1,000-client settings. The
        // scaled settings keep the small-E/small-B shape for tractability.
        let iid = distribution == DataDistribution::Iid;
        let (local_epochs, batch_size) = match scale {
            Scale::Paper if paper_clients >= 1000 && iid => (20, BatchSize::Full),
            Scale::Paper if paper_clients >= 1000 => (20, BatchSize::Size(10)),
            Scale::Paper => (5, BatchSize::Size(200)),
            Scale::Scaled => (5, BatchSize::Size(16)),
            Scale::Smoke => (2, BatchSize::Size(10)),
        };
        Setting {
            dataset,
            distribution,
            num_clients,
            train_size: num_clients * samples_per_client,
            test_size,
            local_epochs,
            batch_size,
            local_lr: 0.1,
            max_rounds,
            target_accuracy,
            model,
            system_heterogeneity: true,
            seed: 42,
        }
    }

    /// Short label such as "MNIST (50 clients) non-IID".
    pub fn label(&self) -> String {
        format!(
            "{:?} ({} clients) {}",
            self.dataset,
            self.num_clients,
            self.distribution.label()
        )
    }

    /// Generates the train/test datasets for this setting.
    pub fn generate_data(&self) -> (Dataset, Dataset) {
        self.dataset
            .generate(self.train_size, self.test_size, self.seed)
    }

    /// Converts this setting into the core [`FedConfig`].
    pub fn fed_config(&self) -> FedConfig {
        FedConfig {
            num_clients: self.num_clients,
            participation: Participation::Fraction(0.1),
            local_epochs: self.local_epochs,
            system_heterogeneity: self.system_heterogeneity,
            batch_size: self.batch_size,
            local_learning_rate: self.local_lr,
            model: self.model,
            seed: self.seed,
            eval_subset: usize::MAX,
        }
    }

    /// Builds a ready-to-run synchronous engine. A concrete algorithm type
    /// keeps its hyperparameter setters reachable through
    /// [`RoundEngine::algorithm_mut`] (needed by the η / ρ mid-run
    /// adjustments of Figures 6 and 9); a `Box<dyn Algorithm>` works too.
    pub fn build_sim<A: Algorithm>(&self, algorithm: A) -> TensorResult<SyncEngine<A>> {
        let (train, test) = self.generate_data();
        let partition = self
            .distribution
            .partition(&train, self.num_clients, self.seed);
        RoundEngine::new(
            self.fed_config(),
            train,
            test,
            partition,
            algorithm,
            SyncRounds,
        )
    }
}

/// The fixed FedADMM proximal coefficient used across *all* experiments on
/// the synthetic substrate.
///
/// The paper fixes ρ = 0.01 for its PyTorch CNNs on real MNIST/FMNIST/
/// CIFAR-10. Remark 1 of the paper states that ρ should be of the order of
/// the local loss's smoothness constant L; the synthetic stand-in datasets
/// have larger feature magnitudes (hence larger L) than normalised image
/// pixels, so the equivalent constant for this substrate is larger. It was
/// calibrated **once** (ρ = 0.3; the calibration setting is not recorded;
/// REPRODUCTION.md shows what it gives on every claim) and is used unchanged in every
/// experiment, which is exactly the paper's "no per-setting tuning" claim —
/// in contrast to FedProx, whose ρ must be re-tuned per setting (Table V).
pub const SUBSTRATE_RHO: f32 = 0.3;

/// The algorithm line-up of Table III, in the paper's row order.
///
/// FedADMM uses the fixed substrate constant [`SUBSTRATE_RHO`] and η = 1;
/// FedProx uses ρ = 0.1 (a typical tuned value); FedSGD's server step
/// equals the local learning rate.
pub fn table3_suite(setting: &Setting) -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        (
            "FedSGD",
            Box::new(FedSgd::new(setting.local_lr)) as Box<dyn Algorithm>,
        ),
        (
            "FedADMM",
            Box::new(FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0))),
        ),
        ("FedAvg", Box::new(FedAvg::new())),
        ("FedProx", Box::new(FedProx::new(0.1))),
        ("SCAFFOLD", Box::new(Scaffold::new())),
    ]
}

/// A rendered experiment artefact: a human-readable table plus the raw data
/// as JSON for further processing (plots, regression checks). The verdicts
/// on the paper's claims are in REPRODUCTION.md (`experiments scorecard`).
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment identifier ("table3", "fig6", ...).
    pub name: String,
    /// One-line description referencing the paper artefact.
    pub description: String,
    /// Human-readable rendering (aligned text table / series listing).
    pub rendered: String,
    /// Machine-readable results.
    pub data: Value,
}

impl ExperimentReport {
    /// The report as the JSON object `experiments --json` writes, keys in
    /// field order.
    pub fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "description": self.description,
            "rendered": self.rendered,
            "data": self.data,
        })
    }

    /// Prints the report to stdout in the format the binary emits.
    pub fn print(&self) {
        println!("== {} — {} ==", self.name, self.description);
        println!("{}", self.rendered);
    }
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a rounds-to-accuracy result the way the paper's tables do:
/// the round count, or `"100+"`-style when the budget was exhausted.
pub fn format_rounds(rounds: Option<usize>, budget: usize) -> String {
    match rounds {
        Some(r) => r.to_string(),
        None => format!("{budget}+"),
    }
}

/// Formats a speedup multiplier ("12.5x") or "-" when unavailable.
pub fn format_speedup(speedup: Option<f64>) -> String {
    match speedup {
        Some(s) => format!("{s:.1}x"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("Scaled"), Some(Scale::Scaled));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn paper_scale_uses_cnns_and_paper_targets() {
        let s = Setting::for_dataset(
            SyntheticDataset::Mnist,
            DataDistribution::Iid,
            100,
            Scale::Paper,
        );
        assert_eq!(s.model, ModelSpec::Cnn1);
        assert_eq!(s.target_accuracy, 0.97);
        assert_eq!(s.local_epochs, 5);
        assert_eq!(s.num_clients, 100);
        let s = Setting::for_dataset(
            SyntheticDataset::Cifar10,
            DataDistribution::Iid,
            1000,
            Scale::Paper,
        );
        assert_eq!(s.model, ModelSpec::Cnn2);
        assert_eq!(s.local_epochs, 20);
        assert_eq!(s.batch_size, BatchSize::Full);
        let s_noniid = Setting::for_dataset(
            SyntheticDataset::Cifar10,
            DataDistribution::NonIidShards,
            1000,
            Scale::Paper,
        );
        assert_eq!(s_noniid.batch_size, BatchSize::Size(10));
    }

    #[test]
    fn smoke_scale_is_small() {
        let s = Setting::for_dataset(
            SyntheticDataset::Mnist,
            DataDistribution::NonIidShards,
            1000,
            Scale::Smoke,
        );
        assert!(s.num_clients <= 16);
        assert!(s.train_size <= 16 * 20);
        assert!(s.max_rounds <= 15);
        assert!(matches!(s.model, ModelSpec::Mlp { .. }));
        assert!(s.label().contains("non-IID"));
    }

    #[test]
    fn setting_builds_runnable_simulation() {
        let s = Setting::for_dataset(
            SyntheticDataset::Mnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let mut sim = s.build_sim(FedAvg::new()).unwrap();
        let record = sim.run_round().unwrap();
        assert!(record.test_accuracy >= 0.0);
    }

    #[test]
    fn table3_suite_has_five_algorithms_in_paper_order() {
        let s = Setting::for_dataset(
            SyntheticDataset::Mnist,
            DataDistribution::Iid,
            100,
            Scale::Smoke,
        );
        let suite = table3_suite(&s);
        let names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["FedSGD", "FedADMM", "FedAvg", "FedProx", "SCAFFOLD"]
        );
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["Method", "Rounds"],
            &[
                vec!["FedADMM".to_string(), "10".to_string()],
                vec!["FedAvg".to_string(), "19".to_string()],
            ],
        );
        assert!(table.contains("Method"));
        assert!(table.contains("FedADMM  10"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn report_json_keeps_field_order_and_parses_back() {
        let report = crate::table2::run(Scale::Smoke).unwrap();
        let text = serde_json::to_string_pretty(&vec![report.to_json()]).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let object = &back[0];
        let keys: Vec<&str> = object
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "description", "rendered", "data"]);
        assert_eq!(object["name"], "table2");
        assert_eq!(object["rendered"], report.rendered);
        assert_eq!(object["data"], report.data);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_rounds(Some(12), 100), "12");
        assert_eq!(format_rounds(None, 100), "100+");
        assert_eq!(format_speedup(Some(29.7)), "29.7x");
        assert_eq!(format_speedup(None), "-");
    }
}
