//! The six workloads, and the one place that builds an engine for them.
//!
//! Everything here goes through the public façade (`fedadmm::prelude`), so
//! the measured run survives the internal collapses ROADMAP item 3 plans.
//! The only import beside the prelude is `Partition`, which `spill-20k`
//! needs for its shared-index partition (the prelude has no constructor
//! for a hand-built partition).

use fedadmm::data::Partition;
use fedadmm::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The engine type every workload runs on. Boxing the algorithm keeps the
/// workloads a table instead of six generic call sites; the scheduler stays
/// a type parameter so the traced run can swap in its own and read it back.
pub type Engine<S> = RoundEngine<Box<dyn Algorithm>, S>;

/// How a workload splits the training set over its clients.
#[derive(Debug, Clone, Copy)]
pub enum Split {
    /// One of the paper's partitioners.
    Paper(DataDistribution),
    /// The label-sorted shared-index windows of `tests/scale_smoke.rs`:
    /// clients own overlapping runs of the label-ordered sample list, so a
    /// population far larger than the dataset still sees skewed data.
    SharedWindows { samples_per_client: usize },
}

/// The federated algorithm of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    FedAdmm { rho: f32 },
    FedAvg,
}

impl Algo {
    pub fn build(self) -> Box<dyn Algorithm> {
        match self {
            Algo::FedAdmm { rho } => Box::new(FedAdmm::new(rho, ServerStepSize::Constant(1.0))),
            Algo::FedAvg => Box::new(FedAvg::new()),
        }
    }
}

/// One benchmark workload: what it runs, for how long, and what counts as
/// a correct outcome.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload is here (printed by `list`, written to
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether the pipeline runs this workload and holds it to the bounds,
    /// that is, whether `BENCHMARK.json` lists it. An ungated workload is
    /// run, traced and reported by the commands for people only.
    pub gated: bool,
    /// Fixed number of rounds per pass.
    pub rounds: usize,
    /// Test accuracy the run must reach; `time_to_target_s` and
    /// `rounds_to_target` are measured at the first round that reaches it.
    /// Workloads that state none are measured over their whole fixed run.
    pub target: Option<f32>,
    /// Correctness check: the final test loss is below round 0's.
    pub loss_falls: bool,
    pub num_clients: usize,
    pub participation: Participation,
    pub split: Split,
    pub local_epochs: usize,
    pub system_heterogeneity: bool,
    /// Every `n`-th client runs `epochs` local epochs instead of one.
    pub stragglers: Option<(usize, usize)>,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub model: ModelSpec,
    pub train_size: usize,
    pub test_size: usize,
    /// Share of the test set evaluated each round.
    pub eval_fraction: f64,
    pub algo: Algo,
    /// 8-bit stochastic quantization behind a Gaussian DP guard.
    pub wire: bool,
    /// A spill store's `dir` is filled in per pass (see `store_config`).
    pub store: StoreConfig,
    pub aggregation: AggregationMode,
}

/// The seed of everything that is the workload's rather than the input's:
/// the engine (model initialisation, client sampling, epoch draws, batch
/// shuffles, DP noise), the partitioner, and the sample pool `--seed` draws
/// from. It is part of the workload, like the learning rate; `--seed` makes
/// the *input* — which train and test samples the run sees. Sizing showed
/// why: over a 20-round horizon the round at which accuracy crosses a
/// target is set mostly by which clients the server happens to sample
/// (quartile spread of `rounds_to_target` over ten seeds: 22-33 % of the
/// median when the engine seed followed `--seed`), and a benchmark whose
/// headline moves that much between seeds cannot bound a regression.
pub const ENGINE_SEED: u64 = 42;

const LOGISTIC: ModelSpec = ModelSpec::Logistic {
    input_dim: 784,
    num_classes: 10,
};

/// The workload table. Round counts are the issue's sizing scaled by one
/// common factor (about a third) so that three passes of any workload fit
/// the per-run budget of the benchmark contract; see README.md.
pub fn all() -> Vec<Workload> {
    let paper = Workload {
        name: "paper-noniid",
        why: "the paper's protocol (100 clients, 10% non-IID, variable epochs): dense GEMM training and per-round eval dominate",
        gated: true,
        rounds: 20,
        target: Some(0.75),
        loss_falls: true,
        num_clients: 100,
        participation: Participation::Fraction(0.1),
        split: Split::Paper(DataDistribution::NonIidShards),
        local_epochs: 5,
        system_heterogeneity: true,
        stragglers: None,
        batch_size: 16,
        learning_rate: 0.1,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 64,
            num_classes: 10,
        },
        train_size: 10_000,
        test_size: 1_000,
        eval_fraction: 1.0,
        algo: Algo::FedAdmm { rho: 0.3 },
        wire: false,
        store: StoreConfig::InMemory,
        aggregation: AggregationMode::SinglePass,
    };
    let skew = Workload {
        name: "dispatch-skew",
        why: "192 four-sample clients, every 48th a 16-epoch straggler: dispatch pool, store borrow and the 192-way fold dominate, GEMM does little",
        gated: true,
        rounds: 270,
        target: None,
        loss_falls: true,
        num_clients: 192,
        participation: Participation::Fraction(1.0),
        split: Split::Paper(DataDistribution::Iid),
        local_epochs: 1,
        system_heterogeneity: false,
        stragglers: Some((48, 16)),
        batch_size: 4,
        learning_rate: 0.05,
        model: LOGISTIC,
        train_size: 192 * 4,
        test_size: 200,
        eval_fraction: 0.25,
        algo: Algo::FedAdmm { rho: 0.01 },
        wire: false,
        store: StoreConfig::InMemory,
        aggregation: AggregationMode::SinglePass,
    };
    vec![
        paper.clone(),
        Workload {
            name: "paper-noniid-fedavg",
            why: "same data, model and seed under FedAvg: the paper's baseline, and the per-job-construction fall-through path of the trainer",
            rounds: 14,
            algo: Algo::FedAvg,
            ..paper
        },
        Workload {
            name: "cnn-train",
            why: "the paper's CNN 1 (d = 1 663 370): the only conv/pool/im2col user, and 6.3 MiB vectors make copies, broadcast and fold bandwidth-bound",
            gated: true,
            rounds: 2,
            target: None,
            loss_falls: true,
            num_clients: 8,
            participation: Participation::Fraction(0.5),
            split: Split::Paper(DataDistribution::Iid),
            local_epochs: 1,
            system_heterogeneity: false,
            stragglers: None,
            batch_size: 16,
            learning_rate: 0.01,
            model: ModelSpec::Cnn1,
            train_size: 8 * 32,
            test_size: 100,
            eval_fraction: 1.0,
            algo: Algo::FedAdmm { rho: 0.3 },
            wire: false,
            store: StoreConfig::InMemory,
            aggregation: AggregationMode::SinglePass,
        },
        skew.clone(),
        Workload {
            name: "wire-fold",
            why: "the dispatch-skew population, uniform work, 8-bit + DP wire path on: clip, noise, quantize and the fused dequantize fold dominate",
            rounds: 160,
            stragglers: None,
            wire: true,
            ..skew
        },
        Workload {
            name: "spill-20k",
            why: "20 000 clients over an 8 MiB spill budget: shard encode/write/read/decode dominates, training is noise",
            // A third to two thirds of a pass is kernel time (page-cache and
            // page-fault churn of the shard files), and on the ballooned guest
            // this was written on that part costs 0.14 s or 0.40 s for tens of
            // seconds at a stretch: the pipeline's ten-run spread reached 27 %
            // of the median where no bound above 25 % is admissible. See
            // README.md.
            gated: false,
            rounds: 4,
            target: None,
            // Four rounds over 1% of 20 000 clients barely move the loss.
            loss_falls: false,
            num_clients: 20_000,
            participation: Participation::Count(200),
            split: Split::SharedWindows {
                samples_per_client: 20,
            },
            local_epochs: 1,
            system_heterogeneity: false,
            stragglers: None,
            batch_size: 20,
            learning_rate: 0.05,
            model: LOGISTIC,
            train_size: 2_000,
            test_size: 400,
            eval_fraction: 0.25,
            algo: Algo::FedAdmm { rho: 0.01 },
            wire: false,
            store: StoreConfig::Spill {
                num_shards: 128,
                budget_bytes: 8 * 1024 * 1024,
                dir: None,
            },
            aggregation: AggregationMode::Hierarchical,
        },
    ]
}

/// Separates the test-set draw's stream from the train-set draw's.
const TEST_DRAW_SALT: u64 = 0x7E57_5E7D_0D1A_57A7;

/// `n` samples of `pool`, drawn without replacement under `seed`.
fn draw(pool: &Dataset, n: usize, seed: u64) -> Dataset {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    order.truncate(n);
    let (mut features, mut labels) = (Vec::new(), Vec::new());
    pool.gather_into(&order, &mut features, &mut labels)
        .expect("drawn indices are within the pool");
    Dataset::new(features, labels, pool.feature_dim(), pool.num_classes())
        .expect("gathered rows keep the pool's shape")
}

/// The workloads `BENCHMARK.json` lists.
pub fn gated() -> Vec<Workload> {
    all().into_iter().filter(|w| w.gated).collect()
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// What changes between the plain measured pass and the traced run's
/// comparison passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// Pin the dispatch pool's worker count (default: the engine's own).
    pub workers: Option<usize>,
    /// Install a `Recorder` (the telemetry-overhead comparison).
    pub recorder: bool,
}

/// The two parts of set-up time, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    pub total_s: f64,
}

impl Workload {
    pub fn config(&self) -> FedConfig {
        FedConfig {
            num_clients: self.num_clients,
            participation: self.participation,
            local_epochs: self.local_epochs,
            system_heterogeneity: self.system_heterogeneity,
            batch_size: BatchSize::Size(self.batch_size),
            local_learning_rate: self.learning_rate,
            model: self.model,
            seed: ENGINE_SEED,
            eval_subset: usize::MAX,
        }
    }

    /// The train and test sets `--seed` selects: a seeded draw, without
    /// replacement, of four fifths of a pool generated under the workload's
    /// fixed seed.
    ///
    /// The generator derives the class prototypes — the classification
    /// task itself — from its seed, so generating under `--seed` would hand
    /// every seed a task of a different difficulty (over ten seeds FedAvg's
    /// `rounds_to_target` then spread 13-16 % of its median, and with the
    /// host's timing noise on top `time_to_target_s` spread 32 %). Drawing
    /// from one task keeps the input seed-dependent and the crossing round
    /// within one round across seeds.
    pub fn datasets(&self, seed: u64) -> (Dataset, Dataset) {
        let (pool_train, pool_test) = SyntheticDataset::Mnist.generate(
            self.train_size * 5 / 4,
            self.test_size * 5 / 4,
            ENGINE_SEED,
        );
        (
            draw(&pool_train, self.train_size, seed),
            draw(&pool_test, self.test_size, seed ^ TEST_DRAW_SALT),
        )
    }

    pub fn partition(&self, train: &Dataset) -> Partition {
        match self.split {
            Split::Paper(distribution) => {
                distribution.partition(train, self.num_clients, ENGINE_SEED)
            }
            Split::SharedWindows { samples_per_client } => {
                let mut order: Vec<usize> = (0..train.len()).collect();
                order.sort_by_key(|&i| train.label(i));
                let span = train.len() - samples_per_client;
                Partition::new(
                    (0..self.num_clients)
                        .map(|c| {
                            let start = (c * 17) % span;
                            order[start..start + samples_per_client].to_vec()
                        })
                        .collect(),
                )
            }
        }
    }

    /// The per-client epoch schedule, when the workload pins one.
    pub fn work_schedule(&self) -> Option<LocalWorkSchedule> {
        self.stragglers.map(|(every, epochs)| {
            LocalWorkSchedule::PerClient(
                (0..self.num_clients)
                    .map(|c| if c % every == 0 { epochs } else { 1 })
                    .collect(),
            )
        })
    }

    pub fn wire_config(&self) -> WirePathConfig {
        if self.wire {
            WirePathConfig::enabled(Quantizer::new(8, true))
                .with_guard(Arc::new(GaussianMechanism::new(20.0, 1e-3)))
        } else {
            WirePathConfig::disabled()
        }
    }

    /// The workload's store, with a spill store's shard files under
    /// `spill_dir` (never the system temp directory).
    pub fn store_config(&self, spill_dir: &Path) -> StoreConfig {
        match &self.store {
            StoreConfig::Spill {
                num_shards,
                budget_bytes,
                ..
            } => StoreConfig::Spill {
                num_shards: *num_shards,
                budget_bytes: *budget_bytes,
                dir: Some(spill_dir.to_path_buf()),
            },
            other => other.clone(),
        }
    }

    /// Whether client state lives in the spill store (and the run reports
    /// the store's spill metrics).
    pub fn spills(&self) -> bool {
        matches!(self.store, StoreConfig::Spill { .. })
    }

    /// Number of test samples evaluated per round.
    pub fn eval_samples(&self) -> usize {
        if self.eval_fraction >= 1.0 {
            self.test_size
        } else {
            ((self.test_size as f64 * self.eval_fraction).ceil() as usize).clamp(1, self.test_size)
        }
    }

    /// Builds the workload's engine: dataset generation, partitioning and
    /// engine construction, timed as the parts of `setup_s`. `spill_dir` is
    /// where a spill store keeps its shard files.
    pub fn build<S: Scheduler>(
        &self,
        seed: u64,
        scheduler: S,
        options: EngineOptions,
        spill_dir: &Path,
    ) -> Result<(Engine<S>, SetupTimes), String> {
        let start = Instant::now();
        let (train, test) = self.datasets(seed);
        let generate_s = start.elapsed().as_secs_f64();
        let partition_start = Instant::now();
        let partition = self.partition(&train);
        let partition_s = partition_start.elapsed().as_secs_f64();
        let mut engine = RoundEngine::new_with_store(
            self.config(),
            train,
            test,
            partition,
            self.algo.build(),
            scheduler,
            &self.store_config(spill_dir),
        )
        .map_err(|e| format!("{}: engine construction failed: {e}", self.name))?
        .with_aggregation(self.aggregation)
        .with_wire_path(self.wire_config())
        .eval_subset(self.eval_fraction);
        if let Some(schedule) = self.work_schedule() {
            engine = engine.with_work_schedule(schedule);
        }
        if let Some(workers) = options.workers {
            engine = engine.with_dispatch_workers(workers);
        }
        if options.recorder {
            engine = engine.with_telemetry(Box::new(Recorder::new()));
        }
        let total_s = start.elapsed().as_secs_f64();
        Ok((
            engine,
            SetupTimes {
                generate_s,
                partition_s,
                total_s,
            },
        ))
    }
}
