//! The integration suite's one scenario builder and its run digests.
//!
//! Every integration test builds its engine from a [`Scenario`]: the
//! federation (clients, participation, local work, model, data sizes,
//! distribution, seed) in one value whose defaults are the suite's common
//! setting, so a test states only what it varies. [`run_digest`] and
//! [`event_digest`] reduce a run to the `u64` the golden pins compare, and
//! [`fleet`] is the compute-only device model of the event-driven tests.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use fedadmm::data::partition::Partition;
use fedadmm::prelude::*;

/// Logistic regression on 784-pixel images, ten classes.
pub const LOGISTIC: ModelSpec = ModelSpec::Logistic {
    input_dim: 784,
    num_classes: 10,
};

/// One federated setting: the [`FedConfig`], the synthetic MNIST train and
/// test sets and their partition, all drawn from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub clients: usize,
    pub seed: u64,
    /// The fraction `C` of clients selected per synchronous round.
    pub participation: f64,
    /// Local epochs `E` (the cap of the draw under `heterogeneity`).
    pub epochs: usize,
    /// Variable local work: each job runs `U{1..E}` epochs.
    pub heterogeneity: bool,
    pub model: ModelSpec,
    pub batch: usize,
    pub learning_rate: f32,
    /// Training samples, across all clients.
    pub train: usize,
    /// Test samples.
    pub test: usize,
    /// Test samples evaluated per round.
    pub eval_subset: usize,
    pub distribution: DataDistribution,
}

impl Scenario {
    /// The suite's defaults on `clients` clients: logistic regression,
    /// B = 16, learning rate 0.1, E = 2, no system heterogeneity, half the
    /// clients per round, 30 IID training samples per client and 120 test
    /// samples, all evaluated.
    pub const fn new(clients: usize, seed: u64) -> Self {
        Scenario {
            clients,
            seed,
            participation: 0.5,
            epochs: 2,
            heterogeneity: false,
            model: LOGISTIC,
            batch: 16,
            learning_rate: 0.1,
            train: clients * 30,
            test: 120,
            eval_subset: usize::MAX,
            distribution: DataDistribution::Iid,
        }
    }

    fn config(&self) -> FedConfig {
        FedConfig {
            num_clients: self.clients,
            participation: Participation::Fraction(self.participation),
            local_epochs: self.epochs,
            system_heterogeneity: self.heterogeneity,
            batch_size: BatchSize::Size(self.batch),
            local_learning_rate: self.learning_rate,
            model: self.model,
            seed: self.seed,
            eval_subset: self.eval_subset,
        }
    }

    /// The train and test sets.
    pub fn data(&self) -> (Dataset, Dataset) {
        SyntheticDataset::Mnist.generate(self.train, self.test, self.seed)
    }

    /// A synchronous engine on the default store.
    pub fn engine<A: Algorithm>(&self, algorithm: A) -> SyncEngine<A> {
        self.engine_with(algorithm, SyncRounds, &StoreConfig::InMemory)
    }

    /// An engine under `scheduler` with its client states in `store`.
    pub fn engine_with<A: Algorithm, S: Scheduler>(
        &self,
        algorithm: A,
        scheduler: S,
        store: &StoreConfig,
    ) -> RoundEngine<A, S> {
        let (train, test) = self.data();
        let partition = self.distribution.partition(&train, self.clients, self.seed);
        self.engine_on(train, test, partition, algorithm, scheduler, store)
    }

    /// An engine under `scheduler` on the default store, its virtual clock
    /// driven by `devices`.
    pub fn timed<A: Algorithm, S: Scheduler>(
        &self,
        algorithm: A,
        scheduler: S,
        devices: DeviceModel,
    ) -> RoundEngine<A, S> {
        self.engine_with(algorithm, scheduler, &StoreConfig::InMemory)
            .with_devices(devices)
            .expect("a device per client")
    }

    /// An engine over data the test drew or partitioned itself.
    pub fn engine_on<A: Algorithm, S: Scheduler>(
        &self,
        train: Dataset,
        test: Dataset,
        partition: Partition,
        algorithm: A,
        scheduler: S,
        store: &StoreConfig,
    ) -> RoundEngine<A, S> {
        RoundEngine::new_with_store(
            self.config(),
            train,
            test,
            partition,
            algorithm,
            scheduler,
            store,
        )
        .expect("valid scenario")
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `words` into the FNV-1a hash `h`, little-endian byte by byte.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn bits(p: &ParamVector) -> impl Iterator<Item = u64> + '_ {
    p.as_slice().iter().map(|x| u64::from(x.to_bits()))
}

/// FNV-1a digest over every schedule-independent field of a run: the full
/// round history (modulo wall-clock timing) plus the bit pattern of the
/// final global model.
pub fn run_digest(history: &RunHistory, global: &ParamVector) -> u64 {
    let records = history.records.iter().flat_map(|r| {
        [
            r.round as u64,
            u64::from(r.test_accuracy.to_bits()),
            u64::from(r.test_loss.to_bits()),
            r.num_selected as u64,
            r.upload_floats as u64,
            r.cumulative_upload_floats as u64,
            r.total_local_epochs as u64,
            r.samples_processed as u64,
            r.staleness_mean.to_bits(),
            r.staleness_max as u64,
        ]
    });
    fnv(fnv(FNV_OFFSET, records), bits(global))
}

/// [`run_digest`] continued over every arrival event: virtual time and
/// weight bits, client, staleness and cumulative upload — so arrival order
/// and the virtual clock are pinned, not only θ.
pub fn event_digest(history: &RunHistory, global: &ParamVector, events: &[AsyncRecord]) -> u64 {
    let events = events.iter().flat_map(|e| {
        [
            e.sim_time.to_bits(),
            u64::from(e.weight.to_bits()),
            e.client_id as u64,
            e.staleness as u64,
            e.cumulative_upload_floats as u64,
        ]
    });
    fnv(run_digest(history, global), events)
}

/// FNV-1a digest over every client's persistent state — id, selection
/// count and the bits of `w_i` and of the correction slot (`y_i`, `h_i` or
/// `c_i`) — so equal digests mean bit-exact state, not merely close.
pub fn state_digest(states: &[ClientState]) -> u64 {
    states.iter().fold(FNV_OFFSET, |h, s| {
        let h = fnv(h, [s.id as u64, s.times_selected as u64]);
        fnv(fnv(h, bits(&s.local_model)), bits(&s.dual))
    })
}

/// Compute-only devices at 1 s per epoch, except the `slow` clients at
/// `slow_seconds`.
pub fn fleet(num_clients: usize, slow: &[usize], slow_seconds: f64) -> DeviceModel {
    let seconds = (0..num_clients).map(|c| if slow.contains(&c) { slow_seconds } else { 1.0 });
    DeviceModel::new(seconds.collect())
}
