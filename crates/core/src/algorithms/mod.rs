//! Federated optimization algorithms.
//!
//! [`FedAdmm`] is the paper's contribution (Algorithm 1). The baselines it
//! is evaluated against are implemented with the same interface so that the
//! simulation engine and experiment harness can treat them uniformly — and
//! on the same trainer: an algorithm has exactly one local-update method,
//! [`Algorithm::client_update_scratch`], and every gradient it takes — SGD
//! step, FedSGD's exact gradient or an objective solver's oracle call —
//! runs on the worker's cached network and reusable buffers, so wall-clock
//! comparisons between them are like for like:
//!
//! | Algorithm    | Local objective                     | Upload per client | Notes |
//! |--------------|-------------------------------------|------------------:|-------|
//! | [`FedSgd`]   | exact gradient at θ                 | `d`               | one server GD step per round |
//! | [`FedAvg`]   | `f_i(w)`                            | `d`               | fixed `E` local epochs |
//! | [`FedProx`]  | `f_i(w) + (ρ/2)‖w−θ‖²`              | `d`               | variable epochs, ρ needs tuning |
//! | [`Scaffold`] | `f_i(w)` with control variates      | `2d`              | doubles upload cost |
//! | [`FedAdmm`]  | `f_i(w) + y_iᵀ(w−θ) + (ρ/2)‖w−θ‖²`  | `d`               | dual variables, tracking server update |
//!
//! Table I of the paper compares their round complexities; the
//! per-algorithm module documentation quotes the relevant row.

mod fedadmm;
mod fedavg;
mod feddyn;
mod fedprox;
mod fedsgd;
mod scaffold;

pub use fedadmm::{FedAdmm, LocalInit, ServerStepSize};
pub use fedavg::FedAvg;
pub use feddyn::FedDyn;
pub use fedprox::FedProx;
pub use fedsgd::FedSgd;
pub use scaffold::Scaffold;

use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::LocalEnv;
use fedadmm_tensor::vecops::{self, DequantTerm, TERM_BLOCK};
use fedadmm_tensor::TensorResult;
use std::ops::Range;

/// The message a selected client uploads to the server at the end of a
/// round.
#[derive(Debug, Clone)]
pub struct ClientMessage {
    /// Which client produced the message.
    pub client_id: usize,
    /// Number of samples held by the client (used by weighted aggregation).
    pub num_samples: usize,
    /// The uploaded vectors. Most algorithms upload a single vector in ℝ^d;
    /// SCAFFOLD uploads two (`Δw` and `Δc`), which is exactly why its
    /// communication cost per round is double (Section III-B).
    pub payload: Vec<ParamVector>,
    /// Local epochs actually run (computation accounting).
    pub epochs_run: usize,
    /// Samples processed during local training (computation accounting).
    pub samples_processed: usize,
    /// Compressed wire representation produced by the engine's wire path
    /// (`None` on the dense path). When present the dense `payload` is
    /// empty — the quantized codes *are* the upload — and the server folds
    /// them directly in the coded domain.
    pub wire: Option<crate::compression::WirePayload>,
}

impl ClientMessage {
    /// Number of model coordinates this message uploads to the server
    /// (dense floats or quantized codes — both count coordinates, so the
    /// paper's `d`-per-client accounting is representation-independent).
    pub fn upload_floats(&self) -> usize {
        let dense: usize = self.payload.iter().map(|p| p.len()).sum();
        let coded = self.wire.as_ref().map_or(0, |w| w.coords());
        dense + coded
    }

    /// Bytes this message occupies on the wire: the quantized size when the
    /// wire path encoded it, `4 · upload_floats` for dense uploads.
    pub fn wire_bytes(&self) -> usize {
        match &self.wire {
            Some(w) => w.wire_bytes(),
            None => 4 * self.upload_floats(),
        }
    }
}

/// What the server did with the round's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOutcome {
    /// Floats uploaded from clients to the server this round:
    /// `Σ_i upload_floats(message_i)` for every algorithm. Read by
    /// `benchmark/`; no in-tree algorithm needs it; ROADMAP.md item 9 deletes it.
    pub upload_floats: usize,
}

/// Reusable per-worker buffers for [`Algorithm::client_update_scratch`].
///
/// The dispatch pool keeps one of these per worker thread and hands it to
/// every job the worker runs, so the local-training network and the
/// per-batch SGD buffers are allocated once per worker instead of once per
/// job. No algorithm needs a d-sized temporary of its own: FedADMM's
/// primal–dual bookkeeping and SCAFFOLD's control-variate update run in
/// place on the client's state. Buffers
/// carry arbitrary leftover contents between jobs and are overwritten
/// before they are read.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    /// Cached local-training network, rebuilt only when the model spec
    /// changes (see [`crate::trainer::NetCache`]).
    pub net: crate::trainer::NetCache,
    /// Per-batch temporaries of every gradient and evaluation pass, reused
    /// across steps and jobs (see [`crate::trainer::TrainScratch`]).
    pub train: crate::trainer::TrainScratch,
}

/// The linear server update of one batch of single-vector uploads — the
/// paper's server step (eq. 5, Algorithm 1 line 10) and every baseline that
/// only averages.
///
/// An algorithm whose server step is `θ ← θ + Σ_k c_k·p_k` or
/// `θ ← Σ_k c_k·p_k` describes it once, as coefficients aligned with the
/// message slice, in [`Algorithm::fold_plan`]. The provided
/// [`Algorithm::server_update`] applies the plan to dense payloads in one
/// serial pass; the engine applies the same plan, to dense or quantized
/// uploads (without decoding them), per coordinate range on its dispatch
/// pool — or, under hierarchical aggregation, as per-shard partial folds.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldPlan {
    /// `θ ← θ + Σ_k coeff_k · payload_k` (FedADMM's tracking update,
    /// FedSGD's gradient step).
    Accumulate(Vec<f32>),
    /// `θ ← Σ_k coeff_k · payload_k` (FedAvg/FedProx model averaging).
    Assign(Vec<f32>),
}

impl FoldPlan {
    /// The per-message coefficients, regardless of kind.
    pub fn coefficients(&self) -> &[f32] {
        match self {
            FoldPlan::Accumulate(c) | FoldPlan::Assign(c) => c,
        }
    }

    /// Whether the plan overwrites θ rather than adding to it.
    pub(crate) fn assigns(&self) -> bool {
        matches!(self, FoldPlan::Assign(_))
    }

    /// The coefficients, one per message. Zipping a plan of the wrong
    /// length with the batch would silently drop the unmatched messages (or
    /// coefficients), so the lengths must agree.
    ///
    /// # Panics
    /// Panics, naming both counts, if they differ.
    fn aligned_with(&self, messages: &[ClientMessage]) -> &[f32] {
        let coefficients = self.coefficients();
        assert!(
            coefficients.len() == messages.len(),
            "FoldPlan has {} coefficients for {} messages",
            coefficients.len(),
            messages.len()
        );
        coefficients
    }

    /// One `(coefficient, first payload)` term per dense message.
    pub(crate) fn dense_terms<'m>(
        &self,
        messages: &'m [ClientMessage],
    ) -> Vec<(f32, &'m ParamVector)> {
        let coefficients = self.aligned_with(messages).iter();
        coefficients
            .zip(messages)
            .map(|(&coeff, msg)| (coeff, &msg.payload[0]))
            .collect()
    }

    /// One term per coded single-vector message. The staleness scale folds
    /// into the coefficient, exactly as it would multiply a dense payload.
    pub(crate) fn coded_terms<'m>(&self, messages: &'m [ClientMessage]) -> Vec<DequantTerm<'m>> {
        let coefficients = self.aligned_with(messages).iter();
        coefficients
            .zip(messages)
            .map(|(&coeff, msg)| {
                let wire = msg.wire.as_ref().expect("coded batch");
                let v = &wire.vectors[0];
                DequantTerm {
                    alpha: coeff * wire.scale,
                    min: v.min,
                    step: v.step,
                    codes: &v.codes,
                }
            })
            .collect()
    }

    /// Folds `terms` into `global` as the plan says: the full-range case of
    /// [`FoldTerm::fold`], which the engine runs per coordinate range on its
    /// dispatch pool.
    pub(crate) fn apply<T: FoldTerm>(&self, terms: &[T], global: &mut ParamVector) {
        T::fold(terms, self.assigns(), 0, global.as_mut_slice());
    }
}

/// One message's term of a linear fold: a dense payload or a coded one.
pub(crate) trait FoldTerm: Sync + Sized {
    /// Folds coordinates `range` of at most [`TERM_BLOCK`] terms into `out`
    /// (`range.len()` floats): `out = Σ` when `assign`, else `out += Σ`. One
    /// kernel call over the terms sliced to `range` — dense payloads
    /// `[range]`, coded ones `codes[range]` — staged on the stack.
    fn fold_block(block: &[Self], range: Range<usize>, assign: bool, out: &mut [f32]);

    /// Folds coordinates `start..start + out.len()` of `terms` into `out`,
    /// [`TERM_BLOCK`] terms per kernel call in message order: the first
    /// block overwrites when `assign`, every later one adds. Per coordinate
    /// that is the operation sequence of one kernel call over all the terms
    /// (which blocks its terms the same way), so any cut of θ into ranges
    /// gives the bits of the full-range fold.
    fn fold(terms: &[Self], assign: bool, start: usize, out: &mut [f32]) {
        if terms.is_empty() && assign {
            vecops::zero(out);
        }
        let range = start..start + out.len();
        for (b, block) in terms.chunks(TERM_BLOCK).enumerate() {
            Self::fold_block(block, range.clone(), assign && b == 0, out);
        }
    }
}

impl FoldTerm for (f32, &ParamVector) {
    fn fold_block(block: &[Self], range: Range<usize>, assign: bool, out: &mut [f32]) {
        let mut alphas = [0.0f32; TERM_BLOCK];
        let mut xs: [&[f32]; TERM_BLOCK] = [&[]; TERM_BLOCK];
        for ((alpha, x), &(coeff, payload)) in alphas.iter_mut().zip(&mut xs).zip(block) {
            *alpha = coeff;
            *x = &payload.as_slice()[range.clone()];
        }
        let (alphas, xs) = (&alphas[..block.len()], &xs[..block.len()]);
        if assign {
            vecops::weighted_sum_into(alphas, xs, out);
        } else {
            vecops::axpy_fused(alphas, xs, out);
        }
    }
}

impl FoldTerm for DequantTerm<'_> {
    fn fold_block(block: &[Self], range: Range<usize>, assign: bool, out: &mut [f32]) {
        let empty = DequantTerm {
            alpha: 0.0,
            min: 0.0,
            step: 0.0,
            codes: &[],
        };
        let mut sliced = [empty; TERM_BLOCK];
        for (s, t) in sliced.iter_mut().zip(block) {
            *s = DequantTerm {
                codes: &t.codes[range.clone()],
                ..*t
            };
        }
        let sliced = &sliced[..block.len()];
        if assign {
            vecops::dequant_sum_into(sliced, out);
        } else {
            vecops::dequant_axpy_fused(sliced, out);
        }
    }
}

/// A federated optimization algorithm.
///
/// The simulation engine drives each round as:
/// 1. select `S_t`,
/// 2. call [`Algorithm::client_update_scratch`] for every selected client
///    (in parallel, each worker passing its own [`UpdateScratch`] — the
///    method takes `&self` so algorithm-global state is read-only during
///    local training),
/// 3. call [`Algorithm::server_update`] with the collected messages.
pub trait Algorithm: Send + Sync {
    /// Algorithm name as used in the paper's tables ("FedADMM", "FedAvg"…).
    fn name(&self) -> &'static str;

    /// Called once before the first round with the model dimension `d` and
    /// the client population size `m`. Algorithms that keep server-side
    /// state (SCAFFOLD's control variate) allocate it here.
    fn init(&mut self, _dim: usize, _num_clients: usize) {}

    /// Whether this algorithm requires every client to participate in every
    /// round; the engine then selects everyone. Read by `benchmark/`; no
    /// in-tree algorithm needs it; ROADMAP.md item 9 deletes it.
    fn requires_full_participation(&self) -> bool {
        false
    }

    /// Whether this algorithm applies system heterogeneity (variable local
    /// epochs) under the paper's protocol. FedAvg and SCAFFOLD run the fixed
    /// maximum `E`; FedADMM and FedProx tolerate variable work.
    fn supports_variable_work(&self) -> bool {
        true
    }

    /// Local update of one selected client: trains on the client's data
    /// starting from (its view of) the global model `global`, mutates the
    /// client's persistent state, and returns the upload message.
    ///
    /// This is the only local-update method an algorithm implements, and
    /// the only one the engine calls. SGD-based algorithms pass
    /// `scratch.net` / `scratch.train` and their SGD step to
    /// [`local_sgd_with_step`](crate::trainer::local_sgd_with_step); the
    /// result must not depend on what earlier jobs left in `scratch`. The
    /// in-tree algorithms write the client's state in place, in the
    /// allocations it already has, and upload the trainer's buffer; when
    /// training fails they return the error with the state untouched.
    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage>;

    /// [`Algorithm::client_update_scratch`] on a fresh scratch — a
    /// convenience for tests and one-off calls. Not meant to be overridden.
    fn client_update(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
    ) -> TensorResult<ClientMessage> {
        self.client_update_scratch(client, global, env, &mut UpdateScratch::default())
    }

    /// Server aggregation: consumes the round's messages and updates the
    /// global model in place.
    ///
    /// Provided for every algorithm with a [`FoldPlan`]: the plan's
    /// coefficients go through one fused pass over ℝ^d. Only algorithms
    /// whose server step is stateful (SCAFFOLD, FedDyn) implement this
    /// themselves. `rng` is passed by `benchmark/`; no in-tree server step
    /// reads it; ROADMAP.md item 9 deletes it.
    ///
    /// # Panics
    /// The provided method panics on a non-empty batch without a plan: an
    /// algorithm defines `fold_plan` or overrides `server_update`.
    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        num_clients: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        let _ = rng;
        match self.fold_plan(messages, num_clients) {
            Some(plan) => plan.apply(&plan.dense_terms(messages), global),
            None => assert!(
                messages.is_empty(),
                "{} defines neither fold_plan nor server_update",
                self.name()
            ),
        }
        ServerOutcome {
            upload_floats: total_upload(messages),
        }
    }

    /// The linear [`FoldPlan`] of this batch's server update. `None` (the
    /// default) means the batch is empty or the server step is stateful or
    /// non-linear — the algorithm then overrides
    /// [`Algorithm::server_update`], which the engine calls instead.
    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        let _ = (messages, num_clients);
        None
    }
}

impl Algorithm for Box<dyn Algorithm> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }
    fn init(&mut self, dim: usize, num_clients: usize) {
        self.as_mut().init(dim, num_clients)
    }
    fn requires_full_participation(&self) -> bool {
        self.as_ref().requires_full_participation()
    }
    fn supports_variable_work(&self) -> bool {
        self.as_ref().supports_variable_work()
    }
    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        self.as_ref()
            .client_update_scratch(client, global, env, scratch)
    }
    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        num_clients: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        self.as_mut()
            .server_update(global, messages, num_clients, rng)
    }
    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        self.as_ref().fold_plan(messages, num_clients)
    }
}

/// Sums the payload upload sizes of a round's messages.
pub(crate) fn total_upload(messages: &[ClientMessage]) -> usize {
    messages.iter().map(|m| m.upload_floats()).sum()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for algorithm unit tests.

    use crate::client::ClientState;
    use crate::param::ParamVector;
    use crate::trainer::LocalEnv;
    use fedadmm_data::batching::BatchSize;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_data::Dataset;
    use fedadmm_nn::models::ModelSpec;

    /// A small, fast test fixture: a logistic model on a tiny synthetic
    /// MNIST-like dataset split across a few clients.
    pub struct Fixture {
        /// The training dataset shared by all clients.
        pub train: Dataset,
        /// Held-out test dataset.
        pub test: Dataset,
        /// The model specification used by all clients.
        pub model: ModelSpec,
        /// Per-client index lists.
        pub client_indices: Vec<Vec<usize>>,
    }

    impl Fixture {
        /// Builds the fixture with `clients` clients and `per_client`
        /// samples per client.
        pub fn new(clients: usize, per_client: usize, seed: u64) -> Self {
            let (train, test) = SyntheticDataset::Mnist.generate(clients * per_client, 50, seed);
            let client_indices: Vec<Vec<usize>> = (0..clients)
                .map(|c| (c * per_client..(c + 1) * per_client).collect())
                .collect();
            Fixture {
                train,
                test,
                model: ModelSpec::Logistic {
                    input_dim: 784,
                    num_classes: 10,
                },
                client_indices,
            }
        }

        /// Model dimension `d`.
        pub fn dim(&self) -> usize {
            self.model.num_params()
        }

        /// Fresh per-client state, all starting from `theta`.
        pub fn clients(&self, theta: &ParamVector) -> Vec<ClientState> {
            self.client_indices
                .iter()
                .enumerate()
                .map(|(i, idx)| ClientState::new(i, idx.clone(), theta))
                .collect()
        }

        /// A `LocalEnv` for client `i`.
        pub fn env<'a>(&'a self, client: usize, epochs: usize, seed: u64) -> LocalEnv<'a> {
            LocalEnv {
                dataset: &self.train,
                indices: &self.client_indices[client],
                model: self.model,
                epochs,
                batch_size: BatchSize::Size(16),
                learning_rate: 0.1,
                seed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_message_upload_floats_counts_all_payloads() {
        let msg = ClientMessage {
            client_id: 0,
            num_samples: 5,
            payload: vec![ParamVector::zeros(10), ParamVector::zeros(10)],
            epochs_run: 1,
            samples_processed: 5,
            wire: None,
        };
        assert_eq!(msg.upload_floats(), 20);
        assert_eq!(total_upload(&[msg.clone(), msg]), 40);
    }

    /// `n` four-float uploads, dense or coded by the wire path's quantizer.
    fn messages(n: usize, coded: bool) -> Vec<ClientMessage> {
        let quantizer = crate::compression::Quantizer::new(8, false);
        (0..n)
            .map(|c| {
                let payload = ParamVector::from_vec(vec![c as f32; 4]);
                ClientMessage {
                    client_id: c,
                    num_samples: 1,
                    wire: coded.then(|| crate::compression::WirePayload {
                        scale: 1.0,
                        vectors: vec![quantizer.quantize(payload.as_slice(), 0)],
                    }),
                    payload: if coded { Vec::new() } else { vec![payload] },
                    epochs_run: 1,
                    samples_processed: 1,
                }
            })
            .collect()
    }

    /// A plan one coefficient short would fold two of three messages.
    #[test]
    #[should_panic(expected = "FoldPlan has 2 coefficients for 3 messages")]
    fn a_fold_plan_one_coefficient_short_panics() {
        FoldPlan::Accumulate(vec![0.5; 2]).dense_terms(&messages(3, false));
    }

    /// A plan one coefficient long has a coefficient no message answers.
    #[test]
    #[should_panic(expected = "FoldPlan has 4 coefficients for 3 messages")]
    fn a_fold_plan_one_coefficient_long_panics() {
        FoldPlan::Assign(vec![0.5; 4]).coded_terms(&messages(3, true));
    }

    #[test]
    fn boxed_algorithm_delegates() {
        let mut alg: Box<dyn Algorithm> = Box::new(FedAvg::new());
        assert_eq!(alg.name(), "FedAvg");
        assert!(!alg.requires_full_participation());
        alg.init(10, 5);
    }
}
