//! The shared local solver: mini-batch SGD with pluggable gradient
//! corrections.
//!
//! Every algorithm in the paper runs the *same* local solver (SGD) on a
//! different local objective:
//!
//! * FedAvg:   `∇f_i(w, b)`
//! * FedProx:  `∇f_i(w, b) + ρ(w − θ)`
//! * FedADMM:  `∇f_i(w, b) + y_i + ρ(w − θ)`  (Algorithm 1, line 17)
//! * SCAFFOLD: `∇f_i(w, b) − c_i + c`
//!
//! [`local_sgd_with_step`] implements the common loop and takes the
//! parameter update of one step as a closure, so each algorithm contributes
//! only its own correction, fused into the step's one pass over `d`;
//! [`local_sgd_cached`] is the same loop for a correction closure followed
//! by the plain SGD step. [`full_gradient`] computes the exact local
//! gradient: FedSGD's upload, every oracle call of the criterion-(6) solvers
//! and every client of the V_t gauge. Both push
//! every batch through one private step (gather, forward, loss, backward)
//! on a network from a [`NetCache`] and the per-batch temporaries of a
//! [`TrainScratch`], both held by the caller (the dispatch pool keeps one
//! pair per worker inside its
//! [`UpdateScratch`](crate::algorithms::UpdateScratch)), so every gradient
//! pays the same trainer cost, whichever method or solver asks for it.
//!
//! Evaluation uses the same buffers, forward-only: an [`eval_logits_into`]
//! job pushes a contiguous span of samples through a [`NetCache`] network
//! in passes of at most [`EVAL_BATCH`] samples — training-sized, so a
//! worker's activation arena stays the size training gave it — and leaves
//! their logits rows; [`mean_of_logits`] then computes loss and accuracy
//! per [`EVAL_CHUNK`] rows and adds the chunks in order, so the result does
//! not depend on how the passes were cut. The engine runs at most one job
//! per dispatch-pool worker ([`eval_jobs`], [`eval_span`]) on the workers'
//! scratch; [`evaluate`] is one job on a local scratch.

use fedadmm_data::batching::{shuffle_epoch_into, BatchSize};
use fedadmm_data::Dataset;
use fedadmm_nn::loss::{accuracy, softmax_cross_entropy_into};
use fedadmm_nn::models::ModelSpec;
use fedadmm_nn::network::Network;
use fedadmm_nn::ActivationArena;
use fedadmm_tensor::{vecops, Tensor, TensorResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Everything a client needs to run local training for one round.
#[derive(Debug, Clone, Copy)]
pub struct LocalEnv<'a> {
    /// The shared training set.
    pub dataset: &'a Dataset,
    /// Indices of the samples owned by this client.
    pub indices: &'a [usize],
    /// Model architecture.
    pub model: ModelSpec,
    /// Number of local epochs to run this round (`E_i`).
    pub epochs: usize,
    /// Local mini-batch size `B`.
    pub batch_size: BatchSize,
    /// Local SGD learning rate `η_i`.
    pub learning_rate: f32,
    /// Seed for batch shuffling (derived per client and round).
    pub seed: u64,
}

/// Result of a local training pass.
#[derive(Debug, Clone)]
pub struct LocalSgdResult {
    /// The parameters after local training (`w_i^{t+1}`).
    pub params: Vec<f32>,
    /// Number of mini-batch gradient steps taken.
    pub steps: usize,
    /// Number of training samples processed (epochs × local data size).
    pub samples_processed: usize,
    /// Mean training loss over all batches of the final epoch.
    pub final_epoch_loss: f32,
}

/// Reusable buffers for the per-batch temporaries of every batch step: the
/// gathered mini-batch (features + labels), the epoch shuffle order, the
/// input tensor, and the activation arena that the forward/backward sweep
/// writes through. The parameters and their gradient are the cached
/// [`Network`]'s own two vectors; the step works on them in place.
///
/// The same buffers are recycled across steps, epochs, *and* jobs — the
/// dispatch pool keeps one `TrainScratch` per worker inside its
/// [`UpdateScratch`](crate::algorithms::UpdateScratch), so the steady-state
/// SGD step performs **zero** heap allocations (pinned by
/// `tests/alloc_regression.rs`). A warm scratch is bit-identical to a cold
/// one: every buffer is fully overwritten before it is read.
#[derive(Debug)]
pub struct TrainScratch {
    /// Gathered mini-batch feature block, ping-ponged with the `input`
    /// tensor's storage so both allocations survive across steps.
    pub batch_data: Vec<f32>,
    /// Gathered mini-batch labels.
    pub batch_labels: Vec<usize>,
    /// The samples a pass walks in consecutive batches: SGD's shuffled order
    /// for the current epoch, the client's indices for the exact gradient,
    /// one evaluation pass's sample range.
    pub perm: Vec<usize>,
    /// The forward pass's input tensor; its storage swaps with `batch_data`
    /// every step via [`Tensor::replace_data`].
    pub input: Tensor,
    /// Per-layer activation/gradient slots for the arena-routed
    /// forward/backward sweep.
    pub arena: ActivationArena,
}

impl Default for TrainScratch {
    fn default() -> Self {
        TrainScratch {
            batch_data: Vec::new(),
            batch_labels: Vec::new(),
            perm: Vec::new(),
            input: Tensor::zeros(&[0]),
            arena: ActivationArena::new(),
        }
    }
}

/// A reusable [`Network`] instance keyed by the [`ModelSpec`] that built it.
///
/// Local training overwrites *every* parameter from `init` before touching
/// the network, so building one per job would be pure waste, and the cached
/// one is built with zero parameters and no random draw
/// ([`ModelSpec::build_zeroed`]). The dispatch pool keeps one cache per worker
/// inside its `UpdateScratch`, and every training, gradient and evaluation
/// job reuses the network — bit-identical to building fresh, because a job
/// loads all parameters before its first pass, every backward pass
/// overwrites the whole gradient vector (no layer adds to what it finds
/// there), and activation caches are overwritten by each forward pass.
#[derive(Debug, Default)]
pub struct NetCache {
    slot: Option<(ModelSpec, Network)>,
}

impl NetCache {
    /// Returns the cached network for `spec`, building one on first use or
    /// when the spec changed. Its parameters start at zero: every caller
    /// overwrites the full parameter vector before reading it.
    pub fn get(&mut self, spec: ModelSpec) -> &mut Network {
        let hit = matches!(&self.slot, Some((cached, _)) if *cached == spec);
        if !hit {
            self.slot = Some((spec, spec.build_zeroed()));
        }
        &mut self.slot.as_mut().expect("slot filled above").1
    }
}

/// [`local_sgd_with_step`] with the step "correct, then plain SGD": for
/// every batch `b` the update is `w ← w + (−η_i)·(∇f_i(w, b) + c(w))`, where
/// `correction` receives the current parameters and *adds* `c(w)` into the
/// gradient (second argument), and [`vecops::axpy`] then applies it. A
/// no-op closure is FedAvg's local problem. The in-tree algorithms with a
/// correction fuse it into the step instead, which has the same bits and
/// one pass over `d` fewer.
pub fn local_sgd_cached(
    env: &LocalEnv<'_>,
    init: &[f32],
    cache: &mut NetCache,
    scratch: &mut TrainScratch,
    mut correction: impl FnMut(&[f32], &mut [f32]),
) -> TensorResult<LocalSgdResult> {
    local_sgd_with_step(env, init, cache, scratch, |neg_lr, w, g| {
        correction(w, g);
        vecops::axpy(neg_lr, g, w);
    })
}

/// Runs `env.epochs` epochs of mini-batch SGD starting from `init`, on the
/// cached network (see [`NetCache`]) and the reusable per-batch buffers
/// (see [`TrainScratch`]).
///
/// `init` is loaded into the network once; from then on `w` and its
/// gradient `g` are the network's own vectors. Per batch the backward pass
/// writes `g = ∇f_i(w, b)` and `step(−η_i, w, g)` updates `w` in place. The
/// step's contract: leave `w + (−η_i)·(g + c(w))` in every coordinate of
/// `w`, where `c` is the algorithm's gradient correction (zero for plain
/// SGD), computed in that order with no fused multiply-add, so that a fused
/// step has the bits of adding `c(w)` into `g` and then running
/// [`vecops::axpy`]. The step may overwrite `g`: the next backward pass
/// overwrites all of it. A step therefore passes over `d` once, and only
/// where the algorithm does. Every parameter, the whole gradient and every
/// `scratch` buffer is overwritten before it is read, so leftover state
/// from earlier jobs never leaks in.
pub fn local_sgd_with_step(
    env: &LocalEnv<'_>,
    init: &[f32],
    cache: &mut NetCache,
    scratch: &mut TrainScratch,
    mut step: impl FnMut(f32, &mut [f32], &mut [f32]),
) -> TensorResult<LocalSgdResult> {
    let net = cache.get(env.model);
    net.set_params_flat(init)?;
    let neg_lr = -env.learning_rate;

    let mut batch_rng = SmallRng::seed_from_u64(env.seed);
    let batch_len = env.batch_size.resolve(env.indices.len());
    let mut steps = 0usize;
    let mut samples = 0usize;
    let mut final_epoch_loss = 0.0f32;
    for epoch in 0..env.epochs.max(1) {
        let mut epoch_loss = 0.0f32;
        let mut epoch_batches = 0usize;
        // Same RNG consumption (and therefore the same batch order) as
        // `BatchIterator`.
        shuffle_epoch_into(env.indices, &mut batch_rng, &mut scratch.perm);
        for batch in batches(env.indices.len(), batch_len) {
            samples += batch.len();
            let loss = gradient_batch(net, env.dataset, batch, scratch)?;
            let (params, grads) = net.params_grads_mut();
            step(neg_lr, params, grads);
            steps += 1;
            epoch_loss += loss;
            epoch_batches += 1;
        }
        if epoch + 1 == env.epochs.max(1) && epoch_batches > 0 {
            final_epoch_loss = epoch_loss / epoch_batches as f32;
        }
    }
    Ok(LocalSgdResult {
        params: net.params_flat(),
        steps,
        samples_processed: samples,
        final_epoch_loss,
    })
}

/// Computes the exact (full-batch) local gradient `∇f_i(w)` at `at` into
/// `grad` and returns the loss, on the caller's cached network and buffers
/// like [`local_sgd_cached`]: a warm call allocates nothing.
///
/// # Panics
/// Panics if `grad` and `at` differ in length.
pub fn full_gradient(
    env: &LocalEnv<'_>,
    at: &[f32],
    cache: &mut NetCache,
    scratch: &mut TrainScratch,
    grad: &mut [f32],
) -> TensorResult<f32> {
    let net = cache.get(env.model);
    net.set_params_flat(at)?;
    assert_eq!(grad.len(), at.len(), "gradient buffer does not match w");
    grad.fill(0.0);
    if env.indices.is_empty() {
        return Ok(0.0);
    }
    // Accumulate over chunks so that CNN activations for large local
    // datasets do not blow up memory; the gradient of the mean loss is the
    // sample-count-weighted mean of the chunk gradients.
    let mut loss_acc = 0.0f32;
    scratch.perm.clear();
    scratch.perm.extend_from_slice(env.indices);
    for batch in batches(env.indices.len(), 256) {
        let w = batch.len() as f32;
        let loss = gradient_batch(net, env.dataset, batch, scratch)?;
        for (acc, gi) in grad.iter_mut().zip(net.grads()) {
            *acc += gi * w;
        }
        loss_acc += loss * w;
    }
    let inv = 1.0 / env.indices.len() as f32;
    for g in grad.iter_mut() {
        *g *= inv;
    }
    Ok(loss_acc * inv)
}

/// Consecutive `len`-sample ranges of `0..n`, the last one ragged.
fn batches(n: usize, len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n)
        .step_by(len)
        .map(move |start| start..(start + len).min(n))
}

/// The one batch step of this module: gathers the samples that
/// `scratch.perm[batch]` names and runs one forward pass over them; the
/// logits land in `scratch.arena`.
fn forward_batch(
    net: &mut Network,
    dataset: &Dataset,
    batch: std::ops::Range<usize>,
    scratch: &mut TrainScratch,
) -> TensorResult<()> {
    let shape = [batch.len(), dataset.feature_dim()];
    let labels = &mut scratch.batch_labels;
    dataset.gather_into(&scratch.perm[batch], &mut scratch.batch_data, labels)?;
    // Ping-pong the gathered feature block with the input tensor's storage
    // so both allocations survive across steps.
    let data = std::mem::take(&mut scratch.batch_data);
    scratch.batch_data = scratch.input.replace_data(data, &shape)?;
    net.forward_arena(&scratch.input, &mut scratch.arena)
}

/// [`forward_batch`], then the softmax cross-entropy and the backward pass:
/// leaves `∇f(w, batch)` in the network's gradient vector and returns the
/// batch's mean loss.
fn gradient_batch(
    net: &mut Network,
    dataset: &Dataset,
    batch: std::ops::Range<usize>,
    scratch: &mut TrainScratch,
) -> TensorResult<f32> {
    forward_batch(net, dataset, batch, scratch)?;
    let (logits, loss_grad) = scratch.arena.output_and_loss_grad();
    let loss = softmax_cross_entropy_into(logits, &scratch.batch_labels, loss_grad)?;
    net.backward_arena(&mut scratch.arena)?;
    Ok(loss)
}

/// Samples per evaluation chunk: the unit the loss and the accuracy are
/// computed over and summed in — fixed, so the result does not depend on
/// how the forward passes were cut or scheduled.
pub const EVAL_CHUNK: usize = 256;

/// Most samples one evaluation forward pass carries: of the order of a
/// training batch, so evaluating never grows a worker's activation arena
/// far past the size training gave it.
pub const EVAL_BATCH: usize = 32;

/// The sample range of chunk `chunk` of an `n`-sample evaluation
/// (`n.div_ceil(EVAL_CHUNK)` chunks, the last one ragged).
pub fn eval_chunk(chunk: usize, n: usize) -> std::ops::Range<usize> {
    let start = chunk * EVAL_CHUNK;
    start..(start + EVAL_CHUNK).min(n)
}

/// How many jobs an `n`-sample evaluation is cut into on `workers` workers:
/// at most one per worker, and none smaller than two forward passes on
/// average — a job sets every parameter of its worker's network first, so a
/// small evaluation stays one job (which a pool runs inline).
pub fn eval_jobs(n: usize, workers: usize) -> usize {
    n.div_ceil(2 * EVAL_BATCH).min(workers.max(1))
}

/// The contiguous sample span of job `job` of `jobs`: an even split of
/// `0..n`.
pub fn eval_span(job: usize, jobs: usize, n: usize) -> std::ops::Range<usize> {
    job * n / jobs..(job + 1) * n / jobs
}

/// One evaluation job: sets `params` once, pushes the samples in `span`
/// through the network in forward-only passes of at most [`EVAL_BATCH`]
/// samples and writes their logits, `model.num_classes()` per sample, to
/// `out`. Every layer computes a sample's output independently of its batch
/// neighbours, so the rows do not depend on how the passes were cut. A warm
/// `cache` + `scratch` make it allocation-free; every parameter and buffer
/// it reads is overwritten first, so what a training job left behind is
/// harmless.
///
/// # Panics
/// Panics if `out` does not hold exactly `span.len() · classes` values.
pub fn eval_logits_into(
    model: ModelSpec,
    params: &[f32],
    dataset: &Dataset,
    span: std::ops::Range<usize>,
    cache: &mut NetCache,
    scratch: &mut TrainScratch,
    out: &mut [f32],
) -> TensorResult<()> {
    let classes = model.num_classes();
    assert_eq!(
        out.len(),
        span.len() * classes,
        "logits buffer does not match the span"
    );
    if span.is_empty() {
        return Ok(());
    }
    let net = cache.get(model);
    net.set_params_flat(params)?;
    let passes = span.clone().step_by(EVAL_BATCH);
    for (start, rows) in passes.zip(out.chunks_mut((EVAL_BATCH * classes).max(1))) {
        // One pass's samples at a time, so `perm` stays training-sized too.
        let end = (start + EVAL_BATCH).min(span.end);
        scratch.perm.clear();
        scratch.perm.extend(start..end);
        forward_batch(net, dataset, 0..scratch.perm.len(), scratch)?;
        rows.copy_from_slice(scratch.arena.output().data());
    }
    Ok(())
}

/// Mean loss and accuracy of the samples whose logits rows are `logits`
/// (`classes` per sample) and whose labels are `labels`: per
/// [`EVAL_CHUNK`], one softmax cross-entropy and one accuracy over the
/// chunk's `[len, classes]` logits, the chunks' sums added **in chunk
/// order** — bit-identical however the rows were produced. Uses
/// `scratch.input` and the arena's loss-gradient slot as its two
/// temporaries.
pub fn mean_of_logits(
    logits: &[f32],
    classes: usize,
    labels: &[usize],
    scratch: &mut TrainScratch,
) -> TensorResult<(f32, f32)> {
    let n = labels.len();
    if n == 0 {
        return Ok((0.0, 0.0));
    }
    let (mut loss_acc, mut correct_acc) = (0.0f32, 0.0f32);
    for chunk in 0..n.div_ceil(EVAL_CHUNK) {
        let range = eval_chunk(chunk, n);
        let len = range.len();
        let chunk_logits = &mut scratch.input;
        chunk_logits.resize_in_place(&[len, classes]);
        chunk_logits
            .data_mut()
            .copy_from_slice(&logits[range.start * classes..range.end * classes]);
        let labels = &labels[range];
        let loss = softmax_cross_entropy_into(chunk_logits, labels, scratch.arena.loss_grad_mut())?;
        let acc = accuracy(chunk_logits, labels)?;
        loss_acc += loss * len as f32;
        correct_acc += acc * len as f32;
    }
    Ok((loss_acc / n as f32, correct_acc / n as f32))
}

/// Evaluates a parameter vector on (a subset of) a dataset.
///
/// Returns `(mean_loss, accuracy)`. `max_samples` caps the number of
/// evaluated samples (the first `max_samples` are used, which is unbiased
/// because synthetic datasets interleave classes).
///
/// The serial form of the engine's `evaluate_global`: one
/// [`eval_logits_into`] job over all samples, then [`mean_of_logits`], on a
/// fresh network and scratch instead of the dispatch pool's.
pub fn evaluate(
    model: ModelSpec,
    params: &[f32],
    dataset: &Dataset,
    max_samples: usize,
) -> TensorResult<(f32, f32)> {
    let n = dataset.len().min(max_samples);
    let classes = model.num_classes();
    let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
    let mut logits = vec![0.0f32; n * classes];
    eval_logits_into(
        model,
        params,
        dataset,
        0..n,
        &mut cache,
        &mut scratch,
        &mut logits,
    )?;
    mean_of_logits(&logits, classes, &dataset.labels()[..n], &mut scratch)
}

/// The evaluation this module ran before forward passes were cut to
/// [`EVAL_BATCH`]: every [`EVAL_CHUNK`] pushed through the network whole.
/// Kept as the reference the split evaluation is compared against, bit for
/// bit.
#[cfg(test)]
pub(crate) fn evaluate_whole_chunks(
    model: ModelSpec,
    params: &[f32],
    dataset: &Dataset,
    max_samples: usize,
) -> TensorResult<(f32, f32)> {
    let n = dataset.len().min(max_samples);
    if n == 0 {
        return Ok((0.0, 0.0));
    }
    let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
    let net = cache.get(model);
    net.set_params_flat(params)?;
    scratch.perm.extend(0..n);
    let (mut loss_acc, mut correct_acc) = (0.0f32, 0.0f32);
    for chunk in 0..n.div_ceil(EVAL_CHUNK) {
        let range = eval_chunk(chunk, n);
        let len = range.len();
        forward_batch(net, dataset, range, &mut scratch)?;
        let (logits, loss_grad) = scratch.arena.output_and_loss_grad();
        let loss = softmax_cross_entropy_into(logits, &scratch.batch_labels, loss_grad)?;
        let acc = accuracy(logits, &scratch.batch_labels)?;
        loss_acc += loss * len as f32;
        correct_acc += acc * len as f32;
    }
    Ok((loss_acc / n as f32, correct_acc / n as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_tensor::vecops;

    /// One job on a cold worker: fresh network cache, fresh scratch.
    fn cold_sgd(
        env: &LocalEnv<'_>,
        init: &[f32],
        correction: impl FnMut(&[f32], &mut [f32]),
    ) -> TensorResult<LocalSgdResult> {
        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        local_sgd_cached(env, init, &mut cache, &mut scratch, correction)
    }

    /// [`full_gradient`] on a cold worker.
    fn cold_gradient(env: &LocalEnv<'_>, at: &[f32]) -> TensorResult<(Vec<f32>, f32)> {
        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        let mut grad = vec![f32::NAN; at.len()];
        let loss = full_gradient(env, at, &mut cache, &mut scratch, &mut grad)?;
        Ok((grad, loss))
    }

    fn small_env<'a>(dataset: &'a Dataset, indices: &'a [usize]) -> LocalEnv<'a> {
        LocalEnv {
            dataset,
            indices,
            model: ModelSpec::Logistic {
                input_dim: dataset.feature_dim(),
                num_classes: 10,
            },
            epochs: 3,
            batch_size: BatchSize::Size(16),
            learning_rate: 0.1,
            seed: 42,
        }
    }

    #[test]
    fn local_sgd_reduces_local_loss() {
        let (train, _) = SyntheticDataset::Mnist.generate(120, 10, 0);
        let indices: Vec<usize> = (0..120).collect();
        let env = small_env(&train, &indices);
        let d = env.model.num_params();
        let init = vec![0.0f32; d];
        let (_, loss_before) = cold_gradient(&env, &init).unwrap();
        let result = cold_sgd(&env, &init, |_, _| {}).unwrap();
        let (_, loss_after) = cold_gradient(&env, &result.params).unwrap();
        assert!(loss_after < loss_before, "{loss_after} !< {loss_before}");
        assert_eq!(result.steps, 3 * (120usize.div_ceil(16)));
        assert_eq!(result.samples_processed, 3 * 120);
        assert!(result.final_epoch_loss.is_finite());
    }

    #[test]
    fn local_sgd_is_deterministic_in_seed() {
        let (train, _) = SyntheticDataset::Mnist.generate(60, 10, 1);
        let indices: Vec<usize> = (0..60).collect();
        let env = small_env(&train, &indices);
        let init = vec![0.01f32; env.model.num_params()];
        let a = cold_sgd(&env, &init, |_, _| {}).unwrap();
        let b = cold_sgd(&env, &init, |_, _| {}).unwrap();
        assert_eq!(a.params, b.params);
        let env2 = LocalEnv { seed: 43, ..env };
        let c = cold_sgd(&env2, &init, |_, _| {}).unwrap();
        assert_ne!(a.params, c.params);
    }

    /// A warm worker is history-free. Client B's job right after client A's
    /// (other data, other start, other seed) equals B's job on a cold worker
    /// bit for bit, although nothing zeroes the gradient vector A's last
    /// step left — on a two-layer model, so more than one layer's range of
    /// it is at stake — and A's job run again reuses every buffer.
    #[test]
    fn second_job_on_a_warm_scratch_matches_the_first_on_a_cold_one() {
        let (train, _) = SyntheticDataset::Mnist.generate(150, 10, 8);
        let (a_idx, b_idx): (Vec<usize>, Vec<usize>) = ((0..90).collect(), (90..150).collect());
        let mut a = small_env(&train, &a_idx);
        a.model = ModelSpec::Mlp {
            input_dim: train.feature_dim(),
            hidden_dim: 12,
            num_classes: 10,
        };
        let b = LocalEnv {
            indices: &b_idx,
            seed: 7,
            ..a
        };
        let init_a = vec![0.02f32; a.model.num_params()];
        let init_b: Vec<f32> = (0..init_a.len()).map(|i| (i % 7) as f32 * 0.01).collect();
        let pull = |w: &[f32], g: &mut [f32]| vecops::axpy(0.3, w, g);
        let (cold_a, cold_b) = (
            cold_sgd(&a, &init_a, |_, _| {}).unwrap(),
            cold_sgd(&b, &init_b, pull).unwrap(),
        );

        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        local_sgd_cached(&a, &init_a, &mut cache, &mut scratch, |_, _| {}).unwrap();
        let warm_b = local_sgd_cached(&b, &init_b, &mut cache, &mut scratch, pull).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cold_b.params), bits(&warm_b.params));
        assert_eq!(cold_b.final_epoch_loss, warm_b.final_epoch_loss);
        assert_ne!(cold_b.params, init_b);

        let data_cap = scratch.batch_data.capacity();
        let labels_cap = scratch.batch_labels.capacity();
        let warm_a = local_sgd_cached(&a, &init_a, &mut cache, &mut scratch, |_, _| {}).unwrap();
        assert_eq!(bits(&cold_a.params), bits(&warm_a.params));
        assert_eq!(cold_a.final_epoch_loss, warm_a.final_epoch_loss);
        assert_eq!(scratch.batch_data.capacity(), data_cap);
        assert_eq!(scratch.batch_labels.capacity(), labels_cap);
    }

    /// A step that fuses its correction into the update has the bits of the
    /// same correction added into the gradient and applied by `axpy`.
    #[test]
    fn a_fused_step_has_the_bits_of_correction_then_axpy() {
        let (train, _) = SyntheticDataset::Mnist.generate(70, 10, 12);
        let indices: Vec<usize> = (0..70).collect();
        let mut env = small_env(&train, &indices);
        env.model = ModelSpec::Mlp {
            input_dim: train.feature_dim(),
            hidden_dim: 12,
            num_classes: 10,
        };
        let d = env.model.num_params();
        let init: Vec<f32> = (0..d).map(|i| (i % 11) as f32 * 0.01 - 0.05).collect();
        let anchor: Vec<f32> = (0..d).map(|i| (i % 3) as f32 * 0.02).collect();
        let rho = 0.7f32;
        let corrected = cold_sgd(&env, &init, |w, g| {
            for ((gi, &wi), &ti) in g.iter_mut().zip(w).zip(&anchor) {
                *gi += rho * (wi - ti);
            }
        })
        .unwrap();
        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        let fused = local_sgd_with_step(&env, &init, &mut cache, &mut scratch, |neg_lr, w, g| {
            for ((wi, &gi), &ti) in w.iter_mut().zip(&*g).zip(&anchor) {
                *wi += neg_lr * (gi + rho * (*wi - ti));
            }
        })
        .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.params), bits(&corrected.params));
        assert_eq!(fused.steps, corrected.steps);
        assert_eq!(
            fused.final_epoch_loss.to_bits(),
            corrected.final_epoch_loss.to_bits()
        );
        assert_ne!(fused.params, init);
    }

    #[test]
    fn proximal_correction_keeps_iterates_closer_to_anchor() {
        // With a strong proximal term the solution must stay closer to θ
        // than the unconstrained local solution — the mechanism FedProx and
        // FedADMM rely on to prevent client drift.
        let (train, _) = SyntheticDataset::Mnist.generate(80, 10, 2);
        let indices: Vec<usize> = (0..80).collect();
        let env = small_env(&train, &indices);
        let d = env.model.num_params();
        let theta = vec![0.0f32; d];
        let free = cold_sgd(&env, &theta, |_, _| {}).unwrap();
        let rho = 10.0f32;
        let prox = cold_sgd(&env, &theta, |w, g| {
            for ((gi, &wi), &ti) in g.iter_mut().zip(w.iter()).zip(theta.iter()) {
                *gi += rho * (wi - ti);
            }
        })
        .unwrap();
        let free_dist = vecops::dist(&free.params, &theta);
        let prox_dist = vecops::dist(&prox.params, &theta);
        assert!(prox_dist < free_dist, "{prox_dist} !< {free_dist}");
    }

    #[test]
    fn full_gradient_matches_zero_at_minimum_direction() {
        // The full gradient at a point must be a descent direction: taking a
        // small step along -g must reduce the loss.
        let (train, _) = SyntheticDataset::Mnist.generate(60, 10, 3);
        let indices: Vec<usize> = (0..60).collect();
        let env = small_env(&train, &indices);
        let init = vec![0.0f32; env.model.num_params()];
        let (g, loss0) = cold_gradient(&env, &init).unwrap();
        let mut stepped = init.clone();
        vecops::axpy(-0.5, &g, &mut stepped);
        let (_, loss1) = cold_gradient(&env, &stepped).unwrap();
        assert!(loss1 < loss0);
    }

    /// The exact gradient on a worker that just ran another client's SGD
    /// job, and on the same worker again, has the bits of a cold call: more
    /// than one 256-sample chunk, on a two-layer model.
    #[test]
    fn full_gradient_on_a_warm_worker_matches_a_cold_one() {
        let (train, _) = SyntheticDataset::Mnist.generate(400, 10, 9);
        let (a_idx, b_idx): (Vec<usize>, Vec<usize>) = ((0..60).collect(), (60..400).collect());
        let mut a = small_env(&train, &a_idx);
        a.model = ModelSpec::Mlp {
            input_dim: train.feature_dim(),
            hidden_dim: 12,
            num_classes: 10,
        };
        let b = LocalEnv {
            indices: &b_idx,
            ..a
        };
        let at: Vec<f32> = (0..a.model.num_params())
            .map(|i| (i % 5) as f32 * 0.01)
            .collect();
        let (cold, cold_loss) = cold_gradient(&b, &at).unwrap();

        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        local_sgd_cached(&a, &at, &mut cache, &mut scratch, |_, _| {}).unwrap();
        let mut warm = vec![f32::NAN; at.len()];
        for _ in 0..2 {
            let warm_loss = full_gradient(&b, &at, &mut cache, &mut scratch, &mut warm).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&warm), bits(&cold));
            assert_eq!(warm_loss.to_bits(), cold_loss.to_bits());
        }
    }

    #[test]
    fn full_gradient_empty_client_is_zero() {
        let (train, _) = SyntheticDataset::Mnist.generate(20, 10, 4);
        let env = small_env(&train, &[]);
        let init = vec![0.1f32; env.model.num_params()];
        let (g, loss) = cold_gradient(&env, &init).unwrap();
        assert!(g.iter().all(|&v| v == 0.0));
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn evaluate_reports_chance_accuracy_for_zero_model() {
        let (train, _) = SyntheticDataset::Mnist.generate(100, 10, 5);
        let model = ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        };
        let params = vec![0.0f32; model.num_params()];
        let (loss, acc) = evaluate(model, &params, &train, usize::MAX).unwrap();
        assert!((loss - (10.0f32).ln()).abs() < 1e-3);
        // Zero logits predict class 0 for everything; balanced labels → 10%.
        assert!((acc - 0.1).abs() < 0.05);
    }

    #[test]
    fn evaluate_respects_subset_cap() {
        let (train, _) = SyntheticDataset::Mnist.generate(100, 10, 6);
        let model = ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        };
        let params = vec![0.0f32; model.num_params()];
        let full = evaluate(model, &params, &train, usize::MAX).unwrap();
        let subset = evaluate(model, &params, &train, 30).unwrap();
        assert!(full.0.is_finite() && subset.0.is_finite());
    }

    #[test]
    fn training_then_evaluating_beats_chance() {
        let (train, test) = SyntheticDataset::Mnist.generate(200, 100, 7);
        let indices: Vec<usize> = (0..200).collect();
        let mut env = small_env(&train, &indices);
        env.epochs = 5;
        let init = vec![0.0f32; env.model.num_params()];
        let result = cold_sgd(&env, &init, |_, _| {}).unwrap();
        let (_, acc) = evaluate(env.model, &result.params, &test, usize::MAX).unwrap();
        assert!(acc > 0.3, "accuracy only {acc} (chance level is 0.1)");
    }
}
