//! Pins the zero-allocation guarantee of the training hot path.
//!
//! A counting global allocator measures the *marginal* allocation cost of
//! extra SGD epochs on a warmed [`fedadmm_core::trainer::local_sgd_cached`]
//! worker (cached network + `TrainScratch` with its activation arena).
//! Steady-state mini-batch steps must perform **zero** heap allocations:
//! every buffer — gathered batch, input tensor, per-layer activations and
//! gradients, loss gradient — is recycled across steps and epochs, and the
//! parameters and their gradient are the cached network's own two vectors —
//! for the dense stack, and for the paper's CNN 1 with its im2col, pooling
//! and convolution-gradient scratch. A further check pins the
//! per-*job* cost of FedAvg, FedADMM, SCAFFOLD, FedDyn and FedSGD on a warm
//! worker to the payload they upload — and, with the wire path on, to that
//! plus the coded upload that replaces it — another bounds each extra
//! gradient-descent step of FedADMM's objective solver to the gradient it
//! returns, another holds a line-search solver job's count fixed however
//! many candidates it tries, another bounds a whole evaluation
//! pass to O(1) allocations regardless of how many forward passes and
//! 256-sample chunks it spans, and
//! another pins a warm one-worker `RoundEngine::evaluate_global` to its
//! result-slot vector and its logits buffer, and the last bounds a warm
//! 192-message server fold, dense and coded, on the default pool.
//!
//! Tensor kernels are serial loops and a one-worker dispatch pool runs
//! inline, so the training and evaluation counts are this thread's own
//! buffers on any host. The counter is process-wide, so the fold count also
//! includes what pool workers allocate: the fold's coordinate-range jobs run
//! on them when the pool has more than one worker.
//!
//! This file intentionally holds a single `#[test]` so no sibling test
//! thread pollutes the allocation counter mid-measurement.

mod common;

use common::{Scenario, LOGISTIC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fedadmm_clientstore::StoreConfig;
use fedadmm_core::algorithms::{
    Algorithm, ClientMessage, FedAdmm, FedAvg, FedDyn, FedSgd, Scaffold, UpdateScratch,
};
use fedadmm_core::client::ClientState;
use fedadmm_core::compression::{Quantizer, WirePayload};
use fedadmm_core::engine::{EngineCore, Scheduler, TickReport, WirePathConfig};
use fedadmm_core::param::ParamVector;
use fedadmm_core::privacy::GaussianMechanism;
use fedadmm_core::solver::LocalSolver;
use fedadmm_core::trainer::{evaluate, local_sgd_cached, LocalEnv, NetCache, TrainScratch};
use fedadmm_data::batching::BatchSize;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_nn::models::ModelSpec;
use fedadmm_tensor::TensorResult;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_sgd_step_allocates_nothing() {
    let (train, _) = SyntheticDataset::Mnist.generate(96, 256, 5);
    let indices: Vec<usize> = (0..96).collect();
    let model = ModelSpec::Logistic {
        input_dim: train.feature_dim(),
        num_classes: 10,
    };
    let init = vec![0.01f32; model.num_params()];
    let env = |epochs: usize| LocalEnv {
        dataset: &train,
        indices: &indices,
        model,
        epochs,
        batch_size: BatchSize::Size(16),
        learning_rate: 0.1,
        seed: 77,
        // 96 samples / B=16 → six full batches per epoch, so every epoch
        // revisits exactly the shapes the warm-up pass grew buffers for.
    };

    let mut cache = NetCache::default();
    let mut scratch = TrainScratch::default();
    // Warm-up: grows the network cache, the gather/ping-pong buffers and
    // every arena slot to their steady-state capacities.
    local_sgd_cached(&env(1), &init, &mut cache, &mut scratch, |_, _| {}).unwrap();

    let before_short = alloc_count();
    local_sgd_cached(&env(2), &init, &mut cache, &mut scratch, |_, _| {}).unwrap();
    let short_run = alloc_count() - before_short;

    let extra_epochs = 6u64;
    let before_long = alloc_count();
    local_sgd_cached(
        &env(2 + extra_epochs as usize),
        &init,
        &mut cache,
        &mut scratch,
        |_, _| {},
    )
    .unwrap();
    let long_run = alloc_count() - before_long;

    // Both runs share the same fixed per-call cost (copying the trained
    // parameters out of the network into the result); the six additional
    // epochs — 36 additional SGD steps — must add zero allocations on top
    // of it.
    assert_eq!(
        long_run,
        short_run,
        "steady-state SGD steps must not allocate: {extra_epochs} extra epochs \
         cost {} allocations",
        long_run as i64 - short_run as i64
    );

    // The same holds for the convolutional stack: a warm CNN 1 step reuses
    // the im2col matrix, the pooling argmax and the per-sample weight-gradient
    // buffers, and the first convolution computes no input gradient at all.
    let cnn_indices: Vec<usize> = (0..4).collect();
    let cnn_init = vec![0.01f32; ModelSpec::Cnn1.num_params()];
    let cnn_env = |epochs: usize| LocalEnv {
        indices: &cnn_indices,
        model: ModelSpec::Cnn1,
        batch_size: BatchSize::Size(2),
        ..env(epochs)
    };
    let mut cnn_cache = NetCache::default();
    let mut cnn_scratch = TrainScratch::default();
    let mut cnn_run = |epochs: usize| {
        let before = alloc_count();
        local_sgd_cached(
            &cnn_env(epochs),
            &cnn_init,
            &mut cnn_cache,
            &mut cnn_scratch,
            |_, _| {},
        )
        .unwrap();
        alloc_count() - before
    };
    cnn_run(1); // warm-up
    let (cnn_short, cnn_long) = (cnn_run(1), cnn_run(2));
    assert_eq!(
        cnn_long, cnn_short,
        "steady-state CNN steps must not allocate: 1 epoch → {cnn_short}, 2 epochs → {cnn_long}"
    );

    // One job of a baseline on a warm worker costs what the bare trainer
    // costs plus the payload `Vec` it uploads — no per-job network build,
    // no arena growth.
    let mut worker = UpdateScratch::default();
    let theta = ParamVector::from_vec(init.clone());
    let mut client = ClientState::new(0, indices.clone(), &theta);
    let job = env(2);
    FedAvg::new()
        .client_update_scratch(&mut client, &theta, &job, &mut worker)
        .unwrap();
    let before_bare = alloc_count();
    local_sgd_cached(&job, &init, &mut worker.net, &mut worker.train, |_, _| {}).unwrap();
    let bare = alloc_count() - before_bare;
    let before_job = alloc_count();
    FedAvg::new()
        .client_update_scratch(&mut client, &theta, &job, &mut worker)
        .unwrap();
    let fedavg_job = alloc_count() - before_job;
    assert!(
        fedavg_job <= bare + 2,
        "a warm FedAvg job must allocate only its payload on top of the \
         trainer: bare local_sgd_cached → {bare}, client_update_scratch → {fedavg_job}"
    );

    // FedADMM is held to the same bound: its primal–dual bookkeeping runs
    // in place on `(w_i, y_i)` and the upload is the trained vector's
    // buffer, so a warm job allocates no d-sized temporary of its own.
    let admm = FedAdmm::paper_default();
    let mut admm_client = ClientState::new(1, indices.clone(), &theta);
    admm.client_update_scratch(&mut admm_client, &theta, &job, &mut worker)
        .unwrap();
    let before_job = alloc_count();
    admm.client_update_scratch(&mut admm_client, &theta, &job, &mut worker)
        .unwrap();
    let fedadmm_job = alloc_count() - before_job;
    assert!(
        fedadmm_job <= fedavg_job,
        "a warm FedADMM job must allocate no more than the FedAvg job beside \
         it: FedAvg → {fedavg_job}, FedADMM → {fedadmm_job}"
    );
    // In absolute terms: the trained parameters copied out of the network
    // (their buffer carries Δ) and the message's one-element payload list — what
    // the job cost when the trainer cloned `init` into a working vector of
    // its own, so the flat store added nothing.
    assert!(
        bare <= 1 && fedadmm_job <= 2,
        "a warm job grew an allocation: bare trainer → {bare}, FedADMM → {fedadmm_job}"
    );

    // SCAFFOLD and FedDyn update their correction slot (c_i, h_i) in place
    // while the trainer reads it borrowed. FedDyn's job costs FedAvg's;
    // SCAFFOLD's adds only its second upload, Δc, because Δw is written over
    // the trained vector's buffer.
    let warm_job = |algorithm: &mut dyn Algorithm, worker: &mut UpdateScratch| {
        algorithm.init(theta.len(), 4);
        let mut client = ClientState::new(2, indices.clone(), &theta);
        // The first job leaves a non-zero correction in the slot.
        algorithm
            .client_update_scratch(&mut client, &theta, &job, worker)
            .unwrap();
        let before = alloc_count();
        algorithm
            .client_update_scratch(&mut client, &theta, &job, worker)
            .unwrap();
        alloc_count() - before
    };
    let scaffold_job = warm_job(&mut Scaffold::new(), &mut worker);
    let feddyn_job = warm_job(&mut FedDyn::new(0.1), &mut worker);
    assert!(
        feddyn_job <= fedavg_job && scaffold_job <= fedavg_job + 1,
        "a warm correction-slot job grew a d-sized temporary: FedAvg → {fedavg_job}, \
         SCAFFOLD → {scaffold_job}, FedDyn → {feddyn_job}"
    );

    // FedSGD's exact gradient runs on the worker's cached network too: a
    // warm job allocates the gradient it uploads and the payload list, no
    // network and no per-batch buffer of its own. Its one 96-sample batch
    // grows each half of the ping-ponged input buffer once, so the worker is
    // warm after two jobs.
    warm_job(&mut FedSgd::new(0.1), &mut worker);
    let fedsgd_job = warm_job(&mut FedSgd::new(0.1), &mut worker);
    assert!(
        fedsgd_job <= fedavg_job,
        "a warm FedSGD job must allocate no more than the FedAvg job beside it: \
         FedAvg → {fedavg_job}, FedSGD → {fedsgd_job}"
    );

    // So do the criterion-(6) solvers' oracle calls: five more gradient
    // descent steps add at most the gradient `Vec` each call returns.
    let gd = |steps: usize| {
        FedAdmm::paper_default().with_solver(LocalSolver::GradientDescent {
            steps,
            learning_rate: 0.1,
        })
    };
    let (gd_short, gd_long) = (
        warm_job(&mut gd(5), &mut worker),
        warm_job(&mut gd(10), &mut worker),
    );
    assert!(
        gd_long <= gd_short + 5,
        "a warm gradient-descent step allocates more than its gradient: \
         5 steps → {gd_short}, 10 steps → {gd_long}"
    );

    // The line-search solvers try each candidate in one reused buffer, its
    // gradient in another, and L-BFGS keeps its direction and curvature
    // pairs per solve: a warm job's count does not grow with the number of
    // candidates. ε = 0 is never met, so every job spends its whole budget;
    // L-BFGS's one-pair memory is full after its first iteration.
    let to_tolerance = |max_steps: usize| {
        FedAdmm::paper_default().with_solver(LocalSolver::ToTolerance {
            epsilon: 0.0,
            learning_rate: 0.1,
            max_steps,
        })
    };
    let lbfgs = |max_iters: usize| {
        FedAdmm::paper_default().with_solver(LocalSolver::Lbfgs {
            memory: 1,
            max_iters,
            epsilon: 0.0,
        })
    };
    let (tt_short, tt_long) = (
        warm_job(&mut to_tolerance(4), &mut worker),
        warm_job(&mut to_tolerance(16), &mut worker),
    );
    let (lbfgs_short, lbfgs_long) = (
        warm_job(&mut lbfgs(3), &mut worker),
        warm_job(&mut lbfgs(12), &mut worker),
    );
    assert!(
        tt_long == tt_short && lbfgs_long == lbfgs_short,
        "a warm line-search job allocates per candidate: to tolerance 4 → {tt_short}, \
         16 → {tt_long} evaluations; L-BFGS 3 → {lbfgs_short}, 12 → {lbfgs_long} iterations"
    );

    // The wire path's client edge adds what travels and nothing else: the
    // guard clips and noises the payload in place, the quantizer fills the
    // worker's warm staging buffer, and the message leaves with one list of
    // coded vectors and one exact-size code vector in it.
    let wire = WirePathConfig::enabled(Quantizer::new(8, true))
        .with_guard(Arc::new(GaussianMechanism::new(20.0, 1e-3)))
        .resolve()
        .expect("a quantizer turns the wire path on");
    let mut wire_codes = Vec::new();
    let mut wire_job = |client: &mut ClientState, worker: &mut UpdateScratch| {
        let before = alloc_count();
        let mut message = admm
            .client_update_scratch(client, &theta, &job, worker)
            .unwrap();
        wire.encode(&mut message, job.seed, &mut wire_codes);
        let cost = alloc_count() - before;
        let coded = message.wire.expect("the encoder attaches the coded upload");
        assert!(message.payload.is_empty());
        assert_eq!(coded.vectors[0].codes.len(), init.len());
        assert_eq!(coded.vectors[0].codes.capacity(), init.len());
        cost
    };
    wire_job(&mut admm_client, &mut worker); // sizes the staging buffer
    let wire_on_job = wire_job(&mut admm_client, &mut worker);
    assert!(
        wire_on_job <= fedadmm_job + 2,
        "a warm wire-on job must allocate its coded upload only on top of \
         the dense job: dense → {fedadmm_job}, wire-on → {wire_on_job}"
    );

    // An evaluation pass reuses one network, one arena and one gather buffer
    // across its forward passes and 256-sample chunks — at the paper's own
    // shape, on any host: a regression back to per-pass or per-chunk tensor
    // allocation costs 10+ calls each and trips this immediately.
    let eval_model = ModelSpec::Mlp {
        input_dim: 784,
        hidden_dim: 64,
        num_classes: 10,
    };
    let eval_scenario = Scenario {
        model: eval_model,
        train: 64,
        test: 1024,
        ..Scenario::new(4, 9)
    };
    let (_, eval_set) = eval_scenario.data();
    let params = vec![0.01f32; eval_model.num_params()];
    evaluate(eval_model, &params, &eval_set, 256).unwrap(); // warm the allocator pools
    let before_one = alloc_count();
    evaluate(eval_model, &params, &eval_set, 256).unwrap();
    let one_chunk = alloc_count() - before_one;
    let before_four = alloc_count();
    evaluate(eval_model, &params, &eval_set, 1024).unwrap();
    let four_chunks = alloc_count() - before_four;
    let extra_chunks = 3;
    assert!(
        four_chunks <= one_chunk + extra_chunks,
        "evaluation allocations grew with chunk count: \
         1 chunk → {one_chunk}, 4 chunks → {four_chunks}"
    );

    // The engine holds its evaluation context: a warm `evaluate_global`
    // runs its 32 forward passes on the pool's cached network and training
    // scratch and allocates two things — the vector of per-job slots and
    // the one logits buffer the jobs fill and the chunk reduction reads (a
    // chunk's loss is taken over logits that several passes produced, so
    // they have to be kept somewhere) — no network, no `TrainScratch`, no
    // index list, and no more for 32 passes than for one.
    let engine = eval_scenario.engine(FedAvg::new()).with_dispatch_workers(1);
    let cold = engine.evaluate_global().unwrap();
    let before_warm = alloc_count();
    let warm = engine.evaluate_global().unwrap();
    let warm_eval = alloc_count() - before_warm;
    assert_eq!(cold, warm);
    assert!(
        warm_eval <= 2,
        "a warm evaluate_global must allocate its slot vector and its logits \
         buffer only, saw {warm_eval}"
    );
    let engine = engine.eval_subset(32.0 / 1024.0);
    engine.evaluate_global().unwrap();
    let before_one_pass = alloc_count();
    engine.evaluate_global().unwrap();
    let one_pass_eval = alloc_count() - before_one_pass;
    assert_eq!(
        warm_eval, one_pass_eval,
        "evaluate_global allocations grew with the number of forward passes"
    );

    // A warm 192-message server fold allocates the plan's coefficient vector
    // and its term list, and nothing else, however many ranges the pool
    // folds it in: the ranges are handed out from one iterator over θ (no
    // range-slot vector) and each kernel call's sliced terms sit on the
    // stack (no per-range term vectors). Counted at workers 1, 2 (this
    // file's default on a 2-vCPU host), 3 and 8: dense 2, coded 2 at each.
    // Before the range split (one serial fused pass) the counts were dense
    // 4 (the kernel call unzipped the terms into two more vectors), coded 2.
    let (dense_fold, coded_fold) = warm_fold_allocations();
    assert!(
        dense_fold <= 2 && coded_fold <= 2,
        "a warm 192-message fold grew an allocation: dense {dense_fold} (pinned 2), \
         coded {coded_fold} (pinned 2)"
    );
}

/// A scheduler whose tick is one `aggregate` of a fixed batch, counting
/// what it allocates.
struct FoldOnly {
    messages: Vec<ClientMessage>,
    allocations: u64,
}

impl Scheduler for FoldOnly {
    fn name(&self) -> &'static str {
        "fold-only"
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let mut rng = SmallRng::seed_from_u64(0);
        let before = alloc_count();
        core.aggregate(&self.messages, &mut rng);
        self.allocations = alloc_count() - before;
        Ok(TickReport::default())
    }
}

/// Allocations of a warm 192-message FedADMM `aggregate` on the default
/// pool (`FEDADMM_DISPATCH_WORKERS`, else the host's cores): `(dense,
/// coded)`.
fn warm_fold_allocations() -> (u64, u64) {
    const COHORT: usize = 192;
    let d = LOGISTIC.num_params();
    let quantizer = Quantizer::new(8, true);
    let dense: Vec<ClientMessage> = (0..COHORT)
        .map(|c| ClientMessage {
            client_id: c,
            num_samples: 2,
            payload: vec![ParamVector::from_vec(
                (0..d)
                    .map(|i| ((i * 7 + c * 13) % 101) as f32 * 1e-3 - 0.05)
                    .collect(),
            )],
            epochs_run: 1,
            samples_processed: 2,
            wire: None,
        })
        .collect();
    let coded: Vec<ClientMessage> = dense
        .iter()
        .map(|m| ClientMessage {
            payload: Vec::new(),
            wire: Some(WirePayload {
                scale: 1.0,
                vectors: vec![quantizer.quantize(m.payload[0].as_slice(), m.client_id as u64)],
            }),
            ..m.clone()
        })
        .collect();
    let warm_fold = |messages: Vec<ClientMessage>| {
        let scenario = Scenario {
            train: 2 * COHORT,
            test: 8,
            ..Scenario::new(COHORT, 3)
        };
        let scheduler = FoldOnly {
            messages,
            allocations: 0,
        };
        let admm = FedAdmm::paper_default();
        let mut engine = scenario.engine_with(admm, scheduler, &StoreConfig::InMemory);
        engine.step().unwrap(); // warm-up
        engine.step().unwrap();
        engine.scheduler().allocations
    };
    (warm_fold(dense), warm_fold(coded))
}
