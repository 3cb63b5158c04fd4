//! Layer probes: isolated, repeated, timed calls into one public function
//! of one layer, at the shapes the workload actually uses.
//!
//! Every probe warms up, then reports the median of its calls; the call
//! count is kept beside the value. FLOP and byte counts are computed from
//! shapes, not measured. A layer that is not on the workload's round path
//! (convolution on an MLP row, the spill store on an in-memory row) reports
//! 0, so that every workload emits every per-layer metric.
//!
//! With `traced_sync.rs` this is the only file that reaches below the
//! `fedadmm::prelude` façade; when ROADMAP item 3 renames an internal
//! entry point, this is where the benchmark follows.

use crate::workloads::{EngineOptions, Workload, ENGINE_SEED};
use fedadmm::clientstore::hierarchical_weighted_sum;
use fedadmm::core::algorithms::{ClientMessage, UpdateScratch};
use fedadmm::core::engine::DispatchPool;
use fedadmm::core::trainer::{local_sgd_cached, LocalEnv, NetCache, TrainScratch};
use fedadmm::data::batching::shuffle_epoch_into;
use fedadmm::nn::loss::softmax_cross_entropy_into;
use fedadmm::nn::ActivationArena;
use fedadmm::prelude::*;
use fedadmm::tensor::ops::{
    conv2d_backward_into, conv2d_forward_into, gemm_a_bt_into, gemm_at_b_into, gemm_into,
    linear_forward_into, max_pool2d_backward_into, max_pool2d_forward_into, Conv2dScratch,
};
use fedadmm::tensor::vecops::{self, DequantTerm};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// One probe's result: the per-layer metric it feeds, the value, how many
/// timed calls the median is over, and the shape it ran at.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub calls: usize,
    pub shape: String,
}

const WARMUPS: usize = 3;
const CALLS: usize = 30;
/// A probe whose calls are slow (the CNN's local update takes a third of a
/// second) stops at `MIN_CALLS` once it has spent this long.
const SLOW_PROBE_BUDGET: Duration = Duration::from_secs(2);
const MIN_CALLS: usize = 10;
/// Largest array the memory-ceiling probe allocates (it needs two).
const COPY_PROBE_CAP_BYTES: usize = 256 << 20;

/// Times `call` on fresh input from `prepare` (untimed): warm-ups, then the
/// median of the timed calls, in seconds, with the call count.
fn time_with<T>(mut prepare: impl FnMut() -> T, mut call: impl FnMut(T)) -> (f64, usize) {
    let first = Instant::now();
    call(prepare());
    // One warm-up is enough when a single call already costs 100 ms.
    if first.elapsed() < Duration::from_millis(100) {
        for _ in 1..WARMUPS {
            call(prepare());
        }
    }
    let started = Instant::now();
    let mut samples = Vec::with_capacity(CALLS);
    while samples.len() < CALLS
        && !(samples.len() >= MIN_CALLS && started.elapsed() > SLOW_PROBE_BUDGET)
    {
        let input = prepare();
        let start = Instant::now();
        call(input);
        samples.push(start.elapsed().as_secs_f64());
    }
    (crate::stats::median(&samples), samples.len())
}

fn time(mut call: impl FnMut()) -> (f64, usize) {
    time_with(|| (), |()| call())
}

/// Times several calls in alternation (`a b c a b c ..`) and returns each
/// one's median: the way to measure a ratio on a host whose speed drifts
/// from one second to the next, since every call sees every phase.
fn time_interleaved<const N: usize>(mut calls: [&mut dyn FnMut(); N]) -> ([f64; N], usize) {
    let first = Instant::now();
    calls.iter_mut().for_each(|call| call());
    if first.elapsed() < Duration::from_millis(100) * N as u32 {
        for _ in 1..WARMUPS {
            calls.iter_mut().for_each(|call| call());
        }
    }
    let started = Instant::now();
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(CALLS));
    while samples[0].len() < CALLS
        && !(samples[0].len() >= MIN_CALLS && started.elapsed() > SLOW_PROBE_BUDGET * N as u32)
    {
        for (call, samples) in calls.iter_mut().zip(samples.iter_mut()) {
            let start = Instant::now();
            call();
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    let rounds = samples[0].len();
    (samples.map(|s| crate::stats::median(&s)), rounds)
}

/// Deterministic non-zero fill: the GEMM kernels skip `a == 0.0`, so a
/// zero-filled operand would time a different loop.
fn filled(len: usize, salt: u32) -> Vec<f32> {
    let mut state = 0x9E37_79B9u32 ^ salt;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5 + 1e-3
        })
        .collect()
}

fn tensor(dims: &[usize], salt: u32) -> Tensor {
    Tensor::from_vec(filled(dims.iter().product(), salt), dims).expect("shape matches length")
}

/// `(in, out)` of the model's widest dense layer.
fn dense_shape(model: ModelSpec) -> (usize, usize) {
    match model {
        ModelSpec::Cnn1 => (64 * 7 * 7, 512),
        ModelSpec::Cnn2 => (64 * 8 * 8, 256),
        ModelSpec::Mlp {
            input_dim,
            hidden_dim,
            ..
        } => (input_dim, hidden_dim),
        ModelSpec::Logistic {
            input_dim,
            num_classes,
        } => (input_dim, num_classes),
    }
}

/// Last-level cache size in bytes, from sysfs (the largest cache of cpu0).
fn last_level_cache_bytes() -> usize {
    let mut largest = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let bytes = if let Some(kib) = text.strip_suffix('K') {
            kib.parse::<usize>().map(|v| v << 10)
        } else if let Some(mib) = text.strip_suffix('M') {
            mib.parse::<usize>().map(|v| v << 20)
        } else {
            text.parse::<usize>()
        };
        largest = largest.max(bytes.unwrap_or(0));
    }
    largest
}

struct Probes<'a> {
    workload: &'a Workload,
    readings: Vec<Reading>,
}

impl Probes<'_> {
    fn push(&mut self, name: &'static str, value: f64, calls: usize, shape: String) {
        self.readings.push(Reading {
            name,
            value,
            calls,
            shape,
        });
    }

    /// A layer the workload does not run.
    fn off(&mut self, names: &[&'static str]) {
        for &name in names {
            self.push(name, 0.0, 0, "not on this workload's path".to_string());
        }
    }

    fn tensor_dense(&mut self, batch: usize) {
        let (k, n) = dense_shape(self.workload.model);
        let shape = format!("batch {batch} x in {k} x out {n}");
        let gflop = 2.0 * (batch * k * n) as f64 / 1e9;
        let input = tensor(&[batch, k], 1);
        let weight = tensor(&[n, k], 2);
        let bias = tensor(&[n], 3);
        let grad_out = tensor(&[batch, n], 4);
        let mut out = Tensor::zeros(&[0]);
        let (s, calls) = time(|| gemm_a_bt_into(&input, &weight, &mut out).expect("forward shape"));
        self.push("tensor.gemm_a_bt.gflops", gflop / s, calls, shape.clone());
        let (s, calls) = time(|| gemm_at_b_into(&grad_out, &input, &mut out).expect("dW shape"));
        self.push("tensor.gemm_at_b.gflops", gflop / s, calls, shape.clone());
        let (s, calls) = time(|| gemm_into(&grad_out, &weight, &mut out).expect("dX shape"));
        self.push("tensor.gemm.gflops", gflop / s, calls, shape.clone());
        let (s, calls) = time(|| {
            linear_forward_into(&input, &weight, &bias, &mut out, true).expect("linear shape")
        });
        self.push("tensor.linear_forward.gflops", gflop / s, calls, shape);
    }

    fn tensor_conv(&mut self, batch: usize) {
        const NAMES: [&str; 3] = [
            "tensor.conv2d_forward.gflops",
            "tensor.conv2d_backward.gflops",
            "tensor.max_pool2d.ns_per_elem",
        ];
        if self.workload.model != ModelSpec::Cnn1 {
            return self.off(&NAMES);
        }
        // CNN 1's second convolution (32 -> 64 channels, 5x5, pad 2, on
        // 14x14 maps) is the expensive one; its first pool sees 32x28x28.
        let (in_c, out_c, hw, kernel) = (32, 64, 14, 5);
        let shape = format!("batch {batch}, {in_c}->{out_c} ch, {kernel}x{kernel}, {hw}x{hw}");
        let gflop = 2.0 * (batch * out_c * hw * hw * in_c * kernel * kernel) as f64 / 1e9;
        let input = tensor(&[batch, in_c, hw, hw], 5);
        let weight = tensor(&[out_c, in_c, kernel, kernel], 6);
        let bias = tensor(&[out_c], 7);
        let grad_out = tensor(&[batch, out_c, hw, hw], 8);
        let mut scratch = Conv2dScratch::default();
        let mut out = Tensor::zeros(&[0]);
        let (s, calls) = time(|| {
            conv2d_forward_into(&input, &weight, &bias, 1, 2, &mut scratch, &mut out)
                .expect("conv forward shape")
        });
        self.push(NAMES[0], gflop / s, calls, shape.clone());
        let mut grad_weight = Tensor::zeros(&[out_c, in_c, kernel, kernel]);
        let mut grad_bias = Tensor::zeros(&[out_c]);
        let mut grad_input = Tensor::zeros(&[0]);
        let (s, calls) = time(|| {
            conv2d_backward_into(
                &input,
                &weight,
                &grad_out,
                1,
                2,
                &mut scratch,
                &mut grad_weight,
                &mut grad_bias,
                &mut grad_input,
            )
            .expect("conv backward shape")
        });
        // dW and dX are one forward-sized product each.
        self.push(NAMES[1], 2.0 * gflop / s, calls, shape);

        let pool_dims = [batch, 32, 28, 28];
        let pool_in = tensor(&pool_dims, 9);
        let mut pooled = Tensor::zeros(&[0]);
        let mut argmax = Vec::new();
        let mut pool_grad = Tensor::zeros(&[0]);
        let (s, calls) = time(|| {
            max_pool2d_forward_into(&pool_in, 2, 2, &mut pooled, &mut argmax).expect("pool shape");
            max_pool2d_backward_into(&pooled, &argmax, &pool_dims, &mut pool_grad)
                .expect("pool backward shape");
        });
        self.push(
            NAMES[2],
            s * 1e9 / pool_in.len() as f64,
            calls,
            format!("forward + backward over {pool_dims:?}, 2x2"),
        );
    }

    fn vecops(&mut self, d: usize, cohort: usize) {
        let llc = last_level_cache_bytes();
        let bytes = (4 * llc).clamp(64 << 20, COPY_PROBE_CAP_BYTES);
        let src = filled(bytes / 4, 10);
        let mut dst = vec![0.0f32; bytes / 4];
        let (s, calls) = time(|| vecops::copy(&src, &mut dst));
        self.push(
            "tensor.vecops.copy.gbps",
            2.0 * bytes as f64 / 1e9 / s,
            calls,
            format!(
                "{} MiB array, last-level cache {} MiB{}",
                bytes >> 20,
                llc >> 20,
                if 4 * llc > bytes {
                    " (array capped below 4x the reported cache)"
                } else {
                    ""
                }
            ),
        );
        drop((src, dst));

        let shape = format!("d {d}, cohort {cohort}");
        let vector_gb = 4.0 * d as f64 / 1e9;
        let x = filled(d, 11);
        let mut y = filled(d, 12);
        let (s, calls) = time(|| vecops::axpy(1e-3, &x, &mut y));
        self.push(
            "tensor.vecops.axpy.gbps",
            3.0 * vector_gb / s,
            calls,
            shape.clone(),
        );

        let payloads: Vec<Vec<f32>> = (0..cohort).map(|i| filled(d, 100 + i as u32)).collect();
        let slices: Vec<&[f32]> = payloads.iter().map(Vec::as_slice).collect();
        let alphas = vec![1.0 / cohort as f32; cohort];
        let (s, calls) = time(|| vecops::weighted_sum_into(&alphas, &slices, &mut y));
        self.push(
            "tensor.vecops.weighted_sum.gbps",
            (cohort + 1) as f64 * vector_gb / s,
            calls,
            shape.clone(),
        );
        drop(slices);
        drop(payloads);

        let codes: Vec<Vec<u16>> = (0..cohort)
            .map(|i| (0..d).map(|j| ((i * 31 + j * 7) % 256) as u16).collect())
            .collect();
        let terms: Vec<DequantTerm<'_>> = codes
            .iter()
            .map(|codes| DequantTerm {
                alpha: 1.0 / cohort as f32,
                min: -0.5,
                step: 1.0 / 255.0,
                codes,
            })
            .collect();
        let (s, calls) = time(|| vecops::dequant_sum_into(&terms, &mut y));
        self.push(
            "tensor.vecops.dequant_sum.gbps",
            (cohort as f64 / 2.0 + 1.0) * vector_gb / s,
            calls,
            shape.clone(),
        );

        let (s, calls) = time(|| {
            std::hint::black_box(vecops::min_max(&x));
        });
        self.push(
            "tensor.vecops.min_max.gbps",
            vector_gb / s,
            calls,
            shape.clone(),
        );
        let (s, calls) = time(|| {
            std::hint::black_box(vecops::norm(&x));
        });
        self.push("tensor.vecops.norm.gbps", vector_gb / s, calls, shape);
    }

    /// `nn` forward / loss / backward on one real mini-batch.
    fn nn(&mut self, train: &Dataset, indices: &[usize], batch: usize) {
        let model = self.workload.model;
        let mut net = model.build(&mut SmallRng::seed_from_u64(ENGINE_SEED));
        let params = net.params_flat();
        let (mut data, mut labels) = (Vec::new(), Vec::new());
        train
            .gather_into(&indices[..batch], &mut data, &mut labels)
            .expect("client indices are in range");
        let input =
            Tensor::from_vec(data, &[batch, train.feature_dim()]).expect("gathered block shape");
        let mut arena = ActivationArena::new();
        let shape = format!("batch {batch}, d {}", params.len());

        let (forward, calls) = time(|| net.forward_arena(&input, &mut arena).expect("forward"));
        self.push(
            "nn.forward.us_per_batch",
            forward * 1e6,
            calls,
            shape.clone(),
        );
        let (loss, calls) = time(|| {
            let (logits, grad) = arena.output_and_loss_grad();
            std::hint::black_box(softmax_cross_entropy_into(logits, &labels, grad).expect("loss"));
        });
        self.push("nn.loss.us_per_batch", loss * 1e6, calls, shape.clone());
        let (backward, calls) = time(|| {
            net.zero_grads();
            net.backward_arena(&mut arena).expect("backward");
        });
        self.push(
            "nn.backward.us_per_batch",
            backward * 1e6,
            calls,
            shape.clone(),
        );
        let (s, calls) = time(|| net.set_params_flat(&params).expect("parameter count"));
        self.push("nn.set_params.us", s * 1e6, calls, shape.clone());
        let mut grads = Vec::new();
        let (s, calls) = time(|| net.grads_flat_into(&mut grads));
        self.push("nn.grads_flat.us", s * 1e6, calls, shape);
    }

    fn data(&mut self, train: &Dataset, indices: &[usize], batch: usize) {
        let mut rng = SmallRng::seed_from_u64(ENGINE_SEED);
        let (mut perm, mut data, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        let (s, calls) = time(|| {
            shuffle_epoch_into(indices, &mut rng, &mut perm);
            for chunk in perm.chunks(batch) {
                train
                    .gather_into(chunk, &mut data, &mut labels)
                    .expect("client indices are in range");
            }
        });
        self.push(
            "data.shuffle_gather.ns_per_sample",
            s * 1e9 / indices.len() as f64,
            calls,
            format!("{} samples in batches of {batch}", indices.len()),
        );
    }

    /// `core.trainer` and `core.algorithms` on client 0. The three timings
    /// whose ratios are reported — the bare `nn` kernels over the client's
    /// batches, `local_sgd_cached`, and the algorithm's client update — run
    /// in alternation.
    fn trainer_and_algorithm(&mut self, train: &Dataset, indices: &[usize], batch: usize) {
        let w = self.workload;
        let env = LocalEnv {
            dataset: train,
            indices,
            model: w.model,
            epochs: w.local_epochs,
            batch_size: BatchSize::Size(w.batch_size),
            learning_rate: w.learning_rate,
            seed: ENGINE_SEED,
        };
        let mut net = w.model.build(&mut SmallRng::seed_from_u64(ENGINE_SEED));
        let global = ParamVector::from_vec(net.params_flat());
        let samples = (w.local_epochs * indices.len()) as f64;
        let shape = format!(
            "1 client, {} samples x {} epochs, batch {batch}",
            indices.len(),
            w.local_epochs
        );

        // The same batches local SGD will see (order aside), gathered once.
        let batches: Vec<(Tensor, Vec<usize>)> = indices
            .chunks(batch)
            .map(|chunk| {
                let (mut data, mut labels) = (Vec::new(), Vec::new());
                train
                    .gather_into(chunk, &mut data, &mut labels)
                    .expect("client indices are in range");
                let input = Tensor::from_vec(data, &[chunk.len(), train.feature_dim()])
                    .expect("gathered block shape");
                (input, labels)
            })
            .collect();
        let mut arena = ActivationArena::new();
        let mut kernels = || {
            for _ in 0..w.local_epochs {
                for (input, labels) in &batches {
                    net.forward_arena(input, &mut arena).expect("forward");
                    let (logits, grad) = arena.output_and_loss_grad();
                    std::hint::black_box(
                        softmax_cross_entropy_into(logits, labels, grad).expect("loss"),
                    );
                    net.zero_grads();
                    net.backward_arena(&mut arena).expect("backward");
                }
            }
        };
        let (mut cache, mut scratch) = (NetCache::default(), TrainScratch::default());
        let mut local_sgd = || {
            std::hint::black_box(
                local_sgd_cached(&env, global.as_slice(), &mut cache, &mut scratch, |_, _| {})
                    .expect("local sgd"),
            );
        };
        let mut algorithm = w.algo.build();
        algorithm.init(global.len(), w.num_clients);
        let mut client = ClientState::new(0, indices.to_vec(), &global);
        let mut update_scratch = UpdateScratch::default();
        let mut client_update = || {
            std::hint::black_box(
                algorithm
                    .client_update_scratch(&mut client, &global, &env, &mut update_scratch)
                    .expect("client update"),
            );
        };
        let ([kernel, sgd, update], calls) =
            time_interleaved([&mut kernels, &mut local_sgd, &mut client_update]);
        self.push(
            "core.trainer.local_sgd.ns_per_sample",
            sgd * 1e9 / samples,
            calls,
            shape.clone(),
        );
        self.push(
            "core.trainer.kernel_share",
            kernel / sgd,
            calls,
            "nn forward + loss + backward over the same batches / local_sgd".to_string(),
        );
        self.push(
            "core.algorithms.client_update.ns_per_sample",
            update * 1e9 / samples,
            calls,
            format!("{} via client_update_scratch, {shape}", algorithm.name()),
        );
        self.push(
            "core.algorithms.overhead_share",
            1.0 - sgd / update,
            calls,
            "1 - local_sgd / client_update".to_string(),
        );

        let cohort = w.participation.num_selected(w.num_clients);
        let messages: Vec<ClientMessage> = (0..cohort)
            .map(|i| ClientMessage {
                client_id: i,
                num_samples: indices.len(),
                payload: vec![ParamVector::from_vec(filled(global.len(), 200 + i as u32))],
                epochs_run: 1,
                samples_processed: indices.len(),
                wire: None,
            })
            .collect();
        let mut theta = global.clone();
        let mut rng = SmallRng::seed_from_u64(ENGINE_SEED);
        let (s, calls) = time(|| {
            std::hint::black_box(algorithm.server_update(
                &mut theta,
                &messages,
                w.num_clients,
                &mut rng,
            ));
        });
        self.push(
            "core.algorithms.server_update.us",
            s * 1e6,
            calls,
            format!("{cohort} messages of d {}", global.len()),
        );
    }

    fn eval(&mut self, seed: u64, scratch_dir: &Path) -> Result<(), String> {
        let (engine, _) =
            self.workload
                .build(seed, SyncRounds, EngineOptions::default(), scratch_dir)?;
        let (s, calls) = time(|| {
            std::hint::black_box(engine.evaluate_global().expect("evaluation"));
        });
        let samples = self.workload.eval_samples();
        let shape = format!("{samples} test samples");
        self.push("core.eval.ms_per_call", s * 1e3, calls, shape.clone());
        self.push(
            "core.eval.ns_per_sample",
            s * 1e9 / samples as f64,
            calls,
            shape,
        );
        Ok(())
    }

    fn dispatch(&mut self, cohort: usize) {
        let pool = DispatchPool::new(Default::default());
        let (s, calls) = time(|| {
            pool.run(cohort, false, &|_, _, _| {});
        });
        self.push(
            "core.dispatch.empty_job_ns",
            s * 1e9 / cohort as f64,
            calls,
            format!("{cohort} no-op jobs on {} workers", pool.workers()),
        );
    }

    fn wire(&mut self, d: usize) {
        const NAMES: [&str; 3] = [
            "core.wire.encode.ns_per_param",
            "core.compression.quantize.ns_per_param",
            "privacy.gaussian.ns_per_param",
        ];
        let Some(path) = self.workload.wire_config().resolve() else {
            return self.off(&NAMES);
        };
        let shape = format!("one message of d {d}");
        let update = filled(d, 13);
        let template = ClientMessage {
            client_id: 0,
            num_samples: 1,
            payload: vec![ParamVector::from_vec(update.clone())],
            epochs_run: 1,
            samples_processed: 1,
            wire: None,
        };
        let mut codes = Vec::new();
        let (s, calls) = time_with(
            || template.clone(),
            |mut message| path.encode(&mut message, ENGINE_SEED, &mut codes),
        );
        self.push(NAMES[0], s * 1e9 / d as f64, calls, shape.clone());
        let (s, calls) = time(|| {
            std::hint::black_box(
                path.quantizer
                    .quantize_into(&update, ENGINE_SEED, &mut codes),
            );
        });
        self.push(NAMES[1], s * 1e9 / d as f64, calls, shape.clone());
        let guard = path
            .guard
            .as_ref()
            .expect("the wire workload installs a guard");
        let (s, calls) = time_with(
            || update.clone(),
            |mut values| guard.privatize(&mut values, ENGINE_SEED),
        );
        self.push(NAMES[2], s * 1e9 / d as f64, calls, shape);
    }

    fn clientstore(
        &mut self,
        indices: Vec<Vec<usize>>,
        d: usize,
        cohort: usize,
        scratch_dir: &Path,
    ) -> Result<(), String> {
        let w = self.workload;
        let initial = ParamVector::from_vec(filled(d, 14));
        let n = w.num_clients;
        // Ascending cohorts spread over the whole population. `offset`
        // rotates through as many distinct cohorts as the workload has
        // rounds, so the store holds what it holds at the end of a pass.
        let stride = n / cohort;
        let distinct = w.rounds.min(stride);
        let cohort_at = |offset: usize| -> Vec<usize> {
            (0..cohort)
                .map(|j| j * stride + offset % distinct)
                .collect()
        };
        let mut store = w
            .store_config(scratch_dir)
            .build(indices, &initial)
            .map_err(|e| format!("{}: building the probe store failed: {e}", w.name))?;
        let borrow = |store: &mut dyn ClientStateStore, offset: usize| {
            store
                .with_states(&cohort_at(offset), &mut |states| {
                    // Touch every borrowed state as a round would: an
                    // untouched shard is dropped on eviction, not written.
                    for state in states.iter_mut() {
                        state.times_selected += 1;
                        state.dual.as_mut_slice()[0] += 1.0;
                    }
                    Ok(())
                })
                .expect("borrowing a valid cohort")
        };
        let mut offset = 0;
        match w.store {
            StoreConfig::InMemory | StoreConfig::Sharded { .. } => {
                let (s, calls) = time(|| {
                    offset += 1;
                    borrow(store.as_mut(), offset);
                });
                self.push(
                    "clientstore.borrow_resident.ns_per_client",
                    s * 1e9 / cohort as f64,
                    calls,
                    format!("{cohort} of {n} clients, in-memory"),
                );
            }
            StoreConfig::Spill {
                num_shards,
                budget_bytes,
                ..
            } => {
                // Fill the store before timing: every distinct cohort once.
                for fill in 0..distinct {
                    borrow(store.as_mut(), fill);
                }
                let before = store.stats();
                let started = Instant::now();
                let (s, calls) = time(|| {
                    offset += 1;
                    borrow(store.as_mut(), offset);
                });
                let elapsed = started.elapsed().as_secs_f64();
                let after = store.stats();
                let shape = format!(
                    "{cohort} of {n} clients, {num_shards} shards, budget {} MiB, {} clients materialised",
                    budget_bytes >> 20,
                    after.materializations
                );
                self.push(
                    "clientstore.borrow_spill.us_per_client",
                    s * 1e6 / cohort as f64,
                    calls,
                    shape.clone(),
                );
                let files: Vec<u64> = std::fs::read_dir(scratch_dir)
                    .map_err(|e| format!("reading {}: {e}", scratch_dir.display()))?
                    .filter_map(|entry| Some(entry.ok()?.metadata().ok()?.len()))
                    .collect();
                let mean_file = files.iter().sum::<u64>() as f64 / files.len().max(1) as f64;
                let moved = (after.spill_writes - before.spill_writes + after.spill_loads
                    - before.spill_loads) as f64
                    * mean_file;
                self.push(
                    "clientstore.spill_io.mibps",
                    moved / (1 << 20) as f64 / elapsed,
                    calls,
                    format!("{shape}; bytes computed as shard moves x mean shard file"),
                );
                self.off(&["clientstore.borrow_resident.ns_per_client"]);
            }
        }
        // The store's own shard geometry groups the fold below.
        let shard_map = *store.shard_map();
        drop(store);

        if w.aggregation != AggregationMode::Hierarchical {
            return Ok(());
        }
        let ids = cohort_at(0);
        let payloads: Vec<ParamVector> = (0..cohort)
            .map(|i| ParamVector::from_vec(filled(d, 300 + i as u32)))
            .collect();
        let groups: Vec<(usize, Vec<(f32, &ParamVector)>)> = shard_map
            .group(&ids)
            .expect("cohort is ascending")
            .into_iter()
            .map(|(shard, range)| {
                let terms = range.map(|k| (1.0 / cohort as f32, &payloads[k])).collect();
                (shard, terms)
            })
            .collect();
        let (s, calls) = time(|| {
            std::hint::black_box(hierarchical_weighted_sum(d, &groups, false));
        });
        self.push(
            "clientstore.hierarchical_fold.gbps",
            cohort as f64 * 4.0 * d as f64 / 1e9 / s,
            calls,
            format!("{cohort} payloads of d {d} over {} shards", groups.len()),
        );
        Ok(())
    }
}

/// Runs every probe for `workload`. `scratch_dir` is an empty directory the
/// spill probes may write into.
pub fn run(workload: &Workload, seed: u64, scratch_dir: &Path) -> Result<Vec<Reading>, String> {
    let (train, _test) = workload.datasets(seed);
    let partition = workload.partition(&train);
    let indices = partition.client(0).to_vec();
    let batch = workload.batch_size.min(indices.len());
    let d = workload.model.num_params();
    let cohort = workload.participation.num_selected(workload.num_clients);

    let mut probes = Probes {
        workload,
        readings: Vec::new(),
    };
    probes.tensor_dense(batch);
    probes.tensor_conv(batch);
    probes.vecops(d, cohort);
    probes.nn(&train, &indices, batch);
    probes.data(&train, &indices, batch);
    probes.trainer_and_algorithm(&train, &indices, batch);
    probes.eval(seed, scratch_dir)?;
    probes.dispatch(cohort);
    probes.wire(d);
    probes.clientstore(partition.into_client_indices(), d, cohort, scratch_dir)?;
    Ok(probes.readings)
}
