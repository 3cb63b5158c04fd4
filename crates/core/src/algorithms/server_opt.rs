//! Adaptive server optimizers (the `FedOpt` family) as extension baselines.
//!
//! The paper generalises FedAvg's server update with a *gathering step size*
//! η (equation 5) and observes that different η suit different regimes
//! (Figure 6). A complementary line of work — FedOpt / FedAdam / FedYogi
//! (Reddi et al., ICLR 2021) — instead treats the averaged client delta
//! `Δ̄^t = (1/|S_t|) Σ_{i∈S_t} (w_i^{t+1} − θ^t)` as a *pseudo-gradient* and
//! applies a first-order server optimizer to it. Implementing that family
//! here lets `examples/server_optimizers.rs` separate two effects the paper
//! argues about:
//!
//! * how much of FedADMM's speedup comes from the *dual variables* (client
//!   side), versus
//! * how much a smarter *server-side* update rule alone can recover.
//!
//! [`FedOpt`] keeps the exact FedAvg client protocol (fixed `E` local
//! epochs, upload of one `d`-vector per selected client) and only changes
//! the server aggregation, so its communication cost per round is identical
//! to FedAvg/Prox/ADMM.

use super::{total_upload, Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_cached, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The server-side update rule applied to the averaged pseudo-gradient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerOptimizer {
    /// `θ ← θ + lr · Δ̄` — plain server SGD on the pseudo-gradient.
    /// `lr = 1` recovers FedAvg exactly.
    Sgd {
        /// Server learning rate.
        lr: f32,
    },
    /// FedAvgM: heavy-ball momentum on the pseudo-gradient,
    /// `m ← β·m + Δ̄`, `θ ← θ + lr · m`.
    Momentum {
        /// Server learning rate.
        lr: f32,
        /// Momentum coefficient β ∈ [0, 1).
        beta: f32,
    },
    /// FedAdagrad: per-coordinate accumulated second moments,
    /// `v ← v + Δ̄²`, `θ ← θ + lr · Δ̄ / (√v + ε)`.
    Adagrad {
        /// Server learning rate.
        lr: f32,
        /// Numerical-stability constant ε.
        eps: f32,
    },
    /// FedAdam: exponential moving averages of first and second moments
    /// with bias correction.
    Adam {
        /// Server learning rate.
        lr: f32,
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability constant ε.
        eps: f32,
    },
    /// FedYogi: like Adam but with the sign-controlled second-moment update
    /// `v ← v − (1−β₂)·sign(v − Δ̄²)·Δ̄²`, which reacts more conservatively
    /// to heterogeneous client updates.
    Yogi {
        /// Server learning rate.
        lr: f32,
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability constant ε.
        eps: f32,
    },
}

impl ServerOptimizer {
    /// The FedAvgM default of the FedOpt paper (β = 0.9, server lr 1).
    pub fn momentum_default() -> Self {
        ServerOptimizer::Momentum { lr: 1.0, beta: 0.9 }
    }

    /// The FedAdam default of the FedOpt paper.
    pub fn adam_default() -> Self {
        ServerOptimizer::Adam {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        }
    }

    /// The FedYogi default of the FedOpt paper.
    pub fn yogi_default() -> Self {
        ServerOptimizer::Yogi {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        }
    }

    /// The FedAdagrad default of the FedOpt paper.
    pub fn adagrad_default() -> Self {
        ServerOptimizer::Adagrad {
            lr: 0.05,
            eps: 1e-3,
        }
    }

    /// Human-readable name of the resulting federated algorithm.
    pub fn algorithm_name(&self) -> &'static str {
        match self {
            ServerOptimizer::Sgd { .. } => "FedOpt(SGD)",
            ServerOptimizer::Momentum { .. } => "FedAvgM",
            ServerOptimizer::Adagrad { .. } => "FedAdagrad",
            ServerOptimizer::Adam { .. } => "FedAdam",
            ServerOptimizer::Yogi { .. } => "FedYogi",
        }
    }
}

/// Mutable server-side optimizer state (moments), allocated at `init`.
#[derive(Debug, Clone, Default)]
struct ServerOptState {
    /// First moment / momentum buffer `m`.
    momentum: Vec<f32>,
    /// Second moment buffer `v`.
    second: Vec<f32>,
    /// Number of server steps taken (for Adam bias correction).
    steps: usize,
}

impl ServerOptState {
    fn reset(&mut self, dim: usize) {
        self.momentum = vec![0.0; dim];
        self.second = vec![0.0; dim];
        self.steps = 0;
    }

    /// Applies one server-optimizer step: `global ← global + update(delta)`.
    fn apply(&mut self, opt: ServerOptimizer, global: &mut ParamVector, delta: &ParamVector) {
        debug_assert_eq!(global.len(), delta.len());
        if self.momentum.len() != global.len() {
            self.reset(global.len());
        }
        self.steps += 1;
        let d = delta.as_slice();
        let g = global.as_mut_slice();
        match opt {
            ServerOptimizer::Sgd { lr } => {
                for (gi, &di) in g.iter_mut().zip(d.iter()) {
                    *gi += lr * di;
                }
            }
            ServerOptimizer::Momentum { lr, beta } => {
                for ((mi, gi), &di) in self.momentum.iter_mut().zip(g.iter_mut()).zip(d.iter()) {
                    *mi = beta * *mi + di;
                    *gi += lr * *mi;
                }
            }
            ServerOptimizer::Adagrad { lr, eps } => {
                for ((vi, gi), &di) in self.second.iter_mut().zip(g.iter_mut()).zip(d.iter()) {
                    *vi += di * di;
                    *gi += lr * di / (vi.sqrt() + eps);
                }
            }
            ServerOptimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let t = self.steps as f32;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                for (((mi, vi), gi), &di) in self
                    .momentum
                    .iter_mut()
                    .zip(self.second.iter_mut())
                    .zip(g.iter_mut())
                    .zip(d.iter())
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * di;
                    *vi = beta2 * *vi + (1.0 - beta2) * di * di;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *gi += lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            ServerOptimizer::Yogi {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let t = self.steps as f32;
                let bc1 = 1.0 - beta1.powf(t);
                for (((mi, vi), gi), &di) in self
                    .momentum
                    .iter_mut()
                    .zip(self.second.iter_mut())
                    .zip(g.iter_mut())
                    .zip(d.iter())
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * di;
                    let d2 = di * di;
                    *vi -= (1.0 - beta2) * (*vi - d2).signum() * d2;
                    let m_hat = *mi / bc1;
                    *gi += lr * m_hat / (vi.max(0.0).sqrt() + eps);
                }
            }
        }
    }
}

/// FedOpt: the FedAvg client protocol with an adaptive server optimizer.
#[derive(Debug, Clone)]
pub struct FedOpt {
    /// The server-side update rule.
    pub optimizer: ServerOptimizer,
    state: ServerOptState,
}

impl FedOpt {
    /// Creates a FedOpt instance with the given server optimizer.
    pub fn new(optimizer: ServerOptimizer) -> Self {
        FedOpt {
            optimizer,
            state: ServerOptState::default(),
        }
    }

    /// FedAvgM with the FedOpt-paper defaults.
    pub fn avgm() -> Self {
        FedOpt::new(ServerOptimizer::momentum_default())
    }

    /// FedAdam with the FedOpt-paper defaults.
    pub fn adam() -> Self {
        FedOpt::new(ServerOptimizer::adam_default())
    }

    /// FedYogi with the FedOpt-paper defaults.
    pub fn yogi() -> Self {
        FedOpt::new(ServerOptimizer::yogi_default())
    }

    /// FedAdagrad with the FedOpt-paper defaults.
    pub fn adagrad() -> Self {
        FedOpt::new(ServerOptimizer::adagrad_default())
    }
}

impl Algorithm for FedOpt {
    fn name(&self) -> &'static str {
        self.optimizer.algorithm_name()
    }

    fn init(&mut self, dim: usize, _num_clients: usize) {
        self.state.reset(dim);
    }

    fn supports_variable_work(&self) -> bool {
        // Matches FedAvg's protocol (fixed E) so that server-side effects are
        // isolated from system-heterogeneity effects in ablations.
        false
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        // FedAvg-style local training from the downloaded global model; the
        // upload is the *delta* w_i^{t+1} − θ^t (the pseudo-gradient share).
        let result = local_sgd_cached(
            env,
            global.as_slice(),
            &mut scratch.net,
            &mut scratch.train,
            |_, _| {},
        )?;
        client.times_selected += 1;
        let mut delta = ParamVector::from_vec(result.params);
        delta.axpy(-1.0, global);
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![delta],
            epochs_run: env.epochs,
            samples_processed: result.samples_processed,
            wire: None,
        })
    }

    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        _num_clients: usize,
        _rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        if messages.is_empty() {
            return ServerOutcome { upload_floats: 0 };
        }
        // Pseudo-gradient: the uniform average of the uploaded deltas,
        // computed with one fused pass.
        let mut avg = ParamVector::zeros(global.len());
        let w = 1.0 / messages.len() as f32;
        let terms: Vec<(f32, &ParamVector)> =
            messages.iter().map(|msg| (w, &msg.payload[0])).collect();
        avg.assign_weighted_sum(&terms);
        self.state.apply(self.optimizer, global, &avg);
        ServerOutcome {
            upload_floats: total_upload(messages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::super::FedAvg;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn message(id: usize, values: Vec<f32>) -> ClientMessage {
        ClientMessage {
            client_id: id,
            num_samples: 1,
            payload: vec![ParamVector::from_vec(values)],
            epochs_run: 1,
            samples_processed: 1,
            wire: None,
        }
    }

    #[test]
    fn names_follow_the_fedopt_family() {
        assert_eq!(FedOpt::avgm().name(), "FedAvgM");
        assert_eq!(FedOpt::adam().name(), "FedAdam");
        assert_eq!(FedOpt::yogi().name(), "FedYogi");
        assert_eq!(FedOpt::adagrad().name(), "FedAdagrad");
        assert_eq!(
            FedOpt::new(ServerOptimizer::Sgd { lr: 1.0 }).name(),
            "FedOpt(SGD)"
        );
    }

    #[test]
    fn sgd_with_unit_lr_matches_fedavg_server_update() {
        // FedAvg averages *models*; FedOpt(SGD, lr=1) adds the averaged
        // *delta* to θ. With the same messages, θ_new must agree.
        let theta = ParamVector::from_vec(vec![1.0, -1.0, 0.5]);
        let w1 = vec![2.0, 0.0, 1.5];
        let w2 = vec![0.0, -2.0, -0.5];

        let mut avg_alg = FedAvg::new();
        let mut theta_avg = theta.clone();
        let mut rng = SmallRng::seed_from_u64(0);
        avg_alg.server_update(
            &mut theta_avg,
            &[message(0, w1.clone()), message(1, w2.clone())],
            10,
            &mut rng,
        );

        let mut opt_alg = FedOpt::new(ServerOptimizer::Sgd { lr: 1.0 });
        opt_alg.init(3, 10);
        let delta1: Vec<f32> = w1
            .iter()
            .zip(theta.as_slice())
            .map(|(w, t)| w - t)
            .collect();
        let delta2: Vec<f32> = w2
            .iter()
            .zip(theta.as_slice())
            .map(|(w, t)| w - t)
            .collect();
        let mut theta_opt = theta.clone();
        opt_alg.server_update(
            &mut theta_opt,
            &[message(0, delta1), message(1, delta2)],
            10,
            &mut rng,
        );
        assert!(theta_avg.dist(&theta_opt) < 1e-6);
    }

    #[test]
    fn momentum_accumulates_across_rounds() {
        let mut alg = FedOpt::new(ServerOptimizer::Momentum { lr: 1.0, beta: 0.5 });
        alg.init(1, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::zeros(1);
        // Round 1: m = 1, θ = 1. Round 2: m = 0.5·1 + 1 = 1.5, θ = 2.5.
        alg.server_update(&mut theta, &[message(0, vec![1.0])], 4, &mut rng);
        assert!((theta.as_slice()[0] - 1.0).abs() < 1e-6);
        alg.server_update(&mut theta, &[message(0, vec![1.0])], 4, &mut rng);
        assert!((theta.as_slice()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_scaled_sign() {
        // On the first step, m̂ = Δ and v̂ = Δ², so the update is
        // lr·Δ/(|Δ|+ε) ≈ lr·sign(Δ) for |Δ| ≫ ε.
        let mut alg = FedOpt::new(ServerOptimizer::Adam {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-8,
        });
        alg.init(2, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::zeros(2);
        alg.server_update(&mut theta, &[message(0, vec![5.0, -3.0])], 4, &mut rng);
        assert!((theta.as_slice()[0] - 0.1).abs() < 1e-4);
        assert!((theta.as_slice()[1] + 0.1).abs() < 1e-4);
    }

    #[test]
    fn adagrad_damps_repeated_large_coordinates() {
        let mut alg = FedOpt::new(ServerOptimizer::Adagrad { lr: 1.0, eps: 1e-8 });
        alg.init(1, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::zeros(1);
        alg.server_update(&mut theta, &[message(0, vec![2.0])], 4, &mut rng);
        let first_step = theta.as_slice()[0];
        let before = theta.as_slice()[0];
        alg.server_update(&mut theta, &[message(0, vec![2.0])], 4, &mut rng);
        let second_step = theta.as_slice()[0] - before;
        assert!(second_step < first_step, "{second_step} !< {first_step}");
        assert!(second_step > 0.0);
    }

    #[test]
    fn yogi_second_moment_stays_nonnegative() {
        let mut alg = FedOpt::new(ServerOptimizer::Yogi {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        });
        alg.init(1, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::zeros(1);
        for round in 0..20 {
            let sign = if round % 2 == 0 { 1.0 } else { -1.0 };
            alg.server_update(&mut theta, &[message(0, vec![sign * 0.5])], 4, &mut rng);
            assert!(theta.as_slice()[0].is_finite());
        }
        assert!(alg.state.second[0] >= 0.0);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let mut alg = FedOpt::adam();
        alg.init(2, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::from_vec(vec![1.0, 2.0]);
        let outcome = alg.server_update(&mut theta, &[], 4, &mut rng);
        assert_eq!(outcome.upload_floats, 0);
        assert_eq!(theta.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn client_update_uploads_delta_of_dimension_d() {
        let fixture = Fixture::new(1, 40, 11);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedOpt::avgm();
        let env = fixture.env(0, 2, 1);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        assert_eq!(msg.upload_floats(), fixture.dim());
        assert!(msg.payload[0].norm() > 0.0);
        assert_eq!(alg.upload_floats_per_client(fixture.dim()), fixture.dim());
        assert!(!alg.supports_variable_work());
        assert!(!alg.requires_full_participation());
    }

    #[test]
    fn fedopt_reduces_training_loss_in_a_small_run() {
        // End-to-end sanity check: three rounds of FedAdam on a two-client
        // fixture must move the model away from the all-zero initial loss.
        let fixture = Fixture::new(2, 60, 21);
        let mut theta = ParamVector::zeros(fixture.dim());
        let mut alg = FedOpt::new(ServerOptimizer::Adam {
            lr: 0.5,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        });
        alg.init(fixture.dim(), 2);
        let mut clients = fixture.clients(&theta);
        let mut rng = SmallRng::seed_from_u64(3);
        let initial =
            crate::trainer::evaluate(fixture.model, theta.as_slice(), &fixture.train, usize::MAX)
                .unwrap();
        for round in 0..3 {
            let mut messages = Vec::new();
            for (c, client) in clients.iter_mut().enumerate().take(2) {
                let env = fixture.env(c, 2, 100 + round);
                messages.push(alg.client_update(client, &theta, &env).unwrap());
            }
            alg.server_update(&mut theta, &messages, 2, &mut rng);
        }
        let trained =
            crate::trainer::evaluate(fixture.model, theta.as_slice(), &fixture.train, usize::MAX)
                .unwrap();
        assert!(trained.0 < initial.0, "loss {} !< {}", trained.0, initial.0);
    }
}
