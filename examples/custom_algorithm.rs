//! Extending the framework with a user-defined algorithm.
//!
//! The `Algorithm` trait is the extension point of `fedadmm-core`: anything
//! that can produce a client message and aggregate a round's messages plugs
//! into the same simulation engine, selectors, heterogeneity models and
//! metrics as the built-in methods. This example implements **FedAvgM**
//! (FedAvg with server momentum, Hsu et al. 2019) in ~60 lines and races it
//! against plain FedAvg and FedADMM on a non-IID partition.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use fedadmm::core::algorithms::{Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use fedadmm::core::client::ClientState;
use fedadmm::core::trainer::{local_sgd_cached, LocalEnv};
use fedadmm::prelude::*;
use fedadmm::tensor::TensorResult;

/// FedAvg with heavy-ball momentum applied to the server update.
struct FedAvgM {
    /// Momentum coefficient β (0 recovers FedAvg).
    beta: f32,
    /// Server learning rate applied to the averaged pseudo-gradient.
    server_lr: f32,
    velocity: Option<ParamVector>,
}

impl FedAvgM {
    fn new(beta: f32, server_lr: f32) -> Self {
        assert!((0.0..1.0).contains(&beta));
        FedAvgM {
            beta,
            server_lr,
            velocity: None,
        }
    }
}

impl Algorithm for FedAvgM {
    fn name(&self) -> &'static str {
        "FedAvgM"
    }

    fn init(&mut self, dim: usize, _num_clients: usize) {
        self.velocity = Some(ParamVector::zeros(dim));
    }

    fn supports_variable_work(&self) -> bool {
        false // like FedAvg, clients run the full E epochs
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        // Same local problem as FedAvg, trained on the worker's cached
        // network and reusable buffers; upload the model *difference* so
        // the server can treat it as a pseudo-gradient.
        let result = local_sgd_cached(
            env,
            global.as_slice(),
            &mut scratch.net,
            &mut scratch.train,
            |_, _| {},
        )?;
        client.times_selected += 1;
        let delta = ParamVector::from_vec(result.params).sub(global);
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
        // Average pseudo-gradient, then heavy-ball velocity update.
        let mut mean = ParamVector::zeros(global.len());
        for msg in messages {
            mean.axpy(1.0 / messages.len() as f32, &msg.payload[0]);
        }
        let velocity = self
            .velocity
            .as_mut()
            .expect("init() is called before the first round");
        velocity.scale(self.beta);
        velocity.axpy(1.0, &mean);
        global.axpy(self.server_lr, velocity);
        ServerOutcome {
            upload_floats: messages.iter().map(|m| m.upload_floats()).sum(),
        }
    }
}

fn race<A: Algorithm>(algorithm: A, seed: u64) -> (String, Option<usize>, f32) {
    let config = FedConfig {
        num_clients: 50,
        participation: Participation::Fraction(0.2),
        local_epochs: 3,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 32,
            num_classes: 10,
        },
        seed,
        eval_subset: usize::MAX,
    };
    let name = algorithm.name().to_string();
    let (train, test) = SyntheticDataset::Mnist.generate(5_000, 500, seed);
    let partition = DataDistribution::NonIidShards.partition(&train, config.num_clients, seed);
    let mut sim = RoundEngine::new(config, train, test, partition, algorithm, SyncRounds)
        .expect("configuration is consistent");
    let target = 0.75;
    let rounds = sim.run_until_accuracy(target, 40).expect("run succeeds");
    (name, rounds, sim.history().best_accuracy())
}

fn main() {
    println!(
        "Racing a user-defined algorithm (FedAvgM) against the built-ins (non-IID, target 75%):\n"
    );
    println!("{:<10} | rounds to 75% | best accuracy", "algorithm");
    for (name, rounds, best) in [
        race(FedAvg::new(), 3),
        race(FedAvgM::new(0.9, 1.0), 3),
        race(FedAdmm::new(0.3, ServerStepSize::Constant(1.0)), 3),
    ] {
        println!(
            "{:<10} | {:>13} | {:>12.3}",
            name,
            rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| "40+".to_string()),
            best
        );
    }
    println!(
        "\nThe custom algorithm used the same engine, selectors, metrics and data \
         partitioners as the built-ins — only the Algorithm trait impl is new."
    );
}
