//! # fedadmm-nn
//!
//! Neural-network training stack for the FedADMM reproduction: layers with
//! explicit forward/backward passes, a [`Network`] that owns the model as
//! one flat parameter vector and one flat gradient vector (the federated
//! algorithms operate on parameter vectors in ℝ^d, and the layers read and
//! write their ranges of those two), the softmax cross-entropy loss, plain
//! SGD, and the paper's two
//! CNN architectures ([`models::ModelSpec::Cnn1`], [`models::ModelSpec::Cnn2`])
//! plus lighter models (MLP, multinomial logistic regression) used by the
//! fast test/benchmark configurations.
//!
//! ## Example: one SGD step on a small model
//!
//! ```
//! use fedadmm_nn::models::ModelSpec;
//! use fedadmm_nn::loss::softmax_cross_entropy_into;
//! use fedadmm_nn::optimizer::Sgd;
//! use fedadmm_nn::ActivationArena;
//! use fedadmm_tensor::Tensor;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! // The small MLP keeps the doctest fast; ModelSpec::Cnn1 builds the paper's
//! // 1,663,370-parameter model with the same API.
//! let spec = ModelSpec::Mlp { input_dim: 16, hidden_dim: 8, num_classes: 4 };
//! let mut net = spec.build(&mut rng);
//! let x = Tensor::zeros(&[2, 16]);
//! let labels = [0usize, 3];
//!
//! // Activations and gradients live in an arena the caller keeps across
//! // steps, so repeated steps at one batch shape allocate nothing.
//! let mut arena = ActivationArena::new();
//! net.forward_arena(&x, &mut arena).unwrap();
//! let loss = {
//!     let (logits, loss_grad) = arena.output_and_loss_grad();
//!     softmax_cross_entropy_into(logits, &labels, loss_grad).unwrap()
//! };
//! // The backward sweep overwrites the network's gradient vector, and the
//! // step is applied to its parameter vector where it lies.
//! net.backward_arena(&mut arena).unwrap();
//! let (params, grads) = net.params_grads_mut();
//! Sgd::new(0.1).step(params, grads);
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod layers;
pub mod loss;
pub mod models;
pub mod network;
pub mod optimizer;

pub use arena::ActivationArena;
pub use layers::Layer;
pub use models::ModelSpec;
pub use network::Network;
