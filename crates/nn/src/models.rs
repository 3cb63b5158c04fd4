//! Model architectures used by the paper's experiments.
//!
//! Table II of the paper specifies two CNNs:
//!
//! | Model | Parameters | Dataset          |
//! |-------|-----------:|------------------|
//! | CNN 1 | 1,663,370  | MNIST / FMNIST   |
//! | CNN 2 | 1,105,098  | CIFAR-10         |
//!
//! Both have "a convolutional module (two 5×5 convolutional layers, each
//! followed by 2×2 max pooling layers), and a fully connected layer module",
//! take *flattened* images (784 / 3,072 values) and emit 10 logits.
//! [`ModelSpec::Cnn1`] and [`ModelSpec::Cnn2`] reproduce those parameter
//! counts exactly (see the unit tests). The extra [`ModelSpec::Mlp`] and
//! [`ModelSpec::Logistic`] variants are lighter models used by fast tests
//! and scaled-down benchmark configurations.

use crate::layers::{Conv2d, Layer, Linear, MaxPool2d, Reshape};
// Every ReLU is the flag of the layer it follows (`Conv2d::new_fused_relu`,
// `Linear::new_fused_relu`), applied in the kernel's bias epilogue, and the
// dense layers read the pooled `[batch, c, h, w]` maps as rows. Each
// layer's output is the `ActivationArena` slot the next layer reads, and
// the network input is the arena's one copy of the batch; `backward_into`
// reads its input and output from those slots. Only the four parametrised
// layers draw random numbers, so θ⁰ is their draws in layer order.
use crate::network::Network;
use rand::Rng;

/// A declarative model architecture that can be instantiated into a
/// [`Network`] with fresh random weights.
///
/// Federated clients re-create networks from the spec and then overwrite the
/// weights from flat parameter vectors, so the spec (not the network) is
/// what experiment configurations carry around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// The paper's MNIST/FMNIST CNN: 1,663,370 parameters.
    ///
    /// `reshape(1×28×28) → conv5×5(1→32)+relu → pool2×2 → conv5×5(32→64)+relu
    /// → pool2×2 → fc(3136→512)+relu → fc(512→10)`.
    Cnn1,
    /// The paper's CIFAR-10 CNN: 1,105,098 parameters.
    ///
    /// `reshape(3×32×32) → conv5×5(3→32)+relu → pool2×2 → conv5×5(32→64)+relu
    /// → pool2×2 → fc(4096→256)+relu → fc(256→10)`.
    Cnn2,
    /// A single-hidden-layer MLP on flattened inputs. Used for fast
    /// configurations where the full CNNs would dominate simulation time.
    Mlp {
        /// Flattened input dimension.
        input_dim: usize,
        /// Hidden layer width.
        hidden_dim: usize,
        /// Number of output classes.
        num_classes: usize,
    },
    /// Multinomial logistic regression (a single linear layer).
    Logistic {
        /// Flattened input dimension.
        input_dim: usize,
        /// Number of output classes.
        num_classes: usize,
    },
}

impl ModelSpec {
    /// Instantiates the architecture with freshly initialised weights.
    pub fn build(&self, rng: &mut impl Rng) -> Network {
        Network::new(self.layers(), rng)
    }

    /// Instantiates the architecture with every parameter zero and no
    /// random draw ([`Network::zeroed`]): for a network whose parameters the
    /// caller overwrites before reading them.
    pub fn build_zeroed(&self) -> Network {
        Network::zeroed(self.layers())
    }

    /// The architecture's layers, in order.
    fn layers(&self) -> Vec<Box<dyn Layer>> {
        match *self {
            ModelSpec::Cnn1 => vec![
                Box::new(Reshape::new(&[1, 28, 28])),
                Box::new(Conv2d::new_fused_relu(1, 32, 5, 1, 2)),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new_fused_relu(32, 64, 5, 1, 2)),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Linear::new_fused_relu(64 * 7 * 7, 512)),
                Box::new(Linear::new(512, 10)),
            ],
            ModelSpec::Cnn2 => vec![
                Box::new(Reshape::new(&[3, 32, 32])),
                Box::new(Conv2d::new_fused_relu(3, 32, 5, 1, 2)),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new_fused_relu(32, 64, 5, 1, 2)),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Linear::new_fused_relu(64 * 8 * 8, 256)),
                Box::new(Linear::new(256, 10)),
            ],
            ModelSpec::Mlp {
                input_dim,
                hidden_dim,
                num_classes,
            } => vec![
                Box::new(Linear::new_fused_relu(input_dim, hidden_dim)),
                Box::new(Linear::new(hidden_dim, num_classes)),
            ],
            ModelSpec::Logistic {
                input_dim,
                num_classes,
            } => vec![Box::new(Linear::new(input_dim, num_classes))],
        }
    }

    /// Flattened input dimension expected by the model.
    pub fn input_dim(&self) -> usize {
        match *self {
            ModelSpec::Cnn1 => 784,
            ModelSpec::Cnn2 => 3072,
            ModelSpec::Mlp { input_dim, .. } | ModelSpec::Logistic { input_dim, .. } => input_dim,
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        match *self {
            ModelSpec::Cnn1 | ModelSpec::Cnn2 => 10,
            ModelSpec::Mlp { num_classes, .. } | ModelSpec::Logistic { num_classes, .. } => {
                num_classes
            }
        }
    }

    /// Total number of trainable parameters `d` of the architecture.
    pub fn num_params(&self) -> usize {
        match *self {
            // Conv(1→32,5×5)+b + Conv(32→64,5×5)+b + FC(3136→512)+b + FC(512→10)+b
            ModelSpec::Cnn1 => 832 + 51_264 + (3136 * 512 + 512) + (512 * 10 + 10),
            // Conv(3→32,5×5)+b + Conv(32→64,5×5)+b + FC(4096→256)+b + FC(256→10)+b
            ModelSpec::Cnn2 => 2432 + 51_264 + (4096 * 256 + 256) + (256 * 10 + 10),
            ModelSpec::Mlp {
                input_dim,
                hidden_dim,
                num_classes,
            } => input_dim * hidden_dim + hidden_dim + hidden_dim * num_classes + num_classes,
            ModelSpec::Logistic {
                input_dim,
                num_classes,
            } => input_dim * num_classes + num_classes,
        }
    }

    /// Short human-readable name (used in experiment reports).
    pub fn name(&self) -> String {
        match *self {
            ModelSpec::Cnn1 => "CNN1".to_string(),
            ModelSpec::Cnn2 => "CNN2".to_string(),
            ModelSpec::Mlp { hidden_dim, .. } => format!("MLP({hidden_dim})"),
            ModelSpec::Logistic { .. } => "Logistic".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Table II of the paper: CNN 1 has exactly 1,663,370 parameters.
    #[test]
    fn cnn1_param_count_matches_paper() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = ModelSpec::Cnn1.build(&mut rng);
        assert_eq!(net.num_params(), 1_663_370);
        assert_eq!(ModelSpec::Cnn1.num_params(), 1_663_370);
    }

    /// Table II of the paper: CNN 2 has exactly 1,105,098 parameters.
    #[test]
    fn cnn2_param_count_matches_paper() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = ModelSpec::Cnn2.build(&mut rng);
        assert_eq!(net.num_params(), 1_105_098);
        assert_eq!(ModelSpec::Cnn2.num_params(), 1_105_098);
    }

    #[test]
    fn cnn1_forward_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = ModelSpec::Cnn1.build(&mut rng);
        let x = Tensor::zeros(&[2, 784]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    /// The order of the flat vector, pinned directly: CNN 1's layers occupy
    /// `832 | 51 264 | 1 606 144 | 5 130` values in layer order, each its
    /// weights (filling that layer's own Kaiming bound) then its zero bias;
    /// writing the vector back changes nothing.
    #[test]
    fn cnn1_flat_parameter_order_is_pinned() {
        let mut net = ModelSpec::Cnn1.build(&mut SmallRng::seed_from_u64(2));
        let flat = net.params_flat();
        let mut start = 0;
        // (parameters, of which bias, fan-in) per parametrised layer.
        for (len, bias_len, fan_in) in [
            (832, 32, 25),
            (51_264, 64, 800),
            (1_606_144, 512, 3136),
            (5_130, 10, 512),
        ] {
            let (weight, bias) = flat[start..start + len].split_at(len - bias_len);
            let bound = (6.0 / fan_in as f32).sqrt();
            let widest = weight.iter().fold(0.0f32, |m, w| m.max(w.abs()));
            assert!(0.9 * bound < widest && widest <= bound, "{len}: {widest}");
            assert!(bias.iter().all(|&b| b == 0.0), "bias of {len}");
            start += len;
        }
        assert_eq!(start, flat.len());
        net.set_params_flat(&flat).unwrap();
        assert_eq!(net.params(), flat);
    }

    #[test]
    fn cnn2_forward_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = ModelSpec::Cnn2.build(&mut rng);
        let x = Tensor::zeros(&[2, 3072]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn a_zeroed_build_has_the_layers_of_a_drawn_one() {
        let mut rng = SmallRng::seed_from_u64(0);
        for spec in [ModelSpec::Cnn1, ModelSpec::Cnn2] {
            let (zeroed, drawn) = (spec.build_zeroed(), spec.build(&mut rng));
            assert_eq!(zeroed.summary(), drawn.summary());
            assert_eq!(zeroed.num_params(), spec.num_params());
            assert!(zeroed.params().iter().all(|&p| p.to_bits() == 0));
        }
    }

    #[test]
    fn mlp_and_logistic_param_counts() {
        let spec = ModelSpec::Mlp {
            input_dim: 20,
            hidden_dim: 16,
            num_classes: 4,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(spec.build(&mut rng).num_params(), spec.num_params());
        let spec = ModelSpec::Logistic {
            input_dim: 20,
            num_classes: 4,
        };
        assert_eq!(spec.build(&mut rng).num_params(), spec.num_params());
        assert_eq!(spec.num_params(), 84);
    }

    #[test]
    fn metadata_accessors() {
        assert_eq!(ModelSpec::Cnn1.input_dim(), 784);
        assert_eq!(ModelSpec::Cnn2.input_dim(), 3072);
        assert_eq!(ModelSpec::Cnn1.num_classes(), 10);
        assert_eq!(ModelSpec::Cnn1.name(), "CNN1");
        let mlp = ModelSpec::Mlp {
            input_dim: 8,
            hidden_dim: 4,
            num_classes: 3,
        };
        assert_eq!(mlp.input_dim(), 8);
        assert_eq!(mlp.num_classes(), 3);
        assert!(mlp.name().contains("MLP"));
    }

    #[test]
    fn mlp_trains_on_toy_problem() {
        use crate::loss::softmax_cross_entropy;
        use crate::optimizer::Sgd;
        // Two linearly separable clusters; a few SGD steps must reduce the loss.
        let mut rng = SmallRng::seed_from_u64(3);
        let spec = ModelSpec::Mlp {
            input_dim: 2,
            hidden_dim: 8,
            num_classes: 2,
        };
        let mut net = spec.build(&mut rng);
        let x =
            Tensor::from_vec(vec![2.0, 2.0, 2.5, 1.5, -2.0, -2.0, -1.5, -2.5], &[4, 2]).unwrap();
        let labels = [0usize, 0, 1, 1];
        let sgd = Sgd::new(0.5);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..30 {
            let logits = net.forward(&x).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            net.backward(&x, &grad).unwrap();
            let (params, grads) = net.params_grads_mut();
            sgd.step(params, grads);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not drop: {last_loss}"
        );
    }
}
