//! Inverted dropout.
//!
//! Dropout is not part of the paper's two CNNs, but it is a standard
//! regulariser a downstream user of this layer library will reach for when
//! local datasets are tiny (exactly the federated regime: a non-IID client
//! in the paper's 1,000-client setting holds only ~60 samples). The
//! implementation uses *inverted* dropout — surviving activations are scaled
//! by `1/(1−p)` at training time — so that evaluation is a plain identity
//! and the federated evaluation path needs no mode switching.

use super::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout with drop probability `p`.
#[derive(Clone)]
pub struct Dropout {
    /// Probability of zeroing an activation during training.
    p: f32,
    /// Whether the layer is in training mode (`true` by default). In
    /// evaluation mode the layer is the identity.
    training: bool,
    rng: SmallRng,
    /// Scale mask of the last forward pass (0 for dropped units, `1/(1−p)`
    /// for surviving ones).
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own
    /// deterministic RNG stream derived from `seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            training: true,
            rng: SmallRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// Switches between training (dropout active) and evaluation (identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Whether dropout is currently applied.
    pub fn is_training(&self) -> bool {
        self.training
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        out.resize_in_place(input.dims());
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        if !self.training || self.p == 0.0 {
            mask.resize(input.len(), 1.0);
            out.data_mut().copy_from_slice(input.data());
            return Ok(());
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for (o, &x) in out.data_mut().iter_mut().zip(input.data().iter()) {
            let m = if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            };
            mask.push(m);
            *o = x * m;
        }
        Ok(())
    }

    fn backward_into(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        let mask = self.mask.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Dropout::backward called before forward".into())
        })?;
        if mask.len() != grad_output.len() {
            return Err(TensorError::InvalidArgument(format!(
                "Dropout mask has {} elements but grad_output has {}",
                mask.len(),
                grad_output.len()
            )));
        }
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        grad_input.resize_in_place(grad_output.dims());
        let data = grad_input.data_mut();
        data.copy_from_slice(grad_output.data());
        for (g, &m) in data.iter_mut().zip(mask.iter()) {
            *g *= m;
        }
        Ok(())
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // The RNG stream and mode are behavioural state and travel with the
        // clone; the mask is per-step activation state and starts empty.
        Box::new(Dropout {
            p: self.p,
            training: self.training,
            rng: self.rng.clone(),
            mask: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn invalid_probability_is_rejected() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        d.set_training(false);
        assert!(!d.is_training());
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let y = d.forward(&[], &x).unwrap();
        assert_eq!(y.data(), x.data());
        let g = Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]).unwrap();
        assert_eq!(d.backward(&[], &mut [], &g).unwrap().data(), g.data());
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert_eq!(d.forward(&[], &x).unwrap().data(), x.data());
    }

    #[test]
    fn training_mode_drops_and_rescales() {
        let mut d = Dropout::new(0.5, 42);
        let n = 10_000usize;
        let x = Tensor::ones(&[n]);
        let y = d.forward(&[], &x).unwrap();
        let dropped = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept: Vec<f32> = y.data().iter().copied().filter(|&v| v != 0.0).collect();
        // Roughly half the units are dropped...
        assert!((dropped as f64 / n as f64 - 0.5).abs() < 0.05);
        // ...and the survivors carry the inverted scale 1/(1-p) = 2.
        assert!(kept.iter().all(|&v| (v - 2.0).abs() < 1e-6));
        // The expected sum is preserved (inverted dropout is unbiased).
        let mean = y.data().iter().sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_reuses_forward_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&[], &x).unwrap();
        let g = Tensor::ones(&[64]);
        let gx = d.backward(&[], &mut [], &g).unwrap();
        // The gradient must be zero exactly where the activation was dropped
        // and scaled identically where it survived.
        for (yo, go) in y.data().iter().zip(gx.data().iter()) {
            assert_eq!(yo, go);
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dropout::new(0.3, 0);
        assert!(d.backward(&[], &mut [], &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn backward_rejects_mismatched_shape() {
        let mut d = Dropout::new(0.3, 0);
        d.forward(&[], &Tensor::zeros(&[4])).unwrap();
        assert!(d.backward(&[], &mut [], &Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn no_parameters_and_clonable() {
        let d = Dropout::new(0.25, 3);
        assert_eq!(d.num_params(), 0);
        assert_eq!(d.probability(), 0.25);
        let boxed = d.clone_layer();
        assert_eq!(boxed.name(), "Dropout");
    }
}
