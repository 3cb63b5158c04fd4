//! Fully connected (dense) layer.

use super::Layer;
use fedadmm_tensor::{init, ops, Tensor, TensorError, TensorResult};
use rand::Rng;

/// A fully connected layer: `y = x·Wᵀ + b`, optionally fused with a
/// trailing ReLU (`y = max(x·Wᵀ + b, 0)`).
///
/// * input:  `[batch, in_features]`
/// * weight: `[out_features, in_features]`
/// * bias:   `[out_features]`
/// * output: `[batch, out_features]`
///
/// The fused variant ([`Linear::new_fused_relu`]) computes matmul, bias and
/// activation in a single kernel pass and is bit-identical to a `Linear`
/// followed by a separate `Relu` layer.
#[derive(Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    fused_relu: bool,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// Positive-preactivation mask of the last forward pass (fused ReLU only).
    relu_mask: Vec<bool>,
    /// Reusable buffer for `gᵀ·x` before it is accumulated into `grad_weight`.
    dw_scratch: Tensor,
    /// Reusable buffer for the ReLU-masked upstream gradient.
    masked_grad: Tensor,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Linear {
            in_features,
            out_features,
            fused_relu: false,
            weight: init::kaiming_uniform(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            relu_mask: Vec::new(),
            dw_scratch: Tensor::zeros(&[0]),
            masked_grad: Tensor::zeros(&[0]),
        }
    }

    /// Creates a linear layer whose forward pass applies a fused ReLU.
    ///
    /// Draws exactly the same RNG values as [`Linear::new`] (a `Relu` layer
    /// consumes none), so swapping a `Linear + Relu` pair for this fused
    /// layer leaves model initialisation bit-identical.
    pub fn new_fused_relu(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let mut layer = Linear::new(in_features, out_features, rng);
        layer.fused_relu = true;
        layer
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Whether a ReLU is fused into the forward pass.
    pub fn has_fused_relu(&self) -> bool {
        self.fused_relu
    }

    /// Immutable access to the weight matrix (used by tests).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Copies `input` into the reusable cached-input buffer.
    fn cache_input(&mut self, input: &Tensor) {
        match &mut self.cached_input {
            Some(buf) => {
                buf.resize_in_place(input.dims());
                buf.data_mut().copy_from_slice(input.data());
            }
            None => self.cached_input = Some(input.clone()),
        }
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        if self.fused_relu {
            "Linear+ReLU"
        } else {
            "Linear"
        }
    }

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                left: input.dims().to_vec(),
                right: vec![0, self.in_features],
            });
        }
        // y[batch, out] = x[batch, in] · Wᵀ[in, out] + b (fused bias, and
        // fused ReLU when enabled).
        ops::linear_forward_into(input, &self.weight, &self.bias, out, self.fused_relu)?;
        if self.fused_relu {
            // ReLU fixes every non-positive preactivation to exactly 0.0 and
            // keeps positives unchanged, so the positive-preactivation mask
            // can be read back off the activation itself.
            self.relu_mask.clear();
            self.relu_mask.extend(out.data().iter().map(|&v| v > 0.0));
        }
        self.cache_input(input);
        Ok(())
    }

    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        let input = self.cached_input.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Linear::backward called before forward".into())
        })?;
        let g: &Tensor = if self.fused_relu {
            if self.relu_mask.len() != grad_output.len() {
                return Err(TensorError::InvalidArgument(format!(
                    "fused ReLU mask has {} elements but grad_output has {}",
                    self.relu_mask.len(),
                    grad_output.len()
                )));
            }
            self.masked_grad.resize_in_place(grad_output.dims());
            let data = self.masked_grad.data_mut();
            data.copy_from_slice(grad_output.data());
            for (gv, &m) in data.iter_mut().zip(self.relu_mask.iter()) {
                if !m {
                    *gv = 0.0;
                }
            }
            &self.masked_grad
        } else {
            grad_output
        };
        // dW[out, in] += gᵀ[out, batch] · x[batch, in]
        ops::gemm_at_b_into(g, input, &mut self.dw_scratch)?;
        self.grad_weight.add_assign(&self.dw_scratch)?;
        // db[out] += column sums of g
        let batch = g.dims()[0];
        for b in 0..batch {
            let row = &g.data()[b * self.out_features..(b + 1) * self.out_features];
            for (gb, &gv) in self.grad_bias.data_mut().iter_mut().zip(row.iter()) {
                *gb += gv;
            }
        }
        // dx[batch, in] = g[batch, out] · W[out, in]
        match grad_input {
            Some(grad_input) => ops::gemm_into(g, &self.weight, grad_input),
            None => Ok(()),
        }
    }

    fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.data());
        out.extend_from_slice(self.bias.data());
    }

    fn read_params(&mut self, src: &[f32]) -> usize {
        let nw = self.weight.len();
        let nb = self.bias.len();
        self.weight.data_mut().copy_from_slice(&src[..nw]);
        self.bias.data_mut().copy_from_slice(&src[nw..nw + nb]);
        nw + nb
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.grad_weight.data());
        out.extend_from_slice(self.grad_bias.data());
    }

    fn zero_grads(&mut self) {
        self.grad_weight.map_in_place(|_| 0.0);
        self.grad_bias.map_in_place(|_| 0.0);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // Parameters and gradient accumulators are copied; activation caches
        // and scratch buffers are transient per-step state the clone would
        // immediately overwrite, so they start empty.
        Box::new(Linear {
            in_features: self.in_features,
            out_features: self.out_features,
            fused_relu: self.fused_relu,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            grad_weight: self.grad_weight.clone(),
            grad_bias: self.grad_bias.clone(),
            cached_input: None,
            relu_mask: Vec::new(),
            dw_scratch: Tensor::zeros(&[0]),
            masked_grad: Tensor::zeros(&[0]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn param_count() {
        let mut rng = SmallRng::seed_from_u64(0);
        let l = Linear::new(10, 4, &mut rng);
        assert_eq!(l.num_params(), 44);
    }

    #[test]
    fn forward_known_values() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        l.read_params(&[1.0, 2.0, 3.0, 4.0, 0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, 0.0], &[2, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn forward_rejects_bad_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.forward(&Tensor::zeros(&[2, 4])).is_err());
        assert!(l.forward(&Tensor::zeros(&[6])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let l = Linear::new(5, 3, &mut rng);
        let mut buf = Vec::new();
        l.write_params(&mut buf);
        assert_eq!(buf.len(), l.num_params());
        let mut l2 = Linear::new(5, 3, &mut rng);
        let consumed = l2.read_params(&buf);
        assert_eq!(consumed, buf.len());
        let mut buf2 = Vec::new();
        l2.write_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut l = Linear::new(6, 4, &mut rng);
        let x = fedadmm_tensor::init::randn(&[3, 6], 0.0, 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut l, &x, &[0, 5, 13, 27], 5e-2);
        gradcheck::check_input_gradients(&mut l, &x, &[0, 4, 11, 17], 5e-2);
    }

    #[test]
    fn param_gradients_do_not_depend_on_grad_input_being_requested() {
        let mut rng = SmallRng::seed_from_u64(13);
        let x = fedadmm_tensor::init::randn(&[5, 6], 0.0, 1.0, &mut rng);
        let mut plain = Linear::new(6, 4, &mut rng);
        gradcheck::check_param_gradients_ignore_grad_input(&mut plain, &x);
        let mut fused = Linear::new_fused_relu(6, 4, &mut rng);
        gradcheck::check_param_gradients_ignore_grad_input(&mut fused, &x);
    }

    /// The fused Linear+ReLU layer must be bit-identical to a `Linear`
    /// followed by a separate `Relu`, forward and backward.
    #[test]
    fn fused_relu_matches_separate_layers_exactly() {
        use super::super::Relu;
        let mut rng = SmallRng::seed_from_u64(21);
        let mut fused = Linear::new_fused_relu(6, 5, &mut rng);
        let mut rng2 = SmallRng::seed_from_u64(21);
        let mut plain = Linear::new(6, 5, &mut rng2);
        let mut relu = Relu::new();
        assert_eq!(fused.weight().data(), plain.weight().data());
        assert!(fused.has_fused_relu());

        let x = fedadmm_tensor::init::randn(&[4, 6], 0.0, 1.0, &mut rng);
        let y_fused = fused.forward(&x).unwrap();
        let y_plain = relu.forward(&plain.forward(&x).unwrap()).unwrap();
        for (a, b) in y_fused.data().iter().zip(y_plain.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let go = fedadmm_tensor::init::randn(&[4, 5], 0.0, 1.0, &mut rng);
        let gx_fused = fused.backward(&go).unwrap();
        let gx_plain = plain.backward(&relu.backward(&go).unwrap()).unwrap();
        for (a, b) in gx_fused.data().iter().zip(gx_plain.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (mut gf, mut gp) = (Vec::new(), Vec::new());
        fused.write_grads(&mut gf);
        plain.write_grads(&mut gp);
        assert_eq!(gf.len(), gp.len());
        for (a, b) in gf.iter().zip(gp.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `forward_into`/`backward_into` into reused caller buffers (wrong
    /// shape, stale contents) match the fresh-tensor wrappers.
    #[test]
    fn reused_buffers_match_fresh_tensors() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = fedadmm_tensor::init::randn(&[2, 4], 0.0, 1.0, &mut rng);
        let go = fedadmm_tensor::init::randn(&[2, 3], 0.0, 1.0, &mut rng);
        let mut out = Tensor::ones(&[5, 5]);
        let mut gi = Tensor::ones(&[7]);
        l.forward_into(&x, &mut out).unwrap();
        l.zero_grads();
        l.backward_into(&go, Some(&mut gi)).unwrap();
        let grads_into = {
            let mut g = Vec::new();
            l.write_grads(&mut g);
            g
        };
        let y = l.forward(&x).unwrap();
        l.zero_grads();
        let gx = l.backward(&go).unwrap();
        let mut grads_alloc = Vec::new();
        l.write_grads(&mut grads_alloc);
        assert_eq!(out.data(), y.data());
        assert_eq!(gi.data(), gx.data());
        assert_eq!(grads_into, grads_alloc);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let go = Tensor::ones(&[1, 2]);
        l.forward(&x).unwrap();
        l.backward(&go).unwrap();
        let mut g1 = Vec::new();
        l.write_grads(&mut g1);
        l.forward(&x).unwrap();
        l.backward(&go).unwrap();
        let mut g2 = Vec::new();
        l.write_grads(&mut g2);
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
        l.zero_grads();
        let mut g3 = Vec::new();
        l.write_grads(&mut g3);
        assert!(g3.iter().all(|&v| v == 0.0));
    }
}
