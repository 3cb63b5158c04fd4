//! Fully connected (dense) layer.

use super::{flatten, relu, Layer};
use fedadmm_tensor::{init, ops, Tensor, TensorError, TensorResult};
use rand::RngCore;

/// A fully connected layer: `y = x·Wᵀ + b`, optionally fused with a
/// trailing ReLU (`y = max(x·Wᵀ + b, 0)`).
///
/// * input:  `[batch, …]`, read as `batch × in_features` (the features
///   flattened in row-major order, so a convolution's `[batch, c, h, w]`
///   output feeds it directly)
/// * params: weight `[out_features, in_features]`, then bias `[out_features]`
/// * output: `[batch, out_features]`
///
/// The fused variant ([`Linear::new_fused_relu`]) computes matmul, bias and
/// activation in a single kernel pass and is bit-identical to a `Linear`
/// followed by a separate ReLU.
pub struct Linear {
    in_features: usize,
    out_features: usize,
    fused_relu: bool,
    /// Reusable buffer for the ReLU-masked upstream gradient.
    masked_grad: Tensor,
}

impl Linear {
    /// Creates a linear layer; [`Layer::init_params`] draws Kaiming-uniform
    /// weights and a zero bias for it.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Linear {
            in_features,
            out_features,
            fused_relu: false,
            masked_grad: Tensor::zeros(&[0]),
        }
    }

    /// Creates a linear layer whose forward pass applies a fused ReLU.
    /// Initialises exactly as [`Linear::new`] does.
    pub fn new_fused_relu(in_features: usize, out_features: usize) -> Self {
        Linear {
            fused_relu: true,
            ..Linear::new(in_features, out_features)
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

    fn forward_into(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
    ) -> TensorResult<()> {
        flatten::rows(input, self.in_features)?;
        // y[batch, out] = x[batch, in] · Wᵀ[in, out] + b (fused bias, and
        // fused ReLU when enabled).
        let (weight, bias) = params.split_at(self.in_features * self.out_features);
        ops::linear_forward_flat(input, weight, bias, out, self.fused_relu)
    }

    fn backward_into(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        let (n_in, n_out) = (self.in_features, self.out_features);
        let batch = flatten::rows(input, n_in)?;
        if grad_output.dims() != [batch, n_out] {
            return Err(TensorError::ShapeMismatch {
                left: input.dims().to_vec(),
                right: grad_output.dims().to_vec(),
            });
        }
        let g = if self.fused_relu {
            relu::grad(grad_output, output, &mut self.masked_grad)?
        } else {
            grad_output
        }
        .data();
        let weight = &params[..n_in * n_out];
        let (grad_weight, grad_bias) = grads.split_at_mut(weight.len());
        // dW[out, in] = gᵀ[out, batch] · x[batch, in], written where the
        // optimizer reads it.
        ops::matmul_at_b_into(g, input.data(), grad_weight, batch, n_out, n_in);
        // db[out] = column sums of g, from +0.0 in row order.
        grad_bias.fill(0.0);
        for b in 0..batch {
            let row = &g[b * n_out..(b + 1) * n_out];
            for (gb, &gv) in grad_bias.iter_mut().zip(row.iter()) {
                *gb += gv;
            }
        }
        // dx[batch, in] = g[batch, out] · W[out, in]
        if let Some(grad_input) = grad_input {
            grad_input.resize_in_place(input.dims());
            ops::matmul_into(g, weight, grad_input.data_mut(), batch, n_out, n_in);
        }
        Ok(())
    }

    fn num_params(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }

    fn init_params(&self, params: &mut [f32], mut rng: &mut dyn RngCore) {
        let (weight, bias) = params.split_at_mut(self.in_features * self.out_features);
        init::kaiming_uniform(weight, self.in_features, &mut rng);
        bias.fill(0.0);
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
        assert_eq!(Linear::new(10, 4).num_params(), 44);
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2);
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        let params = [1.0, 2.0, 3.0, 4.0, 0.5, -0.5];
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, 0.0], &[2, 2]).unwrap();
        let y = l.forward(&params, &x).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn forward_rejects_bad_shape() {
        let mut l = Linear::new(3, 2);
        assert!(l.forward(&[0.0; 8], &Tensor::zeros(&[2, 4])).is_err());
        assert!(l.forward(&[0.0; 8], &Tensor::zeros(&[6])).is_err());
    }

    /// Backward handed the slots of an arena no forward pass has filled
    /// (empty tensors) errors, with or without the fused ReLU.
    #[test]
    fn backward_before_forward_errors() {
        let unfilled = Tensor::zeros(&[0]);
        for mut l in [Linear::new(3, 2), Linear::new_fused_relu(3, 2)] {
            assert!(l
                .backward(
                    &[0.0; 8],
                    &mut [0.0; 8],
                    &unfilled,
                    &unfilled,
                    &Tensor::zeros(&[1, 2])
                )
                .is_err());
        }
    }

    /// A `[batch, c, h, w]` input is read as `batch × c·h·w`, bit for bit
    /// what the same values shaped `[batch, c·h·w]` give, and its gradient
    /// comes back in the input's own shape.
    #[test]
    fn reads_image_batches_as_rows_and_returns_their_shape() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut l = Linear::new_fused_relu(12, 4);
        let params = gradcheck::init_params(&l, &mut rng);
        let image = gradcheck::gaussian(&[2, 3, 2, 2], 1.0, &mut rng);
        let rows = Tensor::from_vec(image.data().to_vec(), &[2, 12]).unwrap();
        let y = l.forward(&params, &image).unwrap();
        assert_eq!(y, l.forward(&params, &rows).unwrap());
        let go = gradcheck::gaussian(&[2, 4], 1.0, &mut rng);
        let (mut g_image, mut g_rows) = (vec![0.0; 52], vec![0.0; 52]);
        let gx_image = l.backward(&params, &mut g_image, &image, &y, &go).unwrap();
        let gx_rows = l.backward(&params, &mut g_rows, &rows, &y, &go).unwrap();
        assert_eq!(gx_image.dims(), &[2, 3, 2, 2]);
        assert_eq!(gx_image.data(), gx_rows.data());
        assert_eq!(g_image, g_rows);
    }

    /// The layer holds no parameter of its own: initialisation fills its
    /// slice (weights, then a zero bias), and a second layer handed the
    /// same slice computes the same bits.
    #[test]
    fn params_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut l = Linear::new(5, 3);
        let params = gradcheck::init_params(&l, &mut rng);
        assert!(params[..15].iter().all(|&w| w != 0.0));
        assert_eq!(params[15..], [0.0; 3]);
        let x = gradcheck::gaussian(&[2, 5], 1.0, &mut rng);
        let y = l.forward(&params, &x).unwrap();
        assert_eq!(Linear::new(5, 3).forward(&params, &x).unwrap(), y);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut l = Linear::new(6, 4);
        let params = gradcheck::init_params(&l, &mut rng);
        let x = gradcheck::gaussian(&[3, 6], 1.0, &mut rng);
        gradcheck::check_gradients(&mut l, &params, &x, &[0, 5, 13, 27], &[0, 4, 11, 17], 5e-2);
    }

    #[test]
    fn param_gradients_do_not_depend_on_grad_input_being_requested() {
        let mut rng = SmallRng::seed_from_u64(13);
        let x = gradcheck::gaussian(&[5, 6], 1.0, &mut rng);
        for mut layer in [Linear::new(6, 4), Linear::new_fused_relu(6, 4)] {
            let params = gradcheck::init_params(&layer, &mut rng);
            let with_input = gradcheck::grad_bits(&mut layer, &params, &x, true, 1);
            assert_eq!(
                with_input,
                gradcheck::grad_bits(&mut layer, &params, &x, false, 1)
            );
        }
    }

    /// The gradient slice is overwritten, never added to, by every layer
    /// that has parameters: two backward passes in a row with no zeroing in
    /// between leave the bits of one.
    #[test]
    fn two_backward_passes_without_zeroing_leave_the_gradient_of_one() {
        let mut rng = SmallRng::seed_from_u64(23);
        let dense = gradcheck::gaussian(&[5, 6], 1.0, &mut rng);
        let image = gradcheck::gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        let layers: [(Box<dyn Layer>, &Tensor); 3] = [
            (Box::new(Linear::new(6, 4)), &dense),
            (Box::new(Linear::new_fused_relu(6, 4)), &dense),
            (Box::new(super::super::Conv2d::new(2, 3, 3, 1, 1)), &image),
        ];
        for (mut layer, input) in layers {
            let params = gradcheck::init_params(layer.as_ref(), &mut rng);
            for with_input in [true, false] {
                let once = gradcheck::grad_bits(layer.as_mut(), &params, input, with_input, 1);
                let twice = gradcheck::grad_bits(layer.as_mut(), &params, input, with_input, 2);
                assert_eq!(once, twice, "{} (grad_input {with_input})", layer.name());
            }
        }
    }

    /// The fused Linear+ReLU layer must be bit-identical to a `Linear`
    /// followed by a separate ReLU map, forward and backward.
    #[test]
    fn fused_relu_matches_separate_layers_exactly() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut fused = Linear::new_fused_relu(6, 5);
        let mut plain = Linear::new(6, 5);
        let params = gradcheck::init_params(&fused, &mut rng);
        let same_draws = gradcheck::init_params(&plain, &mut SmallRng::seed_from_u64(21));
        assert_eq!(params, same_draws);
        assert_eq!(fused.name(), "Linear+ReLU");

        let x = gradcheck::gaussian(&[4, 6], 1.0, &mut rng);
        let go = gradcheck::gaussian(&[4, 5], 1.0, &mut rng);
        let y_fused = fused.forward(&params, &x).unwrap();
        let pre = plain.forward(&params, &x).unwrap();
        let (y_plain, go_plain) = gradcheck::reference_relu(&pre, &go);
        for (a, b) in y_fused.data().iter().zip(y_plain.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let (mut gf, mut gp) = (vec![f32::NAN; 35], vec![f32::NAN; 35]);
        let gx_fused = fused.backward(&params, &mut gf, &x, &y_fused, &go).unwrap();
        let gx_plain = plain
            .backward(&params, &mut gp, &x, &pre, &go_plain)
            .unwrap();
        for (a, b) in gx_fused.data().iter().zip(gx_plain.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in gf.iter().zip(gp.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The fused ReLU's backward pass masks by the forward output, so an
    /// output that does not match the upstream gradient is an error.
    #[test]
    fn fused_relu_backward_rejects_mismatched_output() {
        let mut l = Linear::new_fused_relu(3, 2);
        let (x, go) = (Tensor::zeros(&[4, 3]), Tensor::zeros(&[4, 2]));
        let params = [0.0; 8];
        assert!(l.backward(&params, &mut [0.0; 8], &x, &go, &go).is_ok());
        let short = Tensor::zeros(&[3, 2]);
        assert!(l.backward(&params, &mut [0.0; 8], &x, &short, &go).is_err());
    }

    /// `forward_into`/`backward_into` into reused caller buffers (wrong
    /// shape, stale contents) match the fresh-tensor wrappers.
    #[test]
    fn reused_buffers_match_fresh_tensors() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut l = Linear::new(4, 3);
        let params = gradcheck::init_params(&l, &mut rng);
        let x = gradcheck::gaussian(&[2, 4], 1.0, &mut rng);
        let go = gradcheck::gaussian(&[2, 3], 1.0, &mut rng);
        let mut out = Tensor::ones(&[5, 5]);
        let mut gi = Tensor::ones(&[7]);
        let mut grads_into = vec![9.9f32; 15];
        l.forward_into(&params, &x, &mut out).unwrap();
        l.backward_into(&params, &mut grads_into, &x, &out, &go, Some(&mut gi))
            .unwrap();
        let y = l.forward(&params, &x).unwrap();
        let mut grads_fresh = vec![0.0f32; 15];
        let gx = l.backward(&params, &mut grads_fresh, &x, &y, &go).unwrap();
        assert_eq!(out.data(), y.data());
        assert_eq!(gi.data(), gx.data());
        assert_eq!(grads_into, grads_fresh);
    }
}
