//! Layers with explicit forward/backward passes.
//!
//! A layer owns no parameters: the model is one flat vector w ∈ ℝ^d held by
//! the [`Network`](crate::Network) (Algorithm 1 of the paper works entirely
//! on such vectors), and a layer is handed its range of it on every pass —
//! `&[f32]` parameters, and on the way back a `&mut [f32]` gradient slice
//! that it **overwrites**, so the optimizer reads the gradient where the
//! kernel wrote it. Nor does a layer keep its activations: the backward
//! pass is handed the input and output of the forward pass, which the
//! [`ActivationArena`](crate::ActivationArena) holds. A layer owns its
//! geometry, reusable scratch and, for max pooling, the argmax indices, and
//! implements each pass exactly once, in the buffer-reusing `_into` form
//! the training arena drives; the tensor-returning `forward` / `backward`
//! are provided by the [`Layer`] trait on top of it. A ReLU is a flag of
//! the layer it follows ([`Linear::new_fused_relu`],
//! [`Conv2d::new_fused_relu`]), not a layer.

mod conv;
mod linear;
mod pool;
mod reshape;

pub use conv::Conv2d;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use reshape::Reshape;

use fedadmm_tensor::{Tensor, TensorResult};
use rand::RngCore;

/// A differentiable layer.
///
/// The contract mirrors classic layer-based backprop:
/// 1. `forward_into` maps a batch `input` to `out`;
/// 2. `backward_into` is handed that same `input` and `output` with the
///    gradient of the loss with respect to the output, *overwrites* `grads`
///    with this batch's gradient for the layer's own parameters (nothing
///    zeroes the slice first; two passes in a row leave the bits of one),
///    and writes the gradient with respect to the input — when the caller
///    asks for it. `grad_input` is `None` when nobody reads
///    `dL/d(input)`: [`Network::backward_arena`](crate::Network::backward_arena)
///    passes `None` to the first layer that has parameters (the gradient
///    with respect to the data is never used by training) and does not run
///    the parameter-free layers below it at all. A layer given `None`
///    writes exactly the parameter gradients it would have with `Some`, and
///    skips the input-gradient product.
///
/// `params` and `grads` are the layer's range of the network's two flat
/// vectors, [`Layer::num_params`] long (a layer may panic otherwise),
/// weight then bias.
///
/// `backward_into` must follow `forward_into` on the same batch (max
/// pooling reads the argmax its forward pass recorded). Both write into
/// caller-owned tensors that they resize in place, so a training loop that
/// re-presents the same batch shape (see
/// [`Network::forward_arena`](crate::Network::forward_arena)) performs no
/// allocation. These two are the only pass implementations a layer
/// provides; [`Layer::forward`] / [`Layer::backward`] are derived from them
/// here, once.
pub trait Layer: Send {
    /// Human-readable layer name (used in `Network` summaries).
    fn name(&self) -> &'static str;

    /// Forward pass over a batch, writing into a caller-owned output
    /// tensor: `out` is resized (reusing its capacity) and fully
    /// overwritten.
    fn forward_into(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
    ) -> TensorResult<()>;

    /// Backward pass given the `input` and `output` of the forward pass:
    /// overwrites `grads` with the parameter gradients and, given
    /// `Some(grad_input)`, writes `dL/d(input)` into it, resized in place
    /// to `input`'s dims and fully overwritten. With `None` the input
    /// gradient is not computed; the parameter gradients are bit-identical
    /// either way.
    fn backward_into(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()>;

    /// [`Layer::forward_into`] a fresh tensor (tests, one-off calls).
    fn forward(&mut self, params: &[f32], input: &Tensor) -> TensorResult<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(params, input, &mut out)?;
        Ok(out)
    }

    /// [`Layer::backward_into`] a fresh tensor (tests, one-off calls).
    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_output: &Tensor,
    ) -> TensorResult<Tensor> {
        let mut grad_input = Tensor::zeros(&[0]);
        self.backward_into(
            params,
            grads,
            input,
            output,
            grad_output,
            Some(&mut grad_input),
        )?;
        Ok(grad_input)
    }

    /// Number of trainable parameters in this layer.
    fn num_params(&self) -> usize {
        0
    }

    /// Writes freshly initialised parameters into the layer's range of a
    /// new network's parameter vector, drawing from `rng`.
    fn init_params(&self, _params: &mut [f32], _rng: &mut dyn RngCore) {}
}

/// The fused ReLU of `Linear` and `Conv2d`: their kernels clamp on the way
/// forward, and [`relu::grad`] masks on the way back.
mod relu {
    use fedadmm_tensor::{Tensor, TensorError, TensorResult};

    /// `grad_output` through the derivative of a fused ReLU, written into
    /// the reused `masked`: zero wherever the layer's `output` is not
    /// positive. A ReLU output is positive exactly where its preactivation
    /// was (it fixes every other preactivation, NaN included, to `0.0`), so
    /// the output is the mask.
    pub(super) fn grad<'a>(
        grad_output: &Tensor,
        output: &Tensor,
        masked: &'a mut Tensor,
    ) -> TensorResult<&'a Tensor> {
        if grad_output.dims() != output.dims() {
            return Err(TensorError::ShapeMismatch {
                left: output.dims().to_vec(),
                right: grad_output.dims().to_vec(),
            });
        }
        masked.resize_in_place(grad_output.dims());
        for ((m, &g), &y) in masked
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(output.data())
        {
            *m = if y > 0.0 { g } else { 0.0 };
        }
        Ok(masked)
    }

    #[cfg(test)]
    mod tests {
        use super::super::{Conv2d, Layer, Linear};
        use super::*;

        /// Negative, zero and NaN preactivations go to `0.0` in both fused
        /// layers (unit weight, zero bias).
        #[test]
        fn forward_clamps_negatives() {
            let pre = vec![-1.0, 0.0, 2.0, -3.0, f32::NAN];
            let rows = Tensor::from_vec(pre.clone(), &[5, 1]).unwrap();
            let image = Tensor::from_vec(pre, &[1, 1, 1, 5]).unwrap();
            let mut linear = Linear::new_fused_relu(1, 1);
            let mut conv = Conv2d::new_fused_relu(1, 1, 1, 1, 0);
            for y in [
                linear.forward(&[1.0, 0.0], &rows),
                conv.forward(&[1.0, 0.0], &image),
            ] {
                assert_eq!(y.unwrap().data(), &[0.0, 0.0, 2.0, 0.0, 0.0]);
            }
        }

        #[test]
        fn backward_masks_gradient() {
            let output = Tensor::from_vec(vec![0.0, 0.5, 2.0, 0.0], &[4]).unwrap();
            let mut masked = Tensor::ones(&[7]);
            let gx = grad(&Tensor::ones(&[4]), &output, &mut masked).unwrap();
            assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 0.0]);
        }

        /// The mask is the forward output, so an output slot no forward
        /// pass has filled (an empty tensor) is an error.
        #[test]
        fn backward_before_forward_errors() {
            let mut masked = Tensor::zeros(&[0]);
            assert!(grad(&Tensor::zeros(&[2]), &Tensor::zeros(&[0]), &mut masked).is_err());
        }
    }
}

/// How `Linear` reads its input: `[batch, …]` as `batch` rows of the
/// remaining dimensions, flattened in row-major order.
mod flatten {
    use fedadmm_tensor::{Tensor, TensorError, TensorResult};

    /// The batch of `input` read as `batch × features`; an error unless
    /// `input` has a batch dimension and `features` values per row.
    pub(super) fn rows(input: &Tensor, features: usize) -> TensorResult<usize> {
        let dims = input.dims();
        if dims.len() < 2 || dims[1..].iter().product::<usize>() != features {
            return Err(TensorError::ShapeMismatch {
                left: dims.to_vec(),
                right: vec![0, features],
            });
        }
        Ok(dims[0])
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn rejects_rank1_input() {
            assert!(rows(&Tensor::zeros(&[5]), 5).is_err());
            assert_eq!(rows(&Tensor::zeros(&[2, 3, 4, 4]), 48).unwrap(), 2);
        }

        /// An input slot no forward pass has filled is an empty rank-1
        /// tensor, not an empty batch.
        #[test]
        fn backward_before_forward_errors() {
            assert!(rows(&Tensor::zeros(&[0]), 4).is_err());
            assert_eq!(rows(&Tensor::zeros(&[0, 4]), 4).unwrap(), 0);
        }
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Shared test helpers: random inputs and the finite-difference gradient
    //! check used by layer and network tests.

    use super::Layer;
    use fedadmm_tensor::Tensor;
    use rand::{Rng, RngCore};
    use rand_distr::{Distribution, Normal};

    /// A tensor of i.i.d. `N(0, std²)` entries.
    pub fn gaussian(dims: &[usize], std: f32, rng: &mut impl Rng) -> Tensor {
        let normal = Normal::new(0.0, std).expect("valid normal parameters");
        let mut t = Tensor::zeros(dims);
        for x in t.data_mut() {
            *x = normal.sample(rng);
        }
        t
    }

    /// Freshly initialised parameters for `layer`.
    pub fn init_params(layer: &dyn Layer, rng: &mut dyn RngCore) -> Vec<f32> {
        let mut params = vec![0.0; layer.num_params()];
        layer.init_params(&mut params, rng);
        params
    }

    /// Central finite difference of the scalar `loss` along coordinate `idx`
    /// of `at`, asserted within `tol` of the analytic derivative.
    pub fn assert_central_difference(
        mut loss: impl FnMut(&[f32]) -> f32,
        at: &[f32],
        idx: usize,
        analytic: f32,
        tol: f32,
    ) {
        let eps = 1e-2f32;
        let mut moved = at.to_vec();
        moved[idx] = at[idx] + eps;
        let lp = loss(&moved);
        moved[idx] = at[idx] - eps;
        let numeric = (lp - loss(&moved)) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() <= tol * (1.0 + analytic.abs()),
            "coordinate {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }

    /// Checks `dL/dparams` (at `param_indices`) and `dL/dinput` (at
    /// `input_indices`) of `layer` against central finite differences, where
    /// the scalar loss is `sum(layer.forward(params, input))`.
    pub fn check_gradients(
        layer: &mut dyn Layer,
        params: &[f32],
        input: &Tensor,
        param_indices: &[usize],
        input_indices: &[usize],
        tol: f32,
    ) {
        let out = layer.forward(params, input).unwrap();
        let mut grads = vec![f32::NAN; params.len()];
        let grad_in = layer
            .backward(params, &mut grads, input, &out, &Tensor::ones(out.dims()))
            .unwrap();
        for &idx in param_indices {
            let loss = |p: &[f32]| layer.forward(p, input).unwrap().sum();
            assert_central_difference(loss, params, idx, grads[idx], tol);
        }
        for &idx in input_indices {
            let loss = |x: &[f32]| {
                let x = Tensor::from_vec(x.to_vec(), input.dims()).unwrap();
                layer.forward(params, &x).unwrap().sum()
            };
            assert_central_difference(loss, input.data(), idx, grad_in.data()[idx], tol);
        }
    }

    /// The reference a fused ReLU is pinned against, applied as a separate
    /// map: `relu(pre)` forward, and on the way back `grad_output` where
    /// the preactivation `pre` was positive, zero elsewhere.
    pub fn reference_relu(pre: &Tensor, grad_output: &Tensor) -> (Tensor, Tensor) {
        let y = pre.map(|x| if x > 0.0 { x } else { 0.0 });
        let mut g = grad_output.clone();
        for (g, &x) in g.data_mut().iter_mut().zip(pre.data()) {
            *g = if x > 0.0 { *g } else { 0.0 };
        }
        (y, g)
    }

    /// Parameter-gradient bits after `passes` backward passes in a row onto
    /// one stale gradient slice, with or without the input gradient: the
    /// bits must depend on neither (no pass adds to what it finds, and
    /// skipping the input gradient does not touch the parameter sweep).
    pub fn grad_bits(
        layer: &mut dyn Layer,
        params: &[f32],
        input: &Tensor,
        with_input: bool,
        passes: usize,
    ) -> Vec<u32> {
        let out = layer.forward(params, input).unwrap();
        let grad_out = out.map(|v| 0.5 - v);
        let mut grads = vec![f32::NAN; params.len()];
        let mut grad_input = Tensor::zeros(&[0]);
        for _ in 0..passes {
            let grad_input = with_input.then_some(&mut grad_input);
            layer
                .backward_into(params, &mut grads, input, &out, &grad_out, grad_input)
                .unwrap();
        }
        assert!(grads.iter().any(|&g| g != 0.0));
        grads.iter().map(|g| g.to_bits()).collect()
    }
}
