//! Layers with explicit forward/backward passes.
//!
//! A layer owns no parameters: the model is one flat vector w ∈ ℝ^d held by
//! the [`Network`](crate::Network) (Algorithm 1 of the paper works entirely
//! on such vectors), and a layer is handed its range of it on every pass —
//! `&[f32]` parameters, and on the way back a `&mut [f32]` gradient slice
//! that it **overwrites**, so the optimizer reads the gradient where the
//! kernel wrote it. A layer owns its geometry and the activations its
//! backward pass needs, and implements each pass exactly once, in the
//! buffer-reusing `_into` form the training arena drives; the
//! tensor-returning `forward` / `backward` are provided by the [`Layer`]
//! trait on top of it.

mod conv;
mod flatten;
mod linear;
mod pool;
mod relu;
mod reshape;

pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use relu::Relu;
pub use reshape::Reshape;

use fedadmm_tensor::{Tensor, TensorResult};
use rand::RngCore;

/// A differentiable layer.
///
/// The contract mirrors classic layer-based backprop:
/// 1. `forward_into` consumes a batch and caches what the backward pass
///    needs;
/// 2. `backward_into` consumes the gradient of the loss with respect to the
///    layer's output, *overwrites* `grads` with this batch's gradient for
///    the layer's own parameters (nothing zeroes the slice first; two
///    passes in a row leave the bits of one), and writes the gradient with
///    respect to the input — when the caller asks for it. `grad_input` is
///    `None` when nobody reads `dL/d(input)`: [`Network::backward_arena`](crate::Network::backward_arena)
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
/// `backward_into` must be called after `forward_into` on the same batch.
/// Both write into caller-owned tensors that they resize in place, so a
/// training loop that re-presents the same batch shape (see
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

    /// Backward pass: overwrites `grads` with the parameter gradients and,
    /// given `Some(grad_input)`, writes `dL/d(input)` into it, resized in
    /// place and fully overwritten. With `None` the input gradient is not
    /// computed; the parameter gradients are bit-identical either way.
    fn backward_into(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
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
        grad_output: &Tensor,
    ) -> TensorResult<Tensor> {
        let mut grad_input = Tensor::zeros(&[0]);
        self.backward_into(params, grads, grad_output, Some(&mut grad_input))?;
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

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Shared finite-difference gradient-check helper used by layer tests.

    use super::Layer;
    use fedadmm_tensor::Tensor;
    use rand::RngCore;

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
            .backward(params, &mut grads, &Tensor::ones(out.dims()))
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
                .backward_into(params, &mut grads, &grad_out, grad_input)
                .unwrap();
        }
        assert!(grads.iter().any(|&g| g != 0.0));
        grads.iter().map(|g| g.to_bits()).collect()
    }
}
