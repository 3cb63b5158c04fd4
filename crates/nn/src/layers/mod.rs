//! Layers with explicit forward/backward passes.
//!
//! Every layer owns its parameters and their gradient accumulators and
//! caches whatever activations its backward pass needs. A layer implements
//! each pass exactly once, in the buffer-reusing `_into` form the training
//! arena drives; the tensor-returning `forward` / `backward` are provided
//! by the [`Layer`] trait on top of it. Layers expose their
//! parameters through a *flat* serialisation protocol
//! ([`Layer::write_params`] / [`Layer::read_params`]) because the federated
//! algorithms in `fedadmm-core` treat model parameters as a single vector
//! θ ∈ ℝ^d (Algorithm 1 of the paper works entirely on such vectors).

mod activation;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod pool;
mod relu;
mod reshape;

pub use activation::{Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use relu::Relu;
pub use reshape::Reshape;

use fedadmm_tensor::{Tensor, TensorResult};

/// A differentiable layer.
///
/// The contract mirrors classic layer-based backprop:
/// 1. `forward_into` consumes a batch and caches what the backward pass
///    needs;
/// 2. `backward_into` consumes the gradient of the loss with respect to the
///    layer's output, *accumulates* gradients for the layer's own
///    parameters, and writes the gradient with respect to the input — when
///    the caller asks for it. `grad_input` is `None` when nobody reads
///    `dL/d(input)`: [`Network::backward_arena`](crate::Network::backward_arena)
///    passes `None` to the first layer that owns parameters (the gradient
///    with respect to the data is never used by training) and does not run
///    the parameter-free layers below it at all. A layer given `None`
///    accumulates exactly the parameter gradients it would have with
///    `Some`, and skips the input-gradient product.
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
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) -> TensorResult<()>;

    /// Backward pass: accumulates parameter gradients and, given
    /// `Some(grad_input)`, writes `dL/d(input)` into it, resized in place
    /// and fully overwritten. With `None` the input gradient is not
    /// computed; the parameter gradients are bit-identical either way.
    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()>;

    /// [`Layer::forward_into`] a fresh tensor (tests, one-off calls).
    fn forward(&mut self, input: &Tensor) -> TensorResult<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// [`Layer::backward_into`] a fresh tensor (tests, one-off calls).
    fn backward(&mut self, grad_output: &Tensor) -> TensorResult<Tensor> {
        let mut grad_input = Tensor::zeros(&[0]);
        self.backward_into(grad_output, Some(&mut grad_input))?;
        Ok(grad_input)
    }

    /// Number of trainable parameters in this layer.
    fn num_params(&self) -> usize {
        0
    }

    /// Appends this layer's parameters to `out` in a fixed order.
    fn write_params(&self, _out: &mut Vec<f32>) {}

    /// Reads this layer's parameters from the front of `src`, returning the
    /// number of values consumed. The order matches [`Layer::write_params`].
    fn read_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    /// Appends this layer's accumulated gradients to `out`, in the same
    /// order as [`Layer::write_params`].
    fn write_grads(&self, _out: &mut Vec<f32>) {}

    /// Clears the accumulated parameter gradients.
    fn zero_grads(&mut self) {}

    /// Clones the layer behind a box (parameters are copied, caches are not
    /// required to be preserved).
    fn clone_layer(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_layer()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Shared finite-difference gradient-check helper used by layer tests.

    use super::Layer;
    use fedadmm_tensor::Tensor;

    /// Checks `dL/dparams` of `layer` against central finite differences,
    /// where the scalar loss is `sum(layer.forward(input))`.
    pub fn check_param_gradients(
        layer: &mut dyn Layer,
        input: &Tensor,
        indices: &[usize],
        tol: f32,
    ) {
        let out = layer.forward(input).unwrap();
        let grad_out = Tensor::ones(out.dims());
        layer.zero_grads();
        layer.backward(&grad_out).unwrap();
        let mut grads = Vec::new();
        layer.write_grads(&mut grads);
        let mut params = Vec::new();
        layer.write_params(&mut params);

        let eps = 1e-2f32;
        for &idx in indices {
            let orig = params[idx];
            params[idx] = orig + eps;
            layer.read_params(&params);
            let lp = layer.forward(input).unwrap().sum();
            params[idx] = orig - eps;
            layer.read_params(&params);
            let lm = layer.forward(input).unwrap().sum();
            params[idx] = orig;
            layer.read_params(&params);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[idx];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + analytic.abs()),
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Asserts that `backward_into(.., None)` accumulates bit-for-bit the
    /// parameter gradients `backward_into(.., Some(..))` does: skipping the
    /// input gradient must not touch the parameter sweep.
    pub fn check_param_gradients_ignore_grad_input(layer: &mut dyn Layer, input: &Tensor) {
        let out = layer.forward(input).unwrap();
        let grad_out = out.map(|v| 0.5 - v);
        let mut grads = [Vec::new(), Vec::new()];
        let mut grad_input = Tensor::zeros(&[0]);
        for (with_input, grads) in [true, false].into_iter().zip(grads.iter_mut()) {
            layer.zero_grads();
            let grad_input = with_input.then_some(&mut grad_input);
            layer.backward_into(&grad_out, grad_input).unwrap();
            layer.write_grads(grads);
        }
        assert_eq!(grad_input.dims(), input.dims());
        assert_eq!(grads[0].len(), layer.num_params());
        assert!(grads[0].iter().any(|&g| g != 0.0));
        let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grads[0]), bits(&grads[1]));
    }

    /// Checks `dL/dinput` of `layer` against central finite differences.
    pub fn check_input_gradients(
        layer: &mut dyn Layer,
        input: &Tensor,
        indices: &[usize],
        tol: f32,
    ) {
        let out = layer.forward(input).unwrap();
        let grad_out = Tensor::ones(out.dims());
        layer.zero_grads();
        let grad_in = layer.backward(&grad_out).unwrap();

        let eps = 1e-2f32;
        let mut x = input.clone();
        for &idx in indices {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp = layer.forward(&x).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lm = layer.forward(&x).unwrap().sum();
            x.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + analytic.abs()),
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
