//! Saturating elementwise activations (tanh and logistic sigmoid).
//!
//! The paper's CNNs use ReLU, but a reusable layer library should also offer
//! the classic saturating activations: they are what make the logistic /
//! MLP baselines of the broader FL literature expressible, and their bounded
//! outputs are occasionally useful to keep client-drift experiments
//! numerically tame under very large local learning rates.

use super::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};

/// Elementwise hyperbolic tangent: `y = tanh(x)`.
#[derive(Clone, Default)]
pub struct Tanh {
    /// Outputs of the last forward pass (`dy/dx = 1 − y²`).
    output: Option<Vec<f32>>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        out.resize_in_place(input.dims());
        let cache = self.output.get_or_insert_with(Vec::new);
        cache.clear();
        for (o, &x) in out.data_mut().iter_mut().zip(input.data().iter()) {
            let y = x.tanh();
            *o = y;
            cache.push(y);
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
        let output = self.output.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Tanh::backward called before forward".into())
        })?;
        if output.len() != grad_output.len() {
            return Err(TensorError::InvalidArgument(format!(
                "Tanh cached {} outputs but grad_output has {}",
                output.len(),
                grad_output.len()
            )));
        }
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        grad_input.resize_in_place(grad_output.dims());
        let data = grad_input.data_mut();
        data.copy_from_slice(grad_output.data());
        for (g, &y) in data.iter_mut().zip(output.iter()) {
            *g *= 1.0 - y * y;
        }
        Ok(())
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // Cached outputs are per-step activation state; start the clone empty.
        Box::new(Tanh::new())
    }
}

/// Elementwise logistic sigmoid: `y = 1 / (1 + e^{-x})`.
#[derive(Clone, Default)]
pub struct Sigmoid {
    /// Outputs of the last forward pass (`dy/dx = y(1 − y)`).
    output: Option<Vec<f32>>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "Sigmoid"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        out.resize_in_place(input.dims());
        let cache = self.output.get_or_insert_with(Vec::new);
        cache.clear();
        for (o, &x) in out.data_mut().iter_mut().zip(input.data().iter()) {
            let y = 1.0 / (1.0 + (-x).exp());
            *o = y;
            cache.push(y);
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
        let output = self.output.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Sigmoid::backward called before forward".into())
        })?;
        if output.len() != grad_output.len() {
            return Err(TensorError::InvalidArgument(format!(
                "Sigmoid cached {} outputs but grad_output has {}",
                output.len(),
                grad_output.len()
            )));
        }
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        grad_input.resize_in_place(grad_output.dims());
        let data = grad_input.data_mut();
        data.copy_from_slice(grad_output.data());
        for (g, &y) in data.iter_mut().zip(output.iter()) {
            *g *= y * (1.0 - y);
        }
        Ok(())
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // Cached outputs are per-step activation state; start the clone empty.
        Box::new(Sigmoid::new())
    }
}

#[cfg(test)]
mod tests {
    use super::super::gradcheck;
    use super::*;

    #[test]
    fn tanh_forward_values() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]).unwrap();
        let y = t.forward(&[], &x).unwrap();
        assert!((y.data()[0] + 0.76159).abs() < 1e-4);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 0.76159).abs() < 1e-4);
    }

    #[test]
    fn sigmoid_forward_values() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]).unwrap();
        let y = s.forward(&[], &x).unwrap();
        assert_eq!(y.data()[0], 0.5);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!(y.data()[2] < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_finite_differences() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-0.8, -0.2, 0.1, 0.7, 1.5, -1.2], &[2, 3]).unwrap();
        gradcheck::check_gradients(&mut t, &[], &x, &[], &[0, 1, 2, 3, 4, 5], 1e-2);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_differences() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-0.8, -0.2, 0.1, 0.7, 1.5, -1.2], &[2, 3]).unwrap();
        gradcheck::check_gradients(&mut s, &[], &x, &[], &[0, 1, 2, 3, 4, 5], 1e-2);
    }

    #[test]
    fn backward_before_forward_errors() {
        assert!(Tanh::new()
            .backward(&[], &mut [], &Tensor::zeros(&[2]))
            .is_err());
        assert!(Sigmoid::new()
            .backward(&[], &mut [], &Tensor::zeros(&[2]))
            .is_err());
    }

    #[test]
    fn backward_rejects_mismatched_shape() {
        let mut t = Tanh::new();
        t.forward(&[], &Tensor::zeros(&[3])).unwrap();
        assert!(t.backward(&[], &mut [], &Tensor::zeros(&[4])).is_err());
        let mut s = Sigmoid::new();
        s.forward(&[], &Tensor::zeros(&[3])).unwrap();
        assert!(s.backward(&[], &mut [], &Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn activations_have_no_parameters() {
        let t = Tanh::new();
        assert_eq!(t.num_params(), 0);
        let s = Sigmoid::new();
        assert_eq!(s.num_params(), 0);
        let cloned = t.clone_layer();
        assert_eq!(cloned.name(), "Tanh");
    }
}
