//! ReLU activation layer.

use super::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};

/// Elementwise rectified linear unit: `y = max(x, 0)`.
#[derive(Default)]
pub struct Relu {
    /// Mask of the positive inputs from the last forward pass.
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        out.resize_in_place(input.dims());
        let mask = self.mask.get_or_insert_with(Vec::new);
        mask.clear();
        for (o, &x) in out.data_mut().iter_mut().zip(input.data().iter()) {
            mask.push(x > 0.0);
            *o = if x > 0.0 { x } else { 0.0 };
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
            TensorError::InvalidArgument("Relu::backward called before forward".into())
        })?;
        if mask.len() != grad_output.len() {
            return Err(TensorError::InvalidArgument(format!(
                "ReLU mask has {} elements but grad_output has {}",
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
            if !m {
                *g = 0.0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]).unwrap();
        let y = r.forward(&[], &x).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -3.0], &[4]).unwrap();
        r.forward(&[], &x).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4]).unwrap();
        let gx = r.backward(&[], &mut [], &g).unwrap();
        assert_eq!(gx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&[], &mut [], &Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn backward_rejects_mismatched_shape() {
        let mut r = Relu::new();
        r.forward(&[], &Tensor::zeros(&[4])).unwrap();
        assert!(r.backward(&[], &mut [], &Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn no_parameters() {
        assert_eq!(Relu::new().num_params(), 0);
    }
}
