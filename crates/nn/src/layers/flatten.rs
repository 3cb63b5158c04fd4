//! Flatten layer: collapses all non-batch dimensions.

use super::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};

/// Flattens `[batch, d1, d2, ...]` into `[batch, d1*d2*...]`.
#[derive(Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        if input.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input.rank(),
            });
        }
        let batch = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        let dims = self.cached_dims.get_or_insert_with(Vec::new);
        dims.clear();
        dims.extend_from_slice(input.dims());
        out.resize_in_place(&[batch, rest]);
        out.data_mut().copy_from_slice(input.data());
        Ok(())
    }

    fn backward_into(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        let dims = self.cached_dims.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Flatten::backward called before forward".into())
        })?;
        let expected: usize = dims.iter().product();
        if expected != grad_output.len() {
            return Err(TensorError::InvalidReshape {
                from: grad_output.len(),
                to: expected,
            });
        }
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        grad_input.resize_in_place(dims);
        grad_input.data_mut().copy_from_slice(grad_output.data());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_flattens_and_backward_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&[], &x).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let gx = f.backward(&[], &mut [], &Tensor::ones(&[2, 48])).unwrap();
        assert_eq!(gx.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn rejects_rank1_input() {
        let mut f = Flatten::new();
        assert!(f.forward(&[], &Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut f = Flatten::new();
        assert!(f.backward(&[], &mut [], &Tensor::zeros(&[2, 2])).is_err());
    }
}
