//! Reshape layer: reinterprets flattened inputs as images.
//!
//! The paper feeds *flattened* images (dimension 784 for MNIST/FMNIST,
//! 3,072 for CIFAR-10) into models whose first layer is a convolution, so
//! the CNN model builders prepend a `Reshape` from `[batch, c*h*w]` to
//! `[batch, c, h, w]`.

use super::Layer;
use fedadmm_tensor::{Tensor, TensorError, TensorResult};

/// Reshapes `[batch, prod(target)]` into `[batch, target...]`.
pub struct Reshape {
    target: Vec<usize>,
    /// Reusable `[batch, target...]` dimension buffer.
    full_dims: Vec<usize>,
}

impl Reshape {
    /// Creates a reshape layer. `target` excludes the batch dimension.
    pub fn new(target: &[usize]) -> Self {
        Reshape {
            target: target.to_vec(),
            full_dims: Vec::new(),
        }
    }
}

impl Layer for Reshape {
    fn name(&self) -> &'static str {
        "Reshape"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        if input.rank() < 1 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: input.rank(),
            });
        }
        let batch = input.dims()[0];
        let expected: usize = self.target.iter().product();
        let actual: usize = input.dims()[1..].iter().product();
        if expected != actual {
            return Err(TensorError::InvalidReshape {
                from: actual,
                to: expected,
            });
        }
        self.full_dims.clear();
        self.full_dims.push(batch);
        self.full_dims.extend_from_slice(&self.target);
        out.resize_in_place(&self.full_dims);
        out.data_mut().copy_from_slice(input.data());
        Ok(())
    }

    fn backward_into(
        &mut self,
        _: &[f32],
        _: &mut [f32],
        input: &Tensor,
        _: &Tensor,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        if input.len() != grad_output.len() {
            return Err(TensorError::InvalidReshape {
                from: grad_output.len(),
                to: input.len(),
            });
        }
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        grad_input.resize_in_place(input.dims());
        grad_input.data_mut().copy_from_slice(grad_output.data());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_flat_mnist_to_image() {
        let mut r = Reshape::new(&[1, 28, 28]);
        let x = Tensor::zeros(&[4, 784]);
        let y = r.forward(&[], &x).unwrap();
        assert_eq!(y.dims(), &[4, 1, 28, 28]);
        let gx = r
            .backward(&[], &mut [], &x, &y, &Tensor::ones(&[4, 1, 28, 28]))
            .unwrap();
        assert_eq!(gx.dims(), &[4, 784]);
    }

    /// Backward handed an input slot no forward pass has filled (an empty
    /// tensor) errors instead of returning an empty gradient.
    #[test]
    fn backward_before_forward_errors() {
        let mut r = Reshape::new(&[1, 2, 2]);
        let unfilled = Tensor::zeros(&[0]);
        assert!(r
            .backward(
                &[],
                &mut [],
                &unfilled,
                &unfilled,
                &Tensor::zeros(&[1, 1, 2, 2])
            )
            .is_err());
    }

    #[test]
    fn rejects_wrong_element_count() {
        let mut r = Reshape::new(&[3, 32, 32]);
        assert!(r.forward(&[], &Tensor::zeros(&[2, 784])).is_err());
    }
}
