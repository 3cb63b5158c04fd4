//! Max pooling layer (wraps the pooling kernels from `fedadmm-tensor`).

use super::Layer;
use fedadmm_tensor::{ops, Tensor, TensorResult};

/// 2-D max pooling. The paper's CNNs use 2×2 windows with stride 2.
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    /// Flat input index of each output's maximum, from the last forward
    /// pass: where the backward pass routes each output's gradient.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given window size and stride.
    pub fn new(size: usize, stride: usize) -> Self {
        MaxPool2d {
            size,
            stride,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward_into(&mut self, _: &[f32], input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        ops::max_pool2d_forward_into(input, self.size, self.stride, out, &mut self.argmax)
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
        let Some(grad_input) = grad_input else {
            return Ok(());
        };
        ops::max_pool2d_backward_into(grad_output, &self.argmax, input.dims(), grad_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = p.forward(&[], &x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let gx = p.backward(&[], &mut [], &x, &y, &g).unwrap();
        assert_eq!(gx.dims(), &[1, 1, 4, 4]);
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut p = MaxPool2d::new(2, 2);
        let (x, y) = (Tensor::zeros(&[1, 1, 4, 4]), Tensor::zeros(&[1, 1, 2, 2]));
        assert!(p.backward(&[], &mut [], &x, &y, &y).is_err());
    }

    #[test]
    fn no_parameters() {
        assert_eq!(MaxPool2d::new(2, 2).num_params(), 0);
    }
}
