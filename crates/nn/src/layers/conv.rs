//! 2-D convolution layer (wraps the im2col kernels from `fedadmm-tensor`).

use super::Layer;
use fedadmm_tensor::{init, ops, Tensor, TensorError, TensorResult};
use rand::Rng;

/// A 2-D convolution layer with bias.
///
/// The paper's CNN 1 / CNN 2 use 5×5 kernels, stride 1 and 'same' padding
/// (padding 2), but the layer is general.
#[derive(Clone)]
pub struct Conv2d {
    in_channels: usize,
    kernel_size: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// Reusable im2col / gradient-fold buffers for the `_into` kernels.
    scratch: ops::Conv2dScratch,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel_size * kernel_size;
        Conv2d {
            in_channels,
            kernel_size,
            stride,
            padding,
            weight: init::kaiming_uniform(
                &[out_channels, in_channels, kernel_size, kernel_size],
                fan_in,
                rng,
            ),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel_size, kernel_size]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_input: None,
            scratch: ops::Conv2dScratch::default(),
        }
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        ops::conv2d_output_size(input, self.kernel_size, self.stride, self.padding)
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

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor) -> TensorResult<()> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                left: input.dims().to_vec(),
                right: vec![0, self.in_channels, 0, 0],
            });
        }
        ops::conv2d_forward_into(
            input,
            &self.weight,
            &self.bias,
            self.stride,
            self.padding,
            &mut self.scratch,
            out,
        )?;
        self.cache_input(input);
        Ok(())
    }

    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
    ) -> TensorResult<()> {
        let input = self.cached_input.as_ref().ok_or_else(|| {
            TensorError::InvalidArgument("Conv2d::backward called before forward".into())
        })?;
        ops::conv2d_backward_into(
            input,
            &self.weight,
            grad_output,
            self.stride,
            self.padding,
            &mut self.scratch,
            &mut self.grad_weight,
            &mut self.grad_bias,
            grad_input,
        )
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
        // Parameters and gradient accumulators are copied; the cached input
        // and im2col scratch are transient per-step state the clone would
        // immediately overwrite, so they start empty.
        Box::new(Conv2d {
            in_channels: self.in_channels,
            kernel_size: self.kernel_size,
            stride: self.stride,
            padding: self.padding,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            grad_weight: self.grad_weight.clone(),
            grad_bias: self.grad_bias.clone(),
            cached_input: None,
            scratch: ops::Conv2dScratch::default(),
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
    fn param_count_matches_formula() {
        let mut rng = SmallRng::seed_from_u64(0);
        // Paper CNN 1 first conv: 1 -> 32 channels, 5x5 -> 832 parameters.
        let c = Conv2d::new(1, 32, 5, 1, 2, &mut rng);
        assert_eq!(c.num_params(), 832);
        // Paper CNN 1 second conv: 32 -> 64 channels, 5x5 -> 51,264 parameters.
        let c2 = Conv2d::new(32, 64, 5, 1, 2, &mut rng);
        assert_eq!(c2.num_params(), 51_264);
    }

    #[test]
    fn same_padding_preserves_size() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 2, 5, 1, 2, &mut rng);
        let out = c.forward(&Tensor::zeros(&[1, 1, 28, 28])).unwrap();
        assert_eq!(out.dims(), &[1, 2, 28, 28]);
        assert_eq!(c.output_size(28), 28);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 2, 3, 1, 1, &mut rng);
        assert!(c.forward(&Tensor::zeros(&[1, 1, 8, 8])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        assert!(c.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut buf = Vec::new();
        c.write_params(&mut buf);
        let mut c2 = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        assert_eq!(c2.read_params(&buf), buf.len());
        let mut buf2 = Vec::new();
        c2.write_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = fedadmm_tensor::init::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut c, &x, &[0, 10, 33, 55], 1e-1);
        gradcheck::check_input_gradients(&mut c, &x, &[0, 20, 49, 77], 1e-1);
    }

    #[test]
    fn param_gradients_do_not_depend_on_grad_input_being_requested() {
        let mut rng = SmallRng::seed_from_u64(15);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = fedadmm_tensor::init::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        gradcheck::check_param_gradients_ignore_grad_input(&mut c, &x);
    }
}
