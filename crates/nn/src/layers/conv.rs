//! 2-D convolution layer (wraps the im2col kernels from `fedadmm-tensor`).

use super::{relu, Layer};
use fedadmm_tensor::{init, ops, Tensor, TensorResult};
use rand::RngCore;

/// A 2-D convolution layer with bias: the parameters are the kernel
/// `[out_channels, in_channels, kernel_size, kernel_size]`, then the bias
/// `[out_channels]`.
///
/// The paper's CNN 1 / CNN 2 use 5×5 kernels, stride 1 and 'same' padding
/// (padding 2), each followed by a ReLU, but the layer is general. The
/// fused variant ([`Conv2d::new_fused_relu`]) applies the ReLU in the
/// kernel's bias epilogue and is bit-identical to a `Conv2d` followed by a
/// separate ReLU.
pub struct Conv2d {
    /// `[out_channels, in_channels, kernel_size, kernel_size]`.
    weight_dims: [usize; 4],
    stride: usize,
    padding: usize,
    fused_relu: bool,
    /// Reusable buffer for the ReLU-masked upstream gradient.
    masked_grad: Tensor,
    /// Reusable im2col / per-sample gradient buffers for the kernels.
    scratch: ops::Conv2dScratch,
}

impl Conv2d {
    /// Creates a convolution layer; [`Layer::init_params`] draws
    /// Kaiming-uniform weights and a zero bias for it.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d {
            weight_dims: [out_channels, in_channels, kernel_size, kernel_size],
            stride,
            padding,
            fused_relu: false,
            masked_grad: Tensor::zeros(&[0]),
            scratch: ops::Conv2dScratch::default(),
        }
    }

    /// Creates a convolution layer whose forward pass applies a fused
    /// ReLU. Initialises exactly as [`Conv2d::new`] does.
    pub fn new_fused_relu(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d {
            fused_relu: true,
            ..Conv2d::new(in_channels, out_channels, kernel_size, stride, padding)
        }
    }

    /// Length of the kernel, the front part of the layer's parameters.
    fn weight_len(&self) -> usize {
        self.weight_dims.iter().product()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        if self.fused_relu {
            "Conv2d+ReLU"
        } else {
            "Conv2d"
        }
    }

    fn forward_into(
        &mut self,
        params: &[f32],
        input: &Tensor,
        out: &mut Tensor,
    ) -> TensorResult<()> {
        let (weight, bias) = params.split_at(self.weight_len());
        ops::conv2d_forward_flat(
            input,
            weight,
            self.weight_dims,
            bias,
            self.stride,
            self.padding,
            &mut self.scratch,
            out,
            self.fused_relu,
        )
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
        let weight_len = self.weight_len();
        let grad_output = if self.fused_relu {
            relu::grad(grad_output, output, &mut self.masked_grad)?
        } else {
            grad_output
        };
        let (grad_weight, grad_bias) = grads.split_at_mut(weight_len);
        ops::conv2d_backward_flat(
            input,
            &params[..weight_len],
            self.weight_dims,
            grad_output,
            self.stride,
            self.padding,
            &mut self.scratch,
            grad_weight,
            grad_bias,
            grad_input,
        )
    }

    fn num_params(&self) -> usize {
        self.weight_len() + self.weight_dims[0]
    }

    fn init_params(&self, params: &mut [f32], mut rng: &mut dyn RngCore) {
        let (weight, bias) = params.split_at_mut(self.weight_len());
        init::kaiming_uniform(weight, self.weight_dims[1..].iter().product(), &mut rng);
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
    fn param_count_matches_formula() {
        // Paper CNN 1 first conv: 1 -> 32 channels, 5x5 -> 832 parameters.
        assert_eq!(Conv2d::new(1, 32, 5, 1, 2).num_params(), 832);
        // Paper CNN 1 second conv: 32 -> 64 channels, 5x5 -> 51,264 parameters.
        assert_eq!(Conv2d::new(32, 64, 5, 1, 2).num_params(), 51_264);
    }

    /// Backward handed the slots of an arena no forward pass has filled
    /// (empty tensors) errors, with or without the fused ReLU.
    #[test]
    fn backward_before_forward_errors() {
        let unfilled = Tensor::zeros(&[0]);
        for mut c in [
            Conv2d::new(1, 1, 3, 1, 1),
            Conv2d::new_fused_relu(1, 1, 3, 1, 1),
        ] {
            assert!(c
                .backward(
                    &[0.0; 10],
                    &mut [0.0; 10],
                    &unfilled,
                    &unfilled,
                    &Tensor::zeros(&[1, 1, 4, 4])
                )
                .is_err());
        }
    }

    #[test]
    fn same_padding_preserves_size() {
        let mut c = Conv2d::new(1, 2, 5, 1, 2);
        let out = c
            .forward(&[0.0; 52], &Tensor::zeros(&[1, 1, 28, 28]))
            .unwrap();
        assert_eq!(out.dims(), &[1, 2, 28, 28]);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let mut c = Conv2d::new(3, 2, 3, 1, 1);
        assert!(c
            .forward(&[0.0; 56], &Tensor::zeros(&[1, 1, 8, 8]))
            .is_err());
    }

    /// The layer holds no parameter of its own: initialisation fills its
    /// slice (kernel, then a zero bias), and a second layer handed the same
    /// slice computes the same bits.
    #[test]
    fn params_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut c = Conv2d::new(2, 3, 3, 1, 1);
        let params = gradcheck::init_params(&c, &mut rng);
        assert!(params[..54].iter().all(|&w| w != 0.0));
        assert_eq!(params[54..], [0.0; 3]);
        let x = gradcheck::gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        let y = c.forward(&params, &x).unwrap();
        assert_eq!(Conv2d::new(2, 3, 3, 1, 1).forward(&params, &x).unwrap(), y);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut c = Conv2d::new(2, 3, 3, 1, 1);
        let params = gradcheck::init_params(&c, &mut rng);
        let x = gradcheck::gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        gradcheck::check_gradients(
            &mut c,
            &params,
            &x,
            &[0, 10, 33, 55],
            &[0, 20, 49, 77],
            1e-1,
        );
    }

    #[test]
    fn param_gradients_do_not_depend_on_grad_input_being_requested() {
        let mut rng = SmallRng::seed_from_u64(15);
        let x = gradcheck::gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        for mut c in [
            Conv2d::new(2, 3, 3, 1, 1),
            Conv2d::new_fused_relu(2, 3, 3, 1, 1),
        ] {
            let params = gradcheck::init_params(&c, &mut rng);
            let with_input = gradcheck::grad_bits(&mut c, &params, &x, true, 1);
            assert_eq!(
                with_input,
                gradcheck::grad_bits(&mut c, &params, &x, false, 1)
            );
        }
    }

    /// The fused Conv2d+ReLU layer must be bit-identical to a `Conv2d`
    /// followed by a separate ReLU map, forward and backward, on negative,
    /// zero and NaN preactivations as well as positive ones.
    #[test]
    fn fused_relu_matches_separate_layers_exactly() {
        let mut rng = SmallRng::seed_from_u64(31);
        let mut fused = Conv2d::new_fused_relu(2, 3, 3, 1, 1);
        let mut plain = Conv2d::new(2, 3, 3, 1, 1);
        let mut params = gradcheck::init_params(&fused, &mut rng);
        let same_draws = gradcheck::init_params(&plain, &mut SmallRng::seed_from_u64(31));
        assert_eq!(params, same_draws);
        assert_eq!(fused.name(), "Conv2d+ReLU");

        // Sample 0 is all zeros, so its preactivations are the channel
        // biases: 0.0, NaN, and -0.0, which a kernel turns into +0.0 (no
        // GEMM output is -0.0, and 0.0 + -0.0 = 0.0). Sample 1 is random.
        params[54..].copy_from_slice(&[0.0, f32::NAN, -0.0]);
        let mut x = gradcheck::gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        x.data_mut()[..50].fill(0.0);
        let pre = plain.forward(&params, &x).unwrap();
        assert!(pre.data().iter().any(|v| v.is_nan()));
        assert!(pre.data().contains(&0.0));
        assert!(pre.data().iter().any(|&v| v < 0.0) && pre.data().iter().any(|&v| v > 0.0));

        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let go = gradcheck::gaussian(pre.dims(), 1.0, &mut rng);
        let (y_plain, go_plain) = gradcheck::reference_relu(&pre, &go);
        let y_fused = fused.forward(&params, &x).unwrap();
        assert_eq!(bits(y_fused.data()), bits(y_plain.data()));

        // The bias does not enter the backward pass, so the NaN channel
        // leaves every gradient finite: a mismatch cannot hide in a NaN.
        let (mut gf, mut gp) = (vec![f32::NAN; 57], vec![f32::NAN; 57]);
        let gx_fused = fused.backward(&params, &mut gf, &x, &y_fused, &go).unwrap();
        let gx_plain = plain
            .backward(&params, &mut gp, &x, &pre, &go_plain)
            .unwrap();
        assert!(gf.iter().chain(gx_fused.data()).all(|g| g.is_finite()));
        assert_eq!(bits(gx_fused.data()), bits(gx_plain.data()));
        assert_eq!(bits(&gf), bits(&gp));
    }
}
