//! Batched 2-D max pooling (forward and backward).
//!
//! The paper's CNNs use 2×2 max pooling with stride 2 after each
//! convolution. The kernel is general over pool size and stride. The
//! forward pass records the flat index of each window's maximum so that the
//! backward pass can scatter gradients without recomputing the forward.

use crate::error::{TensorError, TensorResult};
use crate::tensor::Tensor;

/// Forward pass of batched 2-D max pooling into caller-owned buffers.
///
/// Input shape `[batch, channels, h, w]`; output spatial size is
/// `(h - size) / stride + 1` (no padding — the paper's models pool even
/// spatial sizes exactly). `out` is resized to the pooled shape and
/// `argmax` to the output element count — for every output element, the
/// flat index (within the *input* buffer) of the element that achieved the
/// maximum. Both reuse their existing capacity, so steady-state calls are
/// allocation-free.
pub fn max_pool2d_forward_into(
    input: &Tensor,
    size: usize,
    stride: usize,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) -> TensorResult<()> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    if size == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument(
            "pool size and stride must be positive".into(),
        ));
    }
    let [batch, channels, h, w] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    if h < size || w < size {
        return Err(TensorError::InvalidArgument(format!(
            "pool window {size} larger than input {h}x{w}"
        )));
    }
    let out_h = (h - size) / stride + 1;
    let out_w = (w - size) / stride + 1;
    let data = input.data();
    out.resize_in_place(&[batch, channels, out_h, out_w]);
    let output = out.data_mut();
    argmax.clear();
    argmax.resize(output.len(), 0);

    let mut out_idx = 0usize;
    for b in 0..batch {
        for c in 0..channels {
            let plane_offset = (b * channels + c) * h * w;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..size {
                        let iy = oy * stride + ky;
                        for kx in 0..size {
                            let ix = ox * stride + kx;
                            let idx = plane_offset + iy * w + ix;
                            let v = data[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    output[out_idx] = best;
                    argmax[out_idx] = best_idx;
                    out_idx += 1;
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of batched 2-D max pooling into a caller-owned tensor.
///
/// Routes each output gradient to the input position that produced the
/// maximum in the forward pass. `grad_input` is resized to `input_dims`
/// (reusing capacity) and fully overwritten.
pub fn max_pool2d_backward_into(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
    grad_input: &mut Tensor,
) -> TensorResult<()> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::InvalidArgument(format!(
            "grad_output has {} elements but argmax has {}",
            grad_output.len(),
            argmax.len()
        )));
    }
    let input_len: usize = input_dims.iter().product();
    grad_input.resize_in_place(input_dims);
    let grad = grad_input.data_mut();
    grad.iter_mut().for_each(|g| *g = 0.0);
    for (&idx, &g) in argmax.iter().zip(grad_output.data().iter()) {
        if idx >= input_len {
            return Err(TensorError::InvalidArgument(format!(
                "argmax index {idx} out of bounds for input of {input_len} elements"
            )));
        }
        grad[idx] += g;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pooled values plus argmax bookkeeping, in fresh buffers.
    struct MaxPoolOutput {
        output: Tensor,
        argmax: Vec<usize>,
    }

    fn max_pool2d_forward(
        input: &Tensor,
        size: usize,
        stride: usize,
    ) -> TensorResult<MaxPoolOutput> {
        let mut output = Tensor::zeros(&[0]);
        let mut argmax = Vec::new();
        max_pool2d_forward_into(input, size, stride, &mut output, &mut argmax)?;
        Ok(MaxPoolOutput { output, argmax })
    }

    fn max_pool2d_backward(
        grad_output: &Tensor,
        argmax: &[usize],
        input_dims: &[usize],
    ) -> TensorResult<Tensor> {
        let mut grad_input = Tensor::zeros(&[0]);
        max_pool2d_backward_into(grad_output, argmax, input_dims, &mut grad_input)?;
        Ok(grad_input)
    }

    #[test]
    fn pool_2x2_known_values() {
        // 1x1x4x4 input with rows 0..16; 2x2/2 pooling keeps [5,7,13,15].
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let out = max_pool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(out.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.output.data(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(out.argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn pool_odd_size_drops_remainder() {
        // 5x5 input pooled 2x2/2 gives 2x2 (the final row/col is dropped),
        // matching the paper's CNN 1 (28 -> 14 -> 7 would use even sizes; the
        // 7x7 -> flatten path never pools an odd size, but the kernel must
        // still behave sanely).
        let input = Tensor::from_vec((0..25).map(|x| x as f32).collect(), &[1, 1, 5, 5]).unwrap();
        let out = max_pool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(out.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.output.data(), &[6.0, 8.0, 16.0, 18.0]);
    }

    #[test]
    fn pool_multi_channel_batch() {
        let mut input = Tensor::zeros(&[2, 2, 2, 2]);
        input.set(&[0, 0, 1, 1], 5.0).unwrap();
        input.set(&[1, 1, 0, 0], 7.0).unwrap();
        let out = max_pool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(out.output.dims(), &[2, 2, 1, 1]);
        assert_eq!(out.output.data(), &[5.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let fwd = max_pool2d_forward(&input, 2, 2).unwrap();
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let grad_in = max_pool2d_backward(&grad_out, &fwd.argmax, input.dims()).unwrap();
        assert_eq!(grad_in.get(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(grad_in.get(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(grad_in.get(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(grad_in.get(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(grad_in.sum(), 10.0);
    }

    #[test]
    fn backward_rejects_mismatched_lengths() {
        let grad_out = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d_backward(&grad_out, &[0, 1], &[1, 1, 4, 4]).is_err());
        assert!(max_pool2d_backward(&grad_out, &[0, 1, 2, 99], &[1, 1, 2, 2]).is_err());
    }

    #[test]
    fn forward_rejects_bad_arguments() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(max_pool2d_forward(&input, 0, 2).is_err());
        assert!(max_pool2d_forward(&input, 2, 0).is_err());
        assert!(max_pool2d_forward(&input, 5, 1).is_err());
        let rank3 = Tensor::zeros(&[1, 4, 4]);
        assert!(max_pool2d_forward(&rank3, 2, 2).is_err());
    }

    /// Buffers reused across differently shaped calls (stale contents,
    /// grown capacity) must give exactly what fresh buffers give.
    #[test]
    fn reused_buffers_match_fresh_buffers() {
        let mut out = Tensor::zeros(&[0]);
        let mut argmax = Vec::new();
        let mut grad_in = Tensor::zeros(&[0]);
        for &(batch, channels, hw) in &[(1usize, 1usize, 4usize), (2, 3, 6), (1, 2, 5)] {
            let input = Tensor::from_vec(
                (0..batch * channels * hw * hw)
                    .map(|x| ((x * 37 + 11) % 23) as f32 - 11.0)
                    .collect(),
                &[batch, channels, hw, hw],
            )
            .unwrap();
            let expected = max_pool2d_forward(&input, 2, 2).unwrap();
            max_pool2d_forward_into(&input, 2, 2, &mut out, &mut argmax).unwrap();
            assert_eq!(out.dims(), expected.output.dims());
            assert_eq!(out.data(), expected.output.data());
            assert_eq!(argmax, expected.argmax);

            let grad_out = Tensor::ones(out.dims());
            let expected_gi = max_pool2d_backward(&grad_out, &argmax, input.dims()).unwrap();
            max_pool2d_backward_into(&grad_out, &argmax, input.dims(), &mut grad_in).unwrap();
            assert_eq!(grad_in.dims(), expected_gi.dims());
            assert_eq!(grad_in.data(), expected_gi.data());
        }
    }

    #[test]
    fn gradient_is_subgradient_of_max() {
        // Perturbing the max element changes the pooled output; perturbing a
        // non-max element does not. The backward pass must reflect exactly that.
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]).unwrap();
        let fwd = max_pool2d_forward(&input, 2, 2).unwrap();
        let grad_out = Tensor::ones(&[1, 1, 1, 1]);
        let grad_in = max_pool2d_backward(&grad_out, &fwd.argmax, input.dims()).unwrap();
        assert_eq!(grad_in.data(), &[0.0, 0.0, 0.0, 1.0]);
    }
}
