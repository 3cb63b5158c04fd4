//! Batched 2-D convolution (forward and backward) via im2col.
//!
//! The paper's two CNN architectures use 5×5 convolutions with 'same'
//! padding (input spatial size preserved), stride 1. The kernels here are
//! general over kernel size, stride and padding, but only what the models
//! need is heavily exercised.
//!
//! Layout conventions (all row-major, contiguous):
//! * input:   `[batch, in_channels, height, width]`
//! * weight:  `[out_channels, in_channels, kernel_h, kernel_w]`
//! * bias:    `[out_channels]`
//! * output:  `[batch, out_channels, out_h, out_w]`
//!
//! The unroll works in rows, never per element. For each `(c, ki, kj)` the
//! output positions whose input lies inside the image form one interval per
//! axis, `[lo, hi)`, worked out once. Each `(c, ki, kj, oy)` row of the
//! im2col matrix is then all zeros (the input row is padding) or zeros on
//! `[0, lo)`, one copy of the input row on `[lo, hi)` — `copy_from_slice` at
//! stride 1, a strided gather otherwise — and zeros on `[hi, out_w)`.
//! `col2im` walks the same rows in the same `(c, ki, kj, oy)` order and adds
//! each slice into its input-gradient row. No bit moves relative to a
//! per-element loop: copies are exact, and every input pixel still receives
//! its additions in `(c, ki, kj, oy, ox)` order (within one row, distinct
//! `ox` reach distinct pixels). The tests compare both functions with those
//! loops by bit pattern.

use crate::error::{TensorError, TensorResult};
use crate::ops::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use crate::tensor::Tensor;

/// Computes the output spatial size of a convolution whose geometry is
/// valid: `stride > 0` and `kernel <= input + 2 * padding` (the passes
/// reject anything else before they call this).
pub fn conv2d_output_size(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding - kernel) / stride + 1
}

/// Reusable scratch buffers for the convolution kernels.
///
/// One scratch serves any sequence of forward/backward calls; each buffer is
/// resized on demand and reuses its capacity across steps, so steady-state
/// training performs no per-step allocation in the convolution layers.
#[derive(Debug, Clone, Default)]
pub struct Conv2dScratch {
    /// im2col matrix, `[in_c*kh*kw, out_h*out_w]`, reused per sample.
    col: Vec<f32>,
    /// Gradient of the im2col matrix, same shape as `col`.
    grad_col: Vec<f32>,
    /// Per-sample weight-gradient contribution, `[out_c, in_c*kh*kw]`.
    gw_sample: Vec<f32>,
}

fn resize_scratch(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// The sizes both passes work with, checked once.
struct Geometry {
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    kh: usize,
    kw: usize,
    out_h: usize,
    out_w: usize,
}

/// Validates what the forward and backward passes share: the input's rank,
/// the channel counts, the length of the flat weight, and the geometry — a
/// zero stride, or a kernel larger than the padded input along an axis, is
/// an `InvalidArgument` naming it (unchecked, the first divides by zero and
/// the second underflows the output size).
fn check_geometry(
    input: &Tensor,
    weight: &[f32],
    weight_dims: [usize; 4],
    stride: usize,
    padding: usize,
) -> TensorResult<Geometry> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let [batch, in_c, h, w] = [
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    ];
    let [out_c, w_in_c, kh, kw] = weight_dims;
    if in_c != w_in_c || weight.len() != out_c * w_in_c * kh * kw {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight_dims.to_vec(),
        });
    }
    if stride == 0 {
        return Err(TensorError::InvalidArgument(
            "stride must be positive".into(),
        ));
    }
    for (axis, size, kernel) in [("height", h, kh), ("width", w, kw)] {
        if kernel > size + 2 * padding {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {axis} {kernel} exceeds the padded input {axis} {}",
                size + 2 * padding
            )));
        }
    }
    Ok(Geometry {
        batch,
        in_c,
        h,
        w,
        out_c,
        kh,
        kw,
        out_h: conv2d_output_size(h, kh, stride, padding),
        out_w: conv2d_output_size(w, kw, stride, padding),
    })
}

/// The dims of a rank-4 weight tensor, for the `Tensor`-typed wrappers.
fn kernel_dims(weight: &Tensor) -> TensorResult<[usize; 4]> {
    weight
        .dims()
        .try_into()
        .map_err(|_| TensorError::RankMismatch {
            expected: 4,
            actual: weight.rank(),
        })
}

/// The output positions `[lo, hi)` along one axis whose input position
/// `o * stride + k - padding` lies inside `0..size`: `o * stride + k >=
/// padding` from `lo` on, `o * stride + k < size + padding` below `hi`.
/// Empty intervals come back as `lo == hi`.
fn inside(size: usize, k: usize, stride: usize, padding: usize, out: usize) -> (usize, usize) {
    let lo = padding.saturating_sub(k).div_ceil(stride).min(out);
    let hi = (size + padding).saturating_sub(k).div_ceil(stride).min(out);
    (lo, hi.max(lo))
}

/// Unrolls one padded input sample into the im2col matrix.
///
/// The resulting matrix has shape `[in_c*kh*kw, out_h*out_w]` stored
/// row-major in `col`, fully overwritten. Each `(c, ki, kj)` block holds
/// one row per output row `oy`: all zeros when the input row is padding,
/// otherwise zeros, one (strided) copy of the input row, zeros.
#[allow(clippy::too_many_arguments)]
fn im2col(
    sample: &[f32],
    col: &mut [f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
) {
    let out_hw = out_h * out_w;
    for c in 0..in_c {
        let channel = &sample[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            let (y_lo, y_hi) = inside(h, ki, stride, padding, out_h);
            for kj in 0..kw {
                let (x_lo, x_hi) = inside(w, kj, stride, padding, out_w);
                // Without an input column every row is padding.
                let rows = if x_lo < x_hi { y_lo..y_hi } else { 0..0 };
                let row_idx = (c * kh + ki) * kw + kj;
                let col_row = &mut col[row_idx * out_hw..(row_idx + 1) * out_hw];
                let (head, rest) = col_row.split_at_mut(rows.start * out_w);
                let (body, tail) = rest.split_at_mut(rows.len() * out_w);
                head.fill(0.0);
                tail.fill(0.0);
                for (oy, out_row) in rows.zip(body.chunks_exact_mut(out_w)) {
                    let iy = oy * stride + ki - padding;
                    let x0 = x_lo * stride + kj - padding;
                    let in_row = &channel[iy * w + x0..(iy + 1) * w];
                    out_row[..x_lo].fill(0.0);
                    out_row[x_hi..].fill(0.0);
                    let copy = &mut out_row[x_lo..x_hi];
                    if stride == 1 {
                        copy.copy_from_slice(&in_row[..copy.len()]);
                    } else {
                        for (v, x) in copy.iter_mut().zip(in_row.iter().step_by(stride)) {
                            *v = *x;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters an im2col matrix back into a (padded) input gradient sample,
/// adding onto what `sample_grad` holds: one row add per `(c, ki, kj, oy)`
/// whose input row is inside the image, taken in that order, so every input
/// pixel receives its contributions in the order of the per-element loop.
#[allow(clippy::too_many_arguments)]
fn col2im(
    col: &[f32],
    sample_grad: &mut [f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
) {
    let out_hw = out_h * out_w;
    for c in 0..in_c {
        let channel = &mut sample_grad[c * h * w..(c + 1) * h * w];
        for ki in 0..kh {
            let (y_lo, y_hi) = inside(h, ki, stride, padding, out_h);
            for kj in 0..kw {
                let (x_lo, x_hi) = inside(w, kj, stride, padding, out_w);
                if x_lo == x_hi {
                    continue;
                }
                let row_idx = (c * kh + ki) * kw + kj;
                let col_row = &col[row_idx * out_hw..(row_idx + 1) * out_hw];
                for oy in y_lo..y_hi {
                    let iy = oy * stride + ki - padding;
                    let x0 = x_lo * stride + kj - padding;
                    let grad_row = &mut channel[iy * w + x0..(iy + 1) * w];
                    let adds = &col_row[oy * out_w + x_lo..oy * out_w + x_hi];
                    if stride == 1 {
                        for (g, a) in grad_row.iter_mut().zip(adds) {
                            *g += a;
                        }
                    } else {
                        for (g, a) in grad_row.iter_mut().step_by(stride).zip(adds) {
                            *g += a;
                        }
                    }
                }
            }
        }
    }
}

/// Forward pass of a batched 2-D convolution into a caller-owned tensor.
///
/// `out` is resized (reusing capacity) to `[batch, out_c, out_h, out_w]`
/// and fully overwritten. The im2col matrix lives in `scratch` and is
/// reused across samples and calls. No activation is applied.
pub fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    padding: usize,
    scratch: &mut Conv2dScratch,
    out: &mut Tensor,
) -> TensorResult<()> {
    let dims = kernel_dims(weight)?;
    conv2d_forward_flat(
        input,
        weight.data(),
        dims,
        bias.data(),
        stride,
        padding,
        scratch,
        out,
        false,
    )
}

/// [`conv2d_forward_into`] on parameters that live in a flat store:
/// `weight` is the row-major `weight_dims = [out_c, in_c, kh, kw]` kernel
/// as a slice, `bias` its `out_c` offsets. With `relu`, every output goes
/// through ReLU in the per-channel bias epilogue, the rule
/// [`linear_forward_flat`](crate::ops::linear_forward_flat) applies.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_flat(
    input: &Tensor,
    weight: &[f32],
    weight_dims: [usize; 4],
    bias: &[f32],
    stride: usize,
    padding: usize,
    scratch: &mut Conv2dScratch,
    out: &mut Tensor,
    relu: bool,
) -> TensorResult<()> {
    let Geometry {
        batch,
        in_c,
        h,
        w,
        out_c,
        kh,
        kw,
        out_h,
        out_w,
    } = check_geometry(input, weight, weight_dims, stride, padding)?;
    if bias.len() != out_c {
        return Err(TensorError::ShapeMismatch {
            left: vec![out_c],
            right: vec![bias.len()],
        });
    }
    let out_hw = out_h * out_w;
    let col_rows = in_c * kh * kw;

    let input_data = input.data();
    let sample_in = in_c * h * w;
    let sample_out = out_c * out_hw;

    out.resize_in_place(&[batch, out_c, out_h, out_w]);
    let output = out.data_mut();
    resize_scratch(&mut scratch.col, col_rows * out_hw);
    for b in 0..batch {
        let out_sample = &mut output[b * sample_out..(b + 1) * sample_out];
        let sample = &input_data[b * sample_in..(b + 1) * sample_in];
        im2col(
            sample,
            &mut scratch.col,
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            out_h,
            out_w,
        );
        matmul_into(weight, &scratch.col, out_sample, out_c, col_rows, out_hw);
        for oc in 0..out_c {
            let bias_v = bias[oc];
            let channel = &mut out_sample[oc * out_hw..(oc + 1) * out_hw];
            for v in channel.iter_mut() {
                *v += bias_v;
            }
            if relu {
                // A select, as the dense kernel does: NaN and −0.0 go to +0.0.
                for v in channel.iter_mut() {
                    *v = if *v > 0.0 { *v } else { 0.0 };
                }
            }
        }
    }
    Ok(())
}

/// Backward pass of a batched 2-D convolution into caller-owned tensors.
///
/// `grad_output` must have the shape [`conv2d_forward_into`] produces for
/// the same `(input, weight, stride, padding)`. `grad_weight` / `grad_bias`
/// must have the shapes of `weight` / the bias and are **overwritten** with
/// this batch's gradient; `grad_input` takes a `&mut Tensor`, which is
/// resized and fully overwritten, or `None` when nobody reads
/// `dL/d(input)` (the network's first convolution), which skips that
/// product and its col2im scatter altogether.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into<'a>(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    stride: usize,
    padding: usize,
    scratch: &mut Conv2dScratch,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
    grad_input: impl Into<Option<&'a mut Tensor>>,
) -> TensorResult<()> {
    let dims = kernel_dims(weight)?;
    if grad_weight.dims() != weight.dims() {
        return Err(TensorError::ShapeMismatch {
            left: weight.dims().to_vec(),
            right: grad_weight.dims().to_vec(),
        });
    }
    conv2d_backward_flat(
        input,
        weight.data(),
        dims,
        grad_output,
        stride,
        padding,
        scratch,
        grad_weight.data_mut(),
        grad_bias.data_mut(),
        grad_input.into(),
    )
}

/// [`conv2d_backward_into`] on parameters and gradients that live in a
/// flat store: `grad_weight` (as long as `weight`) and `grad_bias` (`out_c`
/// long) are overwritten where the optimizer reads them.
///
/// Per-sample contributions are folded into the slices in sample order —
/// the float-op order the golden digests pin. The bias sums from `+0.0`;
/// the weight gradient starts as sample 0's `A·Bᵀ` output itself, which has
/// the bits of `+0.0` plus it because no kernel output is `-0.0`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_flat(
    input: &Tensor,
    weight: &[f32],
    weight_dims: [usize; 4],
    grad_output: &Tensor,
    stride: usize,
    padding: usize,
    scratch: &mut Conv2dScratch,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
    grad_input: Option<&mut Tensor>,
) -> TensorResult<()> {
    let Geometry {
        batch,
        in_c,
        h,
        w,
        out_c,
        kh,
        kw,
        out_h,
        out_w,
    } = check_geometry(input, weight, weight_dims, stride, padding)?;
    let out_hw = out_h * out_w;
    if grad_output.dims() != [batch, out_c, out_h, out_w] {
        return Err(TensorError::ShapeMismatch {
            left: vec![batch, out_c, out_h, out_w],
            right: grad_output.dims().to_vec(),
        });
    }
    let col_rows = in_c * kh * kw;
    if grad_weight.len() != weight.len() || grad_bias.len() != out_c {
        return Err(TensorError::ShapeMismatch {
            left: vec![weight.len(), out_c],
            right: vec![grad_weight.len(), grad_bias.len()],
        });
    }
    let input_data = input.data();
    let grad_out_data = grad_output.data();
    let sample_in = in_c * h * w;
    let sample_out = out_c * out_hw;

    resize_scratch(&mut scratch.col, col_rows * out_hw);
    resize_scratch(&mut scratch.gw_sample, out_c * col_rows);
    if batch == 0 {
        grad_weight.fill(0.0);
    }
    grad_bias.fill(0.0);

    let mut gi_all = grad_input.map(|grad_input| {
        grad_input.resize_in_place(input.dims());
        let gi_all = grad_input.data_mut();
        gi_all.fill(0.0);
        gi_all
    });
    if gi_all.is_some() {
        resize_scratch(&mut scratch.grad_col, col_rows * out_hw);
    }

    for b in 0..batch {
        let sample = &input_data[b * sample_in..(b + 1) * sample_in];
        im2col(
            sample,
            &mut scratch.col,
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            out_h,
            out_w,
        );
        let go = &grad_out_data[b * sample_out..(b + 1) * sample_out];

        // gw[out_c × col_rows] = go[out_c × out_hw] · colᵀ[out_hw × col_rows].
        // Sample 0 writes straight into the gradient: a kernel output is
        // never `-0.0`, so it has the bits `0.0 + gw` would have.
        if b == 0 {
            matmul_a_bt_into(go, &scratch.col, grad_weight, out_c, out_hw, col_rows);
        } else {
            matmul_a_bt_into(
                go,
                &scratch.col,
                &mut scratch.gw_sample,
                out_c,
                out_hw,
                col_rows,
            );
            for (g, &v) in grad_weight.iter_mut().zip(scratch.gw_sample.iter()) {
                *g += v;
            }
        }
        for (oc, gb) in grad_bias.iter_mut().enumerate() {
            *gb += go[oc * out_hw..(oc + 1) * out_hw].iter().sum::<f32>();
        }

        if let Some(gi_all) = gi_all.as_deref_mut() {
            // grad_col[col_rows × out_hw] = weightᵀ[col_rows × out_c] · go[out_c × out_hw]
            matmul_at_b_into(weight, go, &mut scratch.grad_col, out_c, col_rows, out_hw);
            col2im(
                &scratch.grad_col,
                &mut gi_all[b * sample_in..(b + 1) * sample_in],
                in_c,
                h,
                w,
                kh,
                kw,
                stride,
                padding,
                out_h,
                out_w,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_distr::{Distribution, Normal};

    /// A tensor of i.i.d. `N(0, std²)` entries.
    fn gaussian(dims: &[usize], std: f32, rng: &mut impl rand::Rng) -> Tensor {
        let normal = Normal::new(0.0, std).expect("valid normal parameters");
        let mut t = Tensor::zeros(dims);
        for x in t.data_mut() {
            *x = normal.sample(rng);
        }
        t
    }

    /// Gradients of one backward pass.
    struct Grads {
        grad_input: Tensor,
        grad_weight: Tensor,
        grad_bias: Tensor,
    }

    /// [`conv2d_forward_into`] with a fresh scratch and output.
    fn conv2d_forward(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        padding: usize,
    ) -> TensorResult<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        let mut scratch = Conv2dScratch::default();
        conv2d_forward_into(input, weight, bias, stride, padding, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`conv2d_backward_into`] with a fresh scratch and fresh gradients.
    fn conv2d_backward(
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        stride: usize,
        padding: usize,
    ) -> TensorResult<Grads> {
        let mut grads = Grads {
            grad_input: Tensor::zeros(&[0]),
            grad_weight: Tensor::zeros(weight.dims()),
            grad_bias: Tensor::zeros(&[weight.dims()[0]]),
        };
        conv2d_backward_into(
            input,
            weight,
            grad_output,
            stride,
            padding,
            &mut Conv2dScratch::default(),
            &mut grads.grad_weight,
            &mut grads.grad_bias,
            &mut grads.grad_input,
        )?;
        Ok(grads)
    }

    #[test]
    fn output_size_same_padding() {
        // 5x5 kernel with padding 2 preserves the spatial size (the paper's CNNs).
        assert_eq!(conv2d_output_size(28, 5, 1, 2), 28);
        assert_eq!(conv2d_output_size(32, 5, 1, 2), 32);
        assert_eq!(conv2d_output_size(28, 5, 1, 0), 24);
        assert_eq!(conv2d_output_size(4, 2, 2, 0), 2);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A 1x1 kernel with weight 1 and no padding copies the input.
        let input = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d_forward(&input, &weight, &bias, 1, 0).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // Input 1x1x3x3 = [[1,2,3],[4,5,6],[7,8,9]], kernel 2x2 all-ones, no padding.
        let input =
            Tensor::from_vec(vec![1., 2., 3., 4., 5., 6., 7., 8., 9.], &[1, 1, 3, 3]).unwrap();
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d_forward(&input, &weight, &bias, 1, 0).unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_added_per_channel() {
        let input = Tensor::zeros(&[1, 1, 3, 3]);
        let weight = Tensor::zeros(&[2, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        assert_eq!(out.dims(), &[1, 2, 3, 3]);
        for &v in &out.data()[0..9] {
            assert_eq!(v, 1.5);
        }
        for &v in &out.data()[9..18] {
            assert_eq!(v, -2.0);
        }
    }

    #[test]
    fn padding_preserves_shape_for_5x5() {
        let input = Tensor::ones(&[2, 1, 8, 8]);
        let weight = Tensor::ones(&[3, 1, 5, 5]);
        let bias = Tensor::zeros(&[3]);
        let out = conv2d_forward(&input, &weight, &bias, 1, 2).unwrap();
        assert_eq!(out.dims(), &[2, 3, 8, 8]);
        // Centre pixels see the full 5x5 window of ones: value 25.
        assert_eq!(out.get(&[0, 0, 4, 4]).unwrap(), 25.0);
        // The corner sees only a 3x3 window.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 9.0);
    }

    #[test]
    fn backward_shapes() {
        let input = Tensor::ones(&[2, 3, 6, 6]);
        let weight = Tensor::ones(&[4, 3, 5, 5]);
        let bias = Tensor::zeros(&[4]);
        let out = conv2d_forward(&input, &weight, &bias, 1, 2).unwrap();
        let grads = conv2d_backward(&input, &weight, &out, 1, 2).unwrap();
        assert_eq!(grads.grad_input.dims(), input.dims());
        assert_eq!(grads.grad_weight.dims(), weight.dims());
        assert_eq!(grads.grad_bias.dims(), &[4]);
    }

    #[test]
    fn backward_bias_is_sum_of_grad_output() {
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let weight = Tensor::ones(&[2, 1, 1, 1]);
        let grad_out = Tensor::ones(&[1, 2, 3, 3]);
        let grads = conv2d_backward(&input, &weight, &grad_out, 1, 0).unwrap();
        assert_eq!(grads.grad_bias.data(), &[9.0, 9.0]);
    }

    /// Finite-difference gradient check of the convolution weights.
    #[test]
    fn backward_weight_matches_finite_difference() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(42);
        let input = gaussian(&[2, 2, 5, 5], 1.0, &mut rng);
        let mut weight = gaussian(&[3, 2, 3, 3], 0.5, &mut rng);
        let bias = gaussian(&[3], 0.5, &mut rng);

        // Scalar objective: sum of outputs.
        let loss = |w: &Tensor| -> f32 { conv2d_forward(&input, w, &bias, 1, 1).unwrap().sum() };
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();

        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 23, 50] {
            let orig = weight.data()[idx];
            weight.data_mut()[idx] = orig + eps;
            let lp = loss(&weight);
            weight.data_mut()[idx] = orig - eps;
            let lm = loss(&weight);
            weight.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_weight.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-1 * (1.0 + analytic.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Finite-difference gradient check of the convolution input.
    #[test]
    fn backward_input_matches_finite_difference() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut input = gaussian(&[1, 2, 4, 4], 1.0, &mut rng);
        let weight = gaussian(&[2, 2, 3, 3], 0.5, &mut rng);
        let bias = Tensor::zeros(&[2]);

        let loss = |x: &Tensor| -> f32 { conv2d_forward(x, &weight, &bias, 1, 1).unwrap().sum() };
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();

        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 16, 31] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let lp = loss(&input);
            input.data_mut()[idx] = orig - eps;
            let lm = loss(&input);
            input.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_input.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-1 * (1.0 + analytic.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// One scratch and one set of output tensors reused across differently
    /// shaped calls must be bit-identical to fresh ones: the parameter
    /// gradients overwrite whatever the tensors held, so a second pass with
    /// no zeroing in between leaves the bits of one.
    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_and_grads_overwrite() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(77);
        let mut scratch = Conv2dScratch::default();
        let mut out = Tensor::zeros(&[0]);
        let mut gi = Tensor::zeros(&[0]);
        for &(batch, in_c, hw, out_c, k, stride, padding) in &[
            (1usize, 1usize, 4usize, 1usize, 2usize, 1usize, 0usize),
            (3, 2, 8, 4, 5, 1, 2),
            (2, 3, 6, 2, 3, 2, 1),
        ] {
            let input = gaussian(&[batch, in_c, hw, hw], 1.0, &mut rng);
            let weight = gaussian(&[out_c, in_c, k, k], 0.5, &mut rng);
            let bias = gaussian(&[out_c], 0.5, &mut rng);

            let expected = conv2d_forward(&input, &weight, &bias, stride, padding).unwrap();
            conv2d_forward_into(
                &input,
                &weight,
                &bias,
                stride,
                padding,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            assert_eq!(out.dims(), expected.dims());
            for (a, b) in out.data().iter().zip(expected.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            let grad_out = gaussian(expected.dims(), 1.0, &mut rng);
            let grads = conv2d_backward(&input, &weight, &grad_out, stride, padding).unwrap();
            // Stale contents, then two passes in a row.
            let mut gw = gaussian(weight.dims(), 0.1, &mut rng);
            let mut gb = gaussian(&[out_c], 0.1, &mut rng);
            for _ in 0..2 {
                conv2d_backward_into(
                    &input,
                    &weight,
                    &grad_out,
                    stride,
                    padding,
                    &mut scratch,
                    &mut gw,
                    &mut gb,
                    &mut gi,
                )
                .unwrap();
            }
            for (a, b) in gw.data().iter().zip(grads.grad_weight.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gb.data().iter().zip(grads.grad_bias.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(gi.dims(), input.dims());
            for (a, b) in gi.data().iter().zip(grads.grad_input.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let input = Tensor::zeros(&[1, 2, 4, 4]);
        let weight = Tensor::zeros(&[2, 3, 3, 3]); // channel mismatch
        let bias = Tensor::zeros(&[2]);
        assert!(conv2d_forward(&input, &weight, &bias, 1, 1).is_err());
        let weight_ok = Tensor::zeros(&[2, 2, 3, 3]);
        let bias_bad = Tensor::zeros(&[3]);
        assert!(conv2d_forward(&input, &weight_ok, &bias_bad, 1, 1).is_err());
        assert!(conv2d_forward(&input, &weight_ok, &bias, 0, 1).is_err());
    }
    /// A geometry neither pass can run is an `InvalidArgument` naming what
    /// is wrong, from both passes: a zero stride (unchecked, a division by
    /// zero) and a kernel larger than the padded input along either axis
    /// (unchecked, the output size underflows).
    #[test]
    fn both_passes_reject_unusable_geometry() {
        let bias = Tensor::zeros(&[2]);
        // (input h, input w, kernel h, kernel w, stride, padding, named in the error)
        for (h, w, kh, kw, stride, padding, named) in [
            (4usize, 4usize, 3usize, 3usize, 0usize, 1usize, "stride"),
            (2, 6, 5, 3, 1, 1, "height"),
            (6, 2, 3, 5, 1, 1, "width"),
            (1, 1, 2, 2, 2, 0, "height"),
        ] {
            let input = Tensor::zeros(&[1, 1, h, w]);
            let weight = Tensor::zeros(&[2, 1, kh, kw]);
            let forward = conv2d_forward(&input, &weight, &bias, stride, padding);
            // Any grad_output shape: the geometry is rejected before it is read.
            let backward = conv2d_backward(
                &input,
                &weight,
                &Tensor::zeros(&[1, 2, 1, 1]),
                stride,
                padding,
            );
            for result in [forward.map(drop), backward.map(drop)] {
                match result {
                    Err(TensorError::InvalidArgument(msg)) => {
                        assert!(msg.contains(named), "{msg:?} does not name {named}")
                    }
                    other => panic!("{kh}x{kw} on {h}x{w}, stride {stride}: got {other:?}"),
                }
            }
        }
        // The kernel exactly covering the padded input is the smallest valid case.
        let input = Tensor::ones(&[1, 1, 1, 1]);
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        assert_eq!(out.dims(), &[1, 2, 1, 1]);
        assert!(conv2d_backward(&input, &weight, &out, 1, 1).is_ok());
    }

    /// Deterministic non-integer f32 values over 2^-20..2^20 of either sign
    /// (splitmix64 bits), so nearly every sum `col2im` forms rounds and a
    /// change of its addition order shows in the bits.
    struct Values(u64);

    impl Values {
        fn next(&mut self) -> f32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let b = z ^ (z >> 31);
            let mantissa = 1.0 + (b >> 40) as f32 / (1u64 << 24) as f32;
            let sign = if b & 1 == 0 { 1.0 } else { -1.0 };
            sign * mantissa * 2f32.powi(((b >> 8) % 41) as i32 - 20)
        }

        /// `len` values, with NaN and ±∞ at sparse positions and signed
        /// zeros and subnormals more often.
        fn salted(&mut self, len: usize) -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let v = self.next();
                    if i % 397 == 5 {
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3]
                    } else if i % 23 == 7 {
                        [-0.0, 0.0, 1e-40, -3e-42][i % 4]
                    } else {
                        v
                    }
                })
                .collect()
        }
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: {g:e} ({:#010x}) != {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `im2col` and `col2im` against the per-element loops in [`reference`],
    /// by bit pattern, over every valid geometry of a grid that holds 1×1
    /// and odd-shaped images, square and non-square kernels, strides 1–3
    /// and padding 0–4: rows and columns that are all padding (padding ≥
    /// kernel) and kernels that exactly cover the padded input included.
    /// The unroll starts from a buffer of NaNs, so an element the kernel
    /// forgets to write shows; the scatter starts from a salted non-zero
    /// gradient, so the order in which each input pixel receives its
    /// contributions is part of what is compared.
    #[test]
    fn unroll_and_scatter_match_the_per_element_reference_bit_for_bit() {
        let mut values = Values(0xC0DE);
        let kernels = [(1, 1), (2, 2), (3, 3), (5, 5), (3, 5)];
        let mut cases = 0;
        for in_c in [1usize, 3] {
            for (h, w) in [(1usize, 1usize), (5, 5), (7, 4), (14, 14), (28, 28)] {
                for (kh, kw) in kernels {
                    for padding in 0..=4usize {
                        if kh > h + 2 * padding || kw > w + 2 * padding {
                            continue;
                        }
                        for stride in 1..=3usize {
                            let out_h = conv2d_output_size(h, kh, stride, padding);
                            let out_w = conv2d_output_size(w, kw, stride, padding);
                            let what = format!(
                                "in_c {in_c}, {h}x{w}, kernel {kh}x{kw}, \
                                 stride {stride}, padding {padding}"
                            );
                            let col_len = in_c * kh * kw * out_h * out_w;
                            let sample = values.salted(in_c * h * w);
                            let mut got = vec![f32::from_bits(0x7FC0_DEAD); col_len];
                            let mut want = got.clone();
                            im2col(
                                &sample, &mut got, in_c, h, w, kh, kw, stride, padding, out_h,
                                out_w,
                            );
                            reference::im2col(
                                &sample, &mut want, in_c, h, w, kh, kw, stride, padding, out_h,
                                out_w,
                            );
                            assert_same_bits(&got, &want, &format!("im2col, {what}"));

                            let grad_col = values.salted(col_len);
                            let mut got = values.salted(in_c * h * w);
                            let mut want = got.clone();
                            col2im(
                                &grad_col, &mut got, in_c, h, w, kh, kw, stride, padding, out_h,
                                out_w,
                            );
                            reference::col2im(
                                &grad_col, &mut want, in_c, h, w, kh, kw, stride, padding, out_h,
                                out_w,
                            );
                            assert_same_bits(&got, &want, &format!("col2im, {what}"));
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 500, "only {cases} geometries ran");
    }
}

/// The per-element unroll and scatter the row kernels replaced, kept
/// verbatim as the reference they are compared with.
#[cfg(test)]
mod reference {
    /// Unrolls one padded input sample into the im2col matrix.
    ///
    /// The resulting matrix has shape `[in_c*kh*kw, out_h*out_w]` stored
    /// row-major in `col`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn im2col(
        sample: &[f32],
        col: &mut [f32],
        in_c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: usize,
        out_h: usize,
        out_w: usize,
    ) {
        let out_hw = out_h * out_w;
        for c in 0..in_c {
            let channel = &sample[c * h * w..(c + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let row_idx = (c * kh + ki) * kw + kj;
                    let col_row = &mut col[row_idx * out_hw..(row_idx + 1) * out_hw];
                    for oy in 0..out_h {
                        let iy = (oy * stride + ki) as isize - padding as isize;
                        let base = oy * out_w;
                        if iy < 0 || iy >= h as isize {
                            for v in &mut col_row[base..base + out_w] {
                                *v = 0.0;
                            }
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kj) as isize - padding as isize;
                            col_row[base + ox] = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                channel[iy * w + ix as usize]
                            };
                        }
                    }
                }
            }
        }
    }

    /// Scatters an im2col matrix back into a (padded) input gradient sample.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn col2im(
        col: &[f32],
        sample_grad: &mut [f32],
        in_c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        padding: usize,
        out_h: usize,
        out_w: usize,
    ) {
        let out_hw = out_h * out_w;
        for c in 0..in_c {
            let channel = &mut sample_grad[c * h * w..(c + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let row_idx = (c * kh + ki) * kw + kj;
                    let col_row = &col[row_idx * out_hw..(row_idx + 1) * out_hw];
                    for oy in 0..out_h {
                        let iy = (oy * stride + ki) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kj) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            channel[iy * w + ix as usize] += col_row[oy * out_w + ox];
                        }
                    }
                }
            }
        }
    }
}
