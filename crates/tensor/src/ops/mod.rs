//! Tensor operations: matrix multiplication, 2-D convolution, max pooling.
//!
//! These free functions are the compute kernels behind the layers in
//! `fedadmm-nn`. Every kernel writes into caller-owned buffers (`_into`),
//! resized in place, so a training step that re-presents the same shapes
//! allocates nothing. They are written against contiguous row-major
//! buffers and validated by unit tests against hand-computed values and by
//! gradient checks in the `fedadmm-nn` crate.

mod conv;
mod matmul;
mod pool;

pub use conv::{
    conv2d_backward_flat, conv2d_backward_into, conv2d_forward_flat, conv2d_forward_into,
    conv2d_output_size, Conv2dScratch,
};
pub use matmul::{
    gemm_a_bt_into, gemm_at_b_into, gemm_into, gemm_isa, linear_forward_flat, linear_forward_into,
    matmul_a_bt_into, matmul_at_b_into, matmul_into, reference,
};
pub use pool::{max_pool2d_backward_into, max_pool2d_forward_into};
