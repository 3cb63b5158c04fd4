//! # fedadmm-tensor
//!
//! A small, dependency-light dense tensor library used as the numerical
//! substrate of the FedADMM reproduction. It provides exactly what the
//! paper's models need and nothing more:
//!
//! * row-major `f32` tensors with arbitrary rank ([`Tensor`]),
//!   shape/stride bookkeeping ([`Shape`]) and checked indexing,
//! * elementwise maps, in-place scaling, sums and 2-D transposes on
//!   [`Tensor`]; vector arithmetic on flat buffers (`axpy`, dot products,
//!   norms, the server fold kernels) lives in [`vecops`] alone,
//! * batched matrix multiplication ([`ops::gemm_into`] and its
//!   transposed-operand variants),
//! * 2-D convolution with 'same' padding via im2col
//!   ([`ops::conv2d_forward_into`]) and its input/weight gradients,
//! * 2×2 max pooling with argmax bookkeeping for the backward pass
//!   ([`ops::max_pool2d_forward_into`]),
//! * random initialisation helpers used by the network layers ([`init`]),
//! * the workspace's one worker pool ([`dispatch::DispatchPool`]).
//!
//! Every compute kernel writes into caller-owned buffers that it resizes in
//! place, so a training loop re-presenting the same shapes allocates
//! nothing; there is no separate allocating form.
//!
//! The library intentionally avoids external BLAS so that the whole
//! reproduction builds offline from vendored crates only; the inner matmul
//! kernel is cache-blocked, which is plenty for the paper's CNN 1 / CNN 2
//! models at simulation scale. Every kernel is a plain serial loop: no
//! kernel creates or uses a thread. The crate holds the pool only because
//! it sits below every crate that goes parallel (the round engine, the
//! dataset generator); callers that want more cores run whole kernels side
//! by side on it.
//!
//! ## Example
//!
//! ```
//! use fedadmm_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let mut c = Tensor::zeros(&[0]);
//! ops::gemm_into(&a, &b, &mut c).unwrap();
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dispatch;
pub mod error;
pub mod init;
pub mod ops;
pub mod shape;
pub mod tensor;
pub mod vecops;

pub use error::{TensorError, TensorResult};
pub use shape::Shape;
pub use tensor::Tensor;
