#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Dense `f32` tensor math substrate for the `saliency-novelty` workspace.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the reproduction of *"Novelty Detection via Network Saliency in
//! Visual-based Deep Learning"* (DSN 2019): shapes, contiguous row-major
//! tensors, elementwise and reduction kernels, a blocked multi-threaded
//! GEMM, im2col-based 2-D convolution (forward and backward), resampling,
//! and random initialisation.
//!
//! The design goals are, in order: correctness (every kernel has a naive
//! reference implementation it is tested against), determinism (no
//! platform-dependent math, seeded RNG everywhere), and enough speed to
//! train the paper's networks on a CPU in minutes.
//!
//! # Example
//!
//! ```
//! use ndtensor::{Tensor, matmul};
//!
//! # fn main() -> Result<(), ndtensor::TensorError> {
//! let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.])?;
//! let c = matmul(&a, &b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
//! # Ok(())
//! # }
//! ```

mod conv;
mod error;
mod init;
mod kernels;
mod matmul;
mod ops;
pub mod par;
mod resample;
pub mod scratch;
mod shape;
mod tensor;

pub use conv::{
    col2im, col2im_into, conv2d, conv2d_backward, conv2d_backward_into, conv2d_into, im2col,
    im2col_into, Conv2dGrads, Conv2dSpec,
};
pub use error::TensorError;
pub use init::{fill_he_normal, fill_normal, fill_uniform, fill_xavier_uniform};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_assign, matmul_assign_finite, matmul_assign_into,
    matmul_at_b, matmul_at_b_into, matmul_into,
};
pub use par::{set_thread_config, thread_config, with_serial, ThreadConfig};
pub use resample::{resize_bilinear, resize_nearest, upsample_sum};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;
