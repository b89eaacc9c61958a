#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Dense `f32` tensor math substrate for the `saliency-novelty` workspace.
//!
//! This crate provides the numeric foundation used by every other crate in
//! the reproduction of *"Novelty Detection via Network Saliency in
//! Visual-based Deep Learning"* (DSN 2019): shapes, contiguous row-major
//! tensors, elementwise and reduction kernels, a blocked GEMM, 2-D
//! convolution (the forward as an implicit GEMM over stride-phase planes,
//! the backward over im2col panels), resampling,
//! random initialisation and libm-free transcendental functions
//! ([`math`]). Everything runs on the calling thread.
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
pub mod math;
mod matmul;
mod ops;
mod resample;
pub mod scratch;
mod shape;
mod tensor;

pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_params, im2col, Conv2dGrads, Conv2dSpec,
};
pub use error::TensorError;
pub use init::{fill_he_normal, fill_normal, fill_uniform, fill_xavier_uniform};
pub use matmul::{matmul, matmul_a_bt, matmul_assign, matmul_at_b, matmul_at_b_acc};
pub use resample::{resize_bilinear, resize_nearest, upsample_sum};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;

/// The one thread configuration: every kernel runs on the calling
/// thread. Kept, with [`set_thread_config`], so callers written against
/// the retired worker pool still compile.
#[derive(Debug)]
pub struct ThreadConfig;

impl ThreadConfig {
    /// The calling thread only — the library's sole mode.
    pub fn serial() -> Self {
        ThreadConfig
    }
}

/// Does nothing: the library is single-threaded.
pub fn set_thread_config(_config: ThreadConfig) {}
