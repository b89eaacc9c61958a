#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Image-similarity metrics and distribution statistics.
//!
//! The paper's central argument is a *metric* argument: pixel-wise MSE
//! cannot separate in-distribution reconstructions from novel ones once
//! images carry real-world variation, while SSIM (Wang & Bovik's
//! Structural Similarity index) can. This crate implements:
//!
//! * [`mse`] — the baseline fidelity measure,
//! * [`ssim`] / [`ssim_map`] / [`ssim_with_grad`] — windowed SSIM with the
//!   analytic gradient needed to *train* an autoencoder against an SSIM
//!   objective (Fig. 5/6/7), computed in `O(H·W)` with integral images,
//! * [`histogram::Histogram`] — the histogram series of Figs. 5 and 7,
//! * [`ecdf::Ecdf`] — empirical CDFs and the 99th-percentile threshold rule
//!   of Richter & Roy that the paper reuses,
//! * [`separation`] — AUROC, overlap and detection-rate summaries used to
//!   compare the three pipeline variants quantitatively.

pub mod ecdf;
pub mod histogram;
pub mod separation;

mod error;
mod fidelity;
mod ssim;

pub use error::MetricsError;
pub use fidelity::mse;
pub use ssim::{ssim, ssim_map, ssim_with_grad, SsimConfig};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MetricsError>;
