#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! A from-scratch CPU deep-learning library.
//!
//! The paper's pipeline needs two trained models — a PilotNet-style
//! steering CNN and a small fully-connected autoencoder — plus access to
//! every intermediate feature map (for VisualBackProp) and a custom SSIM
//! training objective. Rather than binding a heavyweight framework, this
//! crate implements exactly what is required, on top of [`ndtensor`]:
//!
//! * [`layer`] — Dense, Conv2d, ReLU, Sigmoid, Tanh, Flatten, MaxPool2d,
//!   each with a cached forward pass and an exact backward pass,
//! * [`Network`] — a sequential container with training/inference forward,
//!   backpropagation, activation collection and introspection,
//! * [`loss`] — MSE, Huber and the paper's SSIM dissimilarity objective,
//! * [`optim`] — SGD (with momentum) and Adam,
//! * [`train`] — a mini-batch trainer with shuffling, gradient clipping
//!   and per-epoch reporting,
//! * [`models`] — ready-made builders for the paper's two architectures,
//! * [`serialize`] — JSON save/load of trained networks,
//! * [`gradcheck`] — finite-difference utilities used heavily in tests.
//!
//! Everything is deterministic given a seed; batches always lead the
//! shape (`[N, features]` or `[N, C, H, W]`).
//!
//! # Example
//!
//! ```
//! use neural::{layer::Dense, layer::ReLU, Network};
//! use ndtensor::Tensor;
//!
//! # fn main() -> Result<(), neural::NeuralError> {
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
//! let net = Network::new()
//!     .with(Dense::new(4, 8, &mut rng)?)
//!     .with(ReLU::new())
//!     .with(Dense::new(8, 1, &mut rng)?);
//! let out = net.forward(&Tensor::zeros([2, 4]))?;
//! assert_eq!(out.shape().dims(), &[2, 1]);
//! # Ok(())
//! # }
//! ```

pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod models;
pub mod optim;
pub mod serialize;
pub mod train;

mod error;
mod network;

pub use error::NeuralError;
pub use layer::{Layer, LayerKind, ParamGrad};
pub use network::Network;
pub use train::{fit, LrSchedule, TrainConfig, TrainReport};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NeuralError>;
