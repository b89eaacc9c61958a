#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! # saliency-novelty
//!
//! A from-scratch Rust reproduction of *"Novelty Detection via Network
//! Saliency in Visual-based Deep Learning"* (Chen, Yoon, Shao — DSN 2019,
//! arXiv:1906.03685).
//!
//! The paper detects inputs a trained vision model cannot be trusted on by
//! combining three ingredients:
//!
//! 1. a **steering-angle CNN** (PilotNet-style) trained on road images,
//! 2. **VisualBackProp** saliency masks computed on that CNN, used as a
//!    preprocessing layer that keeps only the features the model relies on,
//! 3. a small **autoencoder one-class classifier** trained on those masks
//!    with an **SSIM** (structural similarity) objective, thresholded at
//!    the 99th percentile of the training-score distribution.
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users can depend on a single package. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! # Quickstart
//!
//! ```no_run
//! use saliency_novelty::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate synthetic driving data (stand-in for the Udacity set).
//! let dataset = DatasetConfig::outdoor().with_len(256).generate(42);
//!
//! // Train the full pipeline: steering CNN → VBP masks → SSIM autoencoder.
//! let detector = NoveltyDetectorBuilder::new()
//!     .seed(7)
//!     .train(&dataset)?;
//!
//! // Score a fresh frame.
//! let frame = DatasetConfig::indoor().with_len(1).generate(1).images()[0].clone();
//! let verdict = detector.classify(&frame)?;
//! println!("novel = {}, score = {:.3}", verdict.is_novel, verdict.score);
//! # Ok(())
//! # }
//! ```
//!
//! The `examples/` directory contains runnable end-to-end scenarios and the
//! `bench` crate regenerates every figure of the paper's evaluation.

pub use metrics;
pub use ndtensor;
pub use neural;
pub use novelty;
pub use obs;
pub use saliency;
pub use simdrive;
pub use vision;

/// One-line import for the most common types across the workspace.
pub mod prelude {
    pub use metrics::{ecdf::Ecdf, histogram::Histogram, mse, ssim, SsimConfig};
    pub use ndtensor::{Shape, Tensor};
    pub use neural::{Network, TrainConfig};
    pub use novelty::monitor::{AlarmState, StreamMonitor};
    pub use novelty::{
        BackendKind, Calibrator, Detector, Direction, EnsembleDetector, FallbackPolicy, FrameFault,
        FrameGate, GateConfig, HealthState, HealthTracker, NoveltyDetector, NoveltyDetectorBuilder,
        ScoreBackend, StreamConfig, StreamDecision, StreamRuntime, Verdict,
    };
    pub use obs::{Recorder, RunRecorder, RunReport};
    pub use saliency::{visual_backprop, SaliencyMethod};
    pub use simdrive::{
        DatasetConfig, DrivingDataset, FaultBurst, FaultConfig, FaultInjector, FaultKind, Weather,
        World,
    };
    pub use vision::Image;
}
