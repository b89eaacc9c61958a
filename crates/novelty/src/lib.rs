#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Novelty detection via network saliency — the paper's contribution.
//!
//! This crate assembles the substrates (`neural`, `saliency`, `metrics`,
//! `simdrive`) into the two-layer framework of *"Novelty Detection via
//! Network Saliency in Visual-based Deep Learning"* (DSN 2019):
//!
//! 1. a PilotNet-style CNN is trained to predict steering angles,
//! 2. **VisualBackProp** masks computed on that CNN become the
//!    representation of every image (preprocessing layer),
//! 3. a small feed-forward **autoencoder** (9600→64→16→64→9600, sigmoid
//!    output) is trained on those masks with an **SSIM** objective,
//! 4. an incoming image is **novel** when its reconstruction similarity
//!    falls outside the 99th percentile of the training distribution
//!    (the Richter & Roy rule, applied to SSIM).
//!
//! [`NoveltyDetectorBuilder`] trains the full pipeline from a
//! [`simdrive::DrivingDataset`]; presets exist for the paper's method
//! ([`NoveltyDetectorBuilder::paper`]) and both comparison pipelines
//! (raw+MSE Richter & Roy baseline, VBP+MSE ablation). [`eval`] scores
//! whole datasets and produces the separation reports behind Figs. 5
//! and 7.
//!
//! # Example
//!
//! ```no_run
//! use novelty::NoveltyDetectorBuilder;
//! use simdrive::DatasetConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = DatasetConfig::outdoor().with_len(500).generate(1);
//! let detector = NoveltyDetectorBuilder::paper().seed(7).train(&data)?;
//!
//! let frame = &data.frames()[0].image;
//! let verdict = detector.classify(frame)?;
//! println!("novel: {} (score {:.3})", verdict.is_novel, verdict.score);
//! # Ok(())
//! # }
//! ```

pub mod eval;
pub mod evalgrid;
pub mod monitor;

mod backend;
mod calibrate;
mod classifier;
mod ensemble;
mod error;
mod gate;
mod health;
mod modelchar;
mod persist;
mod pipeline;
mod runtime;
pub mod serve;

pub use backend::{AutoencoderBackend, BackendKind, Detector, Preprocessing, ScoreBackend};
pub use calibrate::{Calibrator, Direction, Threshold};
pub use classifier::{AutoencoderClassifier, ClassifierConfig, ReconstructionObjective};
pub use ensemble::{fuse_verdict, EnsembleDetector};
pub use error::NoveltyError;
pub use gate::{FrameFault, FrameGate, GateConfig};
pub use health::{HealthConfig, HealthEvent, HealthState, HealthTracker, HealthTransition};
pub use modelchar::{ModelCharBackend, StatProfile};
pub use persist::{
    detector_from_spec, detector_to_spec, ensemble_from_spec, load_any, load_detector,
    save_detector, DetectorSpec, EnsembleSpec, LoadedDetector, DETECTOR_SCHEMA_VERSION,
    ENSEMBLE_SCHEMA_VERSION,
};
pub use pipeline::{BackendScore, NoveltyDetector, NoveltyDetectorBuilder, Verdict};
pub use runtime::{
    CostModel, DeadlineClock, DecisionSource, FallbackPolicy, FrameAdmission, ScoreOutcome,
    ShedReason, StreamConfig, StreamDecision, StreamRuntime,
};
pub use serve::{
    AlarmLog, AlarmLogEntry, QueueConfig, StreamServer, TenantSpec, TenantStats,
    ALARM_LOG_SCHEMA_VERSION,
};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NoveltyError>;
