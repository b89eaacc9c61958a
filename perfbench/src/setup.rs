//! Workload inputs and the trained scoring detector, all derived from the
//! run's `--seed`.
//!
//! Set-up is what a deployment pays before the first frame: generating
//! (here: rendering) the inputs, training the detector, and — for the
//! benchmark's own output checks — scoring every input once with
//! `score_batch` as the reference every later verdict must equal bit for
//! bit.

use novelty::{
    detector_to_spec, ClassifierConfig, NoveltyDetector, NoveltyDetectorBuilder,
    ReconstructionObjective,
};
use simdrive::{standard_mix, DatasetConfig, DriveConfig, DrivingDataset, TenantTraffic, World};
use vision::Image;

use crate::stats::fnv;

/// The four workloads, in the order a full run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One camera, closed loop, `StreamRuntime::process` per frame.
    StreamClean,
    /// Eight tenants, closed loop, lossless queues, coalesced scoring.
    ServeFleet,
    /// Eight tenants, open loop, tight queues, one hostile tenant.
    ServeHostile,
    /// Repeated training of the paper detector.
    Train,
}

impl Workload {
    /// Every workload, in execution order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamClean,
        Workload::ServeFleet,
        Workload::ServeHostile,
        Workload::Train,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamClean => "stream-clean",
            Workload::ServeFleet => "serve-fleet",
            Workload::ServeHostile => "serve-hostile",
            Workload::Train => "train",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one run: the full benchmark or the `--quick` smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Frames in the training dataset (80% train the detector).
    pub train_frames: usize,
    /// Steering-CNN training epochs.
    pub cnn_epochs: usize,
    /// Autoencoder training epochs, of which `warmup_epochs` use MSE.
    pub ae_epochs: usize,
    /// Leading MSE epochs of the SSIM autoencoder.
    pub warmup_epochs: usize,
    /// Frames in the `stream-clean` camera stream.
    pub stream_frames: usize,
    /// Frames each serve tenant's traffic holds before it replays.
    pub tenant_frames: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        train_frames: 160,
        cnn_epochs: 1,
        ae_epochs: 4,
        warmup_epochs: 1,
        stream_frames: 128,
        tenant_frames: 48,
    };

    /// The smoke-test configuration: every code path, minimal sizes.
    pub const QUICK: Scale = Scale {
        train_frames: 40,
        cnn_epochs: 1,
        ae_epochs: 1,
        warmup_epochs: 0,
        stream_frames: 24,
        tenant_frames: 8,
    };

    /// The paper detector (`vbp+ssim`, seed 1) with this scale's epochs.
    pub fn builder(&self) -> NoveltyDetectorBuilder {
        NoveltyDetectorBuilder::paper()
            .cnn_epochs(self.cnn_epochs)
            .classifier_config(ClassifierConfig {
                epochs: self.ae_epochs,
                warmup_epochs: self.warmup_epochs,
                objective: ReconstructionObjective::paper_ssim(),
                ..ClassifierConfig::paper()
            })
            .seed(1)
    }
}

/// Tenants in both serve workloads.
pub const TENANTS: usize = 8;
/// The tenant of `serve-hostile` that sends only corrupt frames.
pub const HOSTILE_TENANT: usize = 3;

/// A decorrelated sub-seed of the run seed (SplitMix64 finaliser).
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a workload feeds the system, with the reference score bits of
/// every scorable frame.
#[derive(Debug)]
pub enum Inputs {
    /// `stream-clean`: one clean outdoor camera stream.
    Stream {
        /// The frames, replayed in order.
        frames: Vec<Image>,
        /// `score_batch` score bits of each frame.
        reference: Vec<u32>,
    },
    /// `serve-*`: per-tenant arrival streams.
    Traffic {
        /// Each tenant's traffic, replayed from the start when exhausted.
        tenants: Vec<TenantTraffic>,
        /// Per tenant, per traffic index: reference score bits of the
        /// delivered image, when it is finite and correctly sized.
        reference: Vec<Vec<Option<u32>>>,
    },
    /// `train`: the training dataset itself.
    Training,
}

/// Everything a workload needs before its measured window.
#[derive(Debug)]
pub struct Setup {
    /// The trained scoring detector.
    pub detector: NoveltyDetector,
    /// Its training dataset.
    pub training: DrivingDataset,
    /// FNV-1a of the detector's `detector_to_spec` JSON.
    pub spec_digest: u64,
    /// The workload's inputs.
    pub inputs: Inputs,
}

/// FNV-1a of a detector's persisted form.
pub fn spec_digest(detector: &NoveltyDetector) -> Result<u64, String> {
    let spec = detector_to_spec(detector).map_err(|e| format!("detector_to_spec: {e}"))?;
    let json = serde_json::to_string(&spec).map_err(|e| format!("spec serialisation: {e}"))?;
    Ok(fnv(json.as_bytes()))
}

/// Builds a workload's inputs and detector from the run seed.
pub fn setup(workload: Workload, seed: u64, scale: &Scale) -> Result<Setup, String> {
    let training = DatasetConfig::outdoor()
        .with_len(scale.train_frames)
        .generate(sub_seed(seed, 1));
    let detector = scale
        .builder()
        .train(&training)
        .map_err(|e| format!("training the scoring detector: {e}"))?;
    let spec_digest = spec_digest(&detector)?;
    let inputs = match workload {
        Workload::StreamClean => {
            let frames: Vec<Image> = DriveConfig::new(World::Outdoor)
                .with_len(scale.stream_frames)
                .simulate(sub_seed(seed, 2))
                .frames()
                .iter()
                .map(|f| f.image.clone())
                .collect();
            let reference = detector
                .score_batch(&frames)
                .map_err(|e| format!("reference scores: {e}"))?
                .into_iter()
                .map(f32::to_bits)
                .collect();
            Inputs::Stream { frames, reference }
        }
        Workload::ServeFleet | Workload::ServeHostile => {
            let hostile = (workload == Workload::ServeHostile).then_some(HOSTILE_TENANT);
            let tenants = standard_mix(TENANTS, scale.tenant_frames, hostile)
                .iter()
                .enumerate()
                .map(|(i, config)| config.generate(sub_seed(seed, 3), i))
                .collect::<Result<Vec<_>, _>>()?;
            let reference = traffic_reference(&detector, &tenants)?;
            Inputs::Traffic { tenants, reference }
        }
        Workload::Train => Inputs::Training,
    };
    Ok(Setup {
        detector,
        training,
        spec_digest,
        inputs,
    })
}

/// Reference score bits for every delivered image the detector can score
/// (finite pixels, trained geometry), by tenant and traffic index.
fn traffic_reference(
    detector: &NoveltyDetector,
    tenants: &[TenantTraffic],
) -> Result<Vec<Vec<Option<u32>>>, String> {
    let size = detector.input_size();
    let mut slots = Vec::new();
    let mut images = Vec::new();
    for (t, traffic) in tenants.iter().enumerate() {
        for i in 0..traffic.len() {
            if let Some(img) = traffic.image_at(i) {
                if (img.height(), img.width()) == size && !img.tensor().has_non_finite() {
                    slots.push((t, i));
                    images.push(img.clone());
                }
            }
        }
    }
    let scores = detector
        .score_batch(&images)
        .map_err(|e| format!("reference scores: {e}"))?;
    let mut reference: Vec<Vec<Option<u32>>> =
        tenants.iter().map(|t| vec![None; t.len()]).collect();
    for ((t, i), score) in slots.into_iter().zip(scores) {
        reference[t][i] = Some(score.to_bits());
    }
    Ok(reference)
}
