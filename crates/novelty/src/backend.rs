//! Pluggable score backends: the (preprocess, score) pair behind a
//! [`NoveltyDetector`], factored out of the pipeline so new detectors
//! are *instances*, not forks.
//!
//! The paper's detector is one fixed triple — VBP preprocess →
//! autoencoder reconstruct → SSIM score. [`ScoreBackend`] abstracts that
//! triple: the three pipelines of Fig. 5 ([`BackendKind::RawMse`],
//! [`BackendKind::VbpMse`], [`BackendKind::VbpSsim`]) are all the single
//! [`AutoencoderBackend`] type, and [`BackendKind::ModelChar`]
//! ([`crate::ModelCharBackend`]) scores novelty from the steering CNN's
//! *own* per-layer response statistics (Kwon et al., arXiv:2008.06094)
//! with no autoencoder at all.
//!
//! The contract every backend must uphold (see `DESIGN.md`):
//!
//! * `score` is a pure function of `(backend state, image)` —
//!   bit-identical on every call, with or without recording;
//! * `preprocess`/`score` never mutate observable state (interior
//!   mutability is allowed only when call order cannot change results);
//! * the backend is `Send + Sync`, so a program may share a detector
//!   across threads of its own.
//!
//! [`Detector`] is the counterpart one level up: the common face of
//! [`NoveltyDetector`] (one backend + one calibrated threshold) and
//! [`crate::EnsembleDetector`] (several backends + vote fusion), which is
//! what the stream runtime, the evaluator and the CLI program against.

use neural::Network;
use obs::Recorder;
use saliency::visual_backprop;
use serde::{Deserialize, Serialize};
use vision::Image;

use crate::modelchar::StatProfile;
use crate::{AutoencoderClassifier, Direction, NoveltyError, ReconstructionObjective, Result};

/// The preprocessing layer: feed raw frames to the one-class classifier,
/// or VisualBackProp masks computed on the trained steering CNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Preprocessing {
    /// Raw grayscale frames (Richter & Roy baseline).
    Raw,
    /// VisualBackProp saliency masks (the paper's preprocessing).
    Vbp,
}

impl Preprocessing {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Preprocessing::Raw => "raw",
            Preprocessing::Vbp => "vbp",
        }
    }
}

/// The registered score backends. The first three are the pipelines the
/// paper compares in Fig. 5; the fourth characterizes the steering model
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Raw images + MSE autoencoder (Richter & Roy, reference 9).
    RawMse,
    /// VBP masks + MSE autoencoder (ablation).
    VbpMse,
    /// VBP masks + SSIM autoencoder (the paper's method).
    VbpSsim,
    /// Model characterization: per-layer activation/gradient statistics
    /// of the steering CNN against a calibrated training profile
    /// (Kwon et al., arXiv:2008.06094).
    ModelChar,
}

impl BackendKind {
    /// The stable registry id (used in CLI flags, detector files and
    /// report columns): `raw+mse`, `vbp+mse`, `vbp+ssim`, `model-char`.
    pub fn id(&self) -> &'static str {
        match self {
            BackendKind::RawMse => "raw+mse",
            BackendKind::VbpMse => "vbp+mse",
            BackendKind::VbpSsim => "vbp+ssim",
            BackendKind::ModelChar => "model-char",
        }
    }

    /// Alias of [`BackendKind::id`] (matches the paper's figure labels
    /// for the legacy three).
    pub fn name(&self) -> &'static str {
        self.id()
    }

    /// Every registered backend, in registry order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::RawMse,
            BackendKind::VbpMse,
            BackendKind::VbpSsim,
            BackendKind::ModelChar,
        ]
    }

    /// The paper's three autoencoder pipelines in Fig. 5's
    /// left-to-right order.
    pub fn legacy() -> [BackendKind; 3] {
        [
            BackendKind::RawMse,
            BackendKind::VbpMse,
            BackendKind::VbpSsim,
        ]
    }

    /// Looks a backend up by its registry id.
    pub fn from_id(id: &str) -> Option<BackendKind> {
        BackendKind::all().into_iter().find(|k| k.id() == id)
    }

    /// The preprocessing layer the backend applies, when it has one
    /// (model characterization consumes the frame directly).
    pub fn preprocessing(&self) -> Option<Preprocessing> {
        match self {
            BackendKind::RawMse => Some(Preprocessing::Raw),
            BackendKind::VbpMse | BackendKind::VbpSsim => Some(Preprocessing::Vbp),
            BackendKind::ModelChar => None,
        }
    }

    /// Short name of the scoring metric.
    pub fn metric_name(&self) -> &'static str {
        match self {
            BackendKind::RawMse | BackendKind::VbpMse => "mse",
            BackendKind::VbpSsim => "ssim",
            BackendKind::ModelChar => "layer-stats",
        }
    }

    /// One-line description for the `backends` CLI listing.
    pub fn describe(&self) -> &'static str {
        match self {
            BackendKind::RawMse => "raw frames reconstructed by an MSE autoencoder (Richter & Roy baseline)",
            BackendKind::VbpMse => "VisualBackProp masks reconstructed by an MSE autoencoder (ablation)",
            BackendKind::VbpSsim => "VisualBackProp masks reconstructed by an SSIM autoencoder (the paper's method)",
            BackendKind::ModelChar => "per-layer activation/gradient statistics of the steering CNN vs a calibrated training profile",
        }
    }
}

/// One pluggable scoring strategy: the (preprocess, score) pair a
/// [`crate::NoveltyDetector`] wraps with calibration.
///
/// Implementations must be pure: `score` is a function of the backend's
/// frozen state and the image only, bit-identical on every call.
/// Input validation (non-finite pixels, geometry) is performed by the
/// detector before the backend is consulted, so implementations may
/// assume a finite, correctly-sized image.
pub trait ScoreBackend: std::fmt::Debug + Send + Sync {
    /// Which registered backend this is.
    fn kind(&self) -> BackendKind;

    /// Which side of a calibrated threshold counts as novel for this
    /// backend's scores.
    fn direction(&self) -> Direction;

    /// The `(height, width)` geometry the backend was trained on.
    fn input_size(&self) -> (usize, usize);

    /// The representation the score is computed on (identity for raw
    /// pipelines, a VBP mask for saliency pipelines, and the frame
    /// itself for model characterization).
    ///
    /// # Errors
    ///
    /// Fails when the image is incompatible with the backend's networks.
    fn preprocess(&self, image: &Image) -> Result<Image>;

    /// Scores one (finite, correctly-sized) image.
    ///
    /// # Errors
    ///
    /// Fails when the image is incompatible with the backend's networks.
    fn score(&self, image: &Image) -> Result<f32>;

    /// Scores several (finite, correctly-sized) images, one score per
    /// image, in order; by default [`ScoreBackend::score`] per image.
    /// The detector
    /// validates every frame first and checks every score for finiteness
    /// after, so a bad frame fails only its own slot. Implementations may
    /// batch internally but must keep score `i` bit-identical to
    /// [`ScoreBackend::score`] on image `i`.
    ///
    /// An error here fails every frame of the call (in a serving round,
    /// every tenant's), so implementations must not fail for a single
    /// frame once it has passed the detector's validation.
    ///
    /// # Errors
    ///
    /// Fails when the backend itself is faulty (its networks do not fit
    /// the validated geometry).
    fn score_each(&self, images: &[&Image]) -> Result<Vec<f32>> {
        images.iter().map(|img| self.score(img)).collect()
    }

    /// The (representation, reconstruction) pair of Fig. 6, for backends
    /// built around a reconstruction model.
    ///
    /// # Errors
    ///
    /// Fails for backends that do not reconstruct (model
    /// characterization), or on incompatible images.
    fn reconstruct(&self, image: &Image) -> Result<(Image, Image)> {
        let _ = image;
        Err(NoveltyError::invalid(
            "reconstruct",
            format!(
                "the {} backend has no reconstruction pair",
                self.kind().id()
            ),
        ))
    }

    /// The trained steering network, when the backend carries one.
    fn steering_network(&self) -> Option<&Network> {
        None
    }

    /// The autoencoder classifier, for backends built around one.
    fn classifier(&self) -> Option<&AutoencoderClassifier> {
        None
    }

    /// The calibrated per-layer statistics profile, for the
    /// model-characterization backend.
    fn stat_profile(&self) -> Option<&StatProfile> {
        None
    }

    /// Short name of the scoring metric (`mse`, `ssim`, `layer-stats`).
    fn metric_name(&self) -> &'static str {
        self.kind().metric_name()
    }
}

/// The autoencoder-reconstruction backend behind the paper's three
/// pipelines: an optional steering CNN (for VBP preprocessing) plus a
/// one-class reconstruction classifier.
#[derive(Debug)]
pub struct AutoencoderBackend {
    steering: Option<Network>,
    classifier: AutoencoderClassifier,
    preprocessing: Preprocessing,
}

impl AutoencoderBackend {
    /// Assembles the backend, validating that VBP preprocessing has a
    /// steering network to backprop through.
    ///
    /// # Errors
    ///
    /// Fails when `preprocessing` is [`Preprocessing::Vbp`] but no
    /// steering network is provided.
    pub fn new(
        steering: Option<Network>,
        classifier: AutoencoderClassifier,
        preprocessing: Preprocessing,
    ) -> Result<Self> {
        if preprocessing == Preprocessing::Vbp && steering.is_none() {
            return Err(NoveltyError::invalid(
                "AutoencoderBackend",
                "VBP preprocessing requires a steering network",
            ));
        }
        Ok(AutoencoderBackend {
            steering,
            classifier,
            preprocessing,
        })
    }
}

impl ScoreBackend for AutoencoderBackend {
    fn kind(&self) -> BackendKind {
        match (self.preprocessing, self.classifier.objective()) {
            (Preprocessing::Raw, _) => BackendKind::RawMse,
            (Preprocessing::Vbp, ReconstructionObjective::Mse) => BackendKind::VbpMse,
            (Preprocessing::Vbp, ReconstructionObjective::Ssim { .. }) => BackendKind::VbpSsim,
        }
    }

    fn direction(&self) -> Direction {
        self.classifier.direction()
    }

    fn input_size(&self) -> (usize, usize) {
        (self.classifier.height(), self.classifier.width())
    }

    fn preprocess(&self, image: &Image) -> Result<Image> {
        match (self.preprocessing, &self.steering) {
            (Preprocessing::Raw, _) => Ok(image.clone()),
            (Preprocessing::Vbp, Some(net)) => Ok(visual_backprop(net, image)?),
            (Preprocessing::Vbp, None) => Err(NoveltyError::invalid(
                "preprocess",
                "VBP preprocessing requires a steering network",
            )),
        }
    }

    fn score(&self, image: &Image) -> Result<f32> {
        let rep = self.preprocess(image)?;
        self.classifier.score(&rep)
    }

    /// Preprocesses the images (identity or VBP), then scores the
    /// representations through the classifier's stacked passes
    /// ([`AutoencoderClassifier::score_many`]).
    fn score_each(&self, images: &[&Image]) -> Result<Vec<f32>> {
        let reps = images
            .iter()
            .map(|img| self.preprocess(img))
            .collect::<Result<Vec<_>>>()?;
        let reps: Vec<&Image> = reps.iter().collect();
        self.classifier.score_many(&reps)
    }

    fn reconstruct(&self, image: &Image) -> Result<(Image, Image)> {
        let rep = self.preprocess(image)?;
        let recon = self.classifier.reconstruct(&rep)?;
        Ok((rep, recon))
    }

    fn steering_network(&self) -> Option<&Network> {
        self.steering.as_ref()
    }

    fn classifier(&self) -> Option<&AutoencoderClassifier> {
        Some(&self.classifier)
    }

    fn metric_name(&self) -> &'static str {
        self.classifier.objective().name()
    }
}

/// The common face of anything that turns an image into a
/// [`crate::Verdict`]: a single calibrated [`crate::NoveltyDetector`] or a
/// fused [`crate::EnsembleDetector`]. The stream runtime, the evaluator
/// and the CLI program against this trait.
pub trait Detector: std::fmt::Debug {
    /// The `(height, width)` frame geometry the detector expects.
    fn input_size(&self) -> (usize, usize);

    /// Classifies one image.
    ///
    /// # Errors
    ///
    /// Fails on non-finite pixels, incompatible geometry or a non-finite
    /// score.
    fn classify(&self, image: &Image) -> Result<crate::Verdict>;

    /// Classifies each image independently: one result per image, in
    /// order, so one bad image never poisons its neighbours — the
    /// serving layer's cross-tenant mega-batch
    /// ([`crate::serve::StreamServer`]) depends on that isolation.
    /// Verdict `i` is bit-identical to [`Detector::classify`] on image
    /// `i`, with any `recorder` (pass [`obs::noop`] to record nothing).
    ///
    /// The batch runs under a `scoring` span and
    /// `scoring.scores_computed` counts the verdicts produced.
    fn classify_each(
        &self,
        images: &[Image],
        recorder: &dyn Recorder,
    ) -> Vec<Result<crate::Verdict>>;

    /// [`Detector::classify_each`], failing fast: the error of the first
    /// image that fails (by index, matching serial iteration order).
    ///
    /// # Errors
    ///
    /// Fails on non-finite pixels, incompatible geometry or a non-finite
    /// score, for any image.
    fn classify_batch(
        &self,
        images: &[Image],
        recorder: &dyn Recorder,
    ) -> Result<Vec<crate::Verdict>> {
        self.classify_each(images, recorder).into_iter().collect()
    }

    /// Human-readable label for logs and reports (a backend id, or an
    /// `ensemble(...)` summary).
    fn label(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_round_trip() {
        assert_eq!(BackendKind::all().len(), 4);
        assert_eq!(BackendKind::legacy().len(), 3);
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::from_id(kind.id()), Some(kind));
            assert!(!kind.describe().is_empty());
        }
        assert_eq!(BackendKind::from_id("no-such-backend"), None);
        assert_eq!(BackendKind::VbpSsim.id(), "vbp+ssim");
        assert_eq!(BackendKind::ModelChar.id(), "model-char");
        assert_eq!(BackendKind::ModelChar.metric_name(), "layer-stats");
        assert_eq!(BackendKind::ModelChar.preprocessing(), None);
        assert_eq!(
            BackendKind::RawMse.preprocessing(),
            Some(Preprocessing::Raw)
        );
    }

    #[test]
    fn legacy_lists_the_paper_pipelines_in_figure_order() {
        // Fig. 5 left to right: the baseline, the ablation, the method.
        assert_eq!(
            BackendKind::legacy(),
            [
                BackendKind::RawMse,
                BackendKind::VbpMse,
                BackendKind::VbpSsim
            ]
        );
        assert_eq!(
            BackendKind::legacy().map(|k| k.name()),
            ["raw+mse", "vbp+mse", "vbp+ssim"]
        );
    }
}
