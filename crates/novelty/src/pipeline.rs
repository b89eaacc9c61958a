//! The end-to-end novelty-detection pipeline (paper Fig. 1).
//!
//! `training images → steering CNN → score backend → threshold`.
//!
//! A [`NoveltyDetector`] is one calibrated [`ScoreBackend`] (see
//! [`crate::backend`]): the paper's VBP+SSIM pipeline, either of its two
//! Fig. 5 ablations, or the model-characterization backend of
//! [`crate::ModelCharBackend`]. [`NoveltyDetectorBuilder`] owns every
//! knob; its presets reproduce the pipelines the paper compares:
//!
//! | preset | backend | role |
//! |---|---|---|
//! | [`NoveltyDetectorBuilder::paper`] | `vbp+ssim` | the paper's method |
//! | [`NoveltyDetectorBuilder::vbp_mse_ablation`] | `vbp+mse` | middle histogram |
//! | [`NoveltyDetectorBuilder::richter_roy`] | `raw+mse` | prior work (reference 9) |
//! | [`NoveltyDetectorBuilder::model_characterization`] | `model-char` | Kwon et al. |

use metrics::ecdf::Ecdf;
use ndtensor::Tensor;
use neural::loss::MseLoss;
use neural::models::{pilotnet, PilotNetConfig};
use neural::optim::Adam;
use neural::{fit, Network, TrainConfig};
use obs::{Recorder, Scoped, Span};
use saliency::visual_backprop_batch;
use serde::Serialize;
use simdrive::DrivingDataset;
use vision::Image;

use crate::backend::{AutoencoderBackend, BackendKind, Detector, Preprocessing, ScoreBackend};
use crate::classifier::stack_images;
use crate::modelchar::ModelCharBackend;
use crate::{
    AutoencoderClassifier, Calibrator, ClassifierConfig, Direction, NoveltyError,
    ReconstructionObjective, Result, Threshold,
};

/// One backend's contribution to a [`Verdict`]: its raw score, the
/// calibrated threshold it was compared against, and where the score
/// sits in that backend's own training distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BackendScore {
    /// The backend's registry id (`raw+mse`, `vbp+ssim`, ...).
    pub backend: &'static str,
    /// The backend's raw score for this image.
    pub score: f32,
    /// The backend's calibrated threshold.
    pub threshold: f32,
    /// Which side of the threshold counts as novel for this backend.
    pub direction: Direction,
    /// Where the score falls in the backend's calibration distribution,
    /// in `[0, 100]`.
    pub percentile_rank: f32,
    /// The backend's own vote: `true` when it flags the image novel.
    pub is_novel: bool,
}

impl BackendScore {
    /// The rank reoriented so that higher always means *more novel*
    /// (inverts [`Direction::LowerIsNovel`] backends), in `[0, 100]`.
    /// This is the common scale ensemble fusion averages over.
    pub fn oriented_rank(&self) -> f32 {
        match self.direction {
            Direction::HigherIsNovel => self.percentile_rank,
            Direction::LowerIsNovel => 100.0 - self.percentile_rank,
        }
    }
}

/// One classification outcome, carrying the full decision context: not
/// just the flag but the score, the threshold it was compared against,
/// where the score sits in the calibration distribution, which backend
/// produced it, and — for ensemble verdicts — every member backend's
/// score and vote. Enough to log, audit, or replay the decision without
/// the detector at hand.
///
/// Single-backend verdicts have `total_votes == 1` and an empty
/// `backends` list (the top-level fields *are* the backend's entry);
/// ensemble verdicts carry one [`BackendScore`] per member, sorted by
/// backend id, and their top-level `score` / `percentile_rank` are the
/// fused top-2 oriented rank (see [`crate::fuse_verdict`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
#[must_use = "a Verdict is the detector's safety decision; dropping it discards the novelty flag"]
pub struct Verdict {
    /// `true` when the input was flagged novel.
    pub is_novel: bool,
    /// The score compared against `threshold` (a backend's raw score,
    /// or the fused top-2 oriented rank for ensembles).
    pub score: f32,
    /// The calibrated threshold the score was compared against.
    pub threshold: f32,
    /// Which side of the threshold counts as novel.
    pub direction: Direction,
    /// Where the score falls in the calibration distribution, in
    /// `[0, 100]`: the percentage of training scores `<=` this score
    /// (0.0 when the detector carries no training scores). For ensemble
    /// verdicts this equals the fused score (already a rank).
    pub percentile_rank: f32,
    /// The registry id of the backend that produced this verdict, or
    /// `"ensemble"` for fused verdicts.
    pub backend: &'static str,
    /// How many member backends voted novel (1 or 0 for single-backend
    /// verdicts).
    pub novel_votes: u32,
    /// How many member backends voted (1 for single-backend verdicts).
    pub total_votes: u32,
    /// Per-member scores for ensemble verdicts, sorted by backend id;
    /// empty for single-backend verdicts.
    pub backends: Vec<BackendScore>,
}

/// A trained novelty detector: one calibrated [`ScoreBackend`] plus the
/// threshold and training-score distribution calibrated on it.
#[derive(Debug)]
pub struct NoveltyDetector {
    backend: Box<dyn ScoreBackend>,
    threshold: Threshold,
    training_scores: Vec<f32>,
    /// ECDF over `training_scores`, cached so every [`Verdict`] can
    /// carry a percentile rank without re-sorting. `None` when there are
    /// no (finite) training scores.
    score_ecdf: Option<Ecdf>,
}

impl NoveltyDetector {
    /// Assembles a detector from a calibrated backend.
    ///
    /// # Errors
    ///
    /// Fails when the threshold's direction disagrees with the
    /// backend's.
    pub fn from_backend(
        backend: Box<dyn ScoreBackend>,
        threshold: Threshold,
        training_scores: Vec<f32>,
    ) -> Result<Self> {
        if threshold.direction() != backend.direction() {
            return Err(NoveltyError::invalid(
                "NoveltyDetector",
                format!(
                    "threshold direction {:?} disagrees with the {} backend",
                    threshold.direction(),
                    backend.kind().id()
                ),
            ));
        }
        let score_ecdf = Ecdf::new(training_scores.clone()).ok();
        Ok(NoveltyDetector {
            backend,
            threshold,
            training_scores,
            score_ecdf,
        })
    }

    pub(crate) fn from_parts(
        steering: Option<Network>,
        classifier: AutoencoderClassifier,
        threshold: Threshold,
        preprocessing: Preprocessing,
        training_scores: Vec<f32>,
    ) -> Result<Self> {
        let backend = AutoencoderBackend::new(steering, classifier, preprocessing)?;
        Self::from_backend(Box::new(backend), threshold, training_scores)
    }

    /// The score backend this detector calibrates.
    pub fn backend(&self) -> &dyn ScoreBackend {
        self.backend.as_ref()
    }

    /// The preprocessing layer in use, for backends that have one
    /// (`None` for model characterization, which consumes frames
    /// directly).
    pub fn preprocessing(&self) -> Option<Preprocessing> {
        self.backend.kind().preprocessing()
    }

    /// The calibrated threshold.
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// The `(height, width)` frame geometry the detector expects.
    pub fn input_size(&self) -> (usize, usize) {
        self.backend.input_size()
    }

    /// The one-class classifier, for autoencoder backends.
    pub fn classifier(&self) -> Option<&AutoencoderClassifier> {
        self.backend.classifier()
    }

    /// The trained steering network, when the backend carries one.
    pub fn steering_network(&self) -> Option<&Network> {
        self.backend.steering_network()
    }

    /// Short name of the scoring metric (`mse`, `ssim`, `layer-stats`).
    pub fn metric_name(&self) -> &'static str {
        self.backend.metric_name()
    }

    /// The classifier scores of the training images (the empirical
    /// distribution the threshold was calibrated on).
    pub fn training_scores(&self) -> &[f32] {
        &self.training_scores
    }

    /// The backend this detector implements.
    pub fn kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Where `score` falls in the calibration distribution, in
    /// `[0, 100]`: the percentage of training scores `<=` it. Returns
    /// 0.0 when the detector carries no training scores (e.g. a spec
    /// stripped for size).
    pub fn percentile_rank(&self, score: f32) -> f32 {
        match &self.score_ecdf {
            Some(ecdf) => 100.0 * ecdf.cdf(score),
            None => 0.0,
        }
    }

    /// This detector's [`BackendScore`] entry for an already-computed
    /// score — the per-member line an ensemble verdict carries.
    pub fn backend_score(&self, score: f32) -> BackendScore {
        BackendScore {
            backend: self.kind().id(),
            score,
            threshold: self.threshold.value(),
            direction: self.threshold.direction(),
            percentile_rank: self.percentile_rank(score),
            is_novel: self.threshold.is_novel(score),
        }
    }

    /// Builds the full-context [`Verdict`] for an already-computed score.
    fn verdict_for(&self, score: f32) -> Verdict {
        let is_novel = self.threshold.is_novel(score);
        Verdict {
            is_novel,
            score,
            threshold: self.threshold.value(),
            direction: self.threshold.direction(),
            percentile_rank: self.percentile_rank(score),
            backend: self.kind().id(),
            novel_votes: u32::from(is_novel),
            total_votes: 1,
            backends: Vec::new(),
        }
    }

    /// Applies the backend's preprocessing to an image (identity for
    /// raw pipelines, VBP mask for saliency pipelines, identity for
    /// model characterization).
    ///
    /// # Errors
    ///
    /// Fails when the image size is incompatible with the CNN.
    pub fn preprocess(&self, image: &Image) -> Result<Image> {
        self.backend.preprocess(image)
    }

    /// Scores an image under the backend's metric.
    ///
    /// # Errors
    ///
    /// Fails when the image size is incompatible with the pipeline.
    pub fn score(&self, image: &Image) -> Result<f32> {
        self.validate_input(image)?;
        self.backend.score(image)
    }

    /// The input checks [`NoveltyDetector::score`] performs before the
    /// backend is consulted.
    fn validate_input(&self, image: &Image) -> Result<()> {
        if image.tensor().has_non_finite() {
            return Err(NoveltyError::invalid(
                "score",
                "image contains NaN or infinite pixels",
            ));
        }
        // Every backend requires its training geometry (VBP masks are
        // input-sized, the profile is geometry-specific); checking here
        // gives a direct message instead of a deep conv-layer error.
        let (height, width) = self.backend.input_size();
        if image.height() != height || image.width() != width {
            return Err(NoveltyError::invalid(
                "score",
                format!(
                    "image is {}x{} but the detector was trained on {}x{} frames",
                    image.height(),
                    image.width(),
                    height,
                    width
                ),
            ));
        }
        Ok(())
    }

    /// Scores a batch of images, fanning the work out over the pool
    /// configured in [`ndtensor::par`].
    ///
    /// Each image is scored exactly as [`NoveltyDetector::score`] would,
    /// so the result is bit-identical to serial scoring for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Fails on the first incompatible image (by index, matching serial
    /// iteration order).
    #[must_use = "the scores are the batch's only output; the call has no other effect"]
    pub fn score_batch(&self, images: &[Image]) -> Result<Vec<f32>> {
        self.score_batch_recorded(images, obs::noop())
    }

    /// [`NoveltyDetector::score_batch`] with observability: the batch
    /// runs under a `scoring` span, `scoring.scores_computed` counts the
    /// scores, per-image latency samples land in the
    /// `scoring.latency_secs` histogram, and the work pool's activity
    /// during the batch lands under `scoring.par.*`.
    ///
    /// Recording never changes the scores — they are bit-identical with
    /// any recorder, at any thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoveltyDetector::score_batch`].
    pub fn score_batch_recorded(
        &self,
        images: &[Image],
        recorder: &dyn Recorder,
    ) -> Result<Vec<f32>> {
        let (height, width) = self.backend.input_size();
        let work = images
            .len()
            .saturating_mul(height * width)
            .saturating_mul(64);
        let pool_before = recorder.enabled().then(obs::par_snapshot);
        let scratch_before = recorder.enabled().then(obs::scratch_snapshot);
        let scores = obs::time(recorder, "scoring", || {
            ndtensor::par::try_parallel_map(images.len(), work, |i| {
                let timer = obs::Stopwatch::started_if(recorder.enabled());
                let score = self.score(&images[i]);
                if let Some(secs) = timer.elapsed_secs() {
                    recorder.observe("scoring.latency_secs", secs);
                }
                score
            })
        })?;
        recorder.add("scoring.scores_computed", scores.len() as u64);
        if let Some(before) = pool_before {
            obs::record_par_delta(&Scoped::new(recorder, "scoring"), before);
        }
        if let Some(before) = scratch_before {
            obs::record_scratch_delta(&Scoped::new(recorder, "scoring"), before);
        }
        Ok(scores)
    }

    /// Classifies an image as novel or in-distribution.
    ///
    /// # Errors
    ///
    /// Fails when the image size is incompatible with the pipeline.
    pub fn classify(&self, image: &Image) -> Result<Verdict> {
        Ok(self.verdict_for(self.score(image)?))
    }

    /// Reconstructs the (preprocessed) image through the autoencoder —
    /// the qualitative comparison of the paper's Fig. 6.
    ///
    /// # Errors
    ///
    /// Fails for backends without a reconstruction pair (model
    /// characterization), or when the image size is incompatible.
    pub fn reconstruct(&self, image: &Image) -> Result<(Image, Image)> {
        self.backend.reconstruct(image)
    }

    /// Predicts the steering angle for a frame (only for backends that
    /// carry the trained CNN).
    ///
    /// # Errors
    ///
    /// Fails for raw pipelines or incompatible image sizes.
    pub fn predict_steering(&self, image: &Image) -> Result<f32> {
        let net = self.backend.steering_network().ok_or_else(|| {
            NoveltyError::invalid("predict_steering", "pipeline has no steering network")
        })?;
        let input = image
            .tensor()
            .reshape([1, 1, image.height(), image.width()])?;
        Ok(net.forward(&input)?.as_slice()[0])
    }
}

impl Detector for NoveltyDetector {
    fn input_size(&self) -> (usize, usize) {
        self.backend.input_size()
    }

    fn classify(&self, image: &Image) -> Result<Verdict> {
        NoveltyDetector::classify(self, image)
    }

    fn classify_batch(&self, images: &[Image], recorder: &dyn Recorder) -> Result<Vec<Verdict>> {
        Ok(self
            .score_batch_recorded(images, recorder)?
            .into_iter()
            .map(|score| self.verdict_for(score))
            .collect())
    }

    /// Valid images are scored together through the backend's batched
    /// path ([`ScoreBackend::score_each`] — one stacked autoencoder
    /// forward pass instead of per-frame batch-1 GEMMs), while invalid
    /// images fail only their own slot. The work pool's activity during
    /// the batch lands under `scoring.par.*`.
    fn classify_each(&self, images: &[Image], recorder: &dyn Recorder) -> Vec<Result<Verdict>> {
        let pool_before = recorder.enabled().then(obs::par_snapshot);
        let scratch_before = recorder.enabled().then(obs::scratch_snapshot);
        let verdicts = obs::time(recorder, "scoring", || {
            let mut pre: Vec<Option<NoveltyError>> = Vec::with_capacity(images.len()); // sncheck:allow(hot-path-transitive-alloc): per-batch validation ledger, amortized across the batch
            let mut valid: Vec<&Image> = Vec::with_capacity(images.len()); // sncheck:allow(hot-path-transitive-alloc): borrowed-frame routing table, one per batch call
            for img in images {
                match self.validate_input(img) {
                    Err(e) => pre.push(Some(e)),
                    Ok(()) => {
                        pre.push(None);
                        valid.push(img);
                    }
                }
            }
            let mut batched = self.backend.score_each(&valid).into_iter();
            pre.into_iter()
                .map(|slot| match slot {
                    Some(e) => Err(e),
                    None => batched
                        .next()
                        .unwrap_or_else(|| {
                            Err(NoveltyError::invalid(
                                "classify_each",
                                "backend returned too few scores",
                            ))
                        })
                        .map(|score| self.verdict_for(score)),
                })
                .collect::<Vec<Result<Verdict>>>()
        });
        recorder.add(
            "scoring.scores_computed",
            verdicts.iter().filter(|v| v.is_ok()).count() as u64,
        );
        if let Some(before) = pool_before {
            obs::record_par_delta(&Scoped::new(recorder, "scoring"), before);
        }
        if let Some(before) = scratch_before {
            obs::record_scratch_delta(&Scoped::new(recorder, "scoring"), before);
        }
        verdicts
    }

    fn label(&self) -> String {
        self.kind().id().to_string()
    }
}

/// Builder for [`NoveltyDetector`]: configure, then [`train`].
///
/// [`train`]: NoveltyDetectorBuilder::train
#[derive(Debug, Clone)]
pub struct NoveltyDetectorBuilder {
    preprocessing: Preprocessing,
    classifier: ClassifierConfig,
    /// When set, train the model-characterization backend instead of an
    /// autoencoder (the classifier config is then unused).
    model_char: bool,
    cnn_config: PilotNetConfig,
    cnn_epochs: usize,
    cnn_learning_rate: f32,
    train_fraction: f32,
    percentile: f32,
    seed: u64,
}

impl Default for NoveltyDetectorBuilder {
    fn default() -> Self {
        Self::paper()
    }
}

impl NoveltyDetectorBuilder {
    /// The paper's pipeline: VBP preprocessing + SSIM autoencoder +
    /// 99th-percentile threshold.
    pub fn paper() -> Self {
        NoveltyDetectorBuilder {
            preprocessing: Preprocessing::Vbp,
            classifier: ClassifierConfig::paper(),
            model_char: false,
            cnn_config: PilotNetConfig::compact(),
            cnn_epochs: 8,
            cnn_learning_rate: 1e-3,
            train_fraction: 0.8,
            percentile: 99.0,
            seed: 0,
        }
    }

    /// Alias for [`NoveltyDetectorBuilder::paper`] (used by the facade
    /// crate's quickstart).
    pub fn new() -> Self {
        Self::paper()
    }

    /// The Richter & Roy baseline: raw images + MSE autoencoder.
    pub fn richter_roy() -> Self {
        NoveltyDetectorBuilder {
            preprocessing: Preprocessing::Raw,
            classifier: ClassifierConfig::paper_with_mse(),
            ..Self::paper()
        }
    }

    /// The VBP+MSE ablation (middle histogram of Fig. 5).
    pub fn vbp_mse_ablation() -> Self {
        NoveltyDetectorBuilder {
            preprocessing: Preprocessing::Vbp,
            classifier: ClassifierConfig::paper_with_mse(),
            ..Self::paper()
        }
    }

    /// The model-characterization backend (Kwon et al.,
    /// arXiv:2008.06094): the steering CNN's own per-layer response
    /// statistics against a calibrated training profile.
    pub fn model_characterization() -> Self {
        NoveltyDetectorBuilder {
            model_char: true,
            ..Self::paper()
        }
    }

    /// Builder for one of the registered backends.
    pub fn for_kind(kind: BackendKind) -> Self {
        match kind {
            BackendKind::RawMse => Self::richter_roy(),
            BackendKind::VbpMse => Self::vbp_mse_ablation(),
            BackendKind::VbpSsim => Self::paper(),
            BackendKind::ModelChar => Self::model_characterization(),
        }
    }

    /// Retargets this builder at another backend, keeping every shared
    /// knob (epochs, seed, split, percentile, classifier capacity). The
    /// SSIM window is preserved when the builder already scores with
    /// SSIM; otherwise the paper's window is used.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.model_char = false;
        match kind {
            BackendKind::RawMse => {
                self.preprocessing = Preprocessing::Raw;
                self.classifier.objective = ReconstructionObjective::Mse;
            }
            BackendKind::VbpMse => {
                self.preprocessing = Preprocessing::Vbp;
                self.classifier.objective = ReconstructionObjective::Mse;
            }
            BackendKind::VbpSsim => {
                self.preprocessing = Preprocessing::Vbp;
                if !matches!(
                    self.classifier.objective,
                    ReconstructionObjective::Ssim { .. }
                ) {
                    self.classifier.objective = ReconstructionObjective::paper_ssim();
                }
            }
            BackendKind::ModelChar => {
                self.model_char = true;
            }
        }
        self
    }

    /// Sets the master seed (CNN init, AE init, shuffles).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the preprocessing layer (autoencoder backends only).
    pub fn preprocessing(mut self, preprocessing: Preprocessing) -> Self {
        self.preprocessing = preprocessing;
        self.model_char = false;
        self
    }

    /// Overrides the classifier configuration.
    pub fn classifier_config(mut self, config: ClassifierConfig) -> Self {
        self.classifier = config;
        self
    }

    /// Overrides the reconstruction objective only.
    pub fn objective(mut self, objective: ReconstructionObjective) -> Self {
        self.classifier.objective = objective;
        self
    }

    /// Overrides the CNN architecture.
    pub fn cnn_config(mut self, config: PilotNetConfig) -> Self {
        self.cnn_config = config;
        self
    }

    /// Overrides the CNN training epochs.
    pub fn cnn_epochs(mut self, epochs: usize) -> Self {
        self.cnn_epochs = epochs;
        self
    }

    /// Overrides the autoencoder training epochs.
    pub fn ae_epochs(mut self, epochs: usize) -> Self {
        self.classifier.epochs = epochs;
        self
    }

    /// Overrides the train/calibration split fraction (paper: 0.8).
    pub fn train_fraction(mut self, fraction: f32) -> Self {
        self.train_fraction = fraction;
        self
    }

    /// Overrides the threshold percentile (paper: 99).
    pub fn percentile(mut self, percentile: f32) -> Self {
        self.percentile = percentile;
        self
    }

    /// The backend this builder currently describes.
    pub fn kind(&self) -> BackendKind {
        if self.model_char {
            return BackendKind::ModelChar;
        }
        match (self.preprocessing, &self.classifier.objective) {
            (Preprocessing::Raw, _) => BackendKind::RawMse,
            (Preprocessing::Vbp, ReconstructionObjective::Mse) => BackendKind::VbpMse,
            (Preprocessing::Vbp, ReconstructionObjective::Ssim { .. }) => BackendKind::VbpSsim,
        }
    }

    /// The train/calibration split fraction currently configured.
    pub(crate) fn train_fraction_value(&self) -> f32 {
        self.train_fraction
    }

    /// Trains the steering CNN on a dataset (exposed separately so
    /// experiments can reuse one CNN across several detectors).
    ///
    /// The run is timed under a `cnn-train` span of `recorder`, with
    /// per-epoch loss and time in the `cnn-train.epoch_loss` /
    /// `cnn-train.epoch_secs` series; pass [`obs::noop`] to record
    /// nothing.
    ///
    /// # Errors
    ///
    /// Fails when the dataset is empty or image sizes are incompatible
    /// with the CNN configuration.
    pub fn train_steering_cnn(
        &self,
        dataset: &DrivingDataset,
        recorder: &dyn Recorder,
    ) -> Result<Network> {
        if dataset.is_empty() {
            return Err(NoveltyError::invalid(
                "train_steering_cnn",
                "dataset is empty",
            ));
        }
        let span = Span::root(recorder, "cnn-train");
        let cfg = PilotNetConfig {
            height: dataset.frames()[0].image.height(),
            width: dataset.frames()[0].image.width(),
            ..self.cnn_config.clone()
        };
        let mut net = pilotnet(&cfg, self.seed ^ 0xC44)?;
        let images: Vec<Image> = dataset.frames().iter().map(|f| f.image.clone()).collect();
        let flat = stack_images(&images)?;
        let n = images.len();
        let inputs = flat.reshape([n, 1, cfg.height, cfg.width])?;
        let targets = Tensor::from_vec([n, 1], dataset.frames().iter().map(|f| f.angle).collect())?;
        let mut opt = Adam::new(self.cnn_learning_rate)?;
        let train_cfg = TrainConfig::new(self.cnn_epochs, 32)
            .with_seed(self.seed ^ 0xC4F)
            .with_grad_clip(10.0);
        fit(
            &mut net,
            &MseLoss::new(),
            &mut opt,
            &inputs,
            &targets,
            &train_cfg,
            &Scoped::new(recorder, "cnn-train"),
        )?;
        span.finish();
        Ok(net)
    }

    /// Trains the full pipeline on a driving dataset, using the paper's
    /// protocol: `train_fraction` of the frames train the CNN and the
    /// one-class layer and provide the calibration distribution.
    ///
    /// # Errors
    ///
    /// Fails on empty datasets, incompatible image sizes, or divergent
    /// training.
    pub fn train(&self, dataset: &DrivingDataset) -> Result<NoveltyDetector> {
        self.train_recorded(dataset, obs::noop())
    }

    /// [`NoveltyDetectorBuilder::train`] with observability: each
    /// pipeline stage is timed under its own span (`cnn-train`, `vbp`,
    /// `ae-train`, `scoring`, `calibration` — raw pipelines skip the
    /// first two, and the model-characterization backend replaces the
    /// `vbp`/`ae-train` pair with a `profile` stage), per-epoch training
    /// curves land in the corresponding series, and the calibrated
    /// threshold is recorded as a gauge.
    ///
    /// Recording never changes what is trained: the resulting detector
    /// is identical (same weights, scores, threshold) with any recorder,
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoveltyDetectorBuilder::train`].
    pub fn train_recorded(
        &self,
        dataset: &DrivingDataset,
        recorder: &dyn Recorder,
    ) -> Result<NoveltyDetector> {
        self.train_with_cnn(dataset, None, recorder)
    }

    /// Like [`NoveltyDetectorBuilder::train_recorded`], but reuses an
    /// already-trained steering CNN instead of training one — used by the
    /// figure experiments and the ensemble trainer, which compare several
    /// backends on the *same* steering model (and by deployments that
    /// retrain the one-class layer without touching the steering model).
    ///
    /// For the `raw+mse` backend the provided CNN is ignored. The probes
    /// are those of [`NoveltyDetectorBuilder::train_recorded`]; when a
    /// pretrained CNN is supplied the `cnn-train` stage is (correctly)
    /// absent from the report. Pass [`obs::noop`] to record nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NoveltyDetectorBuilder::train`].
    pub fn train_with_cnn(
        &self,
        dataset: &DrivingDataset,
        pretrained_cnn: Option<Network>,
        recorder: &dyn Recorder,
    ) -> Result<NoveltyDetector> {
        if !(0.0..=1.0).contains(&self.train_fraction) {
            return Err(NoveltyError::invalid(
                "train",
                format!(
                    "train_fraction must be in [0, 1], got {}",
                    self.train_fraction
                ),
            ));
        }
        let (train_split, _held_out) = dataset.split(self.train_fraction);
        if train_split.is_empty() {
            return Err(NoveltyError::invalid("train", "training split is empty"));
        }
        recorder.add("train.images", train_split.len() as u64);
        recorder.gauge("train.fraction", self.train_fraction as f64);

        if self.model_char {
            return self.train_model_char(&train_split, pretrained_cnn, recorder);
        }

        let steering = match self.preprocessing {
            Preprocessing::Raw => None,
            Preprocessing::Vbp => match pretrained_cnn {
                Some(net) => Some(net),
                None => Some(self.train_steering_cnn(&train_split, recorder)?),
            },
        };

        // Preprocess the training images into the classifier's input space
        // (VBP masks are computed batch-parallel; results are bit-identical
        // to the serial map for any thread count).
        let representations: Vec<Image> = match (&steering, self.preprocessing) {
            (None, _) => train_split
                .frames()
                .iter()
                .map(|f| f.image.clone())
                .collect(),
            (Some(net), _) => {
                let images: Vec<Image> = train_split
                    .frames()
                    .iter()
                    .map(|f| f.image.clone())
                    .collect();
                visual_backprop_batch(net, &images, recorder)?
            }
        };

        let ae_span = Span::root(recorder, "ae-train");
        let classifier = AutoencoderClassifier::train(
            &representations,
            &self.classifier,
            self.seed ^ 0xAE5,
            &Scoped::new(recorder, "ae-train"),
        )?;
        ae_span.finish();

        // Calibrate on the training distribution (Richter & Roy rule).
        // Scoring fans out over the work pool; order and values match the
        // serial map exactly.
        let score_work = representations
            .len()
            .saturating_mul(classifier.height() * classifier.width())
            .saturating_mul(64);
        let training_scores: Vec<f32> = obs::time(recorder, "scoring", || {
            ndtensor::par::try_parallel_map(representations.len(), score_work, |i| {
                classifier.score(&representations[i])
            })
        })?;
        recorder.add("scoring.scores_computed", training_scores.len() as u64);

        let threshold = self.calibrate(&training_scores, classifier.direction(), recorder)?;

        NoveltyDetector::from_parts(
            steering,
            classifier,
            threshold,
            self.preprocessing,
            training_scores,
        )
    }

    /// The model-characterization training path: train (or reuse) the
    /// steering CNN, then calibrate the per-layer statistics profile
    /// under a `profile` stage and the threshold under `calibration`.
    fn train_model_char(
        &self,
        train_split: &DrivingDataset,
        pretrained_cnn: Option<Network>,
        recorder: &dyn Recorder,
    ) -> Result<NoveltyDetector> {
        let steering = match pretrained_cnn {
            Some(net) => net,
            None => self.train_steering_cnn(train_split, recorder)?,
        };
        let images: Vec<Image> = train_split
            .frames()
            .iter()
            .map(|f| f.image.clone())
            .collect();
        let (backend, training_scores) = obs::time(recorder, "profile", || {
            ModelCharBackend::fit(steering, &images)
        })?;
        recorder.add("profile.frames", images.len() as u64);
        recorder.add("scoring.scores_computed", training_scores.len() as u64);
        let threshold = self.calibrate(&training_scores, backend.direction(), recorder)?;
        NoveltyDetector::from_backend(Box::new(backend), threshold, training_scores)
    }

    /// Calibrates the threshold under a `calibration` span, recording
    /// the sample count, threshold value, and percentile.
    fn calibrate(
        &self,
        training_scores: &[f32],
        direction: Direction,
        recorder: &dyn Recorder,
    ) -> Result<Threshold> {
        let cal_span = Span::root(recorder, "calibration");
        let threshold = Calibrator::new(self.percentile)?.calibrate(training_scores, direction)?;
        cal_span.finish();
        recorder.add("calibration.samples", training_scores.len() as u64);
        recorder.gauge("calibration.threshold", threshold.value() as f64);
        recorder.gauge("calibration.percentile", self.percentile as f64);
        Ok(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdrive::DatasetConfig;

    /// A small, fast dataset for pipeline tests (images are tiny so VBP
    /// still works through the compact CNN's geometry).
    fn tiny_dataset(seed: u64) -> DrivingDataset {
        DatasetConfig::outdoor()
            .with_len(24)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(seed)
    }

    fn fast_builder() -> NoveltyDetectorBuilder {
        NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 6,
                warmup_epochs: 2,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(1)
    }

    #[test]
    fn kinds_and_presets_are_consistent() {
        assert_eq!(NoveltyDetectorBuilder::paper().kind(), BackendKind::VbpSsim);
        assert_eq!(
            NoveltyDetectorBuilder::richter_roy().kind(),
            BackendKind::RawMse
        );
        assert_eq!(
            NoveltyDetectorBuilder::vbp_mse_ablation().kind(),
            BackendKind::VbpMse
        );
        assert_eq!(
            NoveltyDetectorBuilder::model_characterization().kind(),
            BackendKind::ModelChar
        );
        for kind in BackendKind::all() {
            assert_eq!(NoveltyDetectorBuilder::for_kind(kind).kind(), kind);
            // Retargeting an arbitrary builder reaches the same backend.
            assert_eq!(fast_builder().backend(kind).kind(), kind);
        }
        // Retargeting at vbp+ssim preserves a pre-configured SSIM window.
        let retargeted = fast_builder().backend(BackendKind::VbpMse);
        assert_eq!(
            retargeted
                .backend(BackendKind::VbpSsim)
                .classifier
                .objective,
            ReconstructionObjective::paper_ssim()
        );
        assert_eq!(
            fast_builder()
                .backend(BackendKind::VbpSsim)
                .classifier
                .objective,
            ReconstructionObjective::Ssim { window: 7 }
        );
        assert_eq!(BackendKind::VbpSsim.name(), "vbp+ssim");
        assert_eq!(Preprocessing::Vbp.name(), "vbp");
    }

    #[test]
    fn raw_mse_pipeline_trains_and_classifies() {
        let data = tiny_dataset(3);
        let detector = NoveltyDetectorBuilder::richter_roy()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 10,
                warmup_epochs: 0,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Mse,
            })
            .seed(2)
            .train(&data)
            .unwrap();
        assert_eq!(detector.preprocessing(), Some(Preprocessing::Raw));
        assert!(detector.steering_network().is_none());
        // In-distribution frames mostly not flagged.
        let verdicts: Vec<Verdict> = data
            .frames()
            .iter()
            .take(10)
            .map(|f| detector.classify(&f.image).unwrap())
            .collect();
        let flagged = verdicts.iter().filter(|v| v.is_novel).count();
        assert!(flagged <= 2, "{flagged} of 10 in-class frames flagged");
        // Single-backend verdicts carry their backend id and one vote.
        assert_eq!(verdicts[0].backend, "raw+mse");
        assert_eq!(verdicts[0].total_votes, 1);
        assert!(verdicts[0].backends.is_empty());
        // Preprocess is identity for raw pipelines.
        let img = &data.frames()[0].image;
        assert_eq!(&detector.preprocess(img).unwrap(), img);
        assert!(detector.predict_steering(img).is_err());
    }

    #[test]
    fn vbp_ssim_pipeline_trains_and_carries_cnn() {
        let data = tiny_dataset(5);
        let detector = fast_builder().train(&data).unwrap();
        assert!(detector.steering_network().is_some());
        let img = &data.frames()[0].image;
        // Steering prediction in [−1, 1].
        let angle = detector.predict_steering(img).unwrap();
        assert!((-1.0..=1.0).contains(&angle));
        // Preprocessing yields a same-size mask.
        let mask = detector.preprocess(img).unwrap();
        assert_eq!((mask.height(), mask.width()), (40, 80));
        // Reconstruction pair has consistent sizes.
        let (rep, recon) = detector.reconstruct(img).unwrap();
        assert_eq!((rep.height(), rep.width()), (recon.height(), recon.width()));
        // Training scores recorded, threshold consistent with them.
        assert!(!detector.training_scores().is_empty());
        let t = detector.threshold();
        assert_eq!(t.direction(), Direction::LowerIsNovel);
        assert_eq!(detector.input_size(), (40, 80));
        assert_eq!(detector.metric_name(), "ssim");
    }

    #[test]
    fn model_char_pipeline_trains_and_classifies() {
        let data = tiny_dataset(11);
        let detector = NoveltyDetectorBuilder::model_characterization()
            .cnn_epochs(1)
            .seed(3)
            .train(&data)
            .unwrap();
        assert_eq!(detector.kind(), BackendKind::ModelChar);
        assert_eq!(detector.preprocessing(), None);
        assert!(detector.steering_network().is_some());
        assert!(detector.classifier().is_none());
        assert!(detector.backend().stat_profile().is_some());
        assert_eq!(detector.metric_name(), "layer-stats");
        assert_eq!(detector.threshold().direction(), Direction::HigherIsNovel);
        let img = &data.frames()[0].image;
        let v = detector.classify(img).unwrap();
        assert_eq!(v.backend, "model-char");
        assert!(v.score.is_finite());
        // No reconstruction pair for this backend.
        assert!(detector.reconstruct(img).is_err());
        // Deterministic per seed.
        let again = NoveltyDetectorBuilder::model_characterization()
            .cnn_epochs(1)
            .seed(3)
            .train(&data)
            .unwrap();
        assert_eq!(detector.training_scores(), again.training_scores());
        assert_eq!(detector.threshold().value(), again.threshold().value());
    }

    #[test]
    fn score_batch_matches_individual_scores() {
        let data = tiny_dataset(7);
        let detector = fast_builder().train(&data).unwrap();
        let images: Vec<Image> = data
            .frames()
            .iter()
            .take(3)
            .map(|f| f.image.clone())
            .collect();
        let batch = detector.score_batch(&images).unwrap();
        for (img, &s) in images.iter().zip(&batch) {
            assert_eq!(detector.score(img).unwrap(), s);
        }
        // The Detector trait surface agrees with the inherent methods.
        let verdicts = Detector::classify_batch(&detector, &images, obs::noop()).unwrap();
        for (img, v) in images.iter().zip(&verdicts) {
            assert_eq!(&detector.classify(img).unwrap(), v);
        }
        assert_eq!(Detector::label(&detector), "vbp+ssim");
    }

    #[test]
    fn training_validates_config() {
        let data = tiny_dataset(1);
        assert!(fast_builder().train_fraction(1.5).train(&data).is_err());
        assert!(fast_builder().percentile(0.0).train(&data).is_err());
        let empty = DatasetConfig::outdoor().with_len(0).generate(0);
        assert!(fast_builder().train(&empty).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = tiny_dataset(9);
        let a = fast_builder().seed(4).train(&data).unwrap();
        let b = fast_builder().seed(4).train(&data).unwrap();
        assert_eq!(a.training_scores(), b.training_scores());
        assert_eq!(a.threshold().value(), b.threshold().value());
    }
}
