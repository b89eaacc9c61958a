//! The one-class classifier: a reconstruction autoencoder.
//!
//! Following the paper (§III.A), the classifier is a feed-forward
//! autoencoder with ReLU hidden layers and a sigmoid output, trained on
//! flattened grayscale images normalised to `[0, 1]`. Its anomaly score
//! is the reconstruction similarity: MSE for the baselines (higher =
//! worse) or SSIM for the paper's method (lower = worse).

use metrics::SsimConfig;
use ndtensor::Tensor;
use neural::loss::{Loss, MseLoss, SsimDissimilarityLoss};
use neural::models::autoencoder;
use neural::optim::Adam;
use neural::{fit, LayerKind, Network, TrainConfig};
use serde::{Deserialize, Serialize};
use vision::Image;

use crate::{Direction, NoveltyError, Result};

/// Which reconstruction objective (and scoring metric) the classifier
/// uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReconstructionObjective {
    /// Pixel-wise mean squared error (Richter & Roy / ablation).
    Mse,
    /// Structural similarity with the given window (the paper's method).
    Ssim {
        /// Sliding-window side length (paper: 11).
        window: usize,
    },
}

impl ReconstructionObjective {
    /// The paper's SSIM objective with its 11×11 window.
    pub fn paper_ssim() -> Self {
        ReconstructionObjective::Ssim { window: 11 }
    }

    /// The direction in which scores under this objective indicate
    /// novelty.
    pub fn direction(&self) -> Direction {
        match self {
            ReconstructionObjective::Mse => Direction::HigherIsNovel,
            ReconstructionObjective::Ssim { .. } => Direction::LowerIsNovel,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ReconstructionObjective::Mse => "mse",
            ReconstructionObjective::Ssim { .. } => "ssim",
        }
    }

    fn ssim_config(&self) -> Option<SsimConfig> {
        match self {
            ReconstructionObjective::Mse => None,
            ReconstructionObjective::Ssim { window } => Some(SsimConfig::with_window(*window)),
        }
    }
}

/// Training hyper-parameters for the autoencoder classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Hidden-layer widths (paper: `[64, 16, 64]`).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// For SSIM objectives: number of *leading* epochs trained with MSE
    /// before switching to SSIM. SSIM is non-convex with a strong
    /// "reconstruct everything as flat darkness" local minimum; a short
    /// MSE warm-up reliably escapes it (without this, final quality
    /// varies wildly with the seed). Ignored for MSE objectives.
    pub warmup_epochs: usize,
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// The reconstruction objective.
    pub objective: ReconstructionObjective,
}

impl ClassifierConfig {
    /// The paper's configuration: 64/16/64 hidden, batch 32, SSIM loss.
    /// Epoch count and warm-up are ours (the paper reports neither);
    /// see `DESIGN.md`.
    pub fn paper() -> Self {
        ClassifierConfig {
            hidden: vec![64, 16, 64],
            epochs: 60,
            warmup_epochs: 15,
            batch_size: 32,
            learning_rate: 1e-3,
            objective: ReconstructionObjective::paper_ssim(),
        }
    }

    /// The paper's architecture trained with MSE instead (baselines).
    pub fn paper_with_mse() -> Self {
        ClassifierConfig {
            objective: ReconstructionObjective::Mse,
            ..Self::paper()
        }
    }
}

/// A trained autoencoder one-class classifier over `height × width`
/// grayscale images.
#[derive(Debug)]
pub struct AutoencoderClassifier {
    network: Network,
    height: usize,
    width: usize,
    objective: ReconstructionObjective,
}

impl AutoencoderClassifier {
    /// Trains the classifier on in-distribution images.
    ///
    /// Warm-up and main epochs append (in order) to `recorder`'s
    /// `epoch_loss` / `epoch_secs` series, and `epochs` / `batches` count
    /// the run. When `recorder` is enabled, the trained network then runs
    /// over the training images once more to gauge each hidden ReLU's
    /// sparsity: `hidden{h}.live_units` counts the units (`h` from 1)
    /// that are non-zero on at least one image and `hidden{h}.zero_share`
    /// is the exact-zero share of the layer's outputs. Callers namespace
    /// these via [`obs::Scoped`] (the pipeline records them as
    /// `ae-train.*`) and pass [`obs::noop`] to record nothing. Recording
    /// never changes the trained weights.
    ///
    /// # Errors
    ///
    /// Fails when `images` is empty, images disagree in size, or the SSIM
    /// window does not fit the images.
    pub fn train(
        images: &[Image],
        config: &ClassifierConfig,
        seed: u64,
        recorder: &dyn obs::Recorder,
    ) -> Result<Self> {
        let (height, width) = check_images("AutoencoderClassifier::train", images)?;
        let input_dim = height * width;
        let mut network = autoencoder(input_dim, &config.hidden, seed)?;
        let data = stack_images(images)?;
        let mut opt = Adam::new(config.learning_rate)?;

        // Optional MSE warm-up for SSIM objectives (see ClassifierConfig).
        let warmup = match config.objective {
            ReconstructionObjective::Ssim { .. } => config.warmup_epochs.min(config.epochs),
            ReconstructionObjective::Mse => 0,
        };
        if warmup > 0 {
            let warm_cfg = TrainConfig::new(warmup, config.batch_size)
                .with_seed(seed ^ 0xEA)
                .with_grad_clip(10.0);
            fit(
                &mut network,
                &MseLoss::new(),
                &mut opt,
                &data,
                &data,
                &warm_cfg,
                recorder,
            )?;
        }

        let main_epochs = config.epochs - warmup;
        if main_epochs > 0 {
            let loss: Box<dyn Loss> = match config.objective.ssim_config() {
                None => Box::new(MseLoss::new()),
                Some(ssim_cfg) => Box::new(SsimDissimilarityLoss::new(height, width, ssim_cfg)?),
            };
            let train_cfg = TrainConfig::new(main_epochs, config.batch_size)
                .with_seed(seed ^ 0xAE)
                .with_grad_clip(10.0);
            // Autoencoder: inputs are their own targets.
            fit(
                &mut network,
                loss.as_ref(),
                &mut opt,
                &data,
                &data,
                &train_cfg,
                recorder,
            )?;
        }
        if recorder.enabled() {
            record_relu_sparsity(&network, &data, recorder)?;
        }

        Ok(AutoencoderClassifier {
            network,
            height,
            width,
            objective: config.objective.clone(),
        })
    }

    /// Wraps an already-trained network (used by deserialization).
    ///
    /// # Errors
    ///
    /// Fails when the network rejects a probe image of the given size.
    pub fn from_parts(
        network: Network,
        height: usize,
        width: usize,
        objective: ReconstructionObjective,
    ) -> Result<Self> {
        let probe = Tensor::zeros([1, height * width]);
        let out = network.forward(&probe)?;
        if out.shape().dims() != [1, height * width] {
            return Err(NoveltyError::invalid(
                "AutoencoderClassifier::from_parts",
                format!(
                    "network maps {} inputs to {}, expected identity dimensions",
                    height * width,
                    out.shape()
                ),
            ));
        }
        Ok(AutoencoderClassifier {
            network,
            height,
            width,
            objective,
        })
    }

    /// Image height this classifier expects.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width this classifier expects.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The objective (and scoring metric) in use.
    pub fn objective(&self) -> &ReconstructionObjective {
        &self.objective
    }

    /// The underlying network (for serialization and inspection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Reconstructs an image through the autoencoder.
    ///
    /// # Errors
    ///
    /// Fails when the image size differs from the training size.
    pub fn reconstruct(&self, image: &Image) -> Result<Image> {
        self.check_input(image)?;
        let flat = image.tensor().reshape([1, self.height * self.width])?;
        let out = self.network.forward(&flat)?;
        Ok(Image::from_tensor(out.reshape([self.height, self.width])?)?)
    }

    /// Scores an image under the classifier's objective: MSE (higher =
    /// more novel) or mean SSIM (lower = more novel).
    ///
    /// # Errors
    ///
    /// Fails when the image size differs from the training size.
    pub fn score(&self, image: &Image) -> Result<f32> {
        let recon = self.reconstruct(image)?;
        match self.objective.ssim_config() {
            None => Ok(metrics::mse(image, &recon)?),
            Some(cfg) => Ok(metrics::ssim(image, &recon, &cfg)?),
        }
    }

    /// Scores several same-sized images in one batched forward pass:
    /// the images are stacked into an `[N, H·W]` matrix, reconstructed
    /// via [`Network::forward_batch`] (amortizing packed-GEMM panel
    /// packing across the whole batch instead of repaying it per frame),
    /// and the metric is computed per row on the work pool.
    ///
    /// Every network layer treats batch rows independently and the
    /// packed kernels never reorder the additions inside one output
    /// element, so score `i` is bit-identical to
    /// [`AutoencoderClassifier::score`] on image `i` — at any thread
    /// count. The serving layer's cross-tenant mega-batch and the
    /// isolation proofs in `tests/serve_isolation.rs` rely on this.
    ///
    /// # Errors
    ///
    /// Fails when any image's size differs from the training size.
    pub fn score_many(&self, images: &[&Image]) -> Result<Vec<f32>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        for img in images {
            self.check_input(img)?;
        }
        let dim = self.height * self.width;
        let mut data = Vec::with_capacity(images.len() * dim); // sncheck:allow(hot-path-transitive-alloc): one packed input buffer per batch call, amortized across all frames in it
        for img in images {
            data.extend_from_slice(img.as_slice());
        }
        let stacked = Tensor::from_vec([images.len(), dim], data)?;
        let out = self.network.forward_batch(&stacked)?;
        let out_slice = out.as_slice();
        // Per-row metric: rows are independent, so fan out over the pool
        // (windowed SSIM is a real share of the per-frame cost).
        let work = images.len().saturating_mul(dim).saturating_mul(32);
        let scores =
            ndtensor::par::try_parallel_map::<f32, NoveltyError>(images.len(), work, |i| {
                let row = &out_slice[i * dim..(i + 1) * dim];
                let recon =
                    Image::from_tensor(Tensor::from_slice([self.height, self.width], row)?)?;
                match self.objective.ssim_config() {
                    None => Ok(metrics::mse(images[i], &recon)?),
                    Some(cfg) => Ok(metrics::ssim(images[i], &recon, &cfg)?),
                }
            })?;
        Ok(scores)
    }

    /// The direction in which this classifier's scores indicate novelty.
    pub fn direction(&self) -> Direction {
        self.objective.direction()
    }

    fn check_input(&self, image: &Image) -> Result<()> {
        if image.height() != self.height || image.width() != self.width {
            return Err(NoveltyError::invalid(
                "AutoencoderClassifier",
                format!(
                    "image {}x{} does not match classifier size {}x{}",
                    image.height(),
                    image.width(),
                    self.height,
                    self.width
                ),
            ));
        }
        Ok(())
    }
}

fn check_images(op: &'static str, images: &[Image]) -> Result<(usize, usize)> {
    let first = images
        .first()
        .ok_or_else(|| NoveltyError::invalid(op, "need at least one image"))?;
    let (h, w) = (first.height(), first.width());
    for (i, img) in images.iter().enumerate() {
        if img.height() != h || img.width() != w {
            return Err(NoveltyError::invalid(
                op,
                format!(
                    "image {i} is {}x{}, expected {h}x{w}",
                    img.height(),
                    img.width()
                ),
            ));
        }
    }
    Ok((h, w))
}

/// Gauges hidden ReLU `h` (counted from 1) of `network` over the rows
/// of `data`: the units non-zero on at least one row as
/// `hidden{h}.live_units`, and the exact-zero share of its outputs as
/// `hidden{h}.zero_share`. Rows run through the network in chunks, so
/// memory stays bounded on a large training set.
fn record_relu_sparsity(
    network: &Network,
    data: &Tensor,
    recorder: &dyn obs::Recorder,
) -> Result<()> {
    const CHUNK_ROWS: usize = 64;
    let (n, dim) = (data.shape().dims()[0], data.shape().dims()[1]);
    let relus: Vec<usize> = network
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, layer)| layer.kind() == LayerKind::ReLU)
        .map(|(i, _)| i)
        .collect();
    let mut live: Vec<Vec<bool>> = vec![Vec::new(); relus.len()];
    let mut zeros = vec![0usize; relus.len()];
    let mut acts = Vec::new();
    for start in (0..n).step_by(CHUNK_ROWS) {
        let rows = CHUNK_ROWS.min(n - start);
        let chunk = Tensor::from_slice([rows, dim], &data.as_slice()[start * dim..][..rows * dim])?;
        network.forward_collect_into(&chunk, &mut acts)?;
        for (h, &layer) in relus.iter().enumerate() {
            let width = acts[layer].len() / rows;
            live[h].resize(width, false);
            for row in acts[layer].as_slice().chunks(width) {
                for (unit_live, &v) in live[h].iter_mut().zip(row) {
                    // sncheck:allow(no-float-eq): counts exact ReLU zeros,
                    // not a tolerance check.
                    if v == 0.0 {
                        zeros[h] += 1;
                    } else {
                        *unit_live = true;
                    }
                }
            }
        }
    }
    for (h, units) in live.iter().enumerate() {
        let count = units.iter().filter(|&&l| l).count();
        recorder.gauge(&format!("hidden{}.live_units", h + 1), count as f64);
        let share = zeros[h] as f64 / (n * units.len()).max(1) as f64;
        recorder.gauge(&format!("hidden{}.zero_share", h + 1), share);
    }
    Ok(())
}

/// Stacks images into an `[N, H·W]` training matrix.
pub(crate) fn stack_images(images: &[Image]) -> Result<Tensor> {
    let (h, w) = check_images("stack_images", images)?;
    let mut data = Vec::with_capacity(images.len() * h * w);
    for img in images {
        data.extend_from_slice(img.as_slice());
    }
    Ok(Tensor::from_vec([images.len(), h * w], data)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small structured images: two clusters of patterns.
    fn pattern_images(n: usize, phase: f32) -> Vec<Image> {
        (0..n)
            .map(|i| {
                Image::from_fn(12, 16, |y, x| {
                    let t = (x as f32 * 0.5 + y as f32 * 0.3 + phase + i as f32 * 0.05).sin();
                    0.5 + 0.35 * t
                })
                .unwrap()
            })
            .collect()
    }

    fn quick_config(objective: ReconstructionObjective) -> ClassifierConfig {
        ClassifierConfig {
            hidden: vec![16, 8, 16],
            epochs: 40,
            warmup_epochs: 8,
            batch_size: 8,
            learning_rate: 3e-3,
            objective,
        }
    }

    #[test]
    fn mse_classifier_learns_reconstruction() {
        let images = pattern_images(24, 0.0);
        let clf = AutoencoderClassifier::train(
            &images,
            &quick_config(ReconstructionObjective::Mse),
            1,
            obs::noop(),
        )
        .unwrap();
        let score = clf.score(&images[0]).unwrap();
        assert!(score < 0.02, "in-class MSE too high: {score}");
        assert_eq!(clf.direction(), Direction::HigherIsNovel);
        let recon = clf.reconstruct(&images[0]).unwrap();
        assert_eq!((recon.height(), recon.width()), (12, 16));
    }

    #[test]
    fn ssim_classifier_scores_in_class_high() {
        let images = pattern_images(24, 0.0);
        let clf = AutoencoderClassifier::train(
            &images,
            &quick_config(ReconstructionObjective::Ssim { window: 5 }),
            2,
            obs::noop(),
        )
        .unwrap();
        let in_class = clf.score(&images[1]).unwrap();
        assert!(in_class > 0.35, "in-class SSIM too low: {in_class}");
        assert_eq!(clf.direction(), Direction::LowerIsNovel);
    }

    #[test]
    fn out_of_class_scores_worse_than_in_class() {
        let images = pattern_images(24, 0.0);
        let clf = AutoencoderClassifier::train(
            &images,
            &quick_config(ReconstructionObjective::Mse),
            3,
            obs::noop(),
        )
        .unwrap();
        let in_score = clf.score(&images[0]).unwrap();
        // Novel: inverted-phase pattern (structurally different).
        let novel = Image::from_fn(12, 16, |y, x| {
            0.5 + 0.35 * ((x as f32 * 2.1 - y as f32 * 1.7).cos())
        })
        .unwrap();
        let out_score = clf.score(&novel).unwrap();
        assert!(
            out_score > in_score * 2.0,
            "in {in_score} vs out {out_score}"
        );
    }

    #[test]
    fn validates_inputs() {
        assert!(AutoencoderClassifier::train(
            &[],
            &quick_config(ReconstructionObjective::Mse),
            0,
            obs::noop()
        )
        .is_err());
        let mixed = vec![Image::new(4, 4).unwrap(), Image::new(4, 5).unwrap()];
        assert!(AutoencoderClassifier::train(
            &mixed,
            &quick_config(ReconstructionObjective::Mse),
            0,
            obs::noop()
        )
        .is_err());
        // SSIM window too large for the images.
        let small = vec![Image::new(4, 4).unwrap(); 4];
        assert!(AutoencoderClassifier::train(
            &small,
            &quick_config(ReconstructionObjective::Ssim { window: 11 }),
            0,
            obs::noop()
        )
        .is_err());
    }

    #[test]
    fn score_rejects_wrong_size() {
        let images = pattern_images(8, 0.0);
        let clf = AutoencoderClassifier::train(
            &images,
            &quick_config(ReconstructionObjective::Mse),
            4,
            obs::noop(),
        )
        .unwrap();
        let wrong = Image::new(5, 5).unwrap();
        assert!(clf.score(&wrong).is_err());
        assert!(clf.reconstruct(&wrong).is_err());
    }

    #[test]
    fn stack_images_layout() {
        let imgs = vec![
            Image::from_fn(2, 2, |y, x| (y * 2 + x) as f32).unwrap(),
            Image::from_fn(2, 2, |y, x| (y * 2 + x) as f32 + 10.0).unwrap(),
        ];
        let t = stack_images(&imgs).unwrap();
        assert_eq!(t.shape().dims(), &[2, 4]);
        assert_eq!(t.as_slice(), &[0., 1., 2., 3., 10., 11., 12., 13.]);
    }

    #[test]
    fn objective_metadata() {
        assert_eq!(ReconstructionObjective::Mse.name(), "mse");
        assert_eq!(ReconstructionObjective::paper_ssim().name(), "ssim");
        assert_eq!(
            ReconstructionObjective::paper_ssim(),
            ReconstructionObjective::Ssim { window: 11 }
        );
        assert_eq!(ClassifierConfig::paper().hidden, vec![64, 16, 64]);
        assert_eq!(ClassifierConfig::paper().batch_size, 32);
        assert_eq!(
            ClassifierConfig::paper_with_mse().objective,
            ReconstructionObjective::Mse
        );
    }

    #[test]
    fn from_parts_validates_geometry() {
        let net = autoencoder(16, &[4], 0).unwrap();
        assert!(AutoencoderClassifier::from_parts(net, 4, 4, ReconstructionObjective::Mse).is_ok());
        let net = autoencoder(16, &[4], 0).unwrap();
        assert!(
            AutoencoderClassifier::from_parts(net, 4, 5, ReconstructionObjective::Mse).is_err()
        );
    }
}
