//! The model-characterization backend: novelty from the steering CNN's
//! *own* internal response, with no separate autoencoder.
//!
//! Kwon et al. (arXiv:2008.06094) observe that a network responds to
//! out-of-distribution inputs with atypical internal statistics long
//! before its output betrays anything. This backend operationalizes that
//! for the steering CNN: every frame is summarized by a feature vector
//! of per-layer activation statistics (mean and spread of each layer's
//! forward activations) plus the statistics of the input-gradient
//! saliency map ([`saliency::grad::gradient_saliency`] — the
//! gradient-side sibling of the VBP path). Training calibrates a
//! [`StatProfile`] (per-feature mean and standard deviation over the
//! training frames); the novelty score of a frame is the RMS z-score of
//! its features against that profile. In-distribution frames score near
//! 1 by construction; frames the model "perceives" differently score
//! high, so the direction is [`Direction::HigherIsNovel`].
//!
//! Determinism: activations come from the immutable forward pass, and
//! the gradient pass runs on a dedicated clone of the CNN behind a
//! mutex. [`saliency::grad::gradient_saliency`] zeroes accumulated
//! gradients before and after, so its result is a pure function of
//! `(parameters, image)`, and batch scoring gives per-image scoring's
//! bits.

use std::sync::Mutex;

use neural::serialize::clone_network;
use neural::Network;
use saliency::gradient_saliency;
use serde::{Deserialize, Serialize};
use vision::Image;

use crate::backend::{BackendKind, ScoreBackend};
use crate::{Direction, NoveltyError, Result};

/// Standard deviations below this are clamped when normalizing, so a
/// feature that is constant over the training set cannot blow a z-score
/// up to infinity.
const MIN_STD: f32 = 1e-6;

/// Calibrated per-feature statistics of the training distribution:
/// `means[i]` / `stds[i]` summarize feature `i` over the training
/// frames. Serialized inside the detector file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatProfile {
    /// Per-feature training means.
    pub means: Vec<f32>,
    /// Per-feature training standard deviations (population).
    pub stds: Vec<f32>,
}

impl StatProfile {
    /// Number of features the profile was calibrated on.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// `true` when the profile carries no features.
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// Fits a profile over feature rows (one row per training frame).
    ///
    /// # Errors
    ///
    /// Fails on zero rows or ragged row lengths.
    pub fn fit(rows: &[Vec<f32>]) -> Result<StatProfile> {
        let first = rows.first().ok_or_else(|| {
            NoveltyError::invalid("StatProfile", "cannot fit a profile on zero frames")
        })?;
        let dim = first.len();
        if rows.iter().any(|r| r.len() != dim) {
            return Err(NoveltyError::invalid(
                "StatProfile",
                "feature rows have inconsistent lengths",
            ));
        }
        let n = rows.len() as f32;
        let mut means = vec![0.0f32; dim];
        for row in rows {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut vars = vec![0.0f32; dim];
        for row in rows {
            for ((s, v), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *s += d * d / n;
            }
        }
        let stds = vars.iter().map(|v| v.max(0.0).sqrt()).collect();
        Ok(StatProfile { means, stds })
    }

    /// The RMS z-score of a feature row against the profile — the
    /// model-characterization novelty score.
    ///
    /// # Errors
    ///
    /// Fails when the row length does not match the profile.
    pub fn rms_zscore(&self, features: &[f32]) -> Result<f32> {
        if features.len() != self.len() || self.is_empty() {
            return Err(NoveltyError::invalid(
                "StatProfile",
                format!(
                    "feature vector has {} entries but the profile was calibrated on {}",
                    features.len(),
                    self.len()
                ),
            ));
        }
        let mut sum = 0.0f32;
        for ((f, m), s) in features.iter().zip(&self.means).zip(&self.stds) {
            let z = (f - m) / s.max(MIN_STD);
            sum += z * z;
        }
        Ok((sum / self.len() as f32).sqrt())
    }
}

/// The model-characterization [`ScoreBackend`]: a frozen steering CNN
/// plus the calibrated [`StatProfile`] of its training-time response.
#[derive(Debug)]
pub struct ModelCharBackend {
    steering: Network,
    /// Dedicated clone for the gradient pass, which needs `&mut` (layer
    /// caches are written and consumed); parameters are never changed,
    /// so locking order cannot affect results.
    grad_twin: Mutex<Network>,
    height: usize,
    width: usize,
    profile: StatProfile,
}

impl ModelCharBackend {
    /// Calibrates the backend on training frames: extracts every
    /// frame's feature row (in parallel; rows are indexed, so the result
    /// is order-exact), fits the [`StatProfile`], and returns the
    /// backend together with the training scores (each row's RMS
    /// z-score against the freshly fitted profile — the calibration
    /// distribution for the detector's threshold).
    ///
    /// # Errors
    ///
    /// Fails on an empty training set or images incompatible with the
    /// network.
    pub fn fit(steering: Network, images: &[Image]) -> Result<(ModelCharBackend, Vec<f32>)> {
        let first = images.first().ok_or_else(|| {
            NoveltyError::invalid("ModelCharBackend", "cannot calibrate on zero frames")
        })?;
        let (height, width) = (first.height(), first.width());
        let grad_twin = Mutex::new(clone_network(&steering)?);
        let mut backend = ModelCharBackend {
            steering,
            grad_twin,
            height,
            width,
            profile: StatProfile {
                means: Vec::new(),
                stds: Vec::new(),
            },
        };
        let rows = images
            .iter()
            .map(|img| backend.features(img))
            .collect::<Result<Vec<_>>>()?;
        backend.profile = StatProfile::fit(&rows)?;
        let scores = rows
            .iter()
            .map(|r| backend.profile.rms_zscore(r))
            .collect::<Result<Vec<f32>>>()?;
        Ok((backend, scores))
    }

    /// Reassembles a backend from persisted parts (see
    /// [`crate::DetectorSpec`]).
    ///
    /// # Errors
    ///
    /// Fails on an empty profile or when the network cannot be cloned
    /// for the gradient pass.
    pub fn from_parts(
        steering: Network,
        height: usize,
        width: usize,
        profile: StatProfile,
    ) -> Result<ModelCharBackend> {
        if profile.is_empty() {
            return Err(NoveltyError::invalid(
                "ModelCharBackend",
                "statistics profile is empty",
            ));
        }
        if profile.means.len() != profile.stds.len() {
            return Err(NoveltyError::invalid(
                "ModelCharBackend",
                "statistics profile means/stds lengths differ",
            ));
        }
        let grad_twin = Mutex::new(clone_network(&steering)?);
        Ok(ModelCharBackend {
            steering,
            grad_twin,
            height,
            width,
            profile,
        })
    }

    /// The feature vector of one frame: `(mean, std)` of every layer's
    /// forward activations, then `(mean, std)` of the input-gradient
    /// saliency map.
    fn features(&self, image: &Image) -> Result<Vec<f32>> {
        let input = image
            .tensor()
            .reshape([1, 1, image.height(), image.width()])?;
        let activations = self.steering.forward_collect(&input)?;
        let mut features = Vec::with_capacity(2 * activations.len() + 2);
        for act in &activations {
            let (mean, std) = mean_std(act.as_slice());
            features.push(mean);
            features.push(std);
        }
        let saliency = {
            let mut net = self
                .grad_twin
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            gradient_saliency(&mut net, image)?
        };
        let (mean, std) = mean_std(saliency.as_slice());
        features.push(mean);
        features.push(std);
        Ok(features)
    }
}

fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, var.max(0.0).sqrt())
}

impl ScoreBackend for ModelCharBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::ModelChar
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsNovel
    }

    fn input_size(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    fn preprocess(&self, image: &Image) -> Result<Image> {
        Ok(image.clone())
    }

    fn score(&self, image: &Image) -> Result<f32> {
        let features = self.features(image)?;
        self.profile.rms_zscore(&features)
    }

    fn steering_network(&self) -> Option<&Network> {
        Some(&self.steering)
    }

    fn stat_profile(&self) -> Option<&StatProfile> {
        Some(&self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::models::{pilotnet, PilotNetConfig};

    fn tiny_cnn() -> Network {
        pilotnet(
            &PilotNetConfig {
                height: 40,
                width: 80,
                ..PilotNetConfig::compact()
            },
            3,
        )
        .unwrap()
    }

    fn frames(n: usize, seed: u64) -> Vec<Image> {
        simdrive::DatasetConfig::outdoor()
            .with_len(n)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(seed)
            .frames()
            .iter()
            .map(|f| f.image.clone())
            .collect()
    }

    #[test]
    fn profile_fit_and_zscore_are_sound() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
        let p = StatProfile::fit(&rows).unwrap();
        assert_eq!(p.means, vec![2.0, 10.0]);
        assert_eq!(p.stds[0], 1.0);
        // The constant feature is clamped, not divided by zero.
        let s = p.rms_zscore(&[2.0, 10.0]).unwrap();
        assert_eq!(s, 0.0);
        let far = p.rms_zscore(&[4.0, 10.0]).unwrap();
        assert!(far.is_finite() && far > 1.0);
        // Ragged / mismatched inputs fail loudly.
        assert!(StatProfile::fit(&[]).is_err());
        assert!(StatProfile::fit(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(p.rms_zscore(&[1.0]).is_err());
    }

    #[test]
    fn fit_scores_are_deterministic_and_in_distribution_scores_are_moderate() {
        let images = frames(12, 5);
        let (backend, scores) = ModelCharBackend::fit(tiny_cnn(), &images).unwrap();
        let (b2, s2) = ModelCharBackend::fit(tiny_cnn(), &images).unwrap();
        assert_eq!(scores, s2);
        assert_eq!(backend.profile, b2.profile);
        // Training scores are RMS z-scores: finite, non-negative, and
        // re-scoring a training frame reproduces its training score.
        for (img, &s) in images.iter().zip(&scores) {
            assert!(s.is_finite() && s >= 0.0);
            assert_eq!(backend.score(img).unwrap(), s);
        }
        assert_eq!(backend.kind(), BackendKind::ModelChar);
        assert_eq!(backend.direction(), Direction::HigherIsNovel);
        assert_eq!(backend.input_size(), (40, 80));
        assert!(backend.steering_network().is_some());
        assert!(backend.classifier().is_none());
        assert!(backend.reconstruct(&images[0]).is_err());
    }

    #[test]
    fn persisted_parts_round_trip() {
        let images = frames(8, 9);
        let (backend, _) = ModelCharBackend::fit(tiny_cnn(), &images).unwrap();
        let rebuilt = ModelCharBackend::from_parts(
            clone_network(&backend.steering).unwrap(),
            40,
            80,
            backend.profile.clone(),
        )
        .unwrap();
        for img in &images {
            assert_eq!(
                backend.score(img).unwrap().to_bits(),
                rebuilt.score(img).unwrap().to_bits()
            );
        }
        assert!(ModelCharBackend::from_parts(
            tiny_cnn(),
            40,
            80,
            StatProfile {
                means: Vec::new(),
                stds: Vec::new()
            }
        )
        .is_err());
    }
}
