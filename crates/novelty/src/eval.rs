//! Dataset-level evaluation of trained detectors.
//!
//! The paper's quantitative claims are about score *distributions*:
//! target-class scores must separate from novel-class scores (Fig. 5) and
//! from perturbed-target scores (Fig. 7), and all novel samples must fall
//! past the calibrated threshold. [`evaluate`] computes those summaries
//! for any detector and pair of datasets.

use metrics::histogram::Histogram;
use metrics::separation::SeparationReport;
use vision::Image;

use crate::backend::Detector;
use crate::{Direction, NoveltyError, Result, Verdict};

/// Scores and summary statistics for one target-vs-novel comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Scores of the target-class (in-distribution) images.
    pub target_scores: Vec<f32>,
    /// Scores of the novel-class images.
    pub novel_scores: Vec<f32>,
    /// AUROC / overlap / means between the two samples.
    pub separation: SeparationReport,
    /// Fraction of novel images flagged at the calibrated threshold
    /// (the paper reports 100 % for cross-dataset novelty).
    pub novel_detection_rate: f32,
    /// Fraction of target images incorrectly flagged (≈ 1 − percentile).
    pub false_positive_rate: f32,
    /// The threshold used.
    pub threshold: f32,
    /// Score orientation.
    pub direction: Direction,
}

impl EvalReport {
    /// Renders the two score distributions as histogram rows over a
    /// common range — the textual equivalent of the paper's Fig. 5/7
    /// panels.
    ///
    /// # Errors
    ///
    /// Fails when `bins` is zero or scores are degenerate (all equal).
    pub fn histograms(&self, bins: usize) -> Result<(Histogram, Histogram)> {
        let all: Vec<f32> = self
            .target_scores
            .iter()
            .chain(&self.novel_scores)
            .copied()
            .collect();
        let lo = all.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = all.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (lo, hi) = if lo == hi {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        Ok((
            Histogram::from_values(&self.target_scores, lo, hi, bins)?,
            Histogram::from_values(&self.novel_scores, lo, hi, bins)?,
        ))
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} | novel detected {:.1}% | target FPR {:.1}% | threshold {:.4}",
            self.separation,
            self.novel_detection_rate * 100.0,
            self.false_positive_rate * 100.0,
            self.threshold
        )
    }
}

/// Fraction of verdicts that flagged their image novel.
fn flag_rate(verdicts: &[Verdict]) -> f32 {
    if verdicts.is_empty() {
        return 0.0;
    }
    verdicts.iter().filter(|v| v.is_novel).count() as f32 / verdicts.len() as f32
}

/// Evaluates a trained detector — a single [`crate::NoveltyDetector`] or
/// a fused [`crate::EnsembleDetector`] — against a target sample (drawn
/// from the training distribution) and a novel sample.
///
/// Both batches are classified through [`Detector::classify_batch`] with
/// `recorder` (so scoring wall time, per-image latency and scratch-pool
/// activity are captured), and the report's headline numbers (AUROC, detection
/// rate, false-positive rate, threshold) are recorded as `eval.*` gauges.
/// Pass [`obs::noop`] to record nothing; recording never changes the
/// evaluation result.
///
/// The detection rates count each verdict's own `is_novel` flag, which
/// for a single detector is exactly the strict threshold comparison; for
/// an ensemble it is the fused vote.
///
/// # Errors
///
/// Fails when either sample is empty or any image is incompatible with
/// the pipeline.
pub fn evaluate(
    detector: &dyn Detector,
    target_images: &[Image],
    novel_images: &[Image],
    recorder: &dyn obs::Recorder,
) -> Result<EvalReport> {
    if target_images.is_empty() || novel_images.is_empty() {
        return Err(NoveltyError::invalid(
            "evaluate",
            "target and novel samples must be non-empty",
        ));
    }
    let target_verdicts = detector.classify_batch(target_images, recorder)?;
    let novel_verdicts = detector.classify_batch(novel_images, recorder)?;
    let first = target_verdicts
        .first()
        .ok_or_else(|| NoveltyError::invalid("evaluate", "target sample produced no verdicts"))?;
    let (threshold, direction) = (first.threshold, first.direction);
    let orientation = direction.orientation();
    let target_scores: Vec<f32> = target_verdicts.iter().map(|v| v.score).collect();
    let novel_scores: Vec<f32> = novel_verdicts.iter().map(|v| v.score).collect();
    let separation = SeparationReport::compute(&target_scores, &novel_scores, orientation)?;
    let novel_detection_rate = flag_rate(&novel_verdicts);
    let false_positive_rate = flag_rate(&target_verdicts);
    recorder.add("eval.target_images", target_scores.len() as u64);
    recorder.add("eval.novel_images", novel_scores.len() as u64);
    recorder.gauge("eval.auroc", separation.auroc as f64);
    recorder.gauge("eval.novel_detection_rate", novel_detection_rate as f64);
    recorder.gauge("eval.false_positive_rate", false_positive_rate as f64);
    recorder.gauge("eval.threshold", threshold as f64);
    Ok(EvalReport {
        target_scores,
        novel_scores,
        separation,
        novel_detection_rate,
        false_positive_rate,
        threshold,
        direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClassifierConfig, NoveltyDetector, NoveltyDetectorBuilder, ReconstructionObjective,
    };
    use simdrive::DatasetConfig;

    fn quick_detector() -> (NoveltyDetector, Vec<Image>, Vec<Image>) {
        let outdoor = DatasetConfig::outdoor()
            .with_len(24)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(11);
        let indoor = DatasetConfig::indoor()
            .with_len(8)
            .with_size(40, 80)
            .with_supersample(1)
            .generate(12);
        let detector = NoveltyDetectorBuilder::richter_roy()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 15,
                warmup_epochs: 0,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Mse,
            })
            .seed(3)
            .train(&outdoor)
            .unwrap();
        let target: Vec<Image> = outdoor
            .frames()
            .iter()
            .skip(19)
            .map(|f| f.image.clone())
            .collect();
        let novel: Vec<Image> = indoor.frames().iter().map(|f| f.image.clone()).collect();
        (detector, target, novel)
    }

    #[test]
    fn evaluate_produces_consistent_report() {
        let (detector, target, novel) = quick_detector();
        let report = evaluate(&detector, &target, &novel, obs::noop()).unwrap();
        assert_eq!(report.target_scores.len(), target.len());
        assert_eq!(report.novel_scores.len(), novel.len());
        assert!((0.0..=1.0).contains(&report.novel_detection_rate));
        assert!((0.0..=1.0).contains(&report.false_positive_rate));
        assert!((0.0..=1.0).contains(&report.separation.auroc));
        // Cross-world novelty should be detectable even by the baseline
        // on this tiny problem.
        assert!(
            report.separation.auroc > 0.6,
            "AUROC {}",
            report.separation.auroc
        );
        let s = report.to_string();
        assert!(s.contains("AUROC"));
    }

    #[test]
    fn histograms_share_range() {
        let (detector, target, novel) = quick_detector();
        let report = evaluate(&detector, &target, &novel, obs::noop()).unwrap();
        let (ht, hn) = report.histograms(16).unwrap();
        assert_eq!(ht.bins(), 16);
        assert_eq!(ht.lo(), hn.lo());
        assert_eq!(ht.hi(), hn.hi());
        assert_eq!(ht.total() as usize, target.len());
        assert_eq!(hn.total() as usize, novel.len());
    }

    #[test]
    fn evaluate_rejects_empty_samples() {
        let (detector, target, _) = quick_detector();
        assert!(evaluate(&detector, &target, &[], obs::noop()).is_err());
        assert!(evaluate(&detector, &[], &target, obs::noop()).is_err());
    }
}
