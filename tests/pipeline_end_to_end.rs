//! End-to-end integration tests of the full pipeline across crates:
//! data generation → CNN training → VBP → autoencoder → calibration →
//! classification. These run reduced-scale versions of the paper's
//! headline experiments and assert the *shape* of the results (who wins,
//! directionally), not absolute numbers.
//!
//! Training is expensive, so the fixture (datasets + the two detectors
//! under comparison) is built once in a `OnceLock` and shared by every
//! test in the file.

use std::sync::OnceLock;

use novelty::eval::evaluate;
use novelty::{
    BackendKind, ClassifierConfig, Direction, NoveltyDetector, NoveltyDetectorBuilder,
    ReconstructionObjective,
};
use saliency_novelty::prelude::*;

/// Reduced-scale settings: the paper's 60×160 geometry (the CNN needs
/// realistic resolution to learn lane features) at reduced sample counts.
fn dataset(world: World, len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::for_world(world)
        .with_len(len)
        .with_size(60, 160)
        .with_supersample(1)
        .generate(seed)
}

fn builder_for(kind: BackendKind) -> NoveltyDetectorBuilder {
    let objective = match kind {
        BackendKind::VbpSsim => ReconstructionObjective::paper_ssim(),
        _ => ReconstructionObjective::Mse,
    };
    NoveltyDetectorBuilder::for_kind(kind)
        .classifier_config(ClassifierConfig {
            epochs: 60,
            objective,
            ..ClassifierConfig::paper()
        })
        .cnn_epochs(12)
        // The 80/20 split is applied by the fixture itself, so the
        // builder trains on everything it is given.
        .train_fraction(1.0)
        .seed(1234)
}

struct Fixture {
    train: DrivingDataset,
    target: Vec<Image>,
    novel: Vec<Image>,
    paper_detector: NoveltyDetector,
    baseline_detector: NoveltyDetector,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let outdoor = dataset(World::Outdoor, 200, 21);
        let indoor = dataset(World::Indoor, 30, 22);
        let (train, held_out) = outdoor.split(0.85);
        let paper_detector = builder_for(BackendKind::VbpSsim)
            .train(&train)
            .expect("paper pipeline trains");
        let baseline_detector = builder_for(BackendKind::RawMse)
            .train(&train)
            .expect("baseline pipeline trains");
        Fixture {
            train,
            target: held_out.frames().iter().map(|f| f.image.clone()).collect(),
            novel: indoor.frames().iter().map(|f| f.image.clone()).collect(),
            paper_detector,
            baseline_detector,
        }
    })
}

#[test]
fn paper_pipeline_separates_cross_world_novelty() {
    let fx = fixture();
    let report = evaluate(&fx.paper_detector, &fx.target, &fx.novel, obs::noop()).unwrap();

    // The paper's headline: the two datasets separate. At this reduced
    // scale we require near-perfect ranking and a majority of novel
    // frames past the calibrated threshold.
    assert!(
        report.separation.auroc >= 0.9,
        "cross-world AUROC too low: {}",
        report.separation.auroc
    );
    // At this reduced scale the 99th-percentile threshold sits on a
    // noisy 170-sample tail, so the detection-rate bound is conservative;
    // the full-scale figure binary reproduces the paper's ~100 %.
    assert!(
        report.novel_detection_rate >= 0.35,
        "novel detection rate too low: {}",
        report.novel_detection_rate
    );
    // SSIM direction: target scores must be *higher* than novel scores.
    assert_eq!(report.direction, Direction::LowerIsNovel);
    assert!(report.separation.target_mean > report.separation.novel_mean);
    // The threshold was calibrated at the 99th percentile, so few
    // in-distribution frames should be flagged.
    assert!(
        report.false_positive_rate <= 0.2,
        "false positive rate too high: {}",
        report.false_positive_rate
    );
}

#[test]
fn steering_cnn_actually_learns_the_task() {
    // The pipeline is only meaningful if the CNN learns steering: its
    // test error must beat the trivial predict-zero baseline.
    let fx = fixture();
    let cnn = fx
        .paper_detector
        .steering_network()
        .expect("paper pipeline carries a CNN");

    let probe = dataset(World::Outdoor, 40, 77);
    let mut model_se = 0.0f32;
    let mut zero_se = 0.0f32;
    for frame in probe.frames() {
        let input = frame
            .image
            .tensor()
            .reshape([1, 1, frame.image.height(), frame.image.width()])
            .unwrap();
        let pred = cnn.forward(&input).unwrap().as_slice()[0];
        model_se += (pred - frame.angle).powi(2);
        zero_se += frame.angle * frame.angle;
    }
    assert!(
        model_se < zero_se * 0.8,
        "CNN no better than predicting zero: model {model_se} vs baseline {zero_se}"
    );
}

#[test]
fn vbp_ssim_beats_raw_mse_baseline_on_ranking() {
    // Fig. 5's ordering claim, as a ranking statement at reduced scale:
    // the paper's pipeline must separate at least as well as the
    // Richter & Roy baseline.
    let fx = fixture();
    let paper_report = evaluate(&fx.paper_detector, &fx.target, &fx.novel, obs::noop()).unwrap();
    let base_report = evaluate(&fx.baseline_detector, &fx.target, &fx.novel, obs::noop()).unwrap();
    assert!(
        paper_report.separation.auroc + 1e-6 >= base_report.separation.auroc,
        "paper {} < baseline {}",
        paper_report.separation.auroc,
        base_report.separation.auroc
    );
}

#[test]
fn noisy_frames_score_lower_than_clean_under_ssim() {
    // Fig. 7's direction: Gaussian noise pushes SSIM scores down.
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let fx = fixture();
    let clean_scores = fx.paper_detector.score_batch(&fx.target).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let noisy: Vec<Image> = fx
        .target
        .iter()
        .map(|img| vision::perturb::add_gaussian_noise(img, &mut rng, 0.3).unwrap())
        .collect();
    let noisy_scores = fx.paper_detector.score_batch(&noisy).unwrap();
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    assert!(
        mean(&clean_scores) > mean(&noisy_scores),
        "clean {} vs noisy {}",
        mean(&clean_scores),
        mean(&noisy_scores)
    );
}

#[test]
fn in_class_reconstruction_quality_is_meaningful() {
    // The paper's Fig. 5 right panel: the SSIM autoencoder reconstructs
    // in-class VBP masks substantially better than chance (training-set
    // mean SSIM well above the novel-class level).
    let fx = fixture();
    let train_scores = fx.paper_detector.training_scores();
    let train_mean = train_scores.iter().sum::<f32>() / train_scores.len() as f32;
    assert!(
        train_mean > 0.4,
        "in-class reconstruction SSIM too weak: {train_mean}"
    );
    let novel_scores = fx.paper_detector.score_batch(&fx.novel).unwrap();
    let novel_mean = novel_scores.iter().sum::<f32>() / novel_scores.len() as f32;
    assert!(
        train_mean > novel_mean + 0.15,
        "train {train_mean} vs novel {novel_mean}"
    );
}

#[test]
fn verdicts_are_consistent_with_scores_and_threshold() {
    let fx = fixture();
    for detector in [&fx.paper_detector, &fx.baseline_detector] {
        for img in fx.target.iter().chain(fx.novel.iter()).take(5) {
            let verdict = detector.classify(img).unwrap();
            let score = detector.score(img).unwrap();
            assert_eq!(verdict.score, score);
            assert_eq!(verdict.threshold, detector.threshold().value());
            assert_eq!(
                verdict.is_novel,
                detector.threshold().is_novel(score),
                "verdict disagrees with threshold rule"
            );
        }
    }
    // The training split is what the detectors were calibrated on.
    assert_eq!(fx.train.len(), 170);
}
