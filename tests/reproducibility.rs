//! Determinism guarantees across the whole stack: identical seeds must
//! produce bit-identical datasets, models, scores and verdicts — the
//! property that makes every figure in `EXPERIMENTS.md` regenerable.

use novelty::{ClassifierConfig, NoveltyDetectorBuilder, ReconstructionObjective};
use saliency_novelty::prelude::*;

fn small_dataset(seed: u64) -> DrivingDataset {
    DatasetConfig::outdoor()
        .with_len(24)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(seed)
}

fn quick_builder(seed: u64) -> NoveltyDetectorBuilder {
    NoveltyDetectorBuilder::paper()
        .classifier_config(ClassifierConfig {
            hidden: vec![16, 8, 16],
            epochs: 4,
            warmup_epochs: 1,
            batch_size: 8,
            learning_rate: 3e-3,
            objective: ReconstructionObjective::Ssim { window: 7 },
        })
        .cnn_epochs(1)
        .seed(seed)
}

/// 64-bit FNV-1a of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the persisted `vbp+ssim` detector trained by
/// [`seeded_detector_spec_digest_is_pinned`]. Every weight, threshold and
/// training score is in the spec, so a kernel, layer or optimizer change
/// that moves one output bit anywhere in training or scoring moves this
/// value. Update it only for a deliberate numeric change, and say so.
const PINNED_SPEC_DIGEST: u64 = 0xf156_edbb_a632_ed5a;

/// Kernel changes must keep detector output bit-identical: the persisted
/// form of a small seeded detector matches a pinned digest. The 64-wide
/// hidden layers put both the autoencoder encode (`n = 64`) and decode
/// (`n = 3200`) on full 64-column register blocks, the 16-wide bottleneck
/// on the column remainder, and the batch of 8 on two-row blocks.
#[test]
fn seeded_detector_spec_digest_is_pinned() {
    let data = small_dataset(5);
    let detector = NoveltyDetectorBuilder::paper()
        .classifier_config(ClassifierConfig {
            hidden: vec![64, 16, 64],
            epochs: 3,
            warmup_epochs: 1,
            batch_size: 8,
            learning_rate: 3e-3,
            objective: ReconstructionObjective::Ssim { window: 7 },
        })
        .cnn_epochs(1)
        .seed(42)
        .train(&data)
        .unwrap();
    let spec = novelty::detector_to_spec(&detector).unwrap();
    let json = serde_json::to_string(&spec).unwrap();
    assert_eq!(
        format!("{:016x}", fnv1a(json.as_bytes())),
        format!("{PINNED_SPEC_DIGEST:016x}")
    );
}

#[test]
fn datasets_are_bit_identical_across_generations() {
    let a = small_dataset(77);
    let b = small_dataset(77);
    for (fa, fb) in a.frames().iter().zip(b.frames()) {
        assert_eq!(fa.image.as_slice(), fb.image.as_slice());
        assert_eq!(fa.angle, fb.angle);
        assert_eq!(fa.lane_mask.as_slice(), fb.lane_mask.as_slice());
    }
    let c = small_dataset(78);
    assert_ne!(
        a.frames()[0].image.as_slice(),
        c.frames()[0].image.as_slice(),
        "different seeds must differ"
    );
}

#[test]
fn full_pipeline_is_deterministic_per_seed() {
    let data = small_dataset(5);
    let d1 = quick_builder(42).train(&data).unwrap();
    let d2 = quick_builder(42).train(&data).unwrap();
    assert_eq!(d1.threshold().value(), d2.threshold().value());
    assert_eq!(d1.training_scores(), d2.training_scores());
    for frame in data.frames().iter().take(5) {
        assert_eq!(
            d1.score(&frame.image).unwrap(),
            d2.score(&frame.image).unwrap()
        );
    }
}

#[test]
fn different_seeds_change_the_model() {
    let data = small_dataset(5);
    let d1 = quick_builder(1).train(&data).unwrap();
    let d2 = quick_builder(2).train(&data).unwrap();
    let img = &data.frames()[0].image;
    assert_ne!(
        d1.score(img).unwrap(),
        d2.score(img).unwrap(),
        "seeds must influence initialisation"
    );
}

#[test]
fn vbp_masks_are_deterministic() {
    let data = small_dataset(9);
    let cnn = quick_builder(3).train_steering_cnn(&data).unwrap();
    let img = &data.frames()[0].image;
    let m1 = saliency::visual_backprop(&cnn, img).unwrap();
    let m2 = saliency::visual_backprop(&cnn, img).unwrap();
    assert_eq!(m1.as_slice(), m2.as_slice());
}

#[test]
fn scoring_has_no_hidden_state() {
    // Scoring the same frame repeatedly — interleaved with other frames —
    // must always return the same value (no cache leakage between calls).
    let data = small_dataset(13);
    let detector = quick_builder(4).train(&data).unwrap();
    let a = &data.frames()[0].image;
    let b = &data.frames()[1].image;
    let first = detector.score(a).unwrap();
    let _ = detector.score(b).unwrap();
    let _ = detector.classify(b).unwrap();
    let again = detector.score(a).unwrap();
    assert_eq!(first, again);
}
