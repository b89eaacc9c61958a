//! Experiment A1 (ours) — ablation sweeps over the design choices
//! DESIGN.md calls out.
//!
//! The paper fixes three knobs without sweeping them; this binary
//! measures how sensitive the result is to each, holding everything else
//! at the paper's values:
//!
//! 1. **autoencoder bottleneck width** (paper: 64-16-64),
//! 2. **SSIM window size** (paper: 11×11),
//! 3. **threshold percentile** (paper: 99th) — trade-off between novel
//!    detection rate and false positives.
//!
//! All sweeps run the paper's pipeline (VBP+SSIM) on the cross-dataset
//! task at reduced sample counts (ablations need relative, not absolute,
//! numbers).

use bench::{images_of, indoor_dataset, outdoor_dataset, print_header, Scale};
use metrics::separation::detection_rate;
use neural::serialize::clone_network;
use novelty::eval::evaluate;
use novelty::{Calibrator, ClassifierConfig, NoveltyDetectorBuilder, ReconstructionObjective};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header(
        "ablation_sweeps",
        "design-choice ablations (A1, ours)",
        scale,
    );

    let train_len = scale.train_len() / 2;
    let test_len = scale.test_len() / 2;
    let outdoor = outdoor_dataset(scale, train_len + test_len, 0xAB1);
    let indoor = indoor_dataset(scale, test_len, 0xAB2);
    let (train, held_out) = outdoor.split(train_len as f32 / outdoor.len() as f32);
    let target_images = images_of(&held_out.sample(test_len, 90));
    let novel_images = images_of(&indoor.sample(test_len, 91));

    let base = NoveltyDetectorBuilder::paper()
        .cnn_epochs(scale.cnn_epochs())
        .ae_epochs(scale.ae_epochs())
        .train_fraction(1.0)
        .seed(9);
    println!("training shared steering CNN…");
    let cnn = base.train_steering_cnn(&train, obs::noop())?;

    // ── Sweep 1: bottleneck width ────────────────────────────────────
    println!();
    println!("sweep 1: autoencoder bottleneck (hidden = [64, B, 64]; paper B = 16)");
    println!("  B     AUROC   overlap   target mean   novel mean");
    for bottleneck in [4usize, 8, 16, 32, 64] {
        let cfg = ClassifierConfig {
            hidden: vec![64, bottleneck, 64],
            epochs: scale.ae_epochs(),
            ..ClassifierConfig::paper()
        };
        let detector = base.clone().classifier_config(cfg).train_with_cnn(
            &train,
            Some(clone_network(&cnn)?),
            obs::noop(),
        )?;
        let r = evaluate(&detector, &target_images, &novel_images, obs::noop())?;
        println!(
            "  {bottleneck:<4} {:>6.3}   {:>7.3}   {:>11.4}   {:>10.4}",
            r.separation.auroc,
            r.separation.overlap,
            r.separation.target_mean,
            r.separation.novel_mean
        );
    }

    // ── Sweep 2: SSIM window ─────────────────────────────────────────
    println!();
    println!("sweep 2: SSIM window (paper: 11)");
    println!("  window   AUROC   overlap   target mean   novel mean");
    for window in [5usize, 7, 11, 17, 25] {
        let cfg = ClassifierConfig {
            epochs: scale.ae_epochs(),
            objective: ReconstructionObjective::Ssim { window },
            ..ClassifierConfig::paper()
        };
        let detector = base.clone().classifier_config(cfg).train_with_cnn(
            &train,
            Some(clone_network(&cnn)?),
            obs::noop(),
        )?;
        let r = evaluate(&detector, &target_images, &novel_images, obs::noop())?;
        println!(
            "  {window:<8} {:>5.3}   {:>7.3}   {:>11.4}   {:>10.4}",
            r.separation.auroc,
            r.separation.overlap,
            r.separation.target_mean,
            r.separation.novel_mean
        );
    }

    // ── Sweep 3: threshold percentile ────────────────────────────────
    println!();
    println!("sweep 3: threshold percentile (paper: 99; one detector, threshold re-calibrated)");
    let detector = base.clone().ae_epochs(scale.ae_epochs()).train_with_cnn(
        &train,
        Some(clone_network(&cnn)?),
        obs::noop(),
    )?;
    let target_scores = detector.score_batch(&target_images)?;
    let novel_scores = detector.score_batch(&novel_images)?;
    println!("  percentile   threshold   novel detected   target FPR");
    for percentile in [90.0f32, 95.0, 99.0, 99.9] {
        let threshold = Calibrator::new(percentile)?
            .calibrate(detector.training_scores(), detector.threshold().direction())?;
        let orientation = threshold.direction().orientation();
        let dr = detection_rate(&novel_scores, threshold.value(), orientation)?;
        let fpr = detection_rate(&target_scores, threshold.value(), orientation)?;
        println!(
            "  {percentile:<12} {:>9.4}   {:>13.1}%   {:>9.1}%",
            threshold.value(),
            dr * 100.0,
            fpr * 100.0
        );
    }
    Ok(())
}
