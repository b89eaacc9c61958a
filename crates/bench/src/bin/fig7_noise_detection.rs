//! Experiment E6 — reproduces **Figure 7**: detecting *noisy* versions of
//! in-distribution images.
//!
//! Protocol (paper §IV.B.3): the novel set is the target dataset itself
//! with Gaussian noise added; images pass through VBP (whose masks of
//! noisy images come out garbled) and are scored by the autoencoder under
//! both MSE and SSIM. The paper finds MSE cannot separate the clean and
//! noisy distributions while SSIM can, and that the separation is smaller
//! than the cross-dataset case of Fig. 5 (some lane features survive the
//! noise).

use bench::{images_of, outdoor_dataset, print_eval_report, print_header, Scale};
use neural::serialize::clone_network;
use novelty::eval::evaluate;
use novelty::{BackendKind, NoveltyDetectorBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vision::perturb;

const NOISE_SIGMA: f32 = 0.30;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header(
        "fig7_noise_detection",
        "Figure 7 (noise-novelty histograms)",
        scale,
    );

    let outdoor = outdoor_dataset(scale, scale.train_len() + scale.test_len(), 0xF169);
    let (train, held_out) = outdoor.split(scale.train_len() as f32 / outdoor.len() as f32);
    let clean = held_out.sample(scale.test_len(), 70);
    let mut rng = StdRng::seed_from_u64(71);
    let noisy = clean.map_images(|img| {
        perturb::add_gaussian_noise(img, &mut rng, NOISE_SIGMA)
            .expect("non-negative sigma is always valid")
    });
    let clean_images = images_of(&clean);
    let noisy_images = images_of(&noisy);
    println!(
        "train {} outdoor frames | test {} clean vs {} noisy (σ = {NOISE_SIGMA})",
        train.len(),
        clean_images.len(),
        noisy_images.len()
    );
    println!();

    let base = NoveltyDetectorBuilder::paper()
        .cnn_epochs(scale.cnn_epochs())
        .ae_epochs(scale.ae_epochs())
        .train_fraction(1.0)
        .seed(7);
    println!("training shared steering CNN…");
    let cnn = base.train_steering_cnn(&train, obs::noop())?;

    let mut summary = Vec::new();
    // The figure compares MSE vs SSIM on VBP images; the paper notes the
    // raw-image MSE result is similar to the VBP+MSE panel, so we include
    // all three.
    for kind in [
        BackendKind::VbpMse,
        BackendKind::VbpSsim,
        BackendKind::RawMse,
    ] {
        let builder = NoveltyDetectorBuilder::for_kind(kind)
            .cnn_epochs(scale.cnn_epochs())
            .ae_epochs(scale.ae_epochs())
            .train_fraction(1.0)
            .seed(7);
        println!("training {} pipeline…", kind.name());
        let pretrained = match kind {
            BackendKind::RawMse => None,
            _ => Some(clone_network(&cnn)?),
        };
        let detector = builder.train_with_cnn(&train, pretrained, obs::noop())?;
        let report = evaluate(&detector, &clean_images, &noisy_images, obs::noop())?;
        print_eval_report(&format!("[{}] clean vs noisy", kind.name()), &report, 20);
        summary.push((kind, report));
    }

    println!("Figure 7 summary — paper: MSE fails, SSIM separates, gap smaller than Fig. 5.");
    println!("On this substrate the smaller-gap claim holds but the MSE/SSIM ordering");
    println!("inverts (the synthetic CNN is far more noise-robust); see EXPERIMENTS.md E6.");
    println!("  pipeline    AUROC   overlap   noisy detected @99th pct");
    for (kind, r) in &summary {
        println!(
            "  {:<9} {:>6.3}   {:>7.3}   {:>6.1}%",
            kind.name(),
            r.separation.auroc,
            r.separation.overlap,
            r.novel_detection_rate * 100.0
        );
    }
    Ok(())
}
