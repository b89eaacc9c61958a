//! Experiment E4 — reproduces **Figure 5**: the three-way histogram
//! comparison on cross-dataset novelty.
//!
//! Protocol (paper §IV.B.2): train on 80 % of the outdoor (DSU stand-in)
//! dataset; test on 500 held-out outdoor frames (target class) and 500
//! indoor (DSI stand-in) frames (novel class); repeat for the three
//! pipelines:
//!
//! * raw images + MSE autoencoder (Richter & Roy baseline — left panel),
//! * VBP masks + MSE autoencoder (middle panel),
//! * VBP masks + SSIM autoencoder (the paper's method — right panel).
//!
//! Expected shape: the baseline's histograms overlap, VBP+MSE separates
//! better, VBP+SSIM separates completely (target mean SSIM ≈ 0.7, novel
//! ≈ 0, all novel samples past the 99th-percentile threshold).

use bench::{
    images_of, indoor_dataset, outdoor_dataset, print_eval_report, print_header, ObsSink, Scale,
};
use neural::serialize::clone_network;
use novelty::eval::evaluate;
use novelty::{BackendKind, NoveltyDetectorBuilder, Preprocessing};
use obs::Scoped;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    let sink = ObsSink::from_env();
    print_header(
        "fig5_dataset_comparison",
        "Figure 5 (dataset comparison)",
        scale,
    );

    let outdoor = outdoor_dataset(scale, scale.train_len() + scale.test_len(), 0xF165);
    let indoor = indoor_dataset(scale, scale.test_len(), 0xF166);
    let (train, held_out) = outdoor.split(scale.train_len() as f32 / outdoor.len() as f32);
    let target_images = images_of(&held_out.sample(scale.test_len(), 50));
    let novel_images = images_of(&indoor.sample(scale.test_len(), 51));
    println!(
        "train {} outdoor frames | test {} outdoor (target) + {} indoor (novel)",
        train.len(),
        target_images.len(),
        novel_images.len()
    );
    println!();

    // One steering CNN shared by both VBP pipelines (the representation
    // under test is the same; only the autoencoder objective differs).
    let base = NoveltyDetectorBuilder::paper()
        .cnn_epochs(scale.cnn_epochs())
        .ae_epochs(scale.ae_epochs())
        .train_fraction(1.0)
        .seed(5);
    println!("training shared steering CNN…");
    let cnn = base.train_steering_cnn(&train, sink.recorder())?;

    let mut summary = Vec::new();
    for kind in BackendKind::legacy() {
        let builder = NoveltyDetectorBuilder::for_kind(kind)
            .cnn_epochs(scale.cnn_epochs())
            .ae_epochs(scale.ae_epochs())
            .train_fraction(1.0)
            .seed(5);
        println!("training {} pipeline…", kind.name());
        let pretrained = match builder.kind() {
            BackendKind::RawMse => None,
            _ => Some(clone_network(&cnn)?),
        };
        // Probes from each pipeline land under its own prefix, so one
        // report distinguishes the three runs.
        let scoped = Scoped::new(sink.recorder(), kind.name());
        let detector = builder.train_with_cnn(&train, pretrained, &scoped)?;
        debug_assert_eq!(
            detector.preprocessing() == Some(Preprocessing::Vbp),
            kind != BackendKind::RawMse
        );
        let report = evaluate(&detector, &target_images, &novel_images, &scoped)?;
        print_eval_report(&format!("[{}]", kind.name()), &report, 20);
        summary.push((kind, report));
    }

    println!("Figure 5 summary (paper: separation improves left→right, VBP+SSIM separates fully)");
    println!("  pipeline    AUROC   overlap   target mean   novel mean   novel detected @99th pct");
    for (kind, r) in &summary {
        println!(
            "  {:<9} {:>6.3}   {:>7.3}   {:>11.4}   {:>10.4}   {:>6.1}%",
            kind.name(),
            r.separation.auroc,
            r.separation.overlap,
            r.separation.target_mean,
            r.separation.novel_mean,
            r.novel_detection_rate * 100.0
        );
    }
    sink.flush("fig5_dataset_comparison");
    Ok(())
}
