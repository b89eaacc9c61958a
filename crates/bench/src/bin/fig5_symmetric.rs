//! Experiment E8 — reproduces the paper's §IV.B.3 closing remark: the
//! symmetric experiment (train on DSI, use DSU as novel data) yields
//! comparable results.
//!
//! Same protocol as `fig5_dataset_comparison` with the worlds swapped:
//! the indoor dataset is the target class, the outdoor dataset the novel
//! class. The paper notes DSU is the more varied dataset, so training on
//! the *less* varied DSI and rejecting DSU should remain easy, while
//! in-class SSIM is expected to be higher (the indoor world is more
//! structured).

use bench::{images_of, indoor_dataset, outdoor_dataset, print_eval_report, print_header, Scale};
use neural::serialize::clone_network;
use novelty::eval::evaluate;
use novelty::{BackendKind, NoveltyDetectorBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header(
        "fig5_symmetric",
        "§IV.B.3 (train on DSI, novel = DSU)",
        scale,
    );

    let indoor = indoor_dataset(scale, scale.train_len() + scale.test_len(), 0xF170);
    let outdoor = outdoor_dataset(scale, scale.test_len(), 0xF171);
    let (train, held_out) = indoor.split(scale.train_len() as f32 / indoor.len() as f32);
    let target_images = images_of(&held_out.sample(scale.test_len(), 80));
    let novel_images = images_of(&outdoor.sample(scale.test_len(), 81));
    println!(
        "train {} indoor frames | test {} indoor (target) + {} outdoor (novel)",
        train.len(),
        target_images.len(),
        novel_images.len()
    );
    println!();

    let base = NoveltyDetectorBuilder::paper()
        .cnn_epochs(scale.cnn_epochs())
        .ae_epochs(scale.ae_epochs())
        .train_fraction(1.0)
        .seed(8);
    println!("training shared steering CNN…");
    let cnn = base.train_steering_cnn(&train, obs::noop())?;

    let mut summary = Vec::new();
    for kind in BackendKind::legacy() {
        let builder = NoveltyDetectorBuilder::for_kind(kind)
            .cnn_epochs(scale.cnn_epochs())
            .ae_epochs(scale.ae_epochs())
            .train_fraction(1.0)
            .seed(8);
        println!("training {} pipeline…", kind.name());
        let pretrained = match kind {
            BackendKind::RawMse => None,
            _ => Some(clone_network(&cnn)?),
        };
        let detector = builder.train_with_cnn(&train, pretrained, obs::noop())?;
        let report = evaluate(&detector, &target_images, &novel_images, obs::noop())?;
        print_eval_report(&format!("[{}]", kind.name()), &report, 20);
        summary.push((kind, report));
    }

    println!("symmetric-experiment summary (paper: comparable to Fig. 5)");
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
    Ok(())
}
