//! Cross-dataset novelty detection — a reduced interactive version of the
//! paper's central experiment (Fig. 5).
//!
//! ```text
//! cargo run --release --example cross_dataset
//! ```
//!
//! Trains all three pipeline variants (raw+MSE baseline, VBP+MSE
//! ablation, VBP+SSIM method) on the clear outdoor world and scores
//! held-out clear frames against a *composed scenario shift*: the same
//! world re-rendered through the seeded fog+night modifier stack (the
//! scenario-generator analogue of the paper's dataset switch — same
//! geometry, different visual domain). The full-scale version lives in
//! `crates/bench/src/bin/fig5_dataset_comparison.rs`; the full scenario
//! matrix in `crates/bench/src/bin/evalgrid.rs`.

use metrics::histogram::Histogram;
use novelty::eval::evaluate;
use novelty::{BackendKind, NoveltyDetectorBuilder};
use saliency_novelty::prelude::*;
use simdrive::ModifierStack;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outdoor = DatasetConfig::outdoor().with_len(150).generate(10);
    let scenario = ModifierStack::parse("fog@0.8+night@0.6")?;
    let (train, held_out) = outdoor.split(0.8);
    let shifted = held_out.modified(&scenario, 11);
    let target: Vec<Image> = held_out.frames().iter().map(|f| f.image.clone()).collect();
    let novel: Vec<Image> = shifted.frames().iter().map(|f| f.image.clone()).collect();
    println!(
        "train: {} clear outdoor | test: {} clear (target) vs {} {} (novel)\n",
        train.len(),
        target.len(),
        novel.len(),
        scenario.spec()
    );

    for kind in BackendKind::all() {
        println!("=== {} ===", kind.name());
        let detector = NoveltyDetectorBuilder::for_kind(kind)
            .cnn_epochs(3)
            .ae_epochs(12)
            .seed(5)
            .train(&train)?;
        let report = evaluate(&detector, &target, &novel, obs::noop())?;

        let all: Vec<f32> = report
            .target_scores
            .iter()
            .chain(&report.novel_scores)
            .copied()
            .collect();
        let lo = all.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = all.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (name, scores) in [
            ("target", &report.target_scores),
            ("novel ", &report.novel_scores),
        ] {
            let hist = Histogram::from_values(scores, lo, hi.max(lo + 1e-6), 12)?;
            println!("{name} scores:");
            for row in hist.render_rows(40) {
                println!("  {row}");
            }
        }
        println!("{report}\n");
    }
    println!("expected shape (paper): separation improves raw+mse → vbp+mse → vbp+ssim");
    Ok(())
}
