//! Saliency-method comparison: compute VBP, ε-LRP, input-gradient and
//! occlusion masks for the same frame, time them, and dump every mask as
//! a PGM (plus overlays as PPM) for visual inspection.
//!
//! ```text
//! cargo run --release --example saliency_viewer
//! ```

use std::time::Instant;

use metrics::{ssim, SsimConfig};
use saliency::{mask, SaliencyMethod};
use saliency_novelty::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DatasetConfig::outdoor().with_len(100).generate(17);
    println!("training a steering CNN on {} frames…", dataset.len());
    let mut cnn = NoveltyDetectorBuilder::paper()
        .cnn_epochs(4)
        .seed(2)
        .train_steering_cnn(&dataset, obs::noop())?;

    let frame = &dataset.frames()[0].image;
    let out_dir = std::path::Path::new("out");
    std::fs::create_dir_all(out_dir)?;
    vision::io::save_pgm(frame, out_dir.join("saliency_input.pgm"))?;

    let methods = [
        SaliencyMethod::Vbp,
        SaliencyMethod::Lrp { epsilon: 0.01 },
        SaliencyMethod::Gradient,
        SaliencyMethod::Occlusion {
            window: 12,
            stride: 6,
        },
    ];

    let mut masks: Vec<(&'static str, Image)> = Vec::new();
    println!("\nmethod       latency      mask mean");
    println!("---------    ---------    ---------");
    for method in methods {
        let start = Instant::now();
        let m = method.compute(&mut cnn, frame)?;
        let elapsed = start.elapsed();
        println!(
            "{:<12} {:>9.2?}    {:>8.3}",
            method.name(),
            elapsed,
            m.mean()
        );
        vision::io::save_pgm(&m, out_dir.join(format!("saliency_{}.pgm", method.name())))?;
        let over = mask::overlay(frame, &m)?;
        vision::io::save_ppm(
            &over,
            out_dir.join(format!("saliency_{}_overlay.ppm", method.name())),
        )?;
        masks.push((method.name(), m));
    }

    println!("\npairwise mask agreement (SSIM, 11x11):");
    for i in 0..masks.len() {
        for j in (i + 1)..masks.len() {
            let s = ssim(&masks[i].1, &masks[j].1, &SsimConfig::default())?;
            println!("  {:<9} vs {:<9}: {s:+.3}", masks[i].0, masks[j].0);
        }
    }
    println!("\nwrote masks and overlays to {}", out_dir.display());
    println!("(paper §III.B: VBP is the fastest of the model-inspection methods by a wide margin)");
    Ok(())
}
