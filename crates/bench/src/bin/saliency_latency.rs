//! Experiment E7 — the paper's §III.B claim: VisualBackProp is an order
//! of magnitude faster than LRP while producing comparable masks.
//!
//! Measures per-image mask latency of VBP, ε-LRP, vanilla gradient
//! saliency and (coarse) occlusion probing on the compact PilotNet at the
//! paper's 60×160 input. Weights are random — saliency latency does not
//! depend on training. Each method is warmed up once, then timed over
//! `Scale::test_len` rounds (500 at full scale, 20 at quick) that call
//! every method once in turn, so host drift hits all four alike; the
//! table gives the median per image and its ratio to VBP's.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::{print_header, Scale};
use neural::models::{pilotnet, PilotNetConfig};
use saliency::{
    gradient_saliency, lrp, occlusion_saliency, visual_backprop, LrpConfig, OcclusionConfig,
};
use vision::Image;

/// One timed saliency method: its name and a call that computes one mask.
type Probe<'a> = (
    &'static str,
    Box<dyn FnMut() -> saliency::Result<Image> + 'a>,
);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header("saliency_latency", "§III.B (VBP vs LRP latency)", scale);

    let net = pilotnet(&PilotNetConfig::compact(), 1)?;
    let mut grad_net = pilotnet(&PilotNetConfig::compact(), 1)?;
    let img = Image::from_fn(scale.height(), scale.width(), |y, x| {
        ((y * 7 + x * 3) % 23) as f32 / 22.0
    })?;
    let occlusion = OcclusionConfig {
        window: 16,
        stride: 16,
        fill: 0.5,
    };
    let mut probes: Vec<Probe> = vec![
        ("VBP", Box::new(|| visual_backprop(&net, &img))),
        ("ε-LRP", Box::new(|| lrp(&net, &img, &LrpConfig::default()))),
        (
            "input gradient",
            Box::new(|| gradient_saliency(&mut grad_net, &img)),
        ),
        (
            "occlusion (16 px / stride 16)",
            Box::new(|| occlusion_saliency(&net, &img, &occlusion)),
        ),
    ];

    let iters = scale.test_len();
    for (_, probe) in &mut probes {
        black_box(probe()?);
    }
    let mut samples = vec![Vec::<Duration>::with_capacity(iters); probes.len()];
    for _ in 0..iters {
        for ((_, probe), times) in probes.iter_mut().zip(&mut samples) {
            let start = Instant::now();
            black_box(probe()?);
            times.push(start.elapsed());
        }
    }

    println!(
        "median latency per {}×{} image over {iters} rounds:",
        img.height(),
        img.width()
    );
    println!("| method | median latency | vs VBP |");
    println!("|---|---|---|");
    let medians: Vec<f64> = samples
        .iter_mut()
        .map(|times| {
            times.sort();
            times[times.len() / 2].as_secs_f64()
        })
        .collect();
    for ((name, _), median) in probes.iter().zip(&medians) {
        println!(
            "| {name} | {:.3} ms | {:.1}× |",
            median * 1e3,
            median / medians[0]
        );
    }
    println!();
    println!("(paper: VBP is an order of magnitude faster than LRP)");
    Ok(())
}
