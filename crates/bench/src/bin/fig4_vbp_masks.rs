//! Experiment E3 — reproduces **Figure 4**: example VBP masks for both
//! datasets.
//!
//! The paper shows, for one frame of each dataset (DSI and DSU), the
//! input image, its VBP mask, and the mask overlaid on the input, and
//! argues the activations are where a human driver would look.
//!
//! We train a compact steering CNN per world, dump the same three-panel
//! stack as PGM/PPM files, and report the quantitative counterpart: the
//! concentration of mask mass on ground-truth lane pixels.

use bench::{dump_pgm, dump_ppm, print_header, world_dataset, Scale};
use novelty::NoveltyDetectorBuilder;
use saliency::mask::{area_fraction, concentration_ratio, mass_fraction_on, overlay};
use saliency::visual_backprop;
use simdrive::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header("fig4_vbp_masks", "Figure 4 (VBP mask examples)", scale);

    for world in [World::Indoor, World::Outdoor] {
        let data = world_dataset(world, scale, scale.train_len(), 0xF164);
        let (train, test) = data.split(0.8);
        println!("[{world}] training steering CNN ({} frames)…", train.len());
        let cnn = NoveltyDetectorBuilder::paper()
            .cnn_epochs(scale.cnn_epochs())
            .seed(4)
            .train_steering_cnn(&train, obs::noop())?;

        let frame = &test.frames()[0];
        let mask = visual_backprop(&cnn, &frame.image)?;
        let over = overlay(&frame.image, &mask)?;

        let mass = mass_fraction_on(&mask, &frame.lane_mask, 0.5)?;
        let area = area_fraction(&frame.lane_mask, 0.5);
        let conc = concentration_ratio(&mask, &frame.lane_mask, 0.5)?;
        println!(
            "[{world}] mask mass on lane pixels: {:.1}% (lane area {:.1}% → concentration {conc:.2}x)",
            mass * 100.0,
            area * 100.0
        );

        for (suffix, img) in [("input", &frame.image), ("mask", &mask)] {
            if let Some(p) = dump_pgm(&format!("fig4_{world}_{suffix}"), img) {
                println!("  wrote {}", p.display());
            }
        }
        if let Some(p) = dump_ppm(&format!("fig4_{world}_overlay"), &over) {
            println!("  wrote {}", p.display());
        }
        println!();
    }
    println!("(paper: qualitative — masks highlight lane markings / road edges in both datasets)");
    Ok(())
}
