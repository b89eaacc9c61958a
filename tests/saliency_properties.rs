//! Cross-crate saliency properties: the claims of Figs. 2 and 4 at
//! reduced scale, plus agreement checks between the saliency methods.

use novelty::NoveltyDetectorBuilder;
use saliency::mask::concentration_ratio;
use saliency::{lrp, visual_backprop, LrpConfig};
use saliency_novelty::prelude::*;

fn indoor_data(len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::indoor()
        .with_len(len)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(seed)
}

#[test]
fn vbp_concentration_measurement_is_stable_and_in_range() {
    // Fig. 2's *measurement machinery*: concentration ratios of VBP
    // masks against ground-truth lane pixels must be finite, positive and
    // reproducible. (The paper's trained ≫ random claim itself reproduces
    // only weakly on this substrate — our compact CNN solves steering
    // with near-initialisation conv features, so trained and random-label
    // masks stay similar; see EXPERIMENTS.md E1 for the measured numbers.
    // Asserting a strict ordering here would codify a flaky result.)
    let data = indoor_data(60, 40);
    let builder = NoveltyDetectorBuilder::paper().cnn_epochs(4).seed(11);
    let trained = builder.train_steering_cnn(&data, obs::noop()).unwrap();

    let probe = data.sample(8, 3);
    let mut ratios = Vec::new();
    for frame in probe.frames() {
        let mt = visual_backprop(&trained, &frame.image).unwrap();
        ratios.push(concentration_ratio(&mt, &frame.lane_mask, 0.5).unwrap());
    }
    for &r in &ratios {
        assert!(r.is_finite() && r > 0.0, "degenerate concentration {r}");
        assert!(r < 50.0, "implausible concentration {r}");
    }
    // Reproducible: recomputing on the same frame gives the same ratio.
    let f = &probe.frames()[0];
    let again = concentration_ratio(
        &visual_backprop(&trained, &f.image).unwrap(),
        &f.lane_mask,
        0.5,
    )
    .unwrap();
    assert_eq!(again, ratios[0]);
}

#[test]
fn vbp_and_lrp_agree_on_where_saliency_is() {
    // §III.B claims VBP produces masks comparable to LRP. Check rank
    // agreement: the mean VBP saliency inside LRP's top-quartile region
    // must exceed its mean outside.
    let data = indoor_data(40, 41);
    let cnn = NoveltyDetectorBuilder::paper()
        .cnn_epochs(3)
        .seed(12)
        .train_steering_cnn(&data, obs::noop())
        .unwrap();
    let img = &data.frames()[0].image;
    let vbp_mask = visual_backprop(&cnn, img).unwrap();
    let lrp_mask = lrp(&cnn, img, &LrpConfig::default()).unwrap();

    let mut lrp_sorted: Vec<f32> = lrp_mask.as_slice().to_vec();
    lrp_sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q75 = lrp_sorted[(lrp_sorted.len() * 3) / 4];

    let mut inside = (0.0f32, 0usize);
    let mut outside = (0.0f32, 0usize);
    for (v, l) in vbp_mask.as_slice().iter().zip(lrp_mask.as_slice()) {
        if *l >= q75 {
            inside = (inside.0 + v, inside.1 + 1);
        } else {
            outside = (outside.0 + v, outside.1 + 1);
        }
    }
    let inside_mean = inside.0 / inside.1 as f32;
    let outside_mean = outside.0 / outside.1 as f32;
    assert!(
        inside_mean > outside_mean,
        "VBP mass inside LRP hot region {inside_mean} vs outside {outside_mean}"
    );
}

#[test]
fn vbp_mask_changes_with_the_scene_not_just_the_network() {
    let data = indoor_data(30, 42);
    let cnn = NoveltyDetectorBuilder::paper()
        .cnn_epochs(2)
        .seed(13)
        .train_steering_cnn(&data, obs::noop())
        .unwrap();
    let m0 = visual_backprop(&cnn, &data.frames()[0].image).unwrap();
    let m1 = visual_backprop(&cnn, &data.frames()[1].image).unwrap();
    assert_ne!(m0.as_slice(), m1.as_slice());
}

#[test]
fn noisy_input_garbles_the_vbp_mask() {
    // The mechanism behind Fig. 7: noise on the input degrades the VBP
    // mask itself (lower structural similarity to the clean mask than a
    // brightness change causes).
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data = indoor_data(40, 43);
    let cnn = NoveltyDetectorBuilder::paper()
        .cnn_epochs(3)
        .seed(14)
        .train_steering_cnn(&data, obs::noop())
        .unwrap();
    let img = &data.frames()[0].image;
    let clean_mask = visual_backprop(&cnn, img).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let noisy = vision::perturb::add_gaussian_noise(img, &mut rng, 0.3).unwrap();
    let noisy_mask = visual_backprop(&cnn, &noisy).unwrap();
    let bright = vision::perturb::adjust_brightness(img, 0.08);
    let bright_mask = visual_backprop(&cnn, &bright).unwrap();

    let cfg = metrics::SsimConfig::with_window(7);
    let s_noise = metrics::ssim(&clean_mask, &noisy_mask, &cfg).unwrap();
    let s_bright = metrics::ssim(&clean_mask, &bright_mask, &cfg).unwrap();
    assert!(
        s_bright > s_noise,
        "brightness mask sim {s_bright} should exceed noise mask sim {s_noise}"
    );
}
