//! Cross-crate saliency properties: the claims of Figs. 2 and 4 at
//! reduced scale, plus agreement checks between the saliency methods.

use novelty::NoveltyDetectorBuilder;
use saliency::mask::concentration_ratio;
use saliency::{lrp, visual_backprop, LrpConfig, SaliencyError};
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

/// VisualBackProp as it ran before the walk stopped at the last conv
/// block: `forward_collect` through the whole network (steering head
/// included), channel means from a zeroed map, the per-source scatter
/// `upsample_sum` with its exact-zero skip, the per-pixel bilinear
/// resize, a copied crop, a product tensor per level and a two-pass
/// `normalize_minmax`.
mod reference {
    use ndtensor::{Conv2dSpec, Tensor};
    use neural::{LayerKind, Network};
    use vision::Image;

    fn channel_mean(act: &Tensor) -> Tensor {
        let [_, c, h, w] = <[usize; 4]>::try_from(act.shape().dims()).unwrap();
        let mut out = vec![0.0f32; h * w];
        for plane in act.as_slice().chunks(h * w).take(c) {
            for (acc, &v) in out.iter_mut().zip(plane) {
                *acc += v;
            }
        }
        let inv = 1.0 / c as f32;
        for v in &mut out {
            *v *= inv;
        }
        Tensor::from_vec([h, w], out).unwrap()
    }

    fn upsample_sum(map: &Tensor, kh: usize, kw: usize, sh: usize, sw: usize) -> Tensor {
        let (h, w) = (map.shape().dims()[0], map.shape().dims()[1]);
        let (out_h, out_w) = ((h - 1) * sh + kh, (w - 1) * sw + kw);
        let mut out = vec![0.0f32; out_h * out_w];
        for y in 0..h {
            for x in 0..w {
                let v = map.as_slice()[y * w + x];
                if v == 0.0 {
                    continue;
                }
                for ky in 0..kh {
                    for kx in 0..kw {
                        out[(y * sh + ky) * out_w + x * sw + kx] += v;
                    }
                }
            }
        }
        Tensor::from_vec([out_h, out_w], out).unwrap()
    }

    fn resize_bilinear(map: &Tensor, out_h: usize, out_w: usize) -> Tensor {
        let (h, w) = (map.shape().dims()[0], map.shape().dims()[1]);
        let data = map.as_slice();
        let (scale_y, scale_x) = (h as f32 / out_h as f32, w as f32 / out_w as f32);
        let mut out = Vec::new();
        for oy in 0..out_h {
            let fy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (h - 1) as f32);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let ty = fy - y0 as f32;
            for ox in 0..out_w {
                let fx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (w - 1) as f32);
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(w - 1);
                let tx = fx - x0 as f32;
                let top = data[y0 * w + x0] * (1.0 - tx) + data[y0 * w + x1] * tx;
                let bot = data[y1 * w + x0] * (1.0 - tx) + data[y1 * w + x1] * tx;
                out.push(top * (1.0 - ty) + bot * ty);
            }
        }
        Tensor::from_vec([out_h, out_w], out).unwrap()
    }

    fn deconv_to(
        mask: &Tensor,
        k: (usize, usize),
        spec: Conv2dSpec,
        th: usize,
        tw: usize,
    ) -> Tensor {
        let up = upsample_sum(mask, k.0, k.1, spec.stride.0, spec.stride.1);
        let (ph, pw) = spec.padding;
        let (uh, uw) = (up.shape().dims()[0], up.shape().dims()[1]);
        let cropped = if (ph > 0 || pw > 0) && uh > 2 * ph && uw > 2 * pw {
            let mut data = Vec::new();
            for y in ph..uh - ph {
                data.extend_from_slice(&up.as_slice()[y * uw + pw..y * uw + uw - pw]);
            }
            Tensor::from_vec([uh - 2 * ph, uw - 2 * pw], data).unwrap()
        } else {
            up
        };
        if cropped.shape().dims() == [th, tw] {
            cropped
        } else {
            resize_bilinear(&cropped, th, tw)
        }
    }

    /// The mask before min-max normalisation, so a caller can tell a
    /// non-finite one.
    pub fn raw_mask(network: &Network, image: &Image) -> Tensor {
        let layers = network.layers();
        let mut blocks = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            if let LayerKind::Conv2d { kernel, spec, .. } = layer.kind() {
                let act = match layers.get(i + 1).map(|l| l.kind()) {
                    Some(LayerKind::ReLU) => i + 1,
                    _ => i,
                };
                blocks.push((act, kernel, spec));
            }
        }
        let input = image
            .tensor()
            .reshape([1, 1, image.height(), image.width()])
            .unwrap();
        let acts = network.forward_collect(&input).unwrap();
        let averages: Vec<Tensor> = blocks.iter().map(|b| channel_mean(&acts[b.0])).collect();
        let mut mask = averages.last().unwrap().clone();
        for j in (1..blocks.len()).rev() {
            let target = &averages[j - 1];
            let (th, tw) = (target.shape().dims()[0], target.shape().dims()[1]);
            let up = deconv_to(&mask, blocks[j].1, blocks[j].2, th, tw);
            mask = &up * target;
        }
        deconv_to(
            &mask,
            blocks[0].1,
            blocks[0].2,
            image.height(),
            image.width(),
        )
    }
}

/// Mask bits with every NaN mapped to one pattern: arithmetic leaves a
/// NaN's payload unspecified.
fn mask_bits(mask: &Image) -> Vec<u32> {
    mask.as_slice()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// The walk that stops at the last conv block, gathers its upsampling,
/// reads contiguous bilinear runs and multiplies in place gives the
/// reference's normalised mask bit for bit: compact and paper PilotNets,
/// at random initialisation and trained, on rendered frames and a frame
/// with exact zeros and negative pixels. A frame holding NaN and ±∞ gives
/// a non-finite reference mask, and `visual_backprop` fails it with
/// `SaliencyError::NonFinite` instead of normalising it to zeros.
#[test]
fn vbp_masks_match_the_full_forward_reference_bitwise() {
    use neural::models::{pilotnet, PilotNetConfig};

    let frames = DatasetConfig::outdoor()
        .with_len(3)
        .with_size(60, 160)
        .with_supersample(1)
        .generate(44);
    let mut images: Vec<Image> = frames.frames().iter().map(|f| f.image.clone()).collect();
    images.push(Image::from_fn(60, 160, |y, x| ((y * 7 + x * 3) % 5) as f32 / 2.0 - 0.5).unwrap());
    let mut hostile = images[0].clone();
    hostile.put(30, 80, f32::NAN);
    hostile.put(5, 5, f32::INFINITY);
    hostile.put(50, 150, f32::NEG_INFINITY);
    images.push(hostile);

    let trained = NoveltyDetectorBuilder::paper()
        .cnn_epochs(1)
        .seed(15)
        .train_steering_cnn(&frames, obs::noop())
        .unwrap();
    let nets = [
        ("compact", pilotnet(&PilotNetConfig::compact(), 3).unwrap()),
        ("paper", pilotnet(&PilotNetConfig::paper(), 4).unwrap()),
        ("trained", trained),
    ];
    for (name, net) in &nets {
        for (i, img) in images.iter().enumerate() {
            let raw = reference::raw_mask(net, img);
            let got = visual_backprop(net, img);
            if raw.has_non_finite() {
                assert!(
                    matches!(got, Err(SaliencyError::NonFinite { .. })),
                    "{name} network, image {i}: {got:?}"
                );
                continue;
            }
            let want = Image::from_tensor(raw.normalize_minmax()).unwrap();
            assert_eq!(
                mask_bits(&got.unwrap()),
                mask_bits(&want),
                "{name} network, image {i}"
            );
        }
        let hostile = images.last().unwrap();
        assert!(reference::raw_mask(net, hostile).has_non_finite(), "{name}");
    }
}

/// VisualBackProp no longer runs the steering head, yet rejects exactly
/// the frame sizes the full network rejects: sizes that break a conv,
/// sizes that pass every conv but give the head's first `Dense` the wrong
/// feature count, and sizes the whole network accepts.
#[test]
fn vbp_rejects_exactly_the_frames_the_network_rejects() {
    use neural::models::{pilotnet, PilotNetConfig};

    let net = pilotnet(&PilotNetConfig::compact(), 5).unwrap();
    let (mut accepted, mut head_rejected) = (0, 0);
    for h in [8usize, 30, 58, 59, 60, 61, 62, 63, 64] {
        for w in [40usize, 158, 159, 160, 161, 162, 163] {
            let img = Image::from_fn(h, w, |y, x| ((y + 2 * x) % 7) as f32 / 6.0).unwrap();
            let full = net.forward(&img.tensor().reshape([1, 1, h, w]).unwrap());
            let vbp = visual_backprop(&net, &img);
            assert_eq!(vbp.is_ok(), full.is_ok(), "{h}x{w}: {:?}", vbp.err());
            if let Ok(mask) = vbp {
                assert_eq!((mask.height(), mask.width()), (h, w));
                accepted += 1;
            } else if h >= 58 && w >= 158 {
                head_rejected += 1;
            }
        }
    }
    assert!(
        accepted >= 2 && head_rejected >= 2,
        "{accepted} accepted, {head_rejected} head-rejected"
    );
}
