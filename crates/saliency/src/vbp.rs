//! VisualBackProp (Bojarski et al., ICRA 2018).
//!
//! The algorithm, as described in the paper's §III.B:
//!
//! 1. run a forward pass up to the last convolutional block, keeping each
//!    block's feature maps (after their ReLU),
//! 2. average each block's feature maps over channels,
//! 3. starting from the deepest averaged map, repeatedly *deconvolve* the
//!    running mask up to the previous block's resolution (transposed
//!    convolution with the block's kernel/stride geometry) and multiply
//!    it pointwise with that block's averaged map,
//! 4. deconvolve once more to input resolution and normalise.
//!
//! The pointwise products make the mask keep only pixels that excite
//! *every* level of the feature hierarchy, which is what lets the paper
//! use it to strip steering-irrelevant detail from images.

use std::cell::RefCell;

use ndtensor::{resize_bilinear, scratch, upsample_sum, Conv2dSpec, Tensor};
use neural::{Layer, LayerKind, Network};
use vision::Image;

use crate::{Result, SaliencyError};

/// Reusable per-thread buffers for [`visual_backprop`]: the activation
/// and averaged-map vectors keep their capacity between frames (their
/// tensors draw storage from [`ndtensor::scratch`]), so a warmed stream
/// computes masks without heap allocation.
#[derive(Default)]
struct VbpWorkspace {
    blocks: Vec<ConvBlock>,
    acts: Vec<Tensor>,
    averages: Vec<Tensor>,
}

thread_local! {
    static VBP_WORKSPACE: RefCell<VbpWorkspace> = RefCell::new(VbpWorkspace::default());
}

/// One convolutional block discovered in a network: the conv layer plus
/// the activation (post-ReLU when present) that VBP averages.
pub(crate) struct ConvBlock {
    /// Index of the layer whose output (the activation) VBP averages.
    pub act_index: usize,
    /// Kernel size of the conv layer.
    pub kernel: (usize, usize),
    /// Stride/padding of the conv layer.
    pub spec: Conv2dSpec,
}

/// Finds the conv blocks of a network in execution order, refilling a
/// reused vector.
fn conv_blocks_into(network: &Network, blocks: &mut Vec<ConvBlock>) {
    let layers = network.layers();
    blocks.clear();
    for (i, layer) in layers.iter().enumerate() {
        if let LayerKind::Conv2d { kernel, spec, .. } = layer.kind() {
            // Use the ReLU right after the conv when present, as VBP
            // averages activated feature maps.
            let act_index = match layers.get(i + 1).map(|l| l.kind()) {
                Some(LayerKind::ReLU) => i + 1,
                _ => i,
            };
            blocks.push(ConvBlock {
                act_index,
                kernel,
                spec,
            });
        }
    }
}

/// Converts a grayscale image to a `[1, 1, H, W]` batch tensor.
pub(crate) fn image_to_batch(image: &Image) -> Result<Tensor> {
    Ok(image
        .tensor()
        .reshape([1, 1, image.height(), image.width()])?)
}

/// Channel-average of a `[1, C, h, w]` activation into an `[h, w]` map.
pub(crate) fn channel_mean(activation: &Tensor) -> Result<Tensor> {
    if activation.rank() != 4 || activation.shape().dims()[0] != 1 {
        return Err(SaliencyError::invalid(
            "channel_mean",
            format!(
                "expected [1, C, h, w] activation, got {}",
                activation.shape()
            ),
        ));
    }
    let [c, h, w] = [
        activation.shape().dims()[1],
        activation.shape().dims()[2],
        activation.shape().dims()[3],
    ];
    let data = activation.as_slice();
    let mut out = scratch::take(h * w);
    out.resize(h * w, 0.0);
    for ci in 0..c {
        let plane = &data[ci * h * w..(ci + 1) * h * w];
        for (acc, &v) in out.iter_mut().zip(plane) {
            *acc += v;
        }
    }
    let inv = 1.0 / c as f32;
    for v in &mut out {
        *v *= inv;
    }
    Ok(Tensor::from_vec([h, w], out)?)
}

/// Deconvolves (upscales) a mask through a conv layer's geometry to the
/// layer's *input* resolution `(target_h, target_w)`.
pub(crate) fn deconv_to(
    mask: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    target_h: usize,
    target_w: usize,
) -> Result<Tensor> {
    deconv_gated(mask, kernel, spec, (target_h, target_w), None)
}

/// [`deconv_to`] followed, when `gate` is given, by the pointwise product
/// `up · gate` (`gate` has the target's shape). The product is taken in
/// place, or fused with the crop of a padded conv's border, so no level
/// of the walk copies a map only to multiply it.
fn deconv_gated(
    mask: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    (target_h, target_w): (usize, usize),
    gate: Option<&Tensor>,
) -> Result<Tensor> {
    let mut up = upsample_sum(mask, kernel.0, kernel.1, spec.stride.0, spec.stride.1)?;
    // Remove the zero padding the forward conv added, when possible.
    let (ph, pw) = spec.padding;
    let (uh, uw) = (up.shape().dims()[0], up.shape().dims()[1]);
    if (ph > 0 || pw > 0) && uh > 2 * ph && uw > 2 * pw {
        let (ch, cw) = (uh - 2 * ph, uw - 2 * pw);
        let mut data = scratch::take_stale(ch * cw);
        let rows = up.as_slice().chunks_exact(uw).skip(ph);
        for (y, (dst, src)) in data.chunks_exact_mut(cw).zip(rows).enumerate() {
            let src = &src[pw..pw + cw];
            match gate {
                Some(g) if (ch, cw) == (target_h, target_w) => {
                    let g = &g.as_slice()[y * cw..(y + 1) * cw];
                    for ((d, &u), &gv) in dst.iter_mut().zip(src).zip(g) {
                        *d = u * gv;
                    }
                }
                _ => dst.copy_from_slice(src),
            }
        }
        let cropped = Tensor::from_vec([ch, cw], data)?;
        if (ch, cw) == (target_h, target_w) {
            return Ok(cropped);
        }
        up = cropped;
    }
    // Strided convolutions may not tile the input exactly; settle any
    // remainder with a bilinear resize.
    if up.shape().dims() != [target_h, target_w] {
        up = resize_bilinear(&up, target_h, target_w)?;
    }
    if let Some(g) = gate {
        for (u, &gv) in up.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *u *= gv;
        }
    }
    Ok(up)
}

/// Checks that the layers after the last conv block accept its output
/// `last` (`[N, C, h, w]`), as running them would: VisualBackProp stops at
/// that block, yet an image the full network rejects must still be
/// rejected. `Flatten`, a `Dense` whose feature count matches and the
/// activations pass by shape through [`LayerKind`]; a head with a
/// mismatched or unflattened `Dense` is run for real so the layer that
/// rejects the input produces the error.
fn check_head(head: &[Box<dyn Layer>], last: &Tensor) -> Result<()> {
    let dims = last.shape().dims();
    // `(batch, features)` once the map is flat.
    let mut flat: Option<(usize, usize)> = None;
    for layer in head {
        match (layer.kind(), flat) {
            (LayerKind::ReLU | LayerKind::Sigmoid | LayerKind::Tanh, _)
            | (LayerKind::Flatten, Some(_)) => {}
            (LayerKind::Flatten, None) => flat = Some((dims[0], dims[1..].iter().product())),
            (
                LayerKind::Dense {
                    in_features,
                    out_features,
                },
                Some((n, f)),
            ) if f == in_features => flat = Some((n, out_features)),
            _ => return run_head(head, last),
        }
    }
    Ok(())
}

/// Runs `layers` on `input`, keeping only the error.
fn run_head(layers: &[Box<dyn Layer>], input: &Tensor) -> Result<()> {
    let mut x = None;
    for layer in layers {
        x = Some(layer.forward(x.as_ref().unwrap_or(input))?);
    }
    Ok(())
}

/// Computes the VisualBackProp saliency mask of `image` under `network`,
/// normalised to `[0, 1]` at input resolution.
///
/// # Errors
///
/// Fails when the network contains no convolutional layers or rejects the
/// image's dimensions, and with [`SaliencyError::NonFinite`] when the
/// mask holds a NaN or `±∞` (a network whose activations overflow).
///
/// # Example
///
/// ```
/// use neural::models::{pilotnet, PilotNetConfig};
/// use saliency::visual_backprop;
/// use vision::Image;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = pilotnet(&PilotNetConfig::compact(), 3)?;
/// let frame = Image::from_fn(60, 160, |y, x| ((y + x) % 9) as f32 / 8.0)?;
/// let mask = visual_backprop(&net, &frame)?;
/// assert_eq!((mask.height(), mask.width()), (60, 160));
/// # Ok(())
/// # }
/// ```
pub fn visual_backprop(network: &Network, image: &Image) -> Result<Image> {
    VBP_WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        let VbpWorkspace {
            blocks,
            acts,
            averages,
        } = &mut *ws;
        conv_blocks_into(network, blocks);
        let Some(last) = blocks.last().map(|b| b.act_index) else {
            return Err(SaliencyError::invalid(
                "visual_backprop",
                "network contains no convolutional layers",
            ));
        };
        let input = image_to_batch(image)?;
        // Forward through the last conv block only: no mask reads the
        // head's output, so the head is checked by shape, not run.
        let layers = network.layers();
        acts.clear();
        for layer in &layers[..=last] {
            let x = match acts.last() {
                Some(prev) => layer.forward(prev)?,
                None => layer.forward(&input)?,
            };
            acts.push(x);
        }
        check_head(&layers[last + 1..], &acts[last])?;

        // Channel-averaged feature map per block, shallow → deep.
        averages.clear();
        for b in blocks.iter() {
            averages.push(channel_mean(&acts[b.act_index])?);
        }
        acts.clear();

        // The deepest averaged map seeds the mask; popping it (instead of
        // cloning) hands its pooled storage straight to the walk below.
        let mut mask = averages.pop().ok_or_else(|| {
            SaliencyError::invalid("visual_backprop", "network has no conv blocks")
        })?;
        // Walk deep → shallow, upscaling through each conv's geometry and
        // gating with the shallower averaged map.
        for j in (1..blocks.len()).rev() {
            let target = &averages[j - 1];
            let dims = (target.shape().dims()[0], target.shape().dims()[1]);
            mask = deconv_gated(&mask, blocks[j].kernel, blocks[j].spec, dims, Some(target))?;
        }
        averages.clear();
        // Final deconvolution through the first conv layer to input size.
        let mut final_mask = deconv_to(
            &mask,
            blocks[0].kernel,
            blocks[0].spec,
            image.height(),
            image.width(),
        )?;
        // Min-max normalisation maps a non-finite map to all zeros, which
        // would read as "nothing salient": fail instead.
        if final_mask.has_non_finite() {
            return Err(SaliencyError::NonFinite {
                op: "visual_backprop",
            });
        }
        final_mask.normalize_minmax_in_place();
        Ok(Image::from_tensor(final_mask)?)
    })
}

/// Computes the VisualBackProp masks of a whole image set, in order.
///
/// Each mask is computed exactly as [`visual_backprop`] would, so the
/// result is bit-identical to mapping the single-image function over the
/// images. On failure the error of the first failing image is returned.
///
/// The whole batch runs under a `vbp` span of `recorder`,
/// `vbp.masks_computed` counts the masks produced, `vbp.batch_size`
/// collects batch-size samples, and the scratch pool's activity during
/// the batch lands under `vbp.scratch.*`. Pass [`obs::noop`] to record
/// nothing; recording never changes the returned masks.
///
/// # Errors
///
/// Same conditions as [`visual_backprop`], per image.
pub fn visual_backprop_batch(
    network: &Network,
    images: &[Image],
    recorder: &dyn obs::Recorder,
) -> Result<Vec<Image>> {
    let scratch_before = recorder.enabled().then(obs::scratch_snapshot);
    let masks = obs::time(recorder, "vbp", || {
        images
            .iter()
            .map(|img| visual_backprop(network, img))
            .collect::<Result<Vec<_>>>()
    })?;
    recorder.add("vbp.masks_computed", masks.len() as u64);
    recorder.observe("vbp.batch_size", images.len() as f64);
    if let Some(before) = scratch_before {
        obs::record_scratch_delta(&obs::Scoped::new(recorder, "vbp"), before);
    }
    Ok(masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndtensor::Conv2dSpec;
    use neural::layer::{Conv2d, Dense, Flatten, ReLU, Tanh};
    use neural::models::{pilotnet, PilotNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_image() -> Image {
        // A bright diagonal band on a dark background.
        Image::from_fn(20, 30, |y, x| {
            if (x as i64 - y as i64).unsigned_abs() < 3 {
                0.9
            } else {
                0.05
            }
        })
        .unwrap()
    }

    #[test]
    fn identity_conv_network_yields_normalized_activation() {
        // conv(1→1, 1×1, weight 1, bias 0) + ReLU: VBP mask must equal the
        // min-max-normalised ReLU output = normalised image.
        let conv = Conv2d::from_parts(
            Tensor::ones([1, 1, 1, 1]),
            Tensor::zeros([1]),
            Conv2dSpec::unit(),
        )
        .unwrap();
        let net = Network::new().with(conv).with(ReLU::new());
        let img = test_image();
        let mask = visual_backprop(&net, &img).unwrap();
        let expect = img.normalize_minmax();
        for (m, e) in mask.as_slice().iter().zip(expect.as_slice()) {
            assert!((m - e).abs() < 1e-5);
        }
    }

    #[test]
    fn mask_is_input_sized_and_unit_range() {
        let net = pilotnet(&PilotNetConfig::compact(), 11).unwrap();
        let img = Image::from_fn(60, 160, |y, x| ((y * 3 + x) % 11) as f32 / 10.0).unwrap();
        let mask = visual_backprop(&net, &img).unwrap();
        assert_eq!((mask.height(), mask.width()), (60, 160));
        assert!(mask.tensor().min_value() >= 0.0);
        assert!(mask.tensor().max_value() <= 1.0);
        assert!(!mask.tensor().has_non_finite());
    }

    #[test]
    fn salient_structure_attracts_mask_mass() {
        // With positive random conv weights, activations track local
        // brightness, so the bright band must receive more saliency than
        // the dark background.
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv1 =
            Conv2d::new(1, 4, (3, 3), Conv2dSpec::new((2, 2), (0, 0)), &mut rng).unwrap();
        let mut conv2 = Conv2d::new(4, 6, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap();
        // Make all weights positive so brightness → activation.
        let abs_weights = |layer: &mut Conv2d| {
            let mut pgs = neural::Layer::params_and_grads(layer);
            pgs[0].param.map_inplace(f32::abs);
        };
        abs_weights(&mut conv1);
        abs_weights(&mut conv2);
        let net = Network::new()
            .with(conv1)
            .with(ReLU::new())
            .with(conv2)
            .with(ReLU::new());
        let img = test_image();
        let mask = visual_backprop(&net, &img).unwrap();
        let mut on_band = 0.0f32;
        let mut on_band_n = 0;
        let mut off_band = 0.0f32;
        let mut off_band_n = 0;
        for y in 0..img.height() {
            for x in 0..img.width() {
                if img.get(y, x) > 0.5 {
                    on_band += mask.get(y, x);
                    on_band_n += 1;
                } else {
                    off_band += mask.get(y, x);
                    off_band_n += 1;
                }
            }
        }
        let on_mean = on_band / on_band_n as f32;
        let off_mean = off_band / off_band_n as f32;
        assert!(
            on_mean > 2.0 * off_mean,
            "band saliency {on_mean} vs background {off_mean}"
        );
    }

    #[test]
    fn batch_masks_match_serial_masks_bitwise() {
        let net = pilotnet(&PilotNetConfig::compact(), 17).unwrap();
        let images: Vec<Image> = (0..5)
            .map(|s| {
                Image::from_fn(60, 160, |y, x| {
                    ((y * 7 + x * 3 + s * 13) % 17) as f32 / 16.0
                })
                .unwrap()
            })
            .collect();
        let serial: Vec<Image> = images
            .iter()
            .map(|img| visual_backprop(&net, img).unwrap())
            .collect();
        let batch = visual_backprop_batch(&net, &images, obs::noop()).unwrap();
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            let bits = |m: &Image| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(b), bits(s));
        }
    }

    #[test]
    fn recording_batch_leaves_masks_unchanged_and_counts_them() {
        let net = pilotnet(&PilotNetConfig::compact(), 23).unwrap();
        let images: Vec<Image> = (0..3)
            .map(|s| {
                Image::from_fn(60, 160, |y, x| ((y * 5 + x + s * 31) % 13) as f32 / 12.0).unwrap()
            })
            .collect();
        let rec = obs::RunRecorder::new();
        let recorded = visual_backprop_batch(&net, &images, &rec).unwrap();
        let plain = visual_backprop_batch(&net, &images, obs::noop()).unwrap();
        for (a, b) in recorded.iter().zip(&plain) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let report = rec.report("vbp");
        assert_eq!(report.counter("vbp.masks_computed"), Some(3));
        assert!(report.stage("vbp").unwrap().total_secs > 0.0);
        assert_eq!(report.histogram("vbp.batch_size").unwrap().count, 1);
        assert!(report.gauge("vbp.scratch.hit_rate").is_some());
    }

    #[test]
    fn batch_surfaces_first_failing_image() {
        let net = pilotnet(&PilotNetConfig::compact(), 1).unwrap();
        let good = Image::from_fn(60, 160, |_, _| 0.5).unwrap();
        let bad = Image::from_fn(10, 10, |_, _| 0.5).unwrap();
        assert!(visual_backprop_batch(&net, &[good, bad], obs::noop()).is_err());
    }

    #[test]
    fn rejects_networks_without_convs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new()
            .with(Flatten::new())
            .with(Dense::new(12, 1, &mut rng).unwrap())
            .with(Tanh::new());
        let img = Image::from_fn(3, 4, |_, _| 0.5).unwrap();
        assert!(matches!(
            visual_backprop(&net, &img),
            Err(SaliencyError::Invalid { .. })
        ));
    }

    #[test]
    fn rejects_wrong_input_size() {
        let net = pilotnet(&PilotNetConfig::compact(), 1).unwrap();
        let img = Image::from_fn(10, 10, |_, _| 0.5).unwrap();
        assert!(visual_backprop(&net, &img).is_err());
    }

    /// Heads past the last conv block, checked by shape or run, reject
    /// exactly the inputs the full network rejects: a flat head with tanh
    /// and sigmoid, a `Dense` on an unflattened map, and a second
    /// `Flatten` before a `Dense` sized for a 3×3 map (run when the map
    /// is another size).
    #[test]
    fn head_check_rejects_what_the_network_rejects() {
        use neural::layer::Sigmoid;
        let mut rng = StdRng::seed_from_u64(9);
        let conv = |rng: &mut StdRng| {
            Conv2d::new(1, 2, (3, 3), Conv2dSpec::new((2, 2), (0, 0)), rng).unwrap()
        };
        // A 9×13 input gives a 2×4×6 map.
        let nets = [
            Network::new()
                .with(conv(&mut rng))
                .with(ReLU::new())
                .with(Flatten::new())
                .with(Tanh::new())
                .with(Dense::new(2 * 4 * 6, 5, &mut rng).unwrap())
                .with(Sigmoid::new())
                .with(Dense::new(5, 1, &mut rng).unwrap()),
            Network::new()
                .with(conv(&mut rng))
                .with(ReLU::new())
                .with(Dense::new(6, 1, &mut rng).unwrap()),
            Network::new()
                .with(conv(&mut rng))
                .with(Flatten::new())
                .with(Flatten::new())
                .with(Dense::new(2 * 3 * 3, 1, &mut rng).unwrap()),
        ];
        let mut outcomes = [0usize; 2];
        for (i, net) in nets.iter().enumerate() {
            for (h, w) in [(9, 13), (9, 14), (10, 13), (11, 15), (7, 7), (3, 3)] {
                let img = Image::from_fn(h, w, |y, x| ((y * 3 + x) % 5) as f32 / 4.0).unwrap();
                let full = net.forward(&image_to_batch(&img).unwrap());
                let vbp = visual_backprop(net, &img);
                assert_eq!(vbp.is_ok(), full.is_ok(), "net {i} at {h}x{w}");
                outcomes[usize::from(vbp.is_ok())] += 1;
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn deconv_restores_conv_input_geometry() {
        // 60×160 through 5×5 stride-2 conv → 28×78; deconv_to must map
        // back exactly.
        let spec = Conv2dSpec::new((2, 2), (0, 0));
        let mask = Tensor::ones([28, 78]);
        let up = deconv_to(&mask, (5, 5), spec, 60, 160).unwrap();
        assert_eq!(up.shape().dims(), &[60, 160]);
        // Padded conv: 4×17 through 3×3 pad 1 → crop back to 4×17.
        let spec_p = Conv2dSpec::new((1, 1), (1, 1));
        let up2 = deconv_to(&Tensor::ones([4, 17]), (3, 3), spec_p, 4, 17).unwrap();
        assert_eq!(up2.shape().dims(), &[4, 17]);
    }

    #[test]
    fn channel_mean_averages_planes() {
        let act = Tensor::from_fn([1, 2, 2, 2], |i| if i[1] == 0 { 1.0 } else { 3.0 });
        let m = channel_mean(&act).unwrap();
        assert!(m.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert!(channel_mean(&Tensor::zeros([2, 2, 2, 2])).is_err());
    }
}
