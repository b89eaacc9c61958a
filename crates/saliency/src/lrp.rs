//! ε-rule Layer-wise Relevance Propagation (Bach et al., 2015 — the
//! paper's reference 11, cited as the slower alternative VBP is benchmarked
//! against).
//!
//! Relevance starts at the network output and is redistributed backwards,
//! layer by layer, proportionally to each input's contribution to the
//! pre-activation, with an ε stabiliser on the denominators:
//!
//! ```text
//! R_i = x_i · Σ_j  w_ji · R_j / (z_j + ε·sign(z_j))
//! ```
//!
//! Activations (ReLU/Sigmoid/Tanh) pass relevance through unchanged;
//! Flatten reshapes.

use ndtensor::{col2im, matmul_a_bt, matmul_at_b, Conv2dSpec, Tensor};
use neural::{LayerKind, Network};
use vision::Image;

use crate::vbp::image_to_batch;
use crate::{Result, SaliencyError};

/// Configuration for [`lrp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrpConfig {
    /// Stabiliser ε added (sign-matched) to pre-activation denominators.
    pub epsilon: f32,
}

impl Default for LrpConfig {
    fn default() -> Self {
        LrpConfig { epsilon: 1e-2 }
    }
}

fn stabilized_ratio(relevance: &Tensor, z: &Tensor, epsilon: f32) -> Result<Tensor> {
    Ok(relevance.zip_map(z, |r, zv| {
        let denom = zv + epsilon * if zv >= 0.0 { 1.0 } else { -1.0 };
        r / denom
    })?)
}

fn lrp_dense(
    relevance: &Tensor,
    weight: &Tensor,
    z: &Tensor,
    input: &Tensor,
    epsilon: f32,
) -> Result<Tensor> {
    // s = R / (z + ε·sign z);  c = s · Wᵀ (W is [in, out]);  R_prev = x ⊙ c.
    let s = stabilized_ratio(relevance, z, epsilon)?;
    let c = matmul_a_bt(&s, weight)?;
    Ok(&c * input)
}

fn lrp_conv(
    relevance: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    z: &Tensor,
    input: &Tensor,
    epsilon: f32,
) -> Result<Tensor> {
    let s = stabilized_ratio(relevance, z, epsilon)?;
    // Backproject s through the convolution (input-gradient of conv at s):
    // per sample, dcols = Wᵀ·s, then col2im.
    let [n, c, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
        input.shape().dims()[3],
    ];
    let [f, _, kh, kw] = [
        weight.shape().dims()[0],
        weight.shape().dims()[1],
        weight.shape().dims()[2],
        weight.shape().dims()[3],
    ];
    let (oh, ow) = (z.shape().dims()[2], z.shape().dims()[3]);
    let w2 = weight.reshape([f, c * kh * kw])?;
    let mut back = vec![0.0f32; n * c * h * w]; // sncheck:allow(hot-path-transitive-alloc): the relevance map being computed IS the output buffer; one per LRP layer pass
    let sample_in = c * h * w;
    let sample_out = f * oh * ow;
    for ni in 0..n {
        let srow = Tensor::from_vec(
            [f, oh * ow],
            s.as_slice()[ni * sample_out..(ni + 1) * sample_out].to_vec(), // sncheck:allow(hot-path-transitive-alloc): per-sample relevance row lifted into a Tensor for the matmul; Tensor construction takes ownership
        )?;
        let dcols = matmul_at_b(&w2, &srow)?;
        let sample = col2im(&dcols, c, h, w, kh, kw, spec)?;
        back[ni * sample_in..(ni + 1) * sample_in].copy_from_slice(&sample);
    }
    let c_tensor = Tensor::from_vec(input.shape().clone(), back)?;
    Ok(&c_tensor * input)
}

/// Computes the ε-LRP relevance map of `image` under `network`,
/// normalised to `[0, 1]` at input resolution. Relevance is seeded with
/// the network's raw output (for the steering regressor: the predicted
/// angle).
///
/// # Errors
///
/// Fails when the network is empty, rejects the image's dimensions, or
/// `epsilon` is not positive and finite.
pub fn lrp(network: &Network, image: &Image, config: &LrpConfig) -> Result<Image> {
    if !config.epsilon.is_finite() || config.epsilon <= 0.0 {
        return Err(SaliencyError::invalid(
            "lrp",
            format!(
                "epsilon must be positive and finite, got {}",
                config.epsilon
            ),
        ));
    }
    let input = image_to_batch(image)?;
    let acts = network.forward_collect(&input)?;
    let layers = network.layers();

    // Seed relevance with the output itself.
    let mut relevance = acts
        .last()
        .cloned()
        .ok_or_else(|| SaliencyError::invalid("lrp", "network produced no activations"))?;

    for (i, layer) in layers.iter().enumerate().rev() {
        let layer_input = if i == 0 { &input } else { &acts[i - 1] };
        relevance = match layer.kind() {
            // Activations pass relevance through unchanged.
            LayerKind::ReLU | LayerKind::Sigmoid | LayerKind::Tanh => relevance,
            LayerKind::Flatten => relevance.reshape(layer_input.shape().clone())?,
            LayerKind::Dense { .. } => {
                let params = layer.params();
                lrp_dense(&relevance, params[0], &acts[i], layer_input, config.epsilon)?
            }
            LayerKind::Conv2d { spec, .. } => {
                let params = layer.params();
                lrp_conv(
                    &relevance,
                    params[0],
                    spec,
                    &acts[i],
                    layer_input,
                    config.epsilon,
                )?
            }
        };
    }

    if relevance.shape().dims() != [1, 1, image.height(), image.width()] {
        return Err(SaliencyError::invalid(
            "lrp",
            format!("unexpected relevance shape {}", relevance.shape()),
        ));
    }
    let map = relevance
        .map(f32::abs)
        .reshape([image.height(), image.width()])?
        .normalize_minmax();
    Ok(Image::from_tensor(map)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::layer::{Conv2d, Dense, Flatten, ReLU};
    use neural::models::{pilotnet, PilotNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_backprojection_geometry_roundtrips() {
        let spec = Conv2dSpec::new((2, 2), (1, 1));
        let x: Vec<f32> = (0..36).map(|i| (i % 7) as f32).collect();
        let cols = ndtensor::im2col(&x, 1, 6, 6, 3, 3, spec).unwrap();
        let back = col2im(&cols, 1, 6, 6, 3, 3, spec).unwrap();
        assert_eq!(back.len(), x.len());
    }

    #[test]
    fn relevance_map_is_input_sized_and_normalised() {
        let net = pilotnet(&PilotNetConfig::compact(), 5).unwrap();
        let img = Image::from_fn(60, 160, |y, x| ((y + x) % 17) as f32 / 16.0).unwrap();
        let map = lrp(&net, &img, &LrpConfig::default()).unwrap();
        assert_eq!((map.height(), map.width()), (60, 160));
        assert!(map.tensor().min_value() >= 0.0);
        assert!(map.tensor().max_value() <= 1.0);
        assert!(!map.tensor().has_non_finite());
    }

    #[test]
    fn single_pixel_linear_model_concentrates_relevance() {
        let mut w = Tensor::zeros([12, 1]);
        w.as_mut_slice()[7] = 2.0;
        let dense = Dense::from_parts(w, Tensor::zeros([1])).unwrap();
        let net = Network::new().with(Flatten::new()).with(dense);
        let img = Image::from_fn(3, 4, |_, _| 0.5).unwrap();
        let map = lrp(&net, &img, &LrpConfig::default()).unwrap();
        assert_eq!(map.get(1, 3), 1.0); // pixel 7 = (1, 3)
        let total: f32 = map.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn conservation_approximately_holds_for_linear_dense() {
        // For a single linear layer with small ε, Σ R_in ≈ R_out.
        let mut rng = StdRng::seed_from_u64(2);
        let dense = Dense::new(6, 1, &mut rng).unwrap();
        let net = Network::new().with(Flatten::new()).with(dense);
        let img = Image::from_fn(2, 3, |y, x| 0.3 + 0.1 * (y + x) as f32).unwrap();
        let input = image_to_batch(&img).unwrap();
        let out = net.forward(&input).unwrap().as_slice()[0];

        // Recompute un-normalised relevance by hand via the internals.
        let acts = net.forward_collect(&input).unwrap();
        let params = net.layers()[1].params();
        let flat = acts[0].clone();
        let r = lrp_dense(&acts[1].clone(), params[0], &acts[1], &flat, 1e-4).unwrap();
        let total: f32 = r.as_slice().iter().sum();
        assert!(
            (total - out).abs() < 0.05 * (1.0 + out.abs()),
            "Σ relevance {total} vs output {out}"
        );
    }

    #[test]
    fn works_with_padded_stride_one_convs() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = Network::new()
            .with(Conv2d::new(1, 2, (3, 3), Conv2dSpec::new((1, 1), (1, 1)), &mut rng).unwrap())
            .with(ReLU::new())
            .with(Flatten::new())
            .with(Dense::new(2 * 6 * 6, 1, &mut rng).unwrap());
        let img = Image::from_fn(6, 6, |y, x| ((y * 6 + x) % 5) as f32 / 4.0).unwrap();
        let map = lrp(&net, &img, &LrpConfig::default()).unwrap();
        assert_eq!((map.height(), map.width()), (6, 6));
    }

    #[test]
    fn validates_epsilon() {
        let net = pilotnet(&PilotNetConfig::compact(), 0).unwrap();
        let img = Image::from_fn(60, 160, |_, _| 0.5).unwrap();
        assert!(lrp(&net, &img, &LrpConfig { epsilon: 0.0 }).is_err());
        assert!(lrp(&net, &img, &LrpConfig { epsilon: -1.0 }).is_err());
    }
}
