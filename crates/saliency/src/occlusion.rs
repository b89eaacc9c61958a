//! Occlusion-based saliency probing.
//!
//! Slides a gray occluder across the image and records how much the
//! network's prediction moves — a model-agnostic (but very slow) saliency
//! baseline, included to show the latency gap the paper's VBP choice
//! closes.

use neural::Network;
use vision::{perturb, Image};

use crate::vbp::image_to_batch;
use crate::{Result, SaliencyError};

/// Configuration for [`occlusion_saliency`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcclusionConfig {
    /// Occluder side length in pixels.
    pub window: usize,
    /// Step between occluder positions in pixels.
    pub stride: usize,
    /// Intensity painted into the occluded patch.
    pub fill: f32,
}

impl Default for OcclusionConfig {
    fn default() -> Self {
        OcclusionConfig {
            window: 8,
            stride: 4,
            fill: 0.5,
        }
    }
}

/// Computes occlusion saliency: for every occluder position, the absolute
/// change in the network output is splatted over the occluded pixels; the
/// accumulated map is normalised to `[0, 1]`.
///
/// # Errors
///
/// Fails when the window/stride are zero, the window exceeds the image,
/// or the network rejects the input.
pub fn occlusion_saliency(
    network: &Network,
    image: &Image,
    config: &OcclusionConfig,
) -> Result<Image> {
    if config.window == 0 || config.stride == 0 {
        return Err(SaliencyError::invalid(
            "occlusion_saliency",
            "window and stride must be non-zero",
        ));
    }
    if config.window > image.height() || config.window > image.width() {
        return Err(SaliencyError::invalid(
            "occlusion_saliency",
            format!(
                "window {} larger than image {}x{}",
                config.window,
                image.height(),
                image.width()
            ),
        ));
    }
    let base = network.forward(&image_to_batch(image)?)?;
    let base_out = base.sum();

    let mut acc = Image::new(image.height(), image.width())?;
    let mut counts = Image::new(image.height(), image.width())?;
    let mut y = 0;
    while y + config.window <= image.height() {
        let mut x = 0;
        while x + config.window <= image.width() {
            let occluded =
                perturb::occlude_rect(image, y, x, config.window, config.window, config.fill);
            let out = network.forward(&image_to_batch(&occluded)?)?.sum();
            let delta = (out - base_out).abs();
            for dy in 0..config.window {
                for dx in 0..config.window {
                    let v = acc.get(y + dy, x + dx);
                    acc.put(y + dy, x + dx, v + delta);
                    let c = counts.get(y + dy, x + dx);
                    counts.put(y + dy, x + dx, c + 1.0);
                }
            }
            x += config.stride;
        }
        y += config.stride;
    }
    // Average overlapping contributions, then normalise.
    let averaged = Image::from_fn(image.height(), image.width(), |y, x| {
        let c = counts.get(y, x);
        if c > 0.0 {
            acc.get(y, x) / c
        } else {
            0.0
        }
    })?;
    Ok(averaged.normalize_minmax())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndtensor::Tensor;
    use neural::layer::{Dense, Flatten};
    use neural::Network;

    fn single_pixel_net(pixel: usize, n_pixels: usize) -> Network {
        let mut w = Tensor::zeros([n_pixels, 1]);
        w.as_mut_slice()[pixel] = 5.0;
        Network::new()
            .with(Flatten::new())
            .with(Dense::from_parts(w, Tensor::zeros([1])).unwrap())
    }

    #[test]
    fn sensitive_pixel_dominates_map() {
        // Network reads only pixel (4, 6) of a 12×12 image.
        let net = single_pixel_net(4 * 12 + 6, 144);
        let img = Image::filled(12, 12, 0.9).unwrap();
        let cfg = OcclusionConfig {
            window: 4,
            stride: 2,
            fill: 0.0,
        };
        let map = occlusion_saliency(&net, &img, &cfg).unwrap();
        assert_eq!(map.get(4, 6), 1.0);
        // A far-away corner that never co-occludes with (4, 6).
        assert_eq!(map.get(11, 0), 0.0);
    }

    #[test]
    fn map_dimensions_and_range() {
        let net = single_pixel_net(0, 100);
        let img = Image::from_fn(10, 10, |y, x| (y + x) as f32 / 18.0).unwrap();
        let map = occlusion_saliency(&net, &img, &OcclusionConfig::default()).unwrap();
        assert_eq!((map.height(), map.width()), (10, 10));
        assert!(map.tensor().min_value() >= 0.0 && map.tensor().max_value() <= 1.0);
    }

    #[test]
    fn validates_config() {
        let net = single_pixel_net(0, 16);
        let img = Image::filled(4, 4, 0.5).unwrap();
        assert!(occlusion_saliency(
            &net,
            &img,
            &OcclusionConfig {
                window: 0,
                stride: 1,
                fill: 0.5
            }
        )
        .is_err());
        assert!(occlusion_saliency(
            &net,
            &img,
            &OcclusionConfig {
                window: 2,
                stride: 0,
                fill: 0.5
            }
        )
        .is_err());
        assert!(occlusion_saliency(
            &net,
            &img,
            &OcclusionConfig {
                window: 5,
                stride: 1,
                fill: 0.5
            }
        )
        .is_err());
    }
}
