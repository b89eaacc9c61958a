//! Vanilla input-gradient saliency: `|∂ output / ∂ input|`.

use ndtensor::Tensor;
use neural::Network;
use vision::Image;

use crate::vbp::image_to_batch;
use crate::{Result, SaliencyError};

/// Computes input-gradient saliency: the absolute gradient of the
/// network's (summed) output with respect to each input pixel, normalised
/// to `[0, 1]`.
///
/// Needs `&mut Network` because it reuses the training-time backward pass
/// (layer caches are written and consumed); the network's *parameters*
/// are untouched — accumulated gradients are zeroed before returning.
///
/// # Errors
///
/// Fails when the network is empty or rejects the image's dimensions.
pub fn gradient_saliency(network: &mut Network, image: &Image) -> Result<Image> {
    let input = image_to_batch(image)?;
    let output = network.forward_train(&input)?;
    network.zero_grads();
    let grad = network.backward(&Tensor::ones(output.shape().clone()))?;
    // Parameter gradients accumulated during this pass are an artefact of
    // the probe, not training signal — clear them.
    network.zero_grads();
    if grad.shape().dims() != [1, 1, image.height(), image.width()] {
        return Err(SaliencyError::invalid(
            "gradient_saliency",
            format!("unexpected input-gradient shape {}", grad.shape()),
        ));
    }
    let map = grad
        .map(f32::abs)
        .reshape([image.height(), image.width()])?
        .normalize_minmax();
    Ok(Image::from_tensor(map)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndtensor::Conv2dSpec;
    use neural::layer::{Conv2d, Dense, Flatten, ReLU};
    use neural::models::{pilotnet, PilotNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mask_is_input_sized_and_normalised() {
        let mut net = pilotnet(&PilotNetConfig::compact(), 2).unwrap();
        let img = Image::from_fn(60, 160, |y, x| ((y + 2 * x) % 13) as f32 / 12.0).unwrap();
        let mask = gradient_saliency(&mut net, &img).unwrap();
        assert_eq!((mask.height(), mask.width()), (60, 160));
        assert!(mask.tensor().min_value() >= 0.0);
        assert!(mask.tensor().max_value() <= 1.0);
    }

    #[test]
    fn does_not_perturb_parameters_or_pending_grads() {
        let mut net = pilotnet(&PilotNetConfig::compact(), 4).unwrap();
        let img = Image::from_fn(60, 160, |y, x| ((y * x) % 7) as f32 / 6.0).unwrap();
        let before: Vec<f32> = net
            .layers()
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|p| p.as_slice().to_vec())
            .collect();
        gradient_saliency(&mut net, &img).unwrap();
        let after: Vec<f32> = net
            .layers()
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|p| p.as_slice().to_vec())
            .collect();
        assert_eq!(before, after);
        assert!(net.params_and_grads().iter().all(|pg| pg
            .grad
            .as_slice()
            .iter()
            .all(|&g| g == 0.0)));
    }

    #[test]
    fn gradient_reflects_receptive_weighting() {
        // A linear "network": flatten + dense whose weights are zero except
        // for one pixel — saliency must be exactly that pixel.
        let mut w = Tensor::zeros([12, 1]);
        w.as_mut_slice()[5] = 3.0;
        let dense = Dense::from_parts(w, Tensor::zeros([1])).unwrap();
        let mut net = Network::new().with(Flatten::new()).with(dense);
        let img = Image::from_fn(3, 4, |_, _| 0.5).unwrap();
        let mask = gradient_saliency(&mut net, &img).unwrap();
        assert_eq!(mask.get(1, 1), 1.0); // pixel 5 = (1, 1) in 3×4
        let total: f32 = mask.as_slice().iter().sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn works_on_conv_relu_stacks() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Network::new()
            .with(Conv2d::new(1, 3, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap())
            .with(ReLU::new())
            .with(Flatten::new())
            .with(Dense::new(3 * 4 * 4, 1, &mut rng).unwrap());
        let img = Image::from_fn(6, 6, |y, x| (y * 6 + x) as f32 / 35.0).unwrap();
        let mask = gradient_saliency(&mut net, &img).unwrap();
        assert_eq!((mask.height(), mask.width()), (6, 6));
        assert!(!mask.tensor().has_non_finite());
    }
}
