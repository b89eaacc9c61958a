//! Pixel-wise fidelity measure: MSE.

use vision::Image;

use crate::{MetricsError, Result};

/// Mean squared error between two same-size images,
/// `MSE(x, y) = (1/K) Σ (x[k] − y[k])²` — the loss used by the Richter &
/// Roy baseline (paper §III.C).
///
/// Note: following the paper's Fig. 3, callers that want the "pixel
/// intensities in 0–255" convention should scale by `255²`; this function
/// works in the native `[0, 1]` range.
///
/// # Errors
///
/// Fails when the images have different dimensions.
pub fn mse(x: &Image, y: &Image) -> Result<f32> {
    if x.height() != y.height() || x.width() != y.width() {
        return Err(MetricsError::invalid(
            "mse",
            format!(
                "image sizes differ: {}x{} vs {}x{}",
                x.height(),
                x.width(),
                y.height(),
                y.width()
            ),
        ));
    }
    let mut acc = 0.0f64;
    for (&a, &b) in x.as_slice().iter().zip(y.as_slice()) {
        let d = (a - b) as f64;
        acc += d * d;
    }
    Ok((acc / x.len() as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_have_zero_mse() {
        let img = Image::from_fn(4, 4, |y, x| (y + x) as f32 / 6.0).unwrap();
        assert_eq!(mse(&img, &img).unwrap(), 0.0);
    }

    #[test]
    fn known_mse_value() {
        let a = Image::filled(2, 2, 0.0).unwrap();
        let b = Image::filled(2, 2, 0.5).unwrap();
        assert!((mse(&a, &b).unwrap() - 0.25).abs() < 1e-7);
    }

    #[test]
    fn mse_is_symmetric() {
        let a = Image::from_fn(3, 5, |y, x| (y * 5 + x) as f32 / 14.0).unwrap();
        let b = Image::from_fn(3, 5, |y, x| ((y * 5 + x) % 4) as f32 / 3.0).unwrap();
        assert_eq!(mse(&a, &b).unwrap(), mse(&b, &a).unwrap());
    }

    #[test]
    fn size_mismatch_is_an_error() {
        let a = Image::new(2, 2).unwrap();
        let b = Image::new(2, 3).unwrap();
        assert!(mse(&a, &b).is_err());
    }
}
