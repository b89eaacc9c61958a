//! Separable smoothing filters.
//!
//! Gaussian blur is used by the scene renderer (soft shadows, depth haze)
//! and by tests that need band-limited images. Borders are handled by
//! clamping (edge replication), which keeps constant images exactly
//! constant.

use crate::{Image, Result, VisionError};

/// Builds a normalised 1-D Gaussian kernel with standard deviation `sigma`,
/// truncated at `±3σ` (minimum radius 1).
///
/// # Errors
///
/// Fails when `sigma` is not finite or not positive.
pub fn gaussian_kernel_1d(sigma: f32) -> Result<Vec<f32>> {
    if !sigma.is_finite() || sigma <= 0.0 {
        return Err(VisionError::invalid(
            "gaussian_kernel_1d",
            format!("sigma must be positive and finite, got {sigma}"),
        ));
    }
    let radius = (3.0 * sigma).ceil().max(1.0) as usize;
    let mut kernel = Vec::with_capacity(2 * radius + 1);
    let inv2s2 = 1.0 / (2.0 * sigma * sigma);
    for i in 0..=(2 * radius) {
        let d = i as f32 - radius as f32;
        // sncheck:allow(no-libm-math): this libm call shapes generated
        // frames; moving it to `ndtensor::math` changes every dataset
        // digest, which ROADMAP item 3 leaves to a change of its own.
        kernel.push((-d * d * inv2s2).exp());
    }
    let sum: f32 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    Ok(kernel)
}

fn convolve_rows(img: &Image, kernel: &[f32]) -> Image {
    let (h, w) = (img.height(), img.width());
    let radius = kernel.len() / 2;
    let mut out = Image::new(h, w).expect("dimensions already validated");
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sx = (x as i64 + i as i64 - radius as i64).clamp(0, w as i64 - 1) as usize;
                acc += k * img.get(y, sx);
            }
            out.put(y, x, acc);
        }
    }
    out
}

fn convolve_cols(img: &Image, kernel: &[f32]) -> Image {
    let (h, w) = (img.height(), img.width());
    let radius = kernel.len() / 2;
    let mut out = Image::new(h, w).expect("dimensions already validated");
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, &k) in kernel.iter().enumerate() {
                let sy = (y as i64 + i as i64 - radius as i64).clamp(0, h as i64 - 1) as usize;
                acc += k * img.get(sy, x);
            }
            out.put(y, x, acc);
        }
    }
    out
}

/// Applies a separable Gaussian blur with standard deviation `sigma`.
///
/// # Errors
///
/// Fails when `sigma` is not finite or not positive.
pub fn gaussian_blur(img: &Image, sigma: f32) -> Result<Image> {
    let kernel = gaussian_kernel_1d(sigma)?;
    Ok(convolve_cols(&convolve_rows(img, &kernel), &kernel))
}

/// Applies a `(2r+1) × (2r+1)` box blur.
///
/// # Errors
///
/// Fails when `radius` is zero.
pub fn box_blur(img: &Image, radius: usize) -> Result<Image> {
    if radius == 0 {
        return Err(VisionError::invalid("box_blur", "radius must be non-zero"));
    }
    let n = 2 * radius + 1;
    let kernel = vec![1.0 / n as f32; n];
    Ok(convolve_cols(&convolve_rows(img, &kernel), &kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernel_is_normalised_and_symmetric() {
        let k = gaussian_kernel_1d(1.5).unwrap();
        assert!(((k.iter().sum::<f32>()) - 1.0).abs() < 1e-5);
        assert_eq!(k.len() % 2, 1);
        let mid = k.len() / 2;
        for i in 0..mid {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
        // Peak at center.
        assert!(k[mid] >= *k.first().unwrap());
    }

    #[test]
    fn kernel_rejects_bad_sigma() {
        assert!(gaussian_kernel_1d(0.0).is_err());
        assert!(gaussian_kernel_1d(-1.0).is_err());
        assert!(gaussian_kernel_1d(f32::NAN).is_err());
    }

    #[test]
    fn blur_preserves_constant_image() {
        let img = Image::filled(8, 8, 0.6).unwrap();
        let b = gaussian_blur(&img, 2.0).unwrap();
        for &v in b.as_slice() {
            assert!((v - 0.6).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_spreads_an_impulse() {
        let mut img = Image::new(9, 9).unwrap();
        img.put(4, 4, 1.0);
        let b = gaussian_blur(&img, 1.0).unwrap();
        assert!(b.get(4, 4) < 1.0);
        assert!(b.get(4, 5) > 0.0);
        assert!(b.get(3, 4) > 0.0);
        // Total mass approximately preserved away from borders.
        let total: f32 = b.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-3);
    }

    #[test]
    fn blur_reduces_variance_of_noiselike_image() {
        let img = Image::from_fn(16, 16, |y, x| ((y * 31 + x * 17) % 7) as f32 / 6.0).unwrap();
        let b = gaussian_blur(&img, 2.0).unwrap();
        assert!(b.tensor().variance() < img.tensor().variance());
    }

    #[test]
    fn box_blur_averages_neighbourhood() {
        let mut img = Image::new(3, 3).unwrap();
        img.put(1, 1, 9.0);
        let b = box_blur(&img, 1).unwrap();
        assert!((b.get(1, 1) - 1.0).abs() < 1e-5); // 9/9
        assert!(box_blur(&img, 0).is_err());
    }

    proptest! {
        #[test]
        fn blur_output_within_input_range(sigma in 0.3f32..3.0, seed in 0u64..100) {
            let img = Image::from_fn(10, 10, |y, x| {
                (((y * 37 + x * 11) as u64 + seed) % 13) as f32 / 12.0
            }).unwrap();
            let b = gaussian_blur(&img, sigma).unwrap();
            let (lo, hi) = (img.tensor().min_value(), img.tensor().max_value());
            for &v in b.as_slice() {
                prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
            }
        }
    }
}
