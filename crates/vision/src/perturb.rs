//! Image perturbations used by the paper's experiments.
//!
//! * [`add_gaussian_noise`] — the noise attack of Figs. 3 and 7,
//! * [`adjust_brightness`] / [`adjust_contrast`] / [`adjust_gamma`] — the
//!   photometric changes of Fig. 3 (CNNs are robust to these, so a good
//!   similarity metric should barely move),
//! * [`rotate`] / [`translate`] — the simple spatial attacks of
//!   Engstrom et al. (paper reference 6),
//! * [`occlude_rect`] — a patch occlusion for failure-injection tests.
//!
//! All functions are pure (they return a new [`Image`]) and the noisy ones
//! take an explicit RNG for reproducibility. Photometric operations clamp
//! to `[0, 1]` as a camera would saturate.

use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::{Image, Result, VisionError};

/// Adds i.i.d. Gaussian noise `N(0, sigma²)` to every pixel, clamping the
/// result to `[0, 1]`.
///
/// # Errors
///
/// Fails when `sigma` is negative or not finite.
pub fn add_gaussian_noise(img: &Image, rng: &mut impl Rng, sigma: f32) -> Result<Image> {
    if !sigma.is_finite() || sigma < 0.0 {
        return Err(VisionError::invalid(
            "add_gaussian_noise",
            format!("sigma must be non-negative and finite, got {sigma}"),
        ));
    }
    // sncheck:allow(no-float-eq): exact-zero no-op fast path; also
    // catches -0.0, which passes the sign check above.
    if sigma == 0.0 {
        return Ok(img.clone());
    }
    let dist = Normal::new(0.0f32, sigma).expect("validated above");
    let mut out = img.clone();
    for v in out.as_mut_slice() {
        *v = (*v + dist.sample(rng)).clamp(0.0, 1.0);
    }
    Ok(out)
}

/// Shifts every pixel by `delta` (positive brightens), clamping to `[0, 1]`.
pub fn adjust_brightness(img: &Image, delta: f32) -> Image {
    img.map(|v| (v + delta).clamp(0.0, 1.0))
}

/// Scales contrast around mid-gray 0.5 by `factor` (1.0 = identity),
/// clamping to `[0, 1]`.
///
/// # Errors
///
/// Fails when `factor` is negative or not finite.
pub fn adjust_contrast(img: &Image, factor: f32) -> Result<Image> {
    if !factor.is_finite() || factor < 0.0 {
        return Err(VisionError::invalid(
            "adjust_contrast",
            format!("factor must be non-negative and finite, got {factor}"),
        ));
    }
    Ok(img.map(|v| (0.5 + (v - 0.5) * factor).clamp(0.0, 1.0)))
}

/// Applies gamma correction `v ↦ v^gamma` to pixels clamped into `[0, 1]`.
///
/// # Errors
///
/// Fails when `gamma` is not finite or not positive.
pub fn adjust_gamma(img: &Image, gamma: f32) -> Result<Image> {
    if !gamma.is_finite() || gamma <= 0.0 {
        return Err(VisionError::invalid(
            "adjust_gamma",
            format!("gamma must be positive and finite, got {gamma}"),
        ));
    }
    // sncheck:allow(no-libm-math): this libm call shapes generated
    // frames; moving it to `ndtensor::math` changes every dataset
    // digest, which ROADMAP item 3 leaves to a change of its own.
    Ok(img.map(|v| v.clamp(0.0, 1.0).powf(gamma)))
}

fn sample_bilinear(img: &Image, y: f32, x: f32, fill: f32) -> f32 {
    let (h, w) = (img.height() as f32, img.width() as f32);
    if y < -0.5 || x < -0.5 || y > h - 0.5 || x > w - 0.5 {
        return fill;
    }
    let yc = y.clamp(0.0, h - 1.0);
    let xc = x.clamp(0.0, w - 1.0);
    let y0 = yc.floor() as usize;
    let x0 = xc.floor() as usize;
    let y1 = (y0 + 1).min(img.height() - 1);
    let x1 = (x0 + 1).min(img.width() - 1);
    let ty = yc - y0 as f32;
    let tx = xc - x0 as f32;
    let top = img.get(y0, x0) * (1.0 - tx) + img.get(y0, x1) * tx;
    let bot = img.get(y1, x0) * (1.0 - tx) + img.get(y1, x1) * tx;
    top * (1.0 - ty) + bot * ty
}

/// Rotates the image by `degrees` counter-clockwise about its centre with
/// bilinear sampling; uncovered pixels take `fill`.
pub fn rotate(img: &Image, degrees: f32, fill: f32) -> Image {
    let rad = degrees.to_radians();
    // sncheck:allow(no-libm-math): this libm call shapes generated
    // frames; moving it to `ndtensor::math` changes every dataset
    // digest, which ROADMAP item 3 leaves to a change of its own.
    let (sin, cos) = rad.sin_cos();
    let cy = (img.height() as f32 - 1.0) / 2.0;
    let cx = (img.width() as f32 - 1.0) / 2.0;
    Image::from_fn(img.height(), img.width(), |y, x| {
        let dy = y as f32 - cy;
        let dx = x as f32 - cx;
        // Inverse rotation: where did this output pixel come from?
        let sy = cy + dx * sin + dy * cos;
        let sx = cx + dx * cos - dy * sin;
        sample_bilinear(img, sy, sx, fill)
    })
    .expect("same dimensions as a valid image")
}

/// Translates the image by `(dy, dx)` pixels (positive = down/right) with
/// bilinear sampling; uncovered pixels take `fill`.
pub fn translate(img: &Image, dy: f32, dx: f32, fill: f32) -> Image {
    Image::from_fn(img.height(), img.width(), |y, x| {
        sample_bilinear(img, y as f32 - dy, x as f32 - dx, fill)
    })
    .expect("same dimensions as a valid image")
}

/// Overwrites the rectangle `[x0, x0+w) × [y0, y0+h)` (clipped) with a
/// constant intensity, simulating sensor occlusion.
pub fn occlude_rect(img: &Image, y0: usize, x0: usize, h: usize, w: usize, value: f32) -> Image {
    let mut out = img.clone();
    let y1 = (y0 + h).min(img.height());
    let x1 = (x0 + w).min(img.width());
    for y in y0.min(img.height())..y1 {
        for x in x0.min(img.width())..x1 {
            out.put(y, x, value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gradient_image() -> Image {
        Image::from_fn(12, 16, |y, x| (y + x) as f32 / 26.0).unwrap()
    }

    #[test]
    fn noise_is_zero_mean_and_clamped() {
        let img = Image::filled(40, 40, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = add_gaussian_noise(&img, &mut rng, 0.1).unwrap();
        assert!((noisy.mean() - 0.5).abs() < 0.02);
        assert!(noisy.tensor().min_value() >= 0.0);
        assert!(noisy.tensor().max_value() <= 1.0);
        assert!(noisy.tensor().variance() > 0.0);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let img = gradient_image();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(add_gaussian_noise(&img, &mut rng, 0.0).unwrap(), img);
        assert!(add_gaussian_noise(&img, &mut rng, -0.1).is_err());
    }

    #[test]
    fn noise_is_reproducible_from_seed() {
        let img = gradient_image();
        let a = add_gaussian_noise(&img, &mut StdRng::seed_from_u64(9), 0.05).unwrap();
        let b = add_gaussian_noise(&img, &mut StdRng::seed_from_u64(9), 0.05).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn brightness_shifts_and_saturates() {
        let img = Image::filled(2, 2, 0.9).unwrap();
        let brighter = adjust_brightness(&img, 0.3);
        assert_eq!(brighter.get(0, 0), 1.0);
        let darker = adjust_brightness(&img, -0.5);
        assert!((darker.get(0, 0) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn contrast_pivots_on_midgray() {
        let img = Image::from_fn(1, 2, |_, x| if x == 0 { 0.25 } else { 0.75 }).unwrap();
        let flat = adjust_contrast(&img, 0.0).unwrap();
        assert_eq!(flat.get(0, 0), 0.5);
        assert_eq!(flat.get(0, 1), 0.5);
        let strong = adjust_contrast(&img, 2.0).unwrap();
        assert_eq!(strong.get(0, 0), 0.0);
        assert_eq!(strong.get(0, 1), 1.0);
        assert!(adjust_contrast(&img, -1.0).is_err());
    }

    #[test]
    fn gamma_brightens_or_darkens_midtones() {
        let img = Image::filled(1, 1, 0.5).unwrap();
        assert!(adjust_gamma(&img, 0.5).unwrap().get(0, 0) > 0.5);
        assert!(adjust_gamma(&img, 2.0).unwrap().get(0, 0) < 0.5);
        assert!(adjust_gamma(&img, 0.0).is_err());
    }

    #[test]
    fn rotate_zero_is_near_identity() {
        let img = gradient_image();
        let r = rotate(&img, 0.0, 0.0);
        for (a, b) in r.as_slice().iter().zip(img.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn rotate_180_flips_both_axes() {
        let img = Image::from_fn(5, 5, |y, x| (y * 5 + x) as f32).unwrap();
        let r = rotate(&img, 180.0, 0.0);
        for y in 0..5 {
            for x in 0..5 {
                assert!(
                    (r.get(y, x) - img.get(4 - y, 4 - x)).abs() < 1e-3,
                    "mismatch at ({y},{x})"
                );
            }
        }
    }

    #[test]
    fn translate_moves_content() {
        let mut img = Image::new(6, 6).unwrap();
        img.put(2, 2, 1.0);
        let t = translate(&img, 1.0, 2.0, 0.0);
        assert!((t.get(3, 4) - 1.0).abs() < 1e-5);
        assert_eq!(t.get(2, 2), 0.0);
    }

    #[test]
    fn translate_fills_uncovered_area() {
        let img = Image::filled(4, 4, 1.0).unwrap();
        let t = translate(&img, 0.0, 2.0, 0.25);
        assert_eq!(t.get(0, 0), 0.25);
        assert_eq!(t.get(0, 3), 1.0);
    }

    #[test]
    fn occlusion_paints_patch_only() {
        let img = Image::filled(8, 8, 1.0).unwrap();
        let o = occlude_rect(&img, 2, 3, 2, 3, 0.0);
        assert_eq!(o.get(2, 3), 0.0);
        assert_eq!(o.get(3, 5), 0.0);
        assert_eq!(o.get(1, 3), 1.0);
        assert_eq!(o.get(4, 3), 1.0);
        // Clipped occlusion doesn't panic.
        let o2 = occlude_rect(&img, 7, 7, 10, 10, 0.5);
        assert_eq!(o2.get(7, 7), 0.5);
    }
}
