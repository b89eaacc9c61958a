//! Random weight initialisation.
//!
//! All fills take an explicit RNG so that every training run in the
//! workspace is reproducible from a single `u64` seed.

use rand::Rng;
use rand_distr::{Distribution, Uniform};

use crate::{math, Result, Tensor, TensorError};

/// Values drawn per block by [`fill_normal`]: the draws are buffered, then
/// the block's `ln`, `sqrt` and `cos` run as one loop that vectorises.
const NORMAL_BLOCK: usize = 64;

/// `2^-53`, the spacing of the uniform `f64` draws.
const DRAW_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// Fills the tensor with samples from `U(lo, hi)`.
///
/// # Errors
///
/// Returns [`TensorError::Invalid`] when `lo >= hi` or either bound is not
/// finite.
pub fn fill_uniform(t: &mut Tensor, rng: &mut impl Rng, lo: f32, hi: f32) -> Result<()> {
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        return Err(TensorError::invalid(
            "fill_uniform",
            format!("invalid range [{lo}, {hi})"),
        ));
    }
    let dist = Uniform::new(lo, hi);
    for v in t.as_mut_slice() {
        *v = dist.sample(rng);
    }
    Ok(())
}

/// Fills the tensor with samples from `N(mean, std²)` by Box–Muller.
///
/// Each value takes two draws, exactly as `rand_distr::Normal::sample`
/// does: `u1 = (next_u64 >> 11) + 1` and `u2 = next_u64 >> 11`, both
/// scaled by `2^-53`, so `u1` lies in `(0, 1]` and `ln u1` is finite.
/// The value is `mean + std · z` with `z = √(−2 ln u1) · cos(2π u2)`
/// computed by [`math`], so the bits do not depend on the host's libm.
/// Filling `n` values leaves `rng` exactly `2n` draws ahead.
///
/// # Errors
///
/// Returns [`TensorError::Invalid`] when `std` is negative or either
/// parameter is not finite.
pub fn fill_normal(t: &mut Tensor, rng: &mut impl Rng, mean: f32, std: f32) -> Result<()> {
    if !mean.is_finite() || !std.is_finite() || std < 0.0 {
        return Err(TensorError::invalid(
            "fill_normal",
            format!("invalid parameters mean={mean}, std={std}"),
        ));
    }
    let mut u1 = [0.0f64; NORMAL_BLOCK];
    let mut u2 = [0.0f64; NORMAL_BLOCK];
    for block in t.as_mut_slice().chunks_mut(NORMAL_BLOCK) {
        for (a, b) in u1.iter_mut().zip(&mut u2).take(block.len()) {
            *a = ((rng.next_u64() >> 11) as f64 + 1.0) * DRAW_SCALE;
            *b = (rng.next_u64() >> 11) as f64 * DRAW_SCALE;
        }
        for (v, (&a, &b)) in block.iter_mut().zip(u1.iter().zip(&u2)) {
            let z = (-2.0 * math::ln(a)).sqrt() * math::cos(std::f64::consts::TAU * b);
            *v = mean + std * z as f32;
        }
    }
    Ok(())
}

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Appropriate for sigmoid/tanh layers,
/// which is what the paper's autoencoder output uses.
///
/// # Errors
///
/// Returns [`TensorError::Invalid`] when either fan is zero.
pub fn fill_xavier_uniform(
    t: &mut Tensor,
    rng: &mut impl Rng,
    fan_in: usize,
    fan_out: usize,
) -> Result<()> {
    if fan_in == 0 || fan_out == 0 {
        return Err(TensorError::invalid(
            "fill_xavier_uniform",
            "fan_in and fan_out must be non-zero",
        ));
    }
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    fill_uniform(t, rng, -a, a)
}

/// He/Kaiming normal initialisation: `N(0, 2/fan_in)`. Appropriate for the
/// ReLU layers of the steering CNN and the autoencoder's hidden stack.
///
/// # Errors
///
/// Returns [`TensorError::Invalid`] when `fan_in` is zero.
pub fn fill_he_normal(t: &mut Tensor, rng: &mut impl Rng, fan_in: usize) -> Result<()> {
    if fan_in == 0 {
        return Err(TensorError::invalid(
            "fill_he_normal",
            "fan_in must be non-zero",
        ));
    }
    fill_normal(t, rng, 0.0, (2.0 / fan_in as f32).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut t = Tensor::zeros([1000]);
        let mut rng = StdRng::seed_from_u64(7);
        fill_uniform(&mut t, &mut rng, -0.5, 0.5).unwrap();
        assert!(t.min_value() >= -0.5 && t.max_value() < 0.5);
        // Not all equal — it actually sampled.
        assert!(t.variance() > 0.0);
    }

    #[test]
    fn uniform_rejects_bad_ranges() {
        let mut t = Tensor::zeros([4]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(fill_uniform(&mut t, &mut rng, 1.0, 1.0).is_err());
        assert!(fill_uniform(&mut t, &mut rng, 2.0, 1.0).is_err());
        assert!(fill_uniform(&mut t, &mut rng, f32::NAN, 1.0).is_err());
    }

    #[test]
    fn normal_has_expected_moments() {
        let mut t = Tensor::zeros([20_000]);
        let mut rng = StdRng::seed_from_u64(11);
        fill_normal(&mut t, &mut rng, 1.0, 2.0).unwrap();
        assert!((t.mean() - 1.0).abs() < 0.1);
        assert!((t.variance().sqrt() - 2.0).abs() < 0.1);
        assert!(fill_normal(&mut t, &mut rng, 0.0, -1.0).is_err());
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut small = Tensor::zeros([5000]);
        fill_xavier_uniform(&mut small, &mut rng, 10, 10).unwrap();
        let bound_small = (6.0f32 / 20.0).sqrt();
        assert!(small.max_value() <= bound_small && small.min_value() >= -bound_small);

        let mut large = Tensor::zeros([5000]);
        fill_xavier_uniform(&mut large, &mut rng, 1000, 1000).unwrap();
        assert!(large.max_value() < bound_small / 2.0);
        assert!(fill_xavier_uniform(&mut large, &mut rng, 0, 5).is_err());
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tensor::zeros([20_000]);
        fill_he_normal(&mut t, &mut rng, 50).unwrap();
        let expect_std = (2.0f32 / 50.0).sqrt();
        assert!((t.variance().sqrt() - expect_std).abs() < 0.1 * expect_std);
        assert!(fill_he_normal(&mut t, &mut rng, 0).is_err());
    }

    #[test]
    fn normal_consumes_two_draws_per_value() {
        for n in [0, 1, 63, 64, 65, 200] {
            let mut t = Tensor::zeros([n]);
            let mut rng = StdRng::seed_from_u64(17);
            fill_normal(&mut t, &mut rng, 0.0, 1.0).unwrap();
            let mut reference = StdRng::seed_from_u64(17);
            for _ in 0..2 * n {
                reference.next_u64();
            }
            for _ in 0..4 {
                assert_eq!(rng.next_u64(), reference.next_u64(), "n = {n}");
            }
        }
    }

    #[test]
    fn normal_matches_the_box_muller_formula_per_value() {
        // Block boundaries must not change which draws feed which value.
        let mut t = Tensor::zeros([150]);
        fill_normal(&mut t, &mut StdRng::seed_from_u64(23), 0.5, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for (i, &v) in t.as_slice().iter().enumerate() {
            let u1 = ((rng.next_u64() >> 11) as f64 + 1.0) * DRAW_SCALE;
            let u2 = (rng.next_u64() >> 11) as f64 * DRAW_SCALE;
            let z = (-2.0 * math::ln(u1)).sqrt() * math::cos(std::f64::consts::TAU * u2);
            assert_eq!(v.to_bits(), (0.5 + 2.0 * z as f32).to_bits(), "value {i}");
            // Within float noise of the libm Box–Muller that the vendored
            // `rand_distr::Normal` computes.
            let libm = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            assert!((z - libm).abs() <= 1e-12 * (1.0 + libm.abs()), "value {i}");
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let mut a = Tensor::zeros([64]);
        let mut b = Tensor::zeros([64]);
        fill_normal(&mut a, &mut StdRng::seed_from_u64(99), 0.0, 1.0).unwrap();
        fill_normal(&mut b, &mut StdRng::seed_from_u64(99), 0.0, 1.0).unwrap();
        assert_eq!(a, b);
    }
}
