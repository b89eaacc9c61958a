//! Deterministic transcendental functions: [`exp`], [`tanh`] and
//! [`sigmoid`] in `f32`, [`ln`], [`sin`] and [`cos`] in `f64`.
//!
//! `f32::exp` and its relatives call the platform's libm, whose results
//! IEEE 754 does not fix, so every weight, score and digest computed
//! through them could differ on another host. Each function here is a
//! range reduction plus a fixed polynomial, built only from `+ − × ÷`,
//! `sqrt` and bit manipulation: IEEE 754 rounds each of those exactly,
//! and rustc never contracts `a * b + c` into a fused multiply-add, so
//! the output bits are the same on every target. (`mul_add` is avoided
//! too: it is software-emulated where the CPU has no FMA.)
//!
//! Every function is branch-free: special inputs run the same arithmetic
//! and are then replaced by selects, so a loop over a slice vectorises.
//! [`sigmoid_slice`] runs 16 lanes at a time and is bit-equal to
//! [`sigmoid`] element by element.
//!
//! The `f32` functions are evaluated in `f64` to within a few `2^-53`
//! and rounded once, so each returns the correctly rounded result unless
//! the exact value lies within about `2^-50` (relative) of a rounding
//! boundary, and is never more than `0.5 + 2^-20` ulp off; the tests
//! assert this against an `f64` libm reference. The `f64` functions
//! follow fdlibm's `log`, `__rem_pio2`, `__kernel_sin` and
//! `__kernel_cos`, with fdlibm's branches turned into selects, and stay
//! within 1 ulp.
//!
//! NaN in gives NaN out, and a clamp never turns NaN finite (the
//! fail-closed scoring chain depends on it). The ends are defined:
//! `exp` is `+∞` above `ln(f32::MAX)` and `+0` below the subnormal
//! range, `ln` is `−∞` at `±0` and NaN below it, and `sin`/`cos` are NaN
//! at `±∞` and beyond `±2^20`, a range no caller leaves (the Box–Muller
//! angle lies in `[0, 2π)`), where reducing by `π/2` in three pieces is
//! still exact.

/// Lanes per step of [`sigmoid_slice`].
const LANES: usize = 16;

/// Beyond `±EXP_WIDE_MAX` every `f32` result formed from [`exp_wide`]
/// has saturated (`e^110` overflows `f32`, `e^-110` rounds to `0`), and
/// `e^±110` is still finite in `f64`.
const EXP_WIDE_MAX: f64 = 110.0;

/// `1/k!` for `k = 1..=13`: on `|r| ≤ ln(2)/2` the truncated series for
/// `e^r − 1` is within `2^-55` of `e^r`.
const INV_FACT: [f64; 13] = [
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Below this, [`tanh`] forms `e^{2a} − 1` directly from the series,
/// which is then within its `|r| ≤ ln(2)/2` range.
const TANH_DIRECT: f64 = 0.34;

/// Beyond this, `tanh` is `1` in `f32`; clamping here keeps `e^{2a}`
/// finite.
const TANH_SAT: f64 = 20.0;

const SIGN_F32: u32 = 0x8000_0000;

/// `e^r − 1` for `|r| ≤ ln(2)/2`, with no cancellation near `r = 0`.
#[inline(always)]
fn expm1_reduced(r: f64) -> f64 {
    let mut p = INV_FACT[12];
    for &c in INV_FACT[..12].iter().rev() {
        p = p * r + c;
    }
    p * r
}

/// `e^x` in `f64` for `|x| ≤ EXP_WIDE_MAX`, within a few `2^-53`
/// relative: `x = n · ln 2 + r`, `e^x = 2^n · (1 + (e^r − 1))`. A NaN
/// stays NaN through every step.
#[inline(always)]
fn exp_wide(x: f64) -> f64 {
    let t = x * std::f64::consts::LOG2_E + ROUND_F64;
    let nf = t - ROUND_F64;
    let n = (t.to_bits() as i64).wrapping_sub(ROUND_F64.to_bits() as i64);
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    (1.0 + expm1_reduced(r)) * f64::from_bits((n.wrapping_add(1023) as u64) << 52)
}

/// `e^x` in `f32`: `+∞` above `ln(f32::MAX)`, `+0` below about
/// `−103.97`, and subnormal results in between rounded once.
#[inline]
pub fn exp(x: f32) -> f32 {
    // `clamp` passes a NaN through.
    exp_wide(f64::from(x).clamp(-EXP_WIDE_MAX, EXP_WIDE_MAX)) as f32
}

/// The logistic sigmoid `1 / (1 + e^{−x})` in `f32`: `1` for large `x`,
/// subnormal below about `−87.3` and `+0` below about `−103.97`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = exp_wide(-f64::from(x).clamp(-EXP_WIDE_MAX, EXP_WIDE_MAX));
    (1.0 / (1.0 + e)) as f32
}

/// Writes `dst[i] = sigmoid(src[i])`, 16 lanes at a time; bit-equal to
/// [`sigmoid`] on every element.
///
/// # Panics
///
/// When the two slices differ in length.
pub fn sigmoid_slice(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "sigmoid_slice: length mismatch");
    let mut dst_chunks = dst.chunks_exact_mut(LANES);
    let mut src_chunks = src.chunks_exact(LANES);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        for (o, &v) in d.iter_mut().zip(s) {
            *o = sigmoid(v);
        }
    }
    for (o, &v) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *o = sigmoid(v);
    }
}

/// `tanh(x)` in `f32`; odd, so `tanh(−0) = −0`, and `±1` at `±∞`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f64::from(x).abs().clamp(0.0, TANH_SAT);
    let two_a = a + a;
    // tanh a = (e^{2a} − 1) / (e^{2a} + 1): near 0 from the series for
    // e^{2a} − 1, elsewhere as 1 − 2 / (e^{2a} + 1).
    let em = expm1_reduced(two_a);
    let small = em / (em + 2.0);
    let large = 1.0 - 2.0 / (exp_wide(two_a) + 1.0);
    let y = if two_a < TANH_DIRECT { small } else { large } as f32;
    // y is ≥ +0 (or NaN), so or-ing in x's sign is copysign.
    f32::from_bits(y.to_bits() | (x.to_bits() & SIGN_F32))
}

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// fdlibm's `log` polynomial in `s² = (f / (2 + f))²`.
const LG: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5593),
    f64::from_bits(0x3fd9_9999_9997_fa04),
    f64::from_bits(0x3fd2_4924_9422_9359),
    f64::from_bits(0x3fcc_71c5_1d8e_78af),
    f64::from_bits(0x3fc7_4664_96cb_03de),
    f64::from_bits(0x3fc3_9a09_d078_c69f),
    f64::from_bits(0x3fc2_f112_df3e_5244),
];

/// `2^54`, which lifts a subnormal into the normal range.
const TWO54: f64 = 18_014_398_509_481_984.0;

/// Moves the exponent field so that the mantissa of the reduced argument
/// lands in `[√2/2, √2)` (fdlibm's `0x3ff00000 − 0x3fe6a09e`, widened).
const LN_OFFSET: u64 = (0x3ff0_0000 - 0x3fe6_a09e) << 32;
const LN_MANT_BASE: u64 = 0x3fe6_a09e << 32;
const MANT_MASK: u64 = (1 << 52) - 1;

/// `2^52`: or-ing a small integer into its mantissa and subtracting it
/// back converts the integer to `f64` exactly.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
const TWO52: f64 = 4_503_599_627_370_496.0;

/// `ln(x)` in `f64`, within 1 ulp. `−∞` at `±0`, NaN for `x < 0`, `+∞`
/// at `+∞`; subnormals are exact inputs like any other.
#[inline]
pub fn ln(x: f64) -> f64 {
    let tiny = x < f64::MIN_POSITIVE;
    let xs = if tiny { x * TWO54 } else { x };
    // x = 2^k · m, m in [√2/2, √2).
    let ix = xs.to_bits().wrapping_add(LN_OFFSET);
    let kbits = ix >> 52;
    let k = f64::from_bits(TWO52_BITS | kbits) - (TWO52 + 1023.0);
    let k = if tiny { k - 54.0 } else { k };
    let m = f64::from_bits((ix & MANT_MASK).wrapping_add(LN_MANT_BASE));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let [l1, l2, l3, l4, l5, l6, l7] = LG;
    let t1 = w * (l2 + w * (l4 + w * l6));
    let t2 = z * (l1 + w * (l3 + w * (l5 + w * l7)));
    let r = t2 + t1;
    let y = s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI;
    let bits = x.to_bits();
    if bits << 1 == 0 {
        f64::NEG_INFINITY
    } else if x < 0.0 {
        f64::NAN
    } else if x.is_nan() || x.is_infinite() {
        x
    } else {
        y
    }
}

/// Beyond this magnitude `sin` and `cos` return NaN: the quadrant count
/// `n` then needs more than 20 bits, and `n · PIO2_1` stops being exact.
const TRIG_MAX: f64 = 1_048_576.0;

/// Adding `1.5 · 2^52` rounds an `f64` of magnitude below `2^51` to an
/// integer in the low mantissa bits of the sum.
const ROUND_F64: f64 = 6_755_399_441_055_744.0;

const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
/// `π/2` in pieces of 33 bits, each with the tail after it.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
const PIO2_2T: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);

/// fdlibm's `__kernel_sin` coefficients.
const S: [f64; 6] = [
    f64::from_bits(0xbfc5_5555_5555_5549),
    f64::from_bits(0x3f81_1111_1110_f8a6),
    f64::from_bits(0xbf2a_01a0_19c1_61d5),
    f64::from_bits(0x3ec7_1de3_57b1_fe7d),
    f64::from_bits(0xbe5a_e5e6_8a2b_9ceb),
    f64::from_bits(0x3de5_d93a_5acf_d57c),
];

/// fdlibm's `__kernel_cos` coefficients.
const C: [f64; 6] = [
    f64::from_bits(0x3fa5_5555_5555_554c),
    f64::from_bits(0xbf56_c16c_16c1_5177),
    f64::from_bits(0x3efa_01a0_19cb_1590),
    f64::from_bits(0xbe92_7e4f_809c_52ad),
    f64::from_bits(0x3e21_ee9e_bdb4_b1c4),
    f64::from_bits(0xbda8_fae9_be88_38d4),
];

/// The biased exponent field of `v`.
#[inline(always)]
fn exponent(v: f64) -> i64 {
    ((v.to_bits() >> 52) & 0x7ff) as i64
}

/// `x = n · π/2 + (y0 + y1)` with `|y0 + y1| ≤ π/4` (about), as fdlibm's
/// `__rem_pio2` for `|x| < 2^20 · π/2`: a second and third piece of
/// `π/2` refine the remainder when the first leaves it more than 16
/// (then 49) bits below `x`. All three are computed and one selected.
#[inline(always)]
fn rem_pio2(x: f64) -> (i64, f64, f64) {
    let t = x * INV_PIO2 + ROUND_F64;
    let fnq = t - ROUND_F64;
    let n = (t.to_bits() as i64).wrapping_sub(ROUND_F64.to_bits() as i64);
    let r1 = x - fnq * PIO2_1;
    let w1 = fnq * PIO2_1T;
    let y1 = r1 - w1;

    let w = fnq * PIO2_2;
    let r2 = r1 - w;
    let w2 = fnq * PIO2_2T - ((r1 - r2) - w);
    let y2 = r2 - w2;

    let w = fnq * PIO2_3;
    let r3 = r2 - w;
    let w3 = fnq * PIO2_3T - ((r2 - r3) - w);
    let y3 = r3 - w3;

    let ex = exponent(x);
    let second = ex - exponent(y1) > 16;
    let third = second && ex - exponent(y2) > 49;
    let (r, w, y0) = if third {
        (r3, w3, y3)
    } else if second {
        (r2, w2, y2)
    } else {
        (r1, w1, y1)
    };
    (n, y0, (r - y0) - w)
}

/// `sin(x + y)` for `|x + y| ≤ π/4`, `y` the tail of `x` (fdlibm).
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let [s1, s2, s3, s4, s5, s6] = S;
    let z = x * x;
    let w = z * z;
    let r = s2 + z * (s3 + z * s4) + z * w * (s5 + z * s6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * s1)
}

/// `cos(x + y)` for `|x + y| ≤ π/4`, `y` the tail of `x` (fdlibm).
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let [c1, c2, c3, c4, c5, c6] = C;
    let z = x * x;
    let w = z * z;
    let r = z * (c1 + z * (c2 + z * c3)) + w * w * (c4 + z * (c5 + z * c6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// `(sin x, cos x)` from one reduction; NaN pair outside `|x| ≤ 2^20`.
#[inline(always)]
fn sin_cos(x: f64) -> (f64, f64) {
    let (n, y0, y1) = rem_pio2(x);
    let ks = kernel_sin(y0, y1);
    let kc = kernel_cos(y0, y1);
    // Quadrant n: sin is ks, kc, −ks, −kc and cos is kc, −ks, −kc, ks.
    let (s, c) = if n & 1 == 0 { (ks, kc) } else { (kc, ks) };
    let s = if n & 2 == 0 { s } else { -s };
    let c = if n.wrapping_add(1) & 2 == 0 { c } else { -c };
    // Also catches NaN and ±∞.
    let inside = x.abs() <= TRIG_MAX;
    if inside {
        (s, c)
    } else {
        (f64::NAN, f64::NAN)
    }
}

/// `sin(x)` in `f64`, within 1 ulp for `|x| ≤ 2^20`; odd, so
/// `sin(−0) = −0`. NaN outside that range and at `±∞`.
#[inline]
pub fn sin(x: f64) -> f64 {
    sin_cos(x).0
}

/// `cos(x)` in `f64`, within 1 ulp for `|x| ≤ 2^20`. NaN outside that
/// range and at `±∞`.
#[inline]
pub fn cos(x: f64) -> f64 {
    sin_cos(x).1
}

#[cfg(test)]
mod tests {
    //! The references below call the platform libm: tests may, the
    //! library may not.

    use super::*;

    /// Spacing of the `f32` grid at `r` (subnormal spacing below
    /// `f32::MIN_POSITIVE`).
    fn ulp32(r: f64) -> f64 {
        let a = (r as f32).abs();
        if a >= f32::MAX {
            return f64::from(f32::MAX) - f64::from(f32::from_bits(f32::MAX.to_bits() - 1));
        }
        f64::from(f32::from_bits(a.to_bits() + 1)) - f64::from(a)
    }

    /// `|y − r|` in ulps of the `f32` grid at the reference `r`.
    fn ulps32(y: f32, r: f64) -> f64 {
        (f64::from(y) - r).abs() / ulp32(r)
    }

    /// `|y − r|` in ulps of the `f64` grid at the reference `r`.
    fn ulps64(y: f64, r: f64) -> f64 {
        let a = r.abs();
        let ulp = f64::from_bits(a.to_bits() + 1) - a;
        (y - r).abs() / ulp
    }

    /// Every `stride`-th `f32` bit pattern from `lo` to `hi` (same sign).
    fn grid32(lo: f32, hi: f32, stride: u32) -> impl Iterator<Item = f32> {
        let (a, b) = (
            lo.to_bits().min(hi.to_bits()),
            lo.to_bits().max(hi.to_bits()),
        );
        (a..=b).step_by(stride as usize).map(f32::from_bits)
    }

    /// A SplitMix64 stream of `f64` in `[lo, hi)`.
    fn uniform64(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    fn worst<T: Copy + std::fmt::Debug>(
        xs: impl Iterator<Item = T>,
        mut err: impl FnMut(T) -> f64,
    ) -> (f64, Option<T>) {
        xs.fold((0.0, None), |(w, at), x| {
            let e = err(x);
            if e > w {
                (e, Some(x))
            } else {
                (w, at)
            }
        })
    }

    /// The `f32` functions' bound: half an ulp, plus what an `f64`
    /// evaluation a few `2^-53` off can add near a rounding boundary.
    const F32_BOUND: f64 = 0.5 + 1.0 / (1u64 << 20) as f64;

    /// Worst error in ulps of `f` against the `f64` reference `r`, and how
    /// many results differ from the reference rounded to `f32`.
    fn check32(
        xs: impl Iterator<Item = f32>,
        f: impl Fn(f32) -> f32,
        r: impl Fn(f64) -> f64,
    ) -> (f64, Option<f32>, usize) {
        let misrounded = std::cell::Cell::new(0);
        let (w, at) = worst(xs, |x| {
            let (y, want) = (f(x), r(f64::from(x)));
            misrounded.set(misrounded.get() + usize::from(y.to_bits() != (want as f32).to_bits()));
            ulps32(y, want)
        });
        (w, at, misrounded.get())
    }

    #[test]
    fn exp_is_within_half_an_ulp_on_a_dense_grid() {
        let xs = grid32(-0.0, -104.0, 97).chain(grid32(0.0, 88.72, 97));
        let (w, at, misrounded) = check32(xs, exp, f64::exp);
        assert!(w <= F32_BOUND, "exp: {w} ulp at {at:?}");
        assert!(misrounded == 0, "exp: {misrounded} misrounded");
    }

    #[test]
    fn sigmoid_is_within_half_an_ulp_on_a_dense_grid() {
        // Down to -104, where the result is subnormal.
        let xs = grid32(-0.0, -104.0, 61).chain(grid32(0.0, 100.0, 61));
        let (w, at, misrounded) = check32(xs, sigmoid, |x| 1.0 / (1.0 + (-x).exp()));
        assert!(w <= F32_BOUND, "sigmoid: {w} ulp at {at:?}");
        assert!(misrounded == 0, "sigmoid: {misrounded} misrounded");
    }

    #[test]
    fn tanh_is_within_half_an_ulp_on_a_dense_grid() {
        let xs = grid32(-0.0, -20.0, 53).chain(grid32(f32::from_bits(1), 20.0, 53));
        let (w, at, misrounded) = check32(xs, tanh, f64::tanh);
        assert!(w <= F32_BOUND, "tanh: {w} ulp at {at:?}");
        assert!(misrounded == 0, "tanh: {misrounded} misrounded");
    }

    #[test]
    fn ln_is_within_1_ulp_on_a_dense_grid() {
        let stride = 1u64 << 40;
        let across = (1..0x7ff0_0000_0000_0000u64)
            .step_by(stride as usize)
            .map(f64::from_bits);
        let near_one = uniform64(200_000, 0.5, 2.0, 1).into_iter();
        // The Box–Muller draws: (k + 1) · 2^-53, small and large k.
        let draws = (0..20_000u64)
            .chain((0..20_000u64).map(|k| (1u64 << 53) - 1 - k))
            .map(|k| (k as f64 + 1.0) * (1.0 / (1u64 << 53) as f64));
        let (w, at) = worst(across.chain(near_one).chain(draws), |x| {
            ulps64(ln(x), x.ln())
        });
        assert!(w <= 1.0, "ln: {w} ulp at {at:?}");
    }

    #[test]
    fn sin_and_cos_are_within_1_ulp_on_a_dense_grid() {
        let wide = uniform64(100_000, -TRIG_MAX, TRIG_MAX, 2);
        let narrow = uniform64(200_000, -10.0, std::f64::consts::TAU + 1.0, 3);
        // Near the zeros of sin and cos, where the reduction cancels.
        let zeros = (-2000..2000).flat_map(|k| {
            let c = f64::from(k) * std::f64::consts::FRAC_PI_2;
            let b = c.to_bits();
            [
                c,
                f64::from_bits(b + 1),
                f64::from_bits(b.saturating_sub(1)),
            ]
        });
        let xs: Vec<f64> = wide.into_iter().chain(narrow).chain(zeros).collect();
        let (ws, at_s) = worst(xs.iter().copied(), |x| ulps64(sin(x), x.sin()));
        let (wc, at_c) = worst(xs.iter().copied(), |x| ulps64(cos(x), x.cos()));
        assert!(ws <= 1.0, "sin: {ws} ulp at {at_s:?}");
        assert!(wc <= 1.0, "cos: {wc} ulp at {at_c:?}");
    }

    #[test]
    fn outputs_are_pinned_bit_for_bit() {
        // A compiler, target or coefficient change that moves one bit
        // shows here first.
        let exp_pins: [(f32, u32); 6] = [
            (-103.5, EXP_PIN[0]),
            (-10.25, EXP_PIN[1]),
            (-0.3, EXP_PIN[2]),
            (0.7, EXP_PIN[3]),
            (12.5, EXP_PIN[4]),
            (88.5, EXP_PIN[5]),
        ];
        for (x, bits) in exp_pins {
            assert_eq!(exp(x).to_bits(), bits, "exp({x})");
        }
        for (x, bits) in [
            (-5.0f32, SIGMOID_PIN[0]),
            (0.3, SIGMOID_PIN[1]),
            (4.0, SIGMOID_PIN[2]),
        ] {
            assert_eq!(sigmoid(x).to_bits(), bits, "sigmoid({x})");
        }
        for (x, bits) in [
            (-0.1f32, TANH_PIN[0]),
            (0.6, TANH_PIN[1]),
            (2.5, TANH_PIN[2]),
        ] {
            assert_eq!(tanh(x).to_bits(), bits, "tanh({x})");
        }
        for (x, bits) in [
            (1e-300, LN_PIN[0]),
            (0.3, LN_PIN[1]),
            (1.5, LN_PIN[2]),
            (7e10, LN_PIN[3]),
        ] {
            assert_eq!(ln(x).to_bits(), bits, "ln({x})");
        }
        for (x, bits) in [
            (0.5, COS_PIN[0]),
            (2.0, COS_PIN[1]),
            (6.0, COS_PIN[2]),
            (1e5, COS_PIN[3]),
        ] {
            assert_eq!(cos(x).to_bits(), bits, "cos({x})");
        }
        for (x, bits) in [
            (0.5, SIN_PIN[0]),
            (2.0, SIN_PIN[1]),
            (6.0, SIN_PIN[2]),
            (1e5, SIN_PIN[3]),
        ] {
            assert_eq!(sin(x).to_bits(), bits, "sin({x})");
        }
    }

    const EXP_PIN: [u32; 6] = [
        0x0000_0001,
        0x3814_4cd4,
        0x3f3d_a643,
        0x4000_e153,
        0x4883_0629,
        0x7f4c_dcc4,
    ];
    const SIGMOID_PIN: [u32; 3] = [0x3bdb_4fb4, 0x3f13_0eaa, 0x3f7b_6541];
    const TANH_PIN: [u32; 3] = [0xbdcc_1ebc, 0x3f09_7c15, 0x3f7c_92c1];
    const LN_PIN: [u64; 4] = [
        0xc085_9634_47f8_7fb5,
        0xbff3_4378_fcbd_a721,
        0x3fd9_f323_ecbf_984c,
        0x4038_f8c5_5585_d000,
    ];
    const COS_PIN: [u64; 4] = [
        0x3fec_1528_065b_7d50,
        0xbfda_a226_5753_7205,
        0x3fee_b9b7_0978_22f5,
        0xbfef_fac3_841b_3da7,
    ];
    const SIN_PIN: [u64; 4] = [
        0x3fde_aee8_744b_05f0,
        0x3fed_18f6_ead1_b446,
        0xbfd1_e1f1_8ab0_a2c0,
        0x3fa2_4daa_9c52_7e96,
    ];

    fn same32(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn special_values_are_defined() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        // exp: NaN stays NaN, ±∞ and the overflow/underflow edges.
        assert!(exp(nan).is_nan() && exp(-nan).is_nan());
        assert_eq!(exp(inf), inf);
        assert_eq!(exp(-inf).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(88.73), inf);
        assert_eq!(exp(1e30), inf);
        assert!(exp(88.72).is_finite());
        assert!(exp(-87.0) >= f32::MIN_POSITIVE);
        let sub = exp(-100.0);
        assert!(sub > 0.0 && sub < f32::MIN_POSITIVE, "subnormal {sub:e}");
        assert_eq!(
            exp(-103.0),
            f32::from_bits(((-103.0f64).exp() / 2f64.powi(-149)).round() as u32)
        );
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-1e30).to_bits(), 0);
        assert_eq!(exp(f32::from_bits(1)), 1.0);
        // sigmoid
        assert!(sigmoid(nan).is_nan());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(100.0), 1.0);
        let tail = (1.0 / (1.0 + 100f64.exp())) as f32;
        assert!(tail > 0.0 && tail < f32::MIN_POSITIVE);
        assert_eq!(sigmoid(-100.0), tail);
        assert_eq!(sigmoid(-104.0).to_bits(), 0);
        assert_eq!(sigmoid(inf), 1.0);
        assert_eq!(sigmoid(-inf).to_bits(), 0);
        // tanh
        assert!(tanh(nan).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(inf), 1.0);
        assert_eq!(tanh(-inf), -1.0);
        assert_eq!(tanh(100.0), 1.0);
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        assert_eq!(tanh(-tiny), -tiny);
        assert_eq!(tanh(1e-20), 1e-20);
        // ln
        let (inf64, nan64) = (f64::INFINITY, f64::NAN);
        assert!(ln(nan64).is_nan());
        assert!(ln(-1.0).is_nan());
        assert!(ln(-inf64).is_nan());
        assert!(ln(-f64::MIN_POSITIVE).is_nan());
        assert_eq!(ln(0.0), -inf64);
        assert_eq!(ln(-0.0), -inf64);
        assert_eq!(ln(inf64), inf64);
        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!(ln(f64::MAX), f64::MAX.ln());
        let min_sub = f64::from_bits(1);
        assert_eq!(ln(min_sub), min_sub.ln());
        assert_eq!(ln(f64::MIN_POSITIVE), f64::MIN_POSITIVE.ln());
        // sin and cos
        for v in [nan64, inf64, -inf64, TRIG_MAX * 2.0, -1e300] {
            assert!(sin(v).is_nan() && cos(v).is_nan(), "{v}");
        }
        assert!(sin(TRIG_MAX).is_finite() && cos(-TRIG_MAX).is_finite());
        assert_eq!(sin(0.0).to_bits(), 0);
        assert_eq!(sin(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(cos(0.0), 1.0);
        assert_eq!(cos(-0.0), 1.0);
        assert_eq!(sin(min_sub), min_sub);
        assert_eq!(cos(min_sub), 1.0);
        assert!(same32(tanh(-nan), nan));
    }

    #[test]
    fn slice_form_is_bit_equal_to_the_scalar_form_at_every_length() {
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            100.0,
            -100.0,
            88.8,
            -88.8,
            f32::from_bits(1),
        ];
        for len in 0..=40usize {
            let src: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 7 == 3 {
                        specials[i % specials.len()]
                    } else {
                        (i as f32 * 0.37 - 6.0) * if i % 2 == 0 { 1.0 } else { 3.1 }
                    }
                })
                .collect();
            let mut dst = vec![7.0f32; len];
            sigmoid_slice(&src, &mut dst);
            for (i, (&d, &s)) in dst.iter().zip(&src).enumerate() {
                assert!(same32(d, sigmoid(s)), "len {len}, element {i}: {s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn slice_form_rejects_mismatched_lengths() {
        sigmoid_slice(&[1.0, 2.0], &mut [0.0]);
    }
}
