//! Bit-parity of the register-blocked GEMM kernels against an embedded
//! naive reference, for random and block-edge shapes.
//!
//! The kernels behind `ndtensor::matmul` and `ndtensor::conv2d` block
//! output rows and columns in registers and pack operand panels for
//! locality, but the contract is strict: every output element is
//! accumulated over `k` ascending, in one chain, exactly like the
//! three-loop schoolbook product. These tests hold the kernels to
//! that contract at the bit level — any reassociation, a blocking over
//! `k` that splits a chain into partial sums added together, or FMA
//! contraction would fail them. (Blocking `k` so that a chain pauses in
//! the output and resumes from it is allowed: an f32 store and load are
//! exact, so it is still one chain.)

use ndtensor::{
    conv2d, conv2d_backward, conv2d_backward_params, matmul, matmul_a_bt, matmul_assign,
    matmul_at_b, matmul_at_b_acc, Conv2dSpec, Tensor,
};
use proptest::prelude::*;

fn pseudo(shape: impl Into<ndtensor::Shape>, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Tensor::from_fn(shape.into(), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

/// A ReLU-like `[m, k]` operand: at most one element in 16 non-zero,
/// about a third of the zeros `-0.0`, and every third row from row 1
/// entirely zero.
fn zero_heavy(m: usize, k: usize, seed: u64) -> Tensor {
    let values = pseudo([m, k], seed);
    let data = (0..m * k)
        .map(|x| {
            if (x / k) % 3 != 1 && (x as u64 + seed).is_multiple_of(16) {
                values.as_slice()[x]
            } else if x.is_multiple_of(3) {
                -0.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec([m, k], data).unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Schoolbook `A[m,k] · B[k,n]`: one accumulation chain per output
/// element, `k` ascending. This is the reference order every production
/// kernel must reproduce bit-for-bit.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Schoolbook `Aᵀ[m,k] · B[k,n]` with `A` stored `[k, m]`.
fn naive_matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[l * m + i] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Schoolbook `A[m,k] · Bᵀ[k,n]` with `B` stored `[n, k]`.
fn naive_matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[j * k + l];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Asserts that `got` has `reference`'s bits.
fn assert_parity(reference: &[f32], label: &str, got: &Tensor) -> Result<(), TestCaseError> {
    prop_assert!(
        bits(got.as_slice()) == bits(reference),
        "{label}: mismatch vs naive"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` reproduces the naive chain bit-for-bit
    /// for random shapes spanning several 64-wide register blocks and
    /// their column remainder (n up to 319) and odd and even row counts.
    #[test]
    fn matmul_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..320,
        seed in 0u64..1000,
    ) {
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity(&reference, "matmul", &matmul(&a, &b).unwrap())?;
    }

    /// Same contract for the transposed-A kernel, whose production
    /// implementation packs the strided Aᵀ reads into a contiguous
    /// scratch panel first.
    #[test]
    fn matmul_at_b_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..320,
        seed in 0u64..1000,
    ) {
        let a = pseudo([k, m], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul_at_b(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity(&reference, "matmul_at_b", &matmul_at_b(&a, &b).unwrap())?;
    }

    /// Same contract for the transposed-B product, which production
    /// runs on the padded-panel kernel as `B · Aᵀ`.
    #[test]
    fn matmul_a_bt_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..96,
        seed in 0u64..1000,
    ) {
        let a = pseudo([m, k], seed);
        let b = pseudo([n, k], seed + 7);
        let reference = naive_matmul_a_bt(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity(&reference, "matmul_a_bt", &matmul_a_bt(&a, &b).unwrap())?;
    }

    /// Same contract for the assigning, never-skipping `A·B` that runs
    /// every dense forward: shapes cross the 64-wide register block and
    /// its column remainder, odd `m` hits the single-row block, `k = 0`
    /// must give zeros, and exact zeros in `A` must not be skipped.
    #[test]
    fn matmul_assign_bitwise_matches_naive(
        m in 1usize..10,
        k in 0usize..80,
        n in 1usize..200,
        zero_every in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut a = pseudo([m, k], seed);
        if zero_every > 0 {
            a.as_mut_slice().iter_mut().step_by(zero_every).for_each(|v| *v = 0.0);
        }
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity(&reference, "matmul_assign", &matmul_assign(&a, &b).unwrap())?;
    }

    /// The zero-skipping `A·B` on an all-finite `B` and a ReLU-like `A`
    /// — at least 90 % exact zeros, `-0.0` entries and all-zero rows — is
    /// bit-equal to the naive chain and to `matmul_a_bt` on the
    /// transposed `B`, at `m ∈ {1, 2, 15}`.
    #[test]
    fn matmul_zero_heavy_a_finite_b_bitwise_matches_naive(
        m_pick in 0usize..3,
        k in 0usize..80,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let m = [1usize, 2, 15][m_pick];
        let a = zero_heavy(m, k, seed);
        let zeros = a.as_slice().iter().filter(|&&v| v == 0.0).count();
        prop_assert!(a.len() < 20 || zeros * 10 >= a.len() * 9, "{zeros} zeros of {}", a.len());
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        let bt = b.transpose2d().unwrap();
        let abt = matmul_a_bt(&a, &bt).unwrap();
        prop_assert_eq!(bits(abt.as_slice()), bits(&reference));
        assert_parity(&reference, "matmul", &matmul(&a, &b).unwrap())?;
    }

    /// The zero-padded convolution (im2col + packed GEMM) reproduces the
    /// naive chain bit-for-bit for random batch, channel and filter
    /// counts and input sizes.
    #[test]
    fn conv2d_bitwise_matches_naive(
        n in 1usize..3,
        c in 1usize..3,
        f in 1usize..4,
        hw in 6usize..14,
        seed in 0u64..1000,
    ) {
        let spec = Conv2dSpec::new((1, 1), (1, 1));
        let input = pseudo([n, c, hw, hw], seed);
        let weight = pseudo([f, c, 3, 3], seed + 3);
        let bias = pseudo([f], seed + 5);
        let reference = naive_conv_general(&input, &weight, Some(&bias), spec);
        assert_parity(&reference, "conv2d", &conv2d(&input, &weight, Some(&bias), spec).unwrap())?;
    }
}

/// Schoolbook stride-1, unpadded convolution of one `[c, h, w]` sample
/// with `[f, c, kh, kw]` weights: each output element is one chain over
/// `(ci, ky, kx)` ascending — the im2col row order — then `+ bias`, the
/// order the production forward pass adds it in.
#[allow(clippy::too_many_arguments)]
fn naive_conv(
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
) -> Vec<f32> {
    let (oh, ow) = (h - kh + 1, w - kw + 1);
    let mut out = vec![0.0f32; f * oh * ow];
    for fi in 0..f {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..c {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            acc += wt[((fi * c + ci) * kh + ky) * kw + kx]
                                * x[(ci * h + oy + ky) * w + ox + kx];
                        }
                    }
                }
                out[(fi * oh + oy) * ow + ox] = acc + bias[fi];
            }
        }
    }
    out
}

/// `matmul`, `matmul_at_b` and `conv2d` at `n ∈ {63, 64}` × `k ∈ {128,
/// 129}` reproduce the naive chain bit-for-bit: `n = 63` runs entirely in
/// the register-blocked kernel's axpy column remainder, `n = 64` in one
/// 64-wide block, and `k` straddles the depth at which a `k × 64` B block
/// stops fitting a 32 KB L1. Odd row counts hit the register kernel's
/// remainder row; for `conv2d` the GEMM is `W · cols` with `k = c·kh·kw`
/// and `n = oh·ow`.
#[test]
fn kernel_choice_boundary_matches_naive_bitwise() {
    for (case, &(k, n)) in [(128usize, 63usize), (128, 64), (129, 63), (129, 64)]
        .iter()
        .enumerate()
    {
        let seed = 200 + case as u64;
        for m in [3usize, 8] {
            let a = pseudo([m, k], seed);
            let at = pseudo([k, m], seed + 1);
            let b = pseudo([k, n], seed + 2);
            assert_eq!(
                bits(matmul(&a, &b).unwrap().as_slice()),
                bits(&naive_matmul(a.as_slice(), b.as_slice(), m, k, n)),
                "matmul m{m} k{k} n{n}"
            );
            assert_eq!(
                bits(matmul_at_b(&at, &b).unwrap().as_slice()),
                bits(&naive_matmul_at_b(at.as_slice(), b.as_slice(), m, k, n)),
                "matmul_at_b m{m} k{k} n{n}"
            );
        }
        // k = 128 as 32 channels × 2×2, k = 129 as 43 channels × 3×1;
        // n = 63 as a 7×9 output, n = 64 as 8×8.
        let (c, kh, kw) = if k == 128 { (32, 2, 2) } else { (43, 3, 1) };
        let (oh, ow) = if n == 63 { (7, 9) } else { (8, 8) };
        let (h, w, f) = (oh + kh - 1, ow + kw - 1, 3);
        let input = pseudo([1, c, h, w], seed + 3);
        let weight = pseudo([f, c, kh, kw], seed + 4);
        let bias = pseudo([f], seed + 5);
        let got = conv2d(
            &input,
            &weight,
            Some(&bias),
            Conv2dSpec::new((1, 1), (0, 0)),
        )
        .unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&naive_conv(
                input.as_slice(),
                weight.as_slice(),
                bias.as_slice(),
                c,
                h,
                w,
                f,
                kh,
                kw
            )),
            "conv2d k{k} n{n}"
        );
    }
}

/// Fixed shapes chosen to land exactly on kernel block edges: multiples
/// of the 64-wide register block with and without a column remainder
/// (256, 257, 255, 512, 64, 65), the panel kernel's 32/16/8-wide column
/// blocks, and row counts on and off its 4-row and the register kernel's
/// 2-row blocks.
#[test]
fn tile_edge_shapes_match_naive_bitwise() {
    let cases = [
        (4usize, 16usize, 256usize),
        (3, 16, 257),
        (5, 16, 255),
        (1, 9, 512),
        (8, 1, 64),
        (2, 33, 65),
    ];
    for (idx, &(m, k, n)) in cases.iter().enumerate() {
        let seed = 40 + idx as u64;
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 7);
        let bt = pseudo([n, k], seed + 11);
        let at = pseudo([k, m], seed + 13);
        assert_eq!(
            bits(matmul(&a, &b).unwrap().as_slice()),
            bits(&naive_matmul(a.as_slice(), b.as_slice(), m, k, n)),
            "matmul m{m} k{k} n{n}"
        );
        assert_eq!(
            bits(matmul_at_b(&at, &b).unwrap().as_slice()),
            bits(&naive_matmul_at_b(at.as_slice(), b.as_slice(), m, k, n)),
            "matmul_at_b m{m} k{k} n{n}"
        );
        assert_eq!(
            bits(matmul_a_bt(&a, &bt).unwrap().as_slice()),
            bits(&naive_matmul_a_bt(a.as_slice(), bt.as_slice(), m, k, n)),
            "matmul_a_bt m{m} k{k} n{n}"
        );
    }
}

/// The pre-panel forward pass, element by element: per output element
/// one chain from `0.0` over the im2col rows `(ci, ky, kx)` ascending,
/// skipping exact-zero weights (padding taps contribute `w · 0.0`), then
/// a single `+ bias` — the accumulating GEMM into a zeroed output
/// followed by the separate bias pass.
fn naive_conv_general(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Vec<f32> {
    let [n, c, h, w] = <[usize; 4]>::try_from(input.shape().dims()).unwrap();
    let [f, _, kh, kw] = <[usize; 4]>::try_from(weight.shape().dims()).unwrap();
    let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
    let (x, wt) = (input.as_slice(), weight.as_slice());
    let mut out = Vec::with_capacity(n * f * oh * ow);
    for ni in 0..n {
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let a = wt[((fi * c + ci) * kh + ky) * kw + kx];
                                if a == 0.0 {
                                    continue;
                                }
                                let iy =
                                    (oy * spec.stride.0 + ky) as isize - spec.padding.0 as isize;
                                let ix =
                                    (ox * spec.stride.1 + kx) as isize - spec.padding.1 as isize;
                                let v = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                {
                                    0.0
                                } else {
                                    x[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                                };
                                acc += a * v;
                            }
                        }
                    }
                    out.push(match bias {
                        Some(b) => acc + b.as_slice()[fi],
                        None => acc,
                    });
                }
            }
        }
    }
    out
}

/// The implicit-GEMM conv forward reproduces the naive chain
/// bit-for-bit: output widths `n = oh·ow` of 1, W−1, W, W+1 and 2W+3
/// for the 32-column register block, and the five PilotNet layer shapes
/// (compact widths, 60×160 input); batch 1 and 3, with and without bias, on weights with an all-zero filter row, a
/// `-0.0` and otherwise no zeros (both sides of the dense-row gate).
#[test]
fn conv2d_panel_forward_matches_naive_bitwise() {
    let strided = Conv2dSpec::new((2, 2), (0, 0));
    let padded = Conv2dSpec::new((1, 1), (1, 1));
    // (c, h, w, f, kh, kw, spec)
    let cases = [
        (
            2usize,
            3usize,
            3usize,
            5usize,
            3usize,
            3usize,
            Conv2dSpec::unit(),
        ),
        (2, 3, 33, 5, 3, 3, Conv2dSpec::unit()),
        (3, 6, 10, 6, 3, 3, Conv2dSpec::unit()),
        (2, 5, 13, 4, 3, 3, Conv2dSpec::unit()),
        (1, 3, 69, 9, 3, 3, Conv2dSpec::unit()),
        (1, 60, 160, 8, 5, 5, strided),
        (8, 28, 78, 12, 5, 5, strided),
        (12, 12, 37, 16, 5, 5, strided),
        (16, 4, 17, 20, 3, 3, padded),
        (20, 4, 17, 20, 3, 3, padded),
    ];
    for (case, &(c, h, w, f, kh, kw, spec)) in cases.iter().enumerate() {
        let seed = 300 + case as u64;
        let mut weight = pseudo([f, c, kh, kw], seed + 1);
        let k = c * kh * kw;
        // Filter 1 is all zeros (or the only one is, for f = 1), filter 0
        // holds a -0.0; the rest have no exact zero.
        let zero_row = 1.min(f - 1);
        weight.as_mut_slice()[zero_row * k..(zero_row + 1) * k].fill(0.0);
        weight.as_mut_slice()[k / 2] = -0.0;
        let bias = pseudo([f], seed + 2);
        for batch in [1usize, 3] {
            let input = pseudo([batch, c, h, w], seed);
            for b in [None, Some(&bias)] {
                let want = naive_conv_general(&input, &weight, b, spec);
                let got = conv2d(&input, &weight, b, spec).unwrap();
                let label = format!("case {case} batch {batch} bias {}", b.is_some());
                assert_eq!(bits(got.as_slice()), bits(&want), "conv2d {label}");
            }
        }
    }
}

/// `[f, c, kh, kw]` weights with every fifth entry `0.0` and every
/// seventh `-0.0` (offset by `seed`), the rest pseudo-random.
fn holed_weights(shape: [usize; 4], seed: u64) -> Tensor {
    let mut weight = pseudo(shape, seed);
    for (i, v) in weight.as_mut_slice().iter_mut().enumerate() {
        let at = i as u64 + seed;
        if at.is_multiple_of(5) {
            *v = 0.0;
        } else if at.is_multiple_of(7) {
            *v = -0.0;
        }
    }
    weight
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `conv2d` reproduces `naive_conv_general` bit for bit at every
    /// stride-phase geometry: stride 1–3, padding 0–2 and kernel 1–5 per
    /// axis (kernel below the stride and padding at or above the kernel
    /// included), odd and even input sizes, batch 1–3, weights holding
    /// exact `0.0` and `-0.0`, with and without bias.
    #[test]
    fn conv2d_any_stride_padding_kernel_matches_naive(
        (n, c, f) in (1usize..4, 1usize..4, 1usize..7),
        (kh, kw) in (1usize..6, 1usize..6),
        (sh, sw) in (1usize..4, 1usize..4),
        (ph, pw) in (0usize..3, 0usize..3),
        (dh, dw) in (0usize..9, 0usize..9),
        seed in 0u64..1000,
    ) {
        // Any input the padded kernel fits: at least one pixel, at least
        // `k − 2p` of them.
        let h = kh.saturating_sub(2 * ph).max(1) + dh;
        let w = kw.saturating_sub(2 * pw).max(1) + dw;
        let spec = Conv2dSpec::new((sh, sw), (ph, pw));
        let input = pseudo([n, c, h, w], seed);
        let weight = holed_weights([f, c, kh, kw], seed + 1);
        let bias = pseudo([f], seed + 2);
        let b = seed.is_multiple_of(2).then_some(&bias);
        let want = naive_conv_general(&input, &weight, b, spec);
        let label = format!("n{n} c{c} f{f} {h}x{w} k{kh}x{kw} s{sh}x{sw} p{ph}x{pw}");
        assert_parity(&want, &label, &conv2d(&input, &weight, b, spec).unwrap())?;
    }
}

/// Non-finite pixels reach exactly the kept outputs the naive chain
/// sends them to, on a NaN-poisoned scratch pool:
///
/// * pixels that no kept output reads — the right-hand column a stride-2
///   window never reaches, and the columns a stride-3, 2-wide kernel
///   steps over — but that dropped wide columns of the implicit GEMM do
///   read, or that land in a phase plane no tap reads, change no bit;
/// * pixels that kept outputs read, where some of those outputs face
///   them through an exact `0.0` or `-0.0` weight on every filter, give
///   those outputs their finite naive value and the rest NaN.
///
/// Kept outputs equal `naive_conv_general` with NaNs compared by NaN-ness.
#[test]
fn conv2d_non_finite_pixels_match_naive() {
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    // (c, h, w, f, kh, kw, spec, poisoned pixel columns of every row)
    let unread = [
        (
            2usize,
            9usize,
            12usize,
            6usize,
            3usize,
            3usize,
            Conv2dSpec::new((2, 2), (0, 0)),
            vec![11usize],
        ),
        (3, 8, 12, 5, 5, 5, Conv2dSpec::new((2, 2), (0, 0)), vec![11]),
        (
            2,
            7,
            13,
            4,
            2,
            2,
            Conv2dSpec::new((3, 3), (0, 0)),
            vec![2, 5, 8, 11, 12],
        ),
        (
            1,
            60,
            162,
            8,
            5,
            5,
            Conv2dSpec::new((2, 2), (0, 0)),
            vec![161],
        ),
    ];
    for (case, (c, h, w, f, kh, kw, spec, columns)) in unread.into_iter().enumerate() {
        let seed = 1100 + 10 * case as u64;
        let mut input = pseudo([2, c, h, w], seed);
        for (row, chunk) in input.as_mut_slice().chunks_exact_mut(w).enumerate() {
            for (i, &x) in columns.iter().enumerate() {
                chunk[x] = bad[(row + i) % 3];
            }
        }
        let weight = holed_weights([f, c, kh, kw], seed + 1);
        let bias = pseudo([f], seed + 2);
        let want = naive_conv_general(&input, &weight, Some(&bias), spec);
        assert!(
            want.iter().all(|v| v.is_finite()),
            "case {case}: read a poisoned pixel"
        );
        poison_scratch_pool();
        let got = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        assert_eq!(bits(got.as_slice()), bits(&want), "unread case {case}");
    }

    // (c, h, w, f, spec, pixel): a 3×3 kernel, taps (ci 1, ky 1, kx 1)
    // and (ci 1, ky 0, kx 2) `0.0` and `-0.0` on every filter, and a
    // non-finite value at `pixel` of sample 1, channel 1, which one of
    // those taps faces.
    let faced = [
        (
            2usize,
            7usize,
            9usize,
            5usize,
            Conv2dSpec::new((1, 1), (1, 1)),
            (3usize, 4usize),
        ),
        (2, 8, 10, 4, Conv2dSpec::new((2, 2), (1, 1)), (3, 3)),
        (3, 9, 11, 6, Conv2dSpec::new((1, 2), (0, 2)), (3, 5)),
    ];
    for (case, (c, h, w, f, spec, (py, px))) in faced.into_iter().enumerate() {
        let seed = 1200 + 10 * case as u64;
        let (oh, ow) = spec.output_hw(h, w, 3, 3).unwrap();
        let ((sh, sw), (ph, pw)) = (spec.stride, spec.padding);
        let mut weight = pseudo([f, c, 3, 3], seed + 1);
        for fi in 0..f {
            let tap = |ky: usize, kx: usize| ((fi * c + 1) * 3 + ky) * 3 + kx;
            weight.as_mut_slice()[tap(1, 1)] = 0.0;
            weight.as_mut_slice()[tap(0, 2)] = -0.0;
        }
        // The outputs of sample 1 that read the pixel, one per tap.
        let readers: Vec<usize> = (0..9)
            .filter_map(|t| {
                let (y, x) = (py + ph, px + pw);
                let (ky, kx) = (t / 3, t % 3);
                let (oy, ox) = (y.checked_sub(ky)? / sh, x.checked_sub(kx)? / sw);
                let hit = oy * sh + ky == y && ox * sw + kx == x && oy < oh && ox < ow;
                hit.then_some(oy * ow + ox)
            })
            .collect();
        let bias = pseudo([f], seed + 2);
        for (i, v) in bad.into_iter().enumerate() {
            let mut input = pseudo([2, c, h, w], seed + i as u64);
            input.as_mut_slice()[((c + 1) * h + py) * w + px] = v;
            let want = naive_conv_general(&input, &weight, Some(&bias), spec);
            for fi in 0..f {
                let map = &want[(f + fi) * oh * ow..(f + fi + 1) * oh * ow];
                let finite = readers.iter().filter(|&&o| map[o].is_finite()).count();
                assert!(
                    finite > 0 && finite < readers.len(),
                    "case {case}: {finite} of {} readers finite",
                    readers.len()
                );
            }
            poison_scratch_pool();
            let got = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            assert_same_bits(got.as_slice(), &want, &format!("faced case {case} {v}"));
        }
    }
}

/// Bit equality with NaNs compared by NaN-ness only: a NaN's payload may
/// depend on operand order, which the kernels do not pin.
fn assert_same_bits(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let same = if w.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == w.to_bits()
        };
        assert!(same, "{label}: element {i}: got {g:e}, want {w:e}");
    }
}

/// The convolution backward pass as the GEMM kernels ran it before the
/// panel kernel took over, one sample at a time, each element as its
/// own chain:
///
/// * `dW = gOut · colsᵀ` over `im2col`: from `0.0`, ascending pixel,
///   never skipping (the assigning `A·Bᵀ` kernel);
/// * `dCols = Wᵀ · gOut`: from `0.0`, ascending filter, skipping exact-
///   zero weights (the accumulating kernels into a zeroed output);
/// * `col2im` one element at a time with a bounds test per tap;
/// * `dB` the row sums of `gOut`;
///
/// then `dW` and `dB` summed over samples in sample order.
fn reference_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let [n, c, h, w] = <[usize; 4]>::try_from(input.shape().dims()).unwrap();
    let [f, _, kh, kw] = <[usize; 4]>::try_from(weight.shape().dims()).unwrap();
    let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
    let (kdim, ncols) = (c * kh * kw, oh * ow);
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let wd = weight.as_slice();
    let mut grad_input = vec![0.0f32; n * c * h * w];
    let mut grad_weight = vec![0.0f32; f * kdim];
    let mut grad_bias = vec![0.0f32; f];
    for ni in 0..n {
        let sample = &input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w];
        let cols = ndtensor::im2col(sample, c, h, w, kh, kw, spec).unwrap();
        let cols = cols.as_slice();
        let gout = &grad_output.as_slice()[ni * f * ncols..(ni + 1) * f * ncols];
        let mut dw = vec![0.0f32; f * kdim];
        for fi in 0..f {
            for r in 0..kdim {
                let mut acc = 0.0f32;
                for p in 0..ncols {
                    acc += gout[fi * ncols + p] * cols[r * ncols + p];
                }
                dw[fi * kdim + r] = acc;
            }
        }
        let mut dcols = vec![0.0f32; kdim * ncols];
        for r in 0..kdim {
            for p in 0..ncols {
                let mut acc = 0.0f32;
                for fi in 0..f {
                    let a = wd[fi * kdim + r];
                    if a != 0.0 {
                        acc += a * gout[fi * ncols + p];
                    }
                }
                dcols[r * ncols + p] = acc;
            }
        }
        let dsample = &mut grad_input[ni * c * h * w..(ni + 1) * c * h * w];
        for ci in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    for oy in 0..oh {
                        let iy = (oy * sh + ky) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * sw + kx) as isize - pw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dsample[(ci * h + iy as usize) * w + ix as usize] +=
                                dcols[r * ncols + oy * ow + ox];
                        }
                    }
                }
            }
        }
        for (gw, d) in grad_weight.iter_mut().zip(dw) {
            *gw += d;
        }
        for fi in 0..f {
            let db: f32 = gout[fi * ncols..(fi + 1) * ncols].iter().sum();
            grad_bias[fi] += db;
        }
    }
    (grad_input, grad_weight, grad_bias)
}

/// Writes NaN, +∞ and −∞ at three spread positions of `t`.
fn poison(t: &mut Tensor) {
    let len = t.len();
    for (at, v) in [
        (len / 7, f32::NAN),
        (len / 2, f32::INFINITY),
        (len - 1, f32::NEG_INFINITY),
    ] {
        t.as_mut_slice()[at] = v;
    }
}

/// The conv backward on the panel kernel reproduces the pre-panel
/// backward (`reference_conv2d_backward`) bit for bit, NaNs by NaN-ness:
/// all five PilotNet layer geometries (`c·kh·kw` 25, 200, 300, 144, 180;
/// `oh·ow` 2184, 444, 68), a filter count that is not a multiple of 4 and
/// `c·kh·kw` below 8; plain, ReLU-like zero-heavy and NaN-holding `gOut`;
/// NaN and ±∞ in the input and in the weights (with exact-zero and
/// `-0.0` weights throughout); batches of 1, 2 and 32.
/// `conv2d_backward_params` gives the same weight and bias gradients.
#[test]
fn conv2d_backward_panel_matches_reference_bitwise() {
    let strided = Conv2dSpec::new((2, 2), (0, 0));
    let padded = Conv2dSpec::new((1, 1), (1, 1));
    // (c, h, w, f, kh, kw, spec)
    let cases = [
        (1usize, 60usize, 160usize, 8usize, 5usize, 5usize, strided),
        (8, 28, 78, 12, 5, 5, strided),
        (12, 12, 37, 16, 5, 5, strided),
        (16, 4, 17, 20, 3, 3, padded),
        (20, 4, 17, 20, 3, 3, padded),
        (3, 9, 11, 5, 3, 3, Conv2dSpec::new((2, 1), (1, 2))),
        (1, 6, 9, 3, 2, 3, padded),
    ];
    for (case, &(c, h, w, f, kh, kw, spec)) in cases.iter().enumerate() {
        let seed = 500 + 10 * case as u64;
        let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
        let k = c * kh * kw;
        let mut weight = pseudo([f, c, kh, kw], seed + 1);
        // Filter 1 all zeros, a -0.0 in filter 0, a zero in the last.
        weight.as_mut_slice()[k..2 * k].fill(0.0);
        weight.as_mut_slice()[k / 2] = -0.0;
        weight.as_mut_slice()[f * k - 1] = 0.0;
        for batch in [1usize, 2, 32] {
            let input = pseudo([batch, c, h, w], seed + batch as u64);
            let plain = pseudo([batch, f, oh, ow], seed + 2);
            let heavy_2d = zero_heavy(batch * f, oh * ow, seed + 3);
            let heavy = heavy_2d.reshape([batch, f, oh, ow]).unwrap();
            let mut nan_gout = plain.clone();
            poison(&mut nan_gout);
            let mut bad_input = input.clone();
            poison(&mut bad_input);
            let mut bad_weight = weight.clone();
            poison(&mut bad_weight);
            let variants = [
                ("plain", &input, &weight, &plain),
                ("zero-heavy gOut", &input, &weight, &heavy),
                ("non-finite gOut", &input, &weight, &nan_gout),
                ("non-finite input", &bad_input, &weight, &heavy),
                ("non-finite weight", &input, &bad_weight, &heavy),
            ];
            for (name, x, wt, gout) in variants {
                let (gi, gw, gb) = reference_conv2d_backward(x, wt, gout, spec);
                let grads = conv2d_backward(x, wt, gout, spec).unwrap();
                let (pw, pb) = conv2d_backward_params(x, wt, gout, spec).unwrap();
                let label = format!("case {case} batch {batch} {name}");
                assert_same_bits(grads.grad_input.as_slice(), &gi, &format!("{label} dx"));
                assert_same_bits(grads.grad_weight.as_slice(), &gw, &format!("{label} dW"));
                assert_same_bits(grads.grad_bias.as_slice(), &gb, &format!("{label} dB"));
                assert_same_bits(pw.as_slice(), &gw, &format!("{label} params dW"));
                assert_same_bits(pb.as_slice(), &gb, &format!("{label} params dB"));
            }
        }
    }
}

/// `matmul_a_bt` — the dense input gradient `g · Wᵀ` and LRP — equals
/// the never-skipping naive chain at the batch sizes training and
/// scoring run (m ∈ {1, 2, 15, 32}) and the autoencoder and CNN-head
/// shapes, on weights with exact-zero and `-0.0` entries. A NaN or ±∞
/// in `g` facing an exact-zero weight must reach its output (`0 · NaN`
/// is NaN), so the zero skip is off for a non-finite `g`.
#[test]
fn matmul_a_bt_panel_matches_naive_bitwise() {
    // (k, n): g is [m, k], W is [n, k].
    let shapes = [
        (9600usize, 64usize),
        (64, 1360),
        (16, 64),
        (64, 16),
        (1, 1),
        (7, 5),
        (0, 3),
    ];
    for (case, &(k, n)) in shapes.iter().enumerate() {
        for m in [1usize, 2, 15, 32] {
            let seed = 700 + 10 * case as u64 + m as u64;
            let mut wt = pseudo([n, k], seed);
            for (x, v) in wt.as_mut_slice().iter_mut().enumerate() {
                if x % 5 == 0 {
                    *v = if x % 10 == 0 { 0.0 } else { -0.0 };
                }
            }
            let g = pseudo([m, k], seed + 1);
            let mut bad = g.clone();
            if k > 0 {
                // Column 0 faces weight column 0, which is zero in rows
                // 0, 2, 4, …
                let row = m / 2;
                bad.as_mut_slice()[row * k] = f32::NAN;
                bad.as_mut_slice()[(m - 1) * k] = f32::INFINITY;
                bad.as_mut_slice()[k - 1] = f32::NEG_INFINITY;
            }
            for (name, a) in [("finite g", &g), ("non-finite g", &bad)] {
                let want = naive_matmul_a_bt(a.as_slice(), wt.as_slice(), m, k, n);
                if name == "non-finite g" && k > 0 && n > 0 {
                    assert!(want[(m / 2) * n].is_nan(), "NaN must meet a zero weight");
                }
                let got = matmul_a_bt(a, &wt).unwrap();
                assert_same_bits(
                    got.as_slice(),
                    &want,
                    &format!("matmul_a_bt m{m} k{k} n{n} {name}"),
                );
            }
        }
    }
}

/// Schoolbook `A[m,k] · B[k,n]` on the zero-skipping chain: from `0.0`,
/// `k` ascending, dropping the terms of exact-zero `A` entries.
fn naive_matmul_skipping(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                let av = a[i * k + l];
                if av != 0.0 {
                    acc += av * b[l * n + j];
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// `matmul` and `matmul_at_b` run the zero-skipping chain for any `B`:
/// with NaN, `+∞` and `−∞` in `B` facing the exact-zero (`±0.0`) entries
/// of a ReLU-like `A`, a term of a zero `A` entry is dropped instead of
/// poisoning its output, and a term of a non-zero one is kept. Widths
/// cross the 64-wide register block and its axpy column remainder
/// (n ∈ {1, 16, 50, 63, 64, 65, 100, 130}), batch sizes are those
/// training and scoring run (m ∈ {1, 2, 15, 32}). NaNs are compared by
/// NaN-ness.
#[test]
fn matmul_non_finite_b_matches_zero_skipping_chain_bitwise() {
    let (mut dropped, mut kept) = (0usize, 0usize);
    for n in [1usize, 16, 50, 63, 64, 65, 100, 130] {
        for m in [1usize, 2, 15, 32] {
            for k in [0usize, 1, 32, 96] {
                let seed = 900 + (n * 1000 + m * 100 + k) as u64;
                let a = zero_heavy(m, k, seed);
                let at = a.transpose2d().unwrap();
                let mut b = pseudo([k, n], seed + 1);
                for (x, v) in b.as_mut_slice().iter_mut().enumerate().step_by(5) {
                    *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(x / 5) % 3];
                }
                let want = naive_matmul_skipping(a.as_slice(), b.as_slice(), m, k, n);
                let full = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
                for (w, f) in want.iter().zip(&full) {
                    dropped += usize::from(w.is_finite() && !f.is_finite());
                    kept += usize::from(!w.is_finite());
                }
                let ab = matmul(&a, &b).unwrap();
                let atb = matmul_at_b(&at, &b).unwrap();
                let label = format!("m{m} k{k} n{n}");
                assert_same_bits(ab.as_slice(), &want, &format!("matmul {label}"));
                assert_same_bits(atb.as_slice(), &want, &format!("matmul_at_b {label}"));
            }
        }
    }
    assert!(dropped > 0 && kept > 0, "dropped {dropped}, kept {kept}");
}

/// Depth of the GEMM kernels' k-blocks (`KC` in `ndtensor`'s kernels).
const K_BLOCK: usize = 128;

/// The k-blocked `A·B` reproduces the naive chains bit for bit: depths on
/// either side of one block, past two blocks, and the paper's 9600-deep
/// encode (k ∈ {block − 1, block, block + 1, 2·block + 3, 9600}), batch
/// sizes m ∈ {1, 2, 3, 15, 32}, widths around the 64-wide register block
/// (n ∈ {1, 16, 63, 64, 65, 130}). Both zero
/// disciplines run on an A with no zeros and on a ReLU-like one:
/// `matmul_assign` against the never-skipping chain, `matmul` against the
/// zero-skipping one, on an all-finite B and on a B whose NaN and `±∞`
/// face zeros of A. `matmul_at_b` (one block over all of `k`) runs the
/// same products from a transposed A, and `matmul_at_b_acc` adds each
/// chain onto a prefilled output. NaNs are compared by NaN-ness.
#[test]
fn k_blocked_matmul_bitwise_matches_naive() {
    let (mut dropped, mut kept) = (0usize, 0usize);
    for k in [K_BLOCK - 1, K_BLOCK, K_BLOCK + 1, 2 * K_BLOCK + 3, 9600] {
        for m in [1usize, 2, 3, 15, 32] {
            for n in [1usize, 16, 63, 64, 65, 130] {
                let seed = (k * 10_000 + m * 1000 + n) as u64;
                let prior = pseudo([m, n], seed + 3);
                for (a_name, a) in [
                    ("dense A", pseudo([m, k], seed)),
                    ("ReLU-like A", zero_heavy(m, k, seed)),
                ] {
                    let at = a.transpose2d().unwrap();
                    for finite in [true, false] {
                        let mut b = pseudo([k, n], seed + 1);
                        if !finite {
                            for (x, v) in b.as_mut_slice().iter_mut().enumerate().step_by(5) {
                                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(x / 5) % 3];
                            }
                        }
                        let full = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
                        let skipping = naive_matmul_skipping(a.as_slice(), b.as_slice(), m, k, n);
                        for (s, f) in skipping.iter().zip(&full) {
                            dropped += usize::from(s.is_finite() && !f.is_finite());
                            kept += usize::from(!s.is_finite());
                        }
                        let added: Vec<f32> = prior
                            .as_slice()
                            .iter()
                            .zip(&skipping)
                            .map(|(p, s)| p + s)
                            .collect();
                        let assigned = matmul_assign(&a, &b).unwrap();
                        let skipped = matmul(&a, &b).unwrap();
                        let atb = matmul_at_b(&at, &b).unwrap();
                        let mut acc = prior.clone();
                        matmul_at_b_acc(&at, &b, &mut acc).unwrap();
                        let label = format!("k{k} m{m} n{n} {a_name} finite={finite}");
                        assert_same_bits(
                            assigned.as_slice(),
                            &full,
                            &format!("matmul_assign {label}"),
                        );
                        assert_same_bits(skipped.as_slice(), &skipping, &format!("matmul {label}"));
                        assert_same_bits(
                            atb.as_slice(),
                            &skipping,
                            &format!("matmul_at_b {label}"),
                        );
                        assert_same_bits(
                            acc.as_slice(),
                            &added,
                            &format!("matmul_at_b_acc {label}"),
                        );
                    }
                }
            }
        }
    }
    assert!(dropped > 0 && kept > 0, "dropped {dropped}, kept {kept}");
}

/// Files NaN-filled buffers into every scratch pool class up to `2^18`
/// elements on this thread, the most each class retains, so an output
/// taken stale from the pool holds NaN wherever a kernel fails to assign.
fn poison_scratch_pool() {
    for class in 0..=18 {
        for _ in 0..8 {
            ndtensor::scratch::give(vec![f32::NAN; 1 << class]);
        }
    }
}

/// The GEMM and conv forward outputs, the conv panels, and the conv
/// backward's transposed panel, padded `gOut` copy and both products are
/// taken from the scratch pool without a zero fill, so the kernels must
/// assign every element. On a pool poisoned with NaN, each still equals
/// its naive chain bit for bit (NaNs by NaN-ness in the backward), `k =
/// 0` (all-zero output) included; the backward runs at the five PilotNet
/// layer geometries on plain, ReLU-zero and non-finite `gOut` and on
/// NaN/±∞ samples.
#[test]
fn stale_scratch_outputs_are_fully_assigned() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (3, 0, 5),
        (2, 7, 65),
        (15, 130, 33),
        (32, 64, 200),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 900 + 10 * case as u64;
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 1);
        let at = pseudo([k, m], seed + 2);
        let bt = pseudo([n, k], seed + 3);
        let label = format!("m {m} k {k} n {n}");
        poison_scratch_pool();
        let got = matmul(&a, &b).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&naive_matmul(a.as_slice(), b.as_slice(), m, k, n)),
            "matmul {label}"
        );
        poison_scratch_pool();
        let got = matmul_assign(&a, &b).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&naive_matmul(a.as_slice(), b.as_slice(), m, k, n)),
            "matmul_assign {label}"
        );
        poison_scratch_pool();
        let got = matmul_at_b(&at, &b).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&naive_matmul_at_b(at.as_slice(), b.as_slice(), m, k, n)),
            "matmul_at_b {label}"
        );
        poison_scratch_pool();
        let got = matmul_a_bt(&a, &bt).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&naive_matmul_a_bt(a.as_slice(), bt.as_slice(), m, k, n)),
            "matmul_a_bt {label}"
        );
    }
    let strided = Conv2dSpec::new((2, 2), (0, 0));
    let padded = Conv2dSpec::new((1, 1), (1, 1));
    // (c, h, w, f, kh, kw, spec): a pad-column panel, both PilotNet
    // strides and a zero-padded layer.
    let convs = [
        (
            2usize,
            3usize,
            33usize,
            5usize,
            3usize,
            3usize,
            Conv2dSpec::unit(),
        ),
        (1, 60, 160, 8, 5, 5, strided),
        (12, 12, 37, 16, 5, 5, strided),
        (16, 4, 17, 20, 3, 3, padded),
    ];
    for (case, &(c, h, w, f, kh, kw, spec)) in convs.iter().enumerate() {
        let seed = 950 + 10 * case as u64;
        let input = pseudo([2, c, h, w], seed);
        let weight = pseudo([f, c, kh, kw], seed + 1);
        let bias = pseudo([f], seed + 2);
        for b in [None, Some(&bias)] {
            poison_scratch_pool();
            let got = conv2d(&input, &weight, b, spec).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(&naive_conv_general(&input, &weight, b, spec)),
                "conv2d case {case} bias {}",
                b.is_some()
            );
        }
    }
    // The five compact-PilotNet layers: (c, h, w, f, kh, kw, spec).
    let layers = [
        (1usize, 60usize, 160usize, 8usize, 5usize, 5usize, strided),
        (8, 28, 78, 12, 5, 5, strided),
        (12, 12, 37, 16, 5, 5, strided),
        (16, 4, 17, 20, 3, 3, padded),
        (20, 4, 17, 20, 3, 3, padded),
    ];
    for (case, &(c, h, w, f, kh, kw, spec)) in layers.iter().enumerate() {
        let seed = 980 + 10 * case as u64;
        let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
        let input = pseudo([2, c, h, w], seed);
        let weight = pseudo([f, c, kh, kw], seed + 1);
        let plain = pseudo([2, f, oh, ow], seed + 2);
        let relu_zero = zero_heavy(2 * f, oh * ow, seed + 3)
            .reshape([2, f, oh, ow])
            .unwrap();
        let mut nan_gout = plain.clone();
        poison(&mut nan_gout);
        let mut bad_input = input.clone();
        poison(&mut bad_input);
        let variants = [
            ("plain", &input, &plain),
            ("ReLU-zero gOut", &input, &relu_zero),
            ("non-finite gOut", &input, &nan_gout),
            ("non-finite sample", &bad_input, &relu_zero),
        ];
        for (name, x, gout) in variants {
            let (gi, gw, gb) = reference_conv2d_backward(x, &weight, gout, spec);
            let label = format!("backward layer {} {name}", case + 1);
            poison_scratch_pool();
            let grads = conv2d_backward(x, &weight, gout, spec).unwrap();
            assert_same_bits(grads.grad_input.as_slice(), &gi, &format!("{label} dx"));
            assert_same_bits(grads.grad_weight.as_slice(), &gw, &format!("{label} dW"));
            assert_same_bits(grads.grad_bias.as_slice(), &gb, &format!("{label} dB"));
            poison_scratch_pool();
            let (pw, pb) = conv2d_backward_params(x, &weight, gout, spec).unwrap();
            assert_same_bits(pw.as_slice(), &gw, &format!("{label} params dW"));
            assert_same_bits(pb.as_slice(), &gb, &format!("{label} params dB"));
        }
    }
}
