//! Bit-parity of the packed, cache-blocked GEMM kernels (and their
//! workspace `_into` variants) against an embedded naive reference, for
//! random shapes and thread counts {1, 2, 4}.
//!
//! The packed kernels in `ndtensor::matmul` tile output columns and pack
//! operand panels for locality, but the contract is strict: every output
//! element is accumulated over `k` ascending, in one chain, exactly like
//! the three-loop schoolbook product. These tests hold the kernels to
//! that contract at the bit level — any reassociation, blocking over
//! `k`, or FMA contraction would fail them.
//!
//! The tests mutate the process-wide thread configuration, so they all
//! serialise on one mutex (same convention as `parallel_parity.rs`).

use std::sync::Mutex;

use ndtensor::{
    conv2d, conv2d_into, matmul, matmul_a_bt, matmul_a_bt_into, matmul_assign,
    matmul_assign_finite, matmul_assign_into, matmul_at_b, matmul_at_b_into, matmul_into,
    set_thread_config, Conv2dSpec, Tensor, ThreadConfig,
};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

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

/// Runs `f` under every thread count and asserts its output bits match
/// `reference` each time. Restores the env config afterwards.
fn assert_parity_across_threads(
    reference: &[f32],
    label: &str,
    mut f: impl FnMut() -> Vec<f32>,
) -> Result<(), TestCaseError> {
    for threads in THREAD_COUNTS {
        set_thread_config(ThreadConfig::new(threads));
        let got = f();
        let ok = bits(&got) == bits(reference);
        set_thread_config(ThreadConfig::from_env());
        prop_assert!(ok, "{label}: mismatch vs naive at threads={threads}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` and `matmul_into` reproduce the naive chain bit-for-bit
    /// for random shapes spanning the column-tile boundary (n crosses
    /// 256) and the packing threshold (m crosses 4).
    #[test]
    fn matmul_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..320,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul", || {
            matmul(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_into", || {
            let mut out = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut out).unwrap();
            out
        })?;
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
        let _guard = lock();
        let a = pseudo([k, m], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul_at_b(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul_at_b", || {
            matmul_at_b(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_at_b_into", || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_into(&a, &b, &mut out).unwrap();
            out
        })?;
    }

    /// Same contract for the transposed-B kernel, whose production
    /// implementation runs 8 independent per-column accumulators.
    #[test]
    fn matmul_a_bt_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..96,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let a = pseudo([m, k], seed);
        let b = pseudo([n, k], seed + 7);
        let reference = naive_matmul_a_bt(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul_a_bt", || {
            matmul_a_bt(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_a_bt_into", || {
            let mut out = vec![0.0f32; m * n];
            matmul_a_bt_into(&a, &b, &mut out).unwrap();
            out
        })?;
    }

    /// Same contract for the assigning, never-skipping `A·B` that runs
    /// every dense forward: shapes cross the 64-wide register block and
    /// its column remainder, odd `m` hits the single-row block, `k = 0`
    /// must assign zeros over a stale output, and exact zeros in `A`
    /// must not be skipped.
    #[test]
    fn matmul_assign_bitwise_matches_naive(
        m in 1usize..10,
        k in 0usize..80,
        n in 1usize..200,
        zero_every in 0usize..4,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let mut a = pseudo([m, k], seed);
        if zero_every > 0 {
            a.as_mut_slice().iter_mut().step_by(zero_every).for_each(|v| *v = 0.0);
        }
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul_assign", || {
            matmul_assign(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_assign_into", || {
            let mut out = vec![7.0f32; m * n];
            matmul_assign_into(&a, &b, &mut out).unwrap();
            out
        })?;
    }

    /// The zero-skipping assigning `A·B` on an all-finite `B` and a
    /// ReLU-like `A` — at least 90 % exact zeros, `-0.0` entries and
    /// all-zero rows — is bit-equal to the naive chain and to
    /// `matmul_a_bt` on the transposed `B`, at `m ∈ {1, 2, 15}`.
    #[test]
    fn matmul_assign_finite_bitwise_matches_naive(
        m_pick in 0usize..3,
        k in 0usize..80,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let m = [1usize, 2, 15][m_pick];
        let a = zero_heavy(m, k, seed);
        let zeros = a.as_slice().iter().filter(|&&v| v == 0.0).count();
        prop_assert!(a.len() < 20 || zeros * 10 >= a.len() * 9, "{zeros} zeros of {}", a.len());
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        let bt = b.transpose2d().unwrap();
        let abt = matmul_a_bt(&a, &bt).unwrap();
        prop_assert_eq!(bits(abt.as_slice()), bits(&reference));
        assert_parity_across_threads(&reference, "matmul_assign_finite", || {
            matmul_assign_finite(&a, &b).unwrap().as_slice().to_vec()
        })?;
    }

    /// The convolution (im2col + packed GEMM) is bit-stable across thread
    /// counts and between the allocating and workspace entry points.
    #[test]
    fn conv2d_bitwise_stable_across_threads(
        n in 1usize..3,
        c in 1usize..3,
        f in 1usize..4,
        hw in 6usize..14,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let spec = Conv2dSpec::new((1, 1), (1, 1));
        let input = pseudo([n, c, hw, hw], seed);
        let weight = pseudo([f, c, 3, 3], seed + 3);
        let bias = pseudo([f], seed + 5);
        set_thread_config(ThreadConfig::serial());
        let reference = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        set_thread_config(ThreadConfig::from_env());
        assert_parity_across_threads(reference.as_slice(), "conv2d", || {
            conv2d(&input, &weight, Some(&bias), spec)
                .unwrap()
                .as_slice()
                .to_vec()
        })?;
        assert_parity_across_threads(reference.as_slice(), "conv2d_into", || {
            let mut out = vec![0.0f32; reference.len()];
            conv2d_into(&input, &weight, Some(&bias), spec, &mut out).unwrap();
            out
        })?;
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

/// Both sides of the one kernel-choice rule (the register-blocked kernel
/// runs at `n ≥ 64 && k ≤ 128`, the axpy kernel elsewhere): `matmul`,
/// `matmul_at_b` and `conv2d` at `n ∈ {63, 64}` × `k ∈ {128, 129}`
/// reproduce the naive chain bit-for-bit. Odd row counts hit the
/// register kernel's remainder row; for `conv2d` the GEMM is `W · cols`
/// with `k = c·kh·kw` and `n = oh·ow`.
#[test]
fn kernel_choice_boundary_matches_naive_bitwise() {
    let _guard = lock();
    set_thread_config(ThreadConfig::serial());
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
    set_thread_config(ThreadConfig::from_env());
}

/// Fixed shapes chosen to land exactly on kernel tile edges: the column
/// tile (256), the `a_bt` row tile (64), the 8-wide accumulator group,
/// and the pack threshold (4 rows).
#[test]
fn tile_edge_shapes_match_naive_bitwise() {
    let _guard = lock();
    set_thread_config(ThreadConfig::serial());
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
    set_thread_config(ThreadConfig::from_env());
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

/// The conv forward on its padded panel reproduces the naive chain
/// bit-for-bit: output widths `n = oh·ow` of 1, W−1, W, W+1 and 2W+3
/// for the 32-column register block, and the five PilotNet layer shapes
/// (compact widths, 60×160 input); batch 1 and 3, threads {1, 2, 4},
/// with and without bias, on weights with an all-zero filter row, a
/// `-0.0` and otherwise no zeros (both sides of the dense-row gate).
#[test]
fn conv2d_panel_forward_matches_naive_bitwise() {
    let _guard = lock();
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
                for threads in THREAD_COUNTS {
                    set_thread_config(ThreadConfig::new(threads));
                    let got = conv2d(&input, &weight, b, spec).unwrap();
                    let mut into = vec![f32::NAN; want.len()];
                    conv2d_into(&input, &weight, b, spec, &mut into).unwrap();
                    set_thread_config(ThreadConfig::from_env());
                    let label = format!(
                        "case {case} batch {batch} bias {} threads {threads}",
                        b.is_some()
                    );
                    assert_eq!(bits(got.as_slice()), bits(&want), "conv2d {label}");
                    assert_eq!(bits(&into), bits(&want), "conv2d_into {label}");
                }
            }
        }
    }
}
