//! Blocked matrix multiplication kernels.
//!
//! Five entry points cover the access patterns needed by dense-layer and
//! convolution backpropagation without materialising transposed copies:
//!
//! * [`matmul`] — `C = A·B`, skipping exact-zero `A` entries (the dense
//!   forward on all-finite weights)
//! * [`matmul_at_b`] — `C = Aᵀ·B`
//! * [`matmul_at_b_acc`] — `C += Aᵀ·B` in place (the dense `dW += xᵀ·g`)
//! * [`matmul_a_bt`] — `C = A·Bᵀ` (the dense `dx = g·Wᵀ`)
//! * [`matmul_assign`] — `C = A·B` with no zero skip (the dense forward
//!   on weights that hold a non-finite value)
//!
//! The allocating ones return a fresh tensor whose storage comes from
//! [`crate::scratch`], so a warmed caller that drops its outputs
//! recycles them. The kernels assign every output element (zeros when
//! `k == 0`), so the output is taken stale, with no zero fill.
//!
//! The inner microkernels live in `crate::kernels`, and no shape rule
//! picks between them: [`matmul_a_bt`] runs the padded-panel kernel on
//! the transposed product, [`matmul`] and [`matmul_assign`] the
//! register-blocked one over a row-major `B`, with and without the
//! exact-zero `A` skip, and the `Aᵀ·B` forms the same block with the skip
//! (assigning, or adding to the output for [`matmul_at_b_acc`]). Each is bitwise-equal to the naive
//! product (blocking only reorders *which* output element is worked on
//! next; the per-element accumulation remains a single chain from `+0.0`
//! in ascending-`k` order, paused and resumed across k-blocks). The
//! zero-skipping chain keeps the historical exact-zero skip for any `B`;
//! on an all-finite `B` it only drops `±0.0` terms, which cannot change
//! a chain's bits, so it equals [`matmul_assign`] there.

use crate::kernels::{
    all_finite, conv_panel, conv_panel_stride, mm_accumulate, mm_assign, pack_at, pack_t_padded,
    Cols, Strided,
};
use crate::{scratch, Result, Tensor, TensorError};

fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.shape().dims()[0], t.shape().dims()[1]))
}

fn check_mm(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    let (m, k) = dims2(a, op)?;
    let (kb, n) = dims2(b, op)?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    Ok((m, k, n))
}

/// Computes `C = A·B` for `A: [m, k]` and `B: [k, n]`.
///
/// Element `(i, j)` is one chain from `+0.0`, `l` ascending, that skips
/// the terms of exact-zero `a[i][l]` — so a NaN or `±∞` in `B` facing a
/// zero of `A` does not reach its output (use [`matmul_assign`] for the
/// chain that forms every term).
///
/// On an all-finite `B` the result is bit-identical to [`matmul_assign`]:
/// a skipped term `0 · b[l][j]` is `±0.0`, each chain starts at `+0.0`
/// so no partial sum is `-0.0`, and adding `±0.0` to any other sum —
/// NaN and `±∞` included — leaves its bits unchanged. Rows of a ReLU
/// output are mostly zeros, and each skipped zero saves a pass over one
/// row of `B`, so `neural::Dense` runs its forward pass here whenever
/// its weights are all finite.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ndtensor::{matmul, Tensor};
/// # fn main() -> Result<(), ndtensor::TensorError> {
/// let id = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.])?;
/// let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.])?;
/// assert_eq!(matmul(&id, &a)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_mm(a, b, "matmul")?;
    let mut out = Tensor::stale([m, n]);
    mm_assign::<true>(a.as_slice(), m, k, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// The `(arows, rows, k, bd, n, out)` signature of the row-major-B
/// kernels.
type RowKernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

/// `Aᵀ·B` for `A: [k, m]` and `B: [k, n]` into `out` by `kernel`:
/// [`mm_assign`] stores each element's zero-skipping chain,
/// [`mm_accumulate`] adds it to the element.
fn matmul_at_b_slices(
    ad: &[f32],
    (k, m, n): (usize, usize, usize),
    bd: &[f32],
    out: &mut [f32],
    kernel: RowKernel,
) {
    // Transpose A into contiguous scratch (one pass over A), then run the
    // kernel on plain packed rows.
    let pa = pack_at(ad, k, m);
    kernel(&pa, m, k, bd, n, out);
    scratch::give(pa);
}

/// `(k, m, n)` of `Aᵀ·B` for `A: [k, m]` and `B: [k, n]`.
fn check_at_b(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    let (k, m) = dims2(a, op)?;
    let (kb, n) = dims2(b, op)?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    Ok((k, m, n))
}

/// Computes `C = Aᵀ·B` for `A: [k, m]` and `B: [k, n]` without transposing,
/// with [`matmul`]'s zero-skipping chain.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m, n) = check_at_b(a, b, "matmul_at_b")?;
    let mut out = Tensor::stale([m, n]);
    matmul_at_b_slices(
        a.as_slice(),
        (k, m, n),
        b.as_slice(),
        out.as_mut_slice(),
        mm_assign::<true>,
    );
    Ok(out)
}

/// Accumulates `C += Aᵀ·B` for `A: [k, m]`, `B: [k, n]` and `C: [m, n]`:
/// element `(i, j)` becomes `c[i][j] + chain`, where `chain` is
/// [`matmul_at_b`]'s element — the bits of adding a separately computed
/// product, with no product tensor and no second pass. The dense
/// `dW += xᵀ·g` runs here.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the leading dimensions disagree or
/// `c` is not `[m, n]`.
pub fn matmul_at_b_acc(a: &Tensor, b: &Tensor, c: &mut Tensor) -> Result<()> {
    let (k, m, n) = check_at_b(a, b, "matmul_at_b_acc")?;
    if c.shape().dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b_acc",
            lhs: c.shape().clone(),
            rhs: [m, n].into(),
        });
    }
    matmul_at_b_slices(
        a.as_slice(),
        (k, m, n),
        b.as_slice(),
        c.as_mut_slice(),
        mm_accumulate,
    );
    Ok(())
}

/// `C = A·Bᵀ` computed as its transpose `Cᵀ = B·Aᵀ` on [`conv_panel`]:
/// the rows of `B` are the kernel's weight rows and `A` is transposed
/// once into a padded panel, so each `B` row is read contiguously and
/// each panel row serves a whole register block. Element `(i, j)` is the
/// chain `Σ_l b[j][l] · a[i][l]` from `0.0`, ascending `l`. Exact-zero
/// `B` entries are skipped only when `A` is all finite, where a skipped
/// term is `±0.0` and the bits equal the never-skipping chain's.
fn matmul_a_bt_slices(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    if m == 0 || n == 0 {
        return;
    }
    let ld = conv_panel_stride(m);
    let panel = pack_t_padded(ad, m, k, ld);
    let skip = all_finite(ad);
    let mut ct = scratch::take_stale(n * m);
    conv_panel(
        bd,
        n,
        k,
        &panel,
        Strided(ld),
        Cols::dense(m),
        None,
        skip,
        &mut ct,
    );
    for (j, crow) in ct.chunks_exact(m).enumerate() {
        for (i, &v) in crow.iter().enumerate() {
            out[i * n + j] = v;
        }
    }
    scratch::give(ct);
    scratch::give(panel);
}

/// Computes `C = A·Bᵀ` for `A: [m, k]` and `B: [n, k]` without transposing.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = dims2(a, "matmul_a_bt")?;
    let (n, kb) = dims2(b, "matmul_a_bt")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_a_bt",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let mut out = Tensor::stale([m, n]);
    matmul_a_bt_slices(a.as_slice(), m, k, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// Computes `C = A·B` for `A: [m, k]` and `B: [k, n]` as a dense product:
/// unlike [`matmul`], every term `a[i][l] · b[l][j]` is formed, even where
/// `a[i][l]` is zero, so a non-finite `B` entry always reaches its
/// outputs. Element `(i, j)` is one chain from `0.0` with `l` ascending —
/// the chain [`matmul_a_bt`] runs — so `matmul_assign(a, &bt.transpose2d()?)`
/// is bit-identical to `matmul_a_bt(a, &bt)`. `neural::Dense` runs its
/// forward pass through it on its `[in, out]` weight, where each `l`
/// reads one contiguous weight row, whenever that weight holds a
/// non-finite value (otherwise through [`matmul`]).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
pub fn matmul_assign(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_mm(a, b, "matmul_assign")?;
    let mut out = Tensor::stale([m, n]);
    mm_assign::<false>(a.as_slice(), m, k, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        Tensor::from_fn([m, n], |idx| {
            (0..k)
                .map(|l| a.at(&[idx[0], l]).unwrap() * b.at(&[l, idx[1]]).unwrap())
                .sum()
        })
    }

    fn pseudo(shape: [usize; 2], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Tensor::from_fn(shape, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo([5, 5], 3);
        let id = Tensor::from_fn([5, 5], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &id).unwrap(), &a, 1e-6);
        assert_close(&matmul(&id, &a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
        assert!(matmul_at_b(&Tensor::zeros([2, 3]), &Tensor::zeros([3, 2])).is_err());
        assert!(matmul_a_bt(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 4])).is_err());
        assert!(matmul_assign(&a, &b).is_err());
    }

    #[test]
    fn shapes_spanning_tile_boundaries_match_naive() {
        // Exercise wide outputs (n > 256), the 64-wide register block's
        // column remainder, and the panel kernel's remainder rows (n not
        // a multiple of 4) under `A·Bᵀ`.
        for &(m, k, n) in &[(5, 3, 513), (2, 7, 300), (9, 2, 65), (1, 300, 70)] {
            let a = pseudo([m, k], 91);
            let b = pseudo([k, n], 92);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);

            let at = pseudo([k, m], 93);
            let expect = naive(&at.transpose2d().unwrap(), &b);
            assert_close(&matmul_at_b(&at, &b).unwrap(), &expect, 1e-4);

            let bt = pseudo([n, k], 94);
            let expect2 = naive(&a, &bt.transpose2d().unwrap());
            assert_close(&matmul_a_bt(&a, &bt).unwrap(), &expect2, 1e-4);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = pseudo([7, 4], 11);
        let b = pseudo([7, 5], 12);
        let expect = matmul(&a.transpose2d().unwrap(), &b).unwrap();
        assert_close(&matmul_at_b(&a, &b).unwrap(), &expect, 1e-5);

        let a2 = pseudo([6, 8], 13);
        let b2 = pseudo([5, 8], 14);
        let expect2 = matmul(&a2, &b2.transpose2d().unwrap()).unwrap();
        assert_close(&matmul_a_bt(&a2, &b2).unwrap(), &expect2, 1e-5);
    }

    #[test]
    fn large_product_matches_naive() {
        let a = pseudo([128, 128], 21);
        let b = pseudo([128, 128], 22);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        assert_close(&fast, &slow, 1e-4);
    }

    #[test]
    fn zero_sized_dimensions() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[0, 2]);
        let d = matmul(&Tensor::zeros([2, 0]), &Tensor::zeros([0, 4])).unwrap();
        assert_eq!(d.shape().dims(), &[2, 4]);
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
        // Every entry point with no output rows or no output columns.
        for (m, k, n) in [(0usize, 3usize, 2usize), (2, 3, 0), (0, 0, 0)] {
            let (a, b) = (Tensor::zeros([m, k]), Tensor::zeros([k, n]));
            let (at, bt) = (Tensor::zeros([k, m]), Tensor::zeros([n, k]));
            assert_eq!(matmul_assign(&a, &b).unwrap().shape().dims(), &[m, n]);
            assert_eq!(matmul_at_b(&at, &b).unwrap().shape().dims(), &[m, n]);
            assert_eq!(matmul_a_bt(&a, &bt).unwrap().shape().dims(), &[m, n]);
            let mut c = Tensor::zeros([m, n]);
            matmul_at_b_acc(&at, &b, &mut c).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_naive_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1_000
        ) {
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 1);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
        }

        #[test]
        fn transposed_variants_match_naive_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1_000
        ) {
            let a = pseudo([k, m], seed);
            let b = pseudo([k, n], seed + 1);
            let expect = naive(&a.transpose2d().unwrap(), &b);
            assert_close(&matmul_at_b(&a, &b).unwrap(), &expect, 1e-4);

            let a2 = pseudo([m, k], seed + 2);
            let b2 = pseudo([n, k], seed + 3);
            let expect2 = naive(&a2, &b2.transpose2d().unwrap());
            assert_close(&matmul_a_bt(&a2, &b2).unwrap(), &expect2, 1e-4);
        }

        #[test]
        fn distributes_over_addition(
            m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1_000
        ) {
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 1);
            let c = pseudo([k, n], seed + 2);
            let lhs = matmul(&a, &(&b + &c)).unwrap();
            let rhs = &matmul(&a, &b).unwrap() + &matmul(&a, &c).unwrap();
            assert_close(&lhs, &rhs, 1e-4);
        }
    }
}
