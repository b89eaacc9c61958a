//! Elementwise arithmetic, scalar broadcasting and reductions.
//!
//! Binary operators on `&Tensor` panic on shape mismatch (consistent with
//! arithmetic on primitives); the fallible equivalents are available through
//! [`Tensor::zip_map`]. Reductions over empty tensors return identity-like
//! values documented per method.

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::{Result, Tensor, TensorError};

macro_rules! binary_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;

            /// Elementwise operation on two same-shape tensors.
            ///
            /// # Panics
            ///
            /// Panics when the shapes differ; use [`Tensor::zip_map`] for a
            /// fallible variant.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
                    .unwrap_or_else(|e| panic!("tensor {}: {e}", stringify!($method))) // sncheck:allow(no-panic-in-lib): std::ops traits are infallible by signature; zip_map is the fallible variant
            }
        }
    };
}

binary_op!(Add, add, +);
binary_op!(Sub, sub, -);
binary_op!(Mul, mul, *);
binary_op!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|v| -v)
    }
}

impl Tensor {
    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Adds `other * s` into `self` in place (the BLAS `axpy` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += s * b;
        }
        Ok(())
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp_values(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Sum of all elements (0.0 for empty tensors).
    pub fn sum(&self) -> f32 {
        // Kahan summation: reductions feed loss values and calibration
        // thresholds, where drift across large tensors is observable.
        let mut sum = 0.0f32;
        let mut c = 0.0f32;
        for &v in self.as_slice() {
            let y = v - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Population variance of all elements (0.0 for empty tensors).
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let mut acc = 0.0f64;
        for &v in self.as_slice() {
            let d = (v - mean) as f64;
            acc += d * d;
        }
        (acc / self.len() as f64) as f32
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min_value(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max_value(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Linear index of the maximum element, or `None` for empty tensors.
    ///
    /// Ties resolve to the first occurrence.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.as_slice().iter().enumerate() {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        let mut acc = 0.0f64;
        for &v in self.as_slice() {
            acc += (v as f64) * (v as f64);
        }
        acc.sqrt() as f32
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape().clone(),
                rhs: other.shape().clone(),
            });
        }
        let mut acc = 0.0f64;
        for (&a, &b) in self.as_slice().iter().zip(other.as_slice()) {
            acc += (a as f64) * (b as f64);
        }
        Ok(acc as f32)
    }

    /// Rescales values linearly so the minimum maps to 0 and the maximum
    /// to 1. A constant tensor maps to all zeros.
    pub fn normalize_minmax(&self) -> Tensor {
        let mut out = self.clone();
        out.normalize_minmax_in_place();
        out
    }

    /// [`Tensor::normalize_minmax`] in place: `(v − lo) · inv` per element
    /// with `inv = 1 / (hi − lo)`, or all zeros when `lo`/`hi` are not
    /// finite or `hi <= lo`.
    ///
    /// `min`/`max` ignore NaN, and over the rest they are order-free except
    /// for the sign of a zero result, so they are taken over 16 lanes at
    /// once. The sign of `hi` never matters (`hi − lo` and `hi <= lo` do not
    /// see it); the sign of a zero `lo` only matters to a `-0.0` element
    /// (`-0.0 − 0.0` is `-0.0`, `-0.0 − -0.0` is `+0.0`). So when `lo` is zero
    /// and some element is `-0.0`, `lo` is taken from the serial fold of
    /// [`Tensor::min_value`] instead, and the result has the bits of that
    /// two-pass definition.
    pub fn normalize_minmax_in_place(&mut self) {
        const LANES: usize = 16;
        let data = self.as_mut_slice();
        let mut lo = [f32::INFINITY; LANES];
        let mut hi = [f32::NEG_INFINITY; LANES];
        let mut neg_zero = [false; LANES];
        let mut chunks = data.chunks_exact(LANES);
        for chunk in &mut chunks {
            for l in 0..LANES {
                lo[l] = lo[l].min(chunk[l]);
                hi[l] = hi[l].max(chunk[l]);
                neg_zero[l] |= chunk[l].to_bits() == (-0.0f32).to_bits();
            }
        }
        for (l, &v) in chunks.remainder().iter().enumerate() {
            lo[l] = lo[l].min(v);
            hi[l] = hi[l].max(v);
            neg_zero[l] |= v.to_bits() == (-0.0f32).to_bits();
        }
        let mut lo = lo.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = hi.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // sncheck:allow(no-float-eq): exact test for a zero of either sign.
        if lo == 0.0 && neg_zero.contains(&true) {
            lo = data.iter().copied().fold(f32::INFINITY, f32::min);
        }
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            data.fill(0.0);
            return;
        }
        let inv = 1.0 / (hi - lo);
        for v in data {
            *v = (*v - lo) * inv;
        }
    }

    /// `true` if any element is NaN or infinite. One pass with no early
    /// exit, so the scan vectorises.
    pub fn has_non_finite(&self) -> bool {
        !crate::kernels::all_finite(self.as_slice())
    }

    /// Sums along `axis`, removing that dimension
    /// (`[d0, …, daxis, …, dn] → [d0, …, dn]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::invalid(
                "sum_axis",
                format!("axis {axis} out of range for rank {}", self.rank()),
            ));
        }
        let dims = self.shape().dims();
        let axis_len = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        let data = self.as_slice();
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let orow = &mut out[o * inner..(o + 1) * inner];
                for (acc, &v) in orow.iter_mut().zip(&data[base..base + inner]) {
                    *acc += v;
                }
            }
        }
        let mut new_dims: Vec<usize> = dims[..axis].to_vec();
        new_dims.extend_from_slice(&dims[axis + 1..]);
        Tensor::from_vec(crate::Shape::from(new_dims), out)
    }

    /// Arithmetic mean along `axis`, removing that dimension. An axis of
    /// length zero yields zeros (consistent with [`Tensor::mean`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when `axis >= rank`.
    pub fn mean_axis(&self, axis: usize) -> Result<Tensor> {
        let axis_len = self.shape().dims()[axis.min(self.rank().saturating_sub(1))];
        let sums = self.sum_axis(axis)?;
        if axis_len == 0 {
            return Ok(sums);
        }
        Ok(sums.scale(1.0 / axis_len as f32))
    }

    /// Maximum along `axis`, removing that dimension (`-inf` entries for
    /// a zero-length axis).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when `axis >= rank`.
    pub fn max_axis(&self, axis: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::invalid(
                "max_axis",
                format!("axis {axis} out of range for rank {}", self.rank()),
            ));
        }
        let dims = self.shape().dims();
        let axis_len = dims[axis];
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![f32::NEG_INFINITY; outer * inner];
        let data = self.as_slice();
        for o in 0..outer {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let orow = &mut out[o * inner..(o + 1) * inner];
                for (acc, &v) in orow.iter_mut().zip(&data[base..base + inner]) {
                    *acc = acc.max(v);
                }
            }
        }
        let mut new_dims: Vec<usize> = dims[..axis].to_vec();
        new_dims.extend_from_slice(&dims[axis + 1..]);
        Tensor::from_vec(crate::Shape::from(new_dims), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec([n], v).unwrap()
    }

    #[test]
    fn operators_work_elementwise() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!((&a + &b).as_slice(), &[5., 7., 9.]);
        assert_eq!((&b - &a).as_slice(), &[3., 3., 3.]);
        assert_eq!((&a * &b).as_slice(), &[4., 10., 18.]);
        assert_eq!((&b / &a).as_slice(), &[4., 2.5, 2.]);
        assert_eq!((-&a).as_slice(), &[-1., -2., -3.]);
    }

    #[test]
    #[should_panic(expected = "add")]
    fn operator_panics_on_shape_mismatch() {
        let _ = &t(vec![1.]) + &t(vec![1., 2.]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(vec![1., -2.]);
        assert_eq!(a.scale(3.0).as_slice(), &[3., -6.]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2., -1.]);
        assert_eq!(a.clamp_values(0.0, 1.0).as_slice(), &[1., 0.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(vec![1., 2.]);
        a.axpy(2.0, &t(vec![10., 20.])).unwrap();
        assert_eq!(a.as_slice(), &[21., 42.]);
        assert!(a.axpy(1.0, &t(vec![1.])).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.min_value(), 1.0);
        assert_eq!(a.max_value(), 4.0);
        assert_eq!(a.argmax(), Some(3));
        assert!((a.variance() - 1.25).abs() < 1e-6);
        assert!((a.norm_l2() - 30.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn empty_reductions_have_documented_values() {
        let e = Tensor::zeros([0]);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.min_value(), f32::INFINITY);
        assert_eq!(e.max_value(), f32::NEG_INFINITY);
        assert_eq!(e.argmax(), None);
    }

    #[test]
    fn argmax_prefers_first_tie() {
        assert_eq!(t(vec![5., 1., 5.]).argmax(), Some(0));
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&t(vec![1.])).is_err());
    }

    #[test]
    fn normalize_minmax_maps_to_unit_interval() {
        let a = t(vec![2., 4., 6.]);
        assert_eq!(a.normalize_minmax().as_slice(), &[0., 0.5, 1.]);
        let c = t(vec![3., 3., 3.]);
        assert_eq!(c.normalize_minmax().as_slice(), &[0., 0., 0.]);
    }

    /// The two-pass definition the lane-parallel normaliser must match:
    /// serial `min`/`max` folds, then one pass of `(v − lo) · inv`.
    fn two_pass_normalize(t: &Tensor) -> Tensor {
        let lo = t.as_slice().iter().copied().fold(f32::INFINITY, f32::min);
        let hi = t
            .as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Tensor::zeros(t.shape().clone());
        }
        let inv = 1.0 / (hi - lo);
        Tensor::from_fn(t.shape().clone(), |i| (t.at(i).unwrap() - lo) * inv)
    }

    /// The lane-parallel normalisation gives the two-pass fold's bits:
    /// lengths around the lane count, maps whose minimum is a zero of
    /// either sign with `-0.0` elements, negatives, NaN, ±∞, constant and
    /// empty maps.
    #[test]
    fn normalize_minmax_matches_two_pass_fold_bitwise() {
        let bits = |t: &Tensor| -> Vec<u32> {
            t.as_slice()
                .iter()
                .map(|v| {
                    if v.is_nan() {
                        f32::NAN.to_bits()
                    } else {
                        v.to_bits()
                    }
                })
                .collect()
        };
        let palettes: [&[f32]; 6] = [
            &[0.0, -0.0, 0.25, 1.5, 0.75],
            &[-0.0, 0.0, 3.0],
            &[-2.0, -0.0, 0.0, 4.0, 1.0],
            &[0.5, f32::NAN, 2.0, -0.0],
            &[1.0, f32::INFINITY, 0.0],
            &[0.3],
        ];
        for (p, palette) in palettes.iter().enumerate() {
            for len in [0usize, 1, 15, 16, 17, 33, 9600] {
                for shift in 0..palette.len() {
                    let t = Tensor::from_fn([len], |i| palette[(i[0] * 7 + shift) % palette.len()]);
                    let expect = bits(&two_pass_normalize(&t));
                    assert_eq!(bits(&t.normalize_minmax()), expect, "palette {p} len {len}");
                    let mut in_place = t.clone();
                    in_place.normalize_minmax_in_place();
                    assert_eq!(bits(&in_place), expect, "palette {p} len {len}");
                }
            }
        }
    }

    #[test]
    fn non_finite_detection() {
        assert!(!t(vec![1., 2.]).has_non_finite());
        assert!(t(vec![1., f32::NAN]).has_non_finite());
        assert!(t(vec![f32::INFINITY]).has_non_finite());
    }

    #[test]
    fn axis_reductions_small_cases() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        // Sum over rows (axis 0) → per-column sums.
        let s0 = t.sum_axis(0).unwrap();
        assert_eq!(s0.shape().dims(), &[3]);
        assert_eq!(s0.as_slice(), &[5., 7., 9.]);
        // Sum over columns (axis 1) → per-row sums.
        let s1 = t.sum_axis(1).unwrap();
        assert_eq!(s1.shape().dims(), &[2]);
        assert_eq!(s1.as_slice(), &[6., 15.]);
        let m1 = t.mean_axis(1).unwrap();
        assert_eq!(m1.as_slice(), &[2., 5.]);
        let x0 = t.max_axis(0).unwrap();
        assert_eq!(x0.as_slice(), &[4., 5., 6.]);
        assert!(t.sum_axis(2).is_err());
        assert!(t.max_axis(5).is_err());
    }

    #[test]
    fn axis_reductions_middle_axis() {
        let t = Tensor::from_fn([2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let s = t.sum_axis(1).unwrap();
        assert_eq!(s.shape().dims(), &[2, 4]);
        // Entry (0, 0): 0 + 10 + 20 = 30.
        assert_eq!(s.at(&[0, 0]).unwrap(), 30.0);
        // Entry (1, 3): 103 + 113 + 123 = 339.
        assert_eq!(s.at(&[1, 3]).unwrap(), 339.0);
        let mx = t.max_axis(2).unwrap();
        assert_eq!(mx.shape().dims(), &[2, 3]);
        assert_eq!(mx.at(&[1, 2]).unwrap(), 123.0);
    }

    proptest! {
        #[test]
        fn sum_axis_preserves_total(dims in proptest::collection::vec(1usize..5, 1..4), axis_pick in 0usize..3) {
            let t = Tensor::from_fn(dims.clone(), |i| i.iter().sum::<usize>() as f32 + 1.0);
            let axis = axis_pick % dims.len();
            let reduced = t.sum_axis(axis).unwrap();
            prop_assert!((reduced.sum() - t.sum()).abs() < 1e-3 * (1.0 + t.sum().abs()));
        }

        #[test]
        fn addition_commutes(v in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
            let a = t(v.clone());
            let b = t(v.iter().rev().copied().collect());
            let ab = &a + &b;
            let ba = &b + &a;
            prop_assert_eq!(ab.as_slice(), ba.as_slice());
        }

        #[test]
        fn normalize_bounds(v in proptest::collection::vec(-1e3f32..1e3, 2..64)) {
            let n = t(v).normalize_minmax();
            for &x in n.as_slice() {
                prop_assert!((0.0..=1.0).contains(&x));
            }
        }

        #[test]
        fn dot_matches_norm(v in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let a = t(v);
            let d = a.dot(&a).unwrap();
            let n = a.norm_l2();
            prop_assert!((d - n * n).abs() <= 1e-3 * (1.0 + d.abs()));
        }
    }
}
