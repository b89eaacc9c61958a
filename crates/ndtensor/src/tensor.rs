use crate::{scratch, Result, Shape, TensorError};

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the workspace:
/// network activations, convolution kernels, images and saliency masks are
/// all tensors of different ranks. Storage is always contiguous, which keeps
/// every kernel simple and cache-friendly.
///
/// Storage is recycled through [`crate::scratch`]: every constructor takes
/// its buffer from the current thread's scratch pool and `Drop` files the
/// buffer back, so tensor-churning loops (scoring a video stream frame by
/// frame) stop allocating once warmed up. Recycling is invisible in the
/// API — buffers are always (re)initialised before use and values are
/// identical with the pool on or off.
///
/// # Example
///
/// ```
/// use ndtensor::Tensor;
///
/// # fn main() -> Result<(), ndtensor::TensorError> {
/// let t = Tensor::from_fn([2, 2], |idx| (idx[0] * 2 + idx[1]) as f32);
/// assert_eq!(t.at(&[1, 0])?, 2.0);
/// assert_eq!(t.sum(), 0.0 + 1.0 + 2.0 + 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = scratch::take(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Donate the storage back to this thread's scratch pool. A tensor
        // whose buffer was already moved out (`into_vec`) holds a
        // capacity-0 vec, which `give` ignores.
        scratch::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: scratch::take_zeroed(shape.volume()),
            shape,
        }
    }

    /// A tensor whose elements hold whatever a recycled scratch buffer
    /// held ([`scratch::take_stale`]): the output of a kernel that assigns
    /// every element, which then needs no zero fill.
    pub(crate) fn stale(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: scratch::take_stale(shape.volume()),
            shape,
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let volume = shape.volume();
        let mut data = scratch::take(volume);
        data.resize(volume, value);
        Tensor { data, shape }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        let mut data = scratch::take(1);
        data.push(value);
        Tensor {
            data,
            shape: Shape::scalar(),
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor by copying existing data out of a slice. The
    /// backing buffer comes from the scratch pool, so this is the
    /// allocation-free way to materialise a sub-slice as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the shape volume.
    pub fn from_slice(shape: impl Into<Shape>, data: &[f32]) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        let mut buf = scratch::take(data.len());
        buf.extend_from_slice(data);
        Ok(Tensor { data: buf, shape })
    }

    /// Creates a tensor by evaluating `f` at every multi-dimensional index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let volume = shape.volume();
        let mut data = scratch::take(volume);
        // Odometer-style index: one rank-length buffer incremented in
        // place, instead of unravelling (and allocating) per element.
        let mut idx = vec![0usize; shape.rank()]; // sncheck:allow(hot-path-transitive-alloc): one rank-length buffer per tensor construction, amortized over all `volume` evaluations
        for _ in 0..volume {
            data.push(f(&idx));
            for axis in (0..shape.rank()).rev() {
                idx[axis] += 1;
                if idx[axis] < shape.dims()[axis] {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Tensor { data, shape }
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    ///
    /// The returned buffer is detached from the scratch pool; dropping it
    /// frees the memory normally.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for wrong-rank or
    /// out-of-range indices.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        self.shape
            .offset(index)
            .map(|off| self.data[off])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            })
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for wrong-rank or
    /// out-of-range indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.offset(index) {
            Some(off) => {
                self.data[off] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            }),
        }
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.len(),
            });
        }
        let mut data = scratch::take(self.data.len());
        data.extend_from_slice(&self.data);
        Ok(Tensor { data, shape })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = scratch::take(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut data = scratch::take(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// A pure copy in `32 × 32` tiles, so both the rows read and the rows
    /// written stay in cache across a tile (a column-at-a-time walk of a
    /// wide matrix touches a new cache line on every read).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when the tensor is not rank 2.
    pub fn transpose2d(&self) -> Result<Tensor> {
        const TILE: usize = 32;
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2d",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape.dims()[0], self.shape.dims()[1]);
        // Every element is assigned below, tile by tile.
        let mut out = Tensor::stale([c, r]);
        let dst = out.as_mut_slice();
        for i0 in (0..r).step_by(TILE) {
            let i1 = (i0 + TILE).min(r);
            for j0 in (0..c).step_by(TILE) {
                for j in j0..(j0 + TILE).min(c) {
                    let column = &mut dst[j * r + i0..j * r + i1];
                    for (d, i) in column.iter_mut().zip(i0..i1) {
                        *d = self.data[i * c + j];
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let o = Tensor::ones([4]);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));
        let f = Tensor::full([2, 2], 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.25);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.at(&[]).unwrap(), 3.25);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 3], vec![0.0; 6]).is_ok());
        let err = Tensor::from_vec([2, 3], vec![0.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros([3, 4]);
        t.set(&[2, 1], 9.0).unwrap();
        assert_eq!(t.at(&[2, 1]).unwrap(), 9.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[3, 0]).is_err());
        assert!(t.set(&[0, 4], 1.0).is_err());
        assert!(t.at(&[1]).is_err());
    }

    #[test]
    fn from_fn_orders_row_major() {
        let t = Tensor::from_fn([2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0., 1., 2., 10., 11., 12.]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dims(), &[3, 2]);
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec([3], vec![10., 20., 30.]).unwrap();
        assert_eq!(a.map(|v| v * 2.0).as_slice(), &[2., 4., 6.]);
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(c.as_slice(), &[11., 22., 33.]);
        let bad = Tensor::zeros([4]);
        assert!(a.zip_map(&bad, |x, _| x).is_err());
    }

    #[test]
    fn map_inplace_mutates() {
        let mut t = Tensor::from_vec([2], vec![1., -2.]).unwrap();
        t.map_inplace(f32::abs);
        assert_eq!(t.as_slice(), &[1., 2.]);
    }

    #[test]
    fn transpose2d_swaps_axes() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert!(Tensor::zeros([2, 2, 2]).transpose2d().is_err());
    }

    /// The tiled copy equals the element-wise definition at shapes below,
    /// at and off the tile size, over a NaN-poisoned pool.
    #[test]
    fn transpose2d_matches_elementwise_at_odd_shapes() {
        for (r, c) in [
            (1usize, 1usize),
            (1, 70),
            (70, 1),
            (31, 33),
            (32, 32),
            (33, 65),
            (64, 9600 / 64 + 3),
        ] {
            let t = Tensor::from_fn([r, c], |i| (i[0] * 1000 + i[1]) as f32 - 0.5);
            for _ in 0..8 {
                scratch::give(vec![f32::NAN; (r * c).next_power_of_two()]);
            }
            let tt = t.transpose2d().unwrap();
            assert_eq!(tt.shape().dims(), &[c, r]);
            for j in 0..c {
                for i in 0..r {
                    assert_eq!(
                        tt.as_slice()[j * r + i].to_bits(),
                        t.as_slice()[i * c + j].to_bits(),
                        "{r}x{c} at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn dropped_tensor_storage_is_recycled_on_this_thread() {
        let t = Tensor::zeros([4, 8]);
        let ptr = t.as_slice().as_ptr();
        drop(t);
        // Same thread, same size class: the next tensor of that class
        // reuses the storage.
        let t2 = Tensor::zeros([32]);
        assert_eq!(t2.as_slice().as_ptr(), ptr);
        assert!(t2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clone_is_deep_and_reuse_does_not_leak_values() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]).unwrap();
        let b = a.clone();
        drop(a);
        assert_eq!(b.as_slice(), &[1., 2., 3.]);
        let fresh = Tensor::zeros([3]);
        assert_eq!(fresh.as_slice(), &[0., 0., 0.]);
    }

    #[test]
    fn into_vec_detaches_storage() {
        let t = Tensor::from_vec([2], vec![5., 6.]).unwrap();
        let v = t.into_vec();
        assert_eq!(v, vec![5., 6.]);
        // Dropping the detached vec must not corrupt later tensors.
        drop(v);
        let t2 = Tensor::ones([2]);
        assert_eq!(t2.as_slice(), &[1., 1.]);
    }

    #[test]
    fn from_slice_copies() {
        let src = [1.0f32, 2.0, 3.0, 4.0];
        let t = Tensor::from_slice([2, 2], &src).unwrap();
        assert_eq!(t.as_slice(), &src);
        assert!(Tensor::from_slice([3], &src).is_err());
    }

    #[test]
    fn empty_tensor() {
        let t = Tensor::zeros([0, 5]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    proptest! {
        #[test]
        fn transpose_is_involutive(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
            let t = Tensor::from_fn([r, c], |idx| {
                ((idx[0] * 31 + idx[1] * 7 + seed as usize) % 13) as f32
            });
            let back = t.transpose2d().unwrap().transpose2d().unwrap();
            prop_assert_eq!(back, t);
        }

        #[test]
        fn from_fn_at_agree(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let t = Tensor::from_fn(dims.clone(), |idx| {
                idx.iter().enumerate().map(|(i, &v)| v * (i + 1)).sum::<usize>() as f32
            });
            let shape = Shape::from(dims);
            for off in 0..shape.volume() {
                let idx = shape.unravel(off).unwrap();
                let expect = idx.iter().enumerate().map(|(i, &v)| v * (i + 1)).sum::<usize>() as f32;
                prop_assert_eq!(t.at(&idx).unwrap(), expect);
            }
        }
    }
}
