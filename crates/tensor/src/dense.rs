//! Dense, owned, row-major `f64` tensors.

use crate::shape::Shape;
use crate::workspace::Buffer;

/// A dense tensor of `f64` values in row-major layout.
///
/// This is the storage type used for input tensors and for all dimension-tree
/// intermediates. Intermediates 𝓜^(S) of the paper are stored with the CP
/// rank as a trailing mode, i.e. shape `[s_{i1}, ..., s_{im}, R]`. The
/// storage is a [`Buffer`]: one drawn from a [`crate::Workspace`] goes back
/// to it when the tensor is dropped.
#[derive(Clone, PartialEq)]
pub struct DenseTensor {
    shape: Shape,
    data: Buffer,
}

impl DenseTensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.len()];
        DenseTensor::from_vec(shape, data)
    }

    /// Build a tensor from a function of the multi-index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        for idx in shape.indices() {
            data.push(f(&idx));
        }
        DenseTensor::from_vec(shape, data)
    }

    /// Wrap an existing buffer. Panics if the buffer length does not match.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f64>) -> Self {
        DenseTensor::from_buffer(shape, data.into())
    }

    /// [`DenseTensor::from_vec`] over a (possibly workspace-drawn) buffer.
    pub fn from_buffer(shape: impl Into<Shape>, data: Buffer) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        DenseTensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Tensor order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Extent of mode `k`.
    #[inline]
    pub fn dim(&self, k: usize) -> usize {
        self.shape.dim(k)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Element access by multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.shape.linearize(idx)]
    }

    /// Element assignment by multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let lin = self.shape.linearize(idx);
        self.data[lin] = v;
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Inner product `<self, other>` (shapes must match).
    pub fn inner(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "inner product shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// `self += alpha * other` (shapes must match).
    pub fn axpy(&mut self, alpha: f64, other: &DenseTensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in self.data.iter_mut() {
            *x *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshape(self, shape: impl Into<Shape>) -> DenseTensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "reshape to {} changes element count",
            shape
        );
        DenseTensor {
            shape,
            data: self.data,
        }
    }

    /// Grow the leading mode in place: append `other` (same trailing
    /// extents) after `self`'s last leading index. Row-major storage makes
    /// this a tail copy of `other`'s buffer — amortised O(`other`), values
    /// verbatim, so the result is bit-identical to a tensor built whole.
    /// The primitive behind streaming growth along an evolving mode.
    pub fn append_leading(&mut self, other: &DenseTensor) {
        let mut dims = self.shape.dims().to_vec();
        assert!(!dims.is_empty(), "append_leading needs a leading mode");
        assert_eq!(
            dims[1..],
            other.shape.dims()[1..],
            "append_leading trailing-extent mismatch"
        );
        dims[0] += other.dim(0);
        self.data.vec_mut().extend_from_slice(&other.data);
        self.shape = Shape::new(dims);
    }

    /// Copy out the sub-tensor covering indices `[start, start+len)` of
    /// mode `axis` (all other modes in full).
    pub fn slice_along(&self, axis: usize, start: usize, len: usize) -> DenseTensor {
        assert!(axis < self.order(), "slice_along axis out of range");
        assert!(
            start + len <= self.dim(axis),
            "slice_along range {start}+{len} exceeds extent {}",
            self.dim(axis)
        );
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let outer: usize = self.shape.dims()[..axis].iter().product();
        let src_block = self.dim(axis) * inner;
        let mut dims = self.shape.dims().to_vec();
        dims[axis] = len;
        let mut data = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = o * src_block + start * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        DenseTensor::from_vec(Shape::new(dims), data)
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseTensor({}, {} elems)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseTensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn from_fn_layout() {
        let t = DenseTensor::from_fn(vec![2, 2], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn norms_and_inner() {
        let t = DenseTensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert!((t.norm_sq() - 30.0).abs() < 1e-12);
        let u = DenseTensor::from_vec(vec![2, 2], vec![1.0, 1.0, 1.0, 1.0]);
        assert!((t.inner(&u) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_scale() {
        let mut t = DenseTensor::from_vec(vec![2], vec![1.0, 2.0]);
        let u = DenseTensor::from_vec(vec![2], vec![10.0, 20.0]);
        t.axpy(0.5, &u);
        assert_eq!(t.data(), &[6.0, 12.0]);
        t.scale(2.0);
        assert_eq!(t.data(), &[12.0, 24.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.get(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic]
    fn reshape_bad_len_panics() {
        let t = DenseTensor::zeros(vec![2, 3]);
        let _ = t.reshape(vec![4, 2]);
    }

    #[test]
    fn slice_then_append_roundtrips_the_leading_mode() {
        let t = DenseTensor::from_fn(vec![4, 3, 5], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        for cut in 1..t.dim(0) {
            let mut grown = t.slice_along(0, 0, cut);
            grown.append_leading(&t.slice_along(0, cut, t.dim(0) - cut));
            assert_eq!(grown.shape().dims(), t.shape().dims());
            assert_eq!(grown.data(), t.data(), "cut {cut}");
        }
    }

    #[test]
    fn slice_along_picks_the_right_elements() {
        let t = DenseTensor::from_fn(vec![2, 3, 2], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        let s = t.slice_along(1, 1, 2);
        assert_eq!(s.shape().dims(), &[2, 2, 2]);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    assert_eq!(s.get(&[i, j, k]), t.get(&[i, j + 1, k]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "extent mismatch")]
    fn append_rejects_mismatched_trailing_extents() {
        let mut a = DenseTensor::zeros(vec![2, 3]);
        let b = DenseTensor::zeros(vec![2, 4]);
        a.append_leading(&b);
    }
}
