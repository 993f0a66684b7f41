//! Zero-copy strided tensor views.
//!
//! A [`TensorView`] borrows a rectangular region of a [`Tensor`]'s data
//! without copying it: the view keeps the parent's storage slice plus its
//! own dimensions and strides. The kernel interpreter uses views for
//! every block/tile extraction, so restricting a value to a spatial or
//! temporal block is O(1) instead of an O(volume) clone.
//!
//! [`TensorViewMut`] is the write-side counterpart: a mutable strided
//! view of externally-owned storage. The parallel executor pre-partitions
//! each output tensor into disjoint per-block regions and hands every
//! worker its own `TensorViewMut`, so block results scatter into the
//! shared output without any lock — spatial blocks write disjoint
//! regions by the slicer's Table-3 legality guarantee.
//!
//! Dimensions and strides are stored inline ([`InlineVec`]), so a
//! [`TensorView`] is a `Copy` value: building, slicing and dropping one
//! never allocates and runs no drop glue.
//!
//! Everything that walks a strided view element by element — the
//! element-wise kernels of [`crate::ops::viewed`], [`TensorView::to_tensor`]
//! and [`TensorViewMut::copy_from_dense`] — shares one *row-run*
//! traversal: [`for_each_run`] steps an odometer over the outer axes and
//! hands the caller the storage offset of each run of the innermost
//! axis, which the caller then walks with a loop chosen by that axis's
//! stride ([`map_run`]). No index is ever decoded per element.

use crate::dtype::DType;
use crate::error::{Result, TensorError};
use crate::inline::InlineVec;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Calls `f` once per index of the `outer` axes, in row-major order,
/// with the storage offset that index has under each of `K` stride
/// lists (`strides[k][ax]` belongs to `outer[ax]`). Nothing is called
/// when an extent is zero; a rank-0 `outer` yields the single offset 0.
pub(crate) fn for_each_run<const K: usize>(
    outer: &[usize],
    strides: [&[usize]; K],
    mut f: impl FnMut([usize; K]),
) {
    if outer.contains(&0) {
        return;
    }
    let mut idx: InlineVec<usize> = outer.iter().map(|_| 0).collect();
    let mut offs = [0usize; K];
    loop {
        f(offs);
        // Odometer step: bump the last axis, carrying leftwards.
        let mut ax = outer.len();
        loop {
            if ax == 0 {
                return;
            }
            ax -= 1;
            idx[ax] += 1;
            for (off, s) in offs.iter_mut().zip(strides) {
                *off += s[ax];
            }
            if idx[ax] < outer[ax] {
                break;
            }
            for (off, s) in offs.iter_mut().zip(strides) {
                *off -= s[ax] * outer[ax];
            }
            idx[ax] = 0;
        }
    }
}

/// Splits a view's axes for the row-run traversal: the outer axes, the
/// innermost extent and the innermost stride. A rank-0 view is one run
/// of one element.
pub(crate) fn split_inner<'a>(dims: &'a [usize], strides: &[usize]) -> (&'a [usize], usize, usize) {
    match dims.split_last() {
        Some((&n, outer)) => (outer, n, strides[outer.len()]),
        None => (dims, 1, 0),
    }
}

/// One run of the innermost axis: `out[i] = f(src[off + i * stride])`,
/// with the loop specialised on the stride (dense, broadcast, other).
/// `f` must be pure: a broadcast run evaluates it once.
#[inline]
pub(crate) fn map_run(
    out: &mut [f32],
    src: &[f32],
    off: usize,
    stride: usize,
    f: impl Fn(f32) -> f32,
) {
    match stride {
        1 => {
            let run = &src[off..off + out.len()];
            for (slot, &v) in out.iter_mut().zip(run) {
                *slot = f(v);
            }
        }
        0 => out.fill(f(src[off])),
        _ => {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = f(src[off + i * stride]);
            }
        }
    }
}

/// A borrowed, possibly strided, rectangular view of tensor data.
///
/// # Examples
///
/// ```
/// use sf_tensor::{Tensor, Shape, DType};
/// let t = Tensor::from_data(
///     Shape::new(vec![2, 3]),
///     DType::F32,
///     vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
/// )
/// .unwrap();
/// // Column slice [0..2, 1..3): strided, no copy.
/// let v = t.slice(&[(0, 2), (1, 3)]).unwrap();
/// assert_eq!(v.dims(), &[2, 2]);
/// assert_eq!(v.at(&[1, 0]), 4.0);
/// assert!(!v.is_contiguous());
/// assert_eq!(v.to_tensor().data(), &[1.0, 2.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    /// Parent storage starting at this view's base offset.
    data: &'a [f32],
    /// View shape.
    shape: Shape,
    /// Strides into `data` (elements), one per view dimension.
    strides: InlineVec<usize>,
    /// Storage precision (inherited from the parent).
    dtype: DType,
}

impl<'a> TensorView<'a> {
    /// Builds a view over a raw slice (crate-internal: callers guarantee
    /// the strides address within `data`).
    pub(crate) fn new(
        data: &'a [f32],
        shape: Shape,
        strides: InlineVec<usize>,
        dtype: DType,
    ) -> Self {
        TensorView {
            data,
            shape,
            strides,
            dtype,
        }
    }

    /// The view's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The view's dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.shape.volume()
    }

    /// Storage precision.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Strides into the underlying data, in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The underlying storage, starting at the view's base offset.
    ///
    /// Only offsets produced by [`strides`](TensorView::strides) are
    /// meaningful; the slice may extend past the view's last element.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        debug_assert_eq!(index.len(), self.rank(), "view index rank mismatch");
        let off: usize = index
            .iter()
            .zip(self.strides.iter())
            .map(|(&i, &s)| i * s)
            .sum();
        self.data[off]
    }

    /// Whether the view's elements are laid out densely in row-major
    /// order (dimensions of extent 1 are stride-agnostic).
    pub fn is_contiguous(&self) -> bool {
        let mut expected = 1usize;
        for (&d, &s) in self.shape.dims().iter().zip(self.strides.iter()).rev() {
            if d > 1 {
                if s != expected {
                    return false;
                }
                expected *= d;
            }
        }
        true
    }

    /// The view's elements as one dense slice, when contiguous.
    pub fn as_slice(&self) -> Option<&'a [f32]> {
        if self.is_contiguous() {
            Some(&self.data[..self.volume()])
        } else {
            None
        }
    }

    /// Restricts the view to per-axis `[start, end)` ranges, returning a
    /// sub-view of the same storage.
    pub fn slice(&self, ranges: &[(usize, usize)]) -> Result<TensorView<'a>> {
        if ranges.len() != self.rank() {
            return Err(TensorError::InvalidShape(format!(
                "slice needs {} range(s), got {}",
                self.rank(),
                ranges.len()
            )));
        }
        let mut offset = 0usize;
        let mut shape = self.shape;
        for ((&(s, t), e), &stride) in ranges.iter().zip(shape.dims_mut()).zip(self.strides.iter())
        {
            if s > t || t > *e {
                return Err(TensorError::InvalidShape(format!(
                    "slice range [{s}, {t}) out of bounds for extent {e}"
                )));
            }
            offset += s * stride;
            *e = t - s;
        }
        let offset = offset.min(self.data.len());
        Ok(TensorView {
            data: &self.data[offset..],
            shape,
            strides: self.strides,
            dtype: self.dtype,
        })
    }

    /// `out[i] = f(self[i])` over the view's elements in row-major
    /// order (`out.len() == volume`): one zip loop when the view is
    /// contiguous, the row-run traversal otherwise.
    pub(crate) fn map_into(&self, out: &mut [f32], f: impl Fn(f32) -> f32) {
        if let Some(src) = self.as_slice() {
            return map_run(out, src, 0, 1, f);
        }
        if out.is_empty() {
            return;
        }
        let (outer, n, stride) = split_inner(self.dims(), &self.strides);
        let mut rows = out.chunks_exact_mut(n);
        for_each_run(outer, [&self.strides], |[off]| {
            let row = rows.next().expect("one output row per run");
            map_run(row, self.data, off, stride, &f);
        });
    }

    /// Materializes the view into an owned dense tensor.
    pub fn to_tensor(&self) -> Tensor {
        crate::alloc_stats::record_alloc();
        let mut out = vec![0.0; self.volume()];
        self.map_into(&mut out, |v| v);
        Tensor::from_data(self.shape, self.dtype, out).expect("view volume matches")
    }
}

/// A mutable, possibly strided, rectangular view of externally-owned
/// `f32` storage.
///
/// Unlike [`TensorView`] this is built from a raw pointer so that many
/// disjoint views of the *same* tensor can be held by different worker
/// threads at once (the borrow checker cannot express "disjoint strided
/// regions"). Disjointness is the constructor's safety contract.
///
/// # Examples
///
/// ```
/// use sf_tensor::{DType, Shape, Tensor};
/// let mut t = Tensor::zeros(Shape::new(vec![2, 3]), DType::F32);
/// let mut v = t.view_mut();
/// v.copy_from_dense(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
/// assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    /// Base of the view's region.
    data: *mut f32,
    /// Addressable elements from `data` (bounds checking).
    len: usize,
    /// View shape.
    shape: Shape,
    /// Strides into `data` (elements), one per view dimension.
    strides: InlineVec<usize>,
    _owner: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: a TensorViewMut is an exclusive handle on the region its
// shape/strides address (constructor contract); sending it to another
// thread transfers that exclusivity.
unsafe impl Send for TensorViewMut<'_> {}

impl<'a> TensorViewMut<'a> {
    /// Builds a mutable view over raw storage.
    ///
    /// # Safety
    ///
    /// * `data .. data + len` must be valid for reads and writes for the
    ///   lifetime `'a`.
    /// * Every element addressed by `shape`/`strides` must fall inside
    ///   `len`.
    /// * No other live reference or view may alias any element this view
    ///   addresses (disjoint regions of one buffer are fine).
    pub unsafe fn from_raw_parts(
        data: *mut f32,
        len: usize,
        shape: Shape,
        strides: &[usize],
    ) -> Self {
        TensorViewMut {
            data,
            len,
            shape,
            strides: strides.iter().copied().collect(),
            _owner: std::marker::PhantomData,
        }
    }

    /// The view's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The view's dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.shape.volume()
    }

    /// Copies a dense row-major buffer (`src.len() == volume`) into the
    /// strided destination region.
    ///
    /// The destination decomposes into contiguous runs — the maximal
    /// dense suffix of the view's axes — which are copied
    /// slice-to-slice; this is the executor's output scatter.
    pub fn copy_from_dense(&mut self, src: &[f32]) -> Result<()> {
        let dims = self.shape.dims();
        let volume = self.volume();
        if src.len() != volume {
            return Err(TensorError::InvalidShape(format!(
                "copy_from_dense: source length {} != view volume {volume}",
                src.len()
            )));
        }
        if volume == 0 {
            return Ok(());
        }
        // Maximal suffix of axes over which the destination is dense:
        // stride equals the product of the region extents below it.
        let mut run = 1usize;
        let mut split = dims.len();
        while split > 0 {
            let ax = split - 1;
            if dims[ax] != 1 && self.strides[ax] != run {
                break;
            }
            run *= dims[ax];
            split -= 1;
        }
        let (data, len) = (self.data, self.len);
        let mut runs = src.chunks_exact(run);
        for_each_run(&dims[..split], [&self.strides], |[off]| {
            let chunk = runs.next().expect("one source run per destination run");
            assert!(off + run <= len, "run escapes the view's storage");
            // SAFETY: `off + run <= len` was just checked and
            // `data .. data + len` is valid for writes (constructor
            // contract); `src` cannot overlap the exclusively-held
            // destination.
            unsafe {
                std::ptr::copy_nonoverlapping(chunk.as_ptr(), data.add(off), run);
            }
        });
        Ok(())
    }
}

impl Tensor {
    /// A zero-copy view of the whole tensor.
    pub fn view(&self) -> TensorView<'_> {
        TensorView::new(
            self.data(),
            *self.shape(),
            self.shape().strides(),
            self.dtype(),
        )
    }

    /// A zero-copy view of the tensor reinterpreted under a new shape of
    /// equal volume (the no-copy counterpart of [`Tensor::reshape`]).
    pub fn view_reshaped(&self, shape: Shape) -> Result<TensorView<'_>> {
        if shape.volume() != self.shape().volume() {
            return Err(TensorError::InvalidShape(format!(
                "cannot view {} (volume {}) as {} (volume {})",
                self.shape(),
                self.shape().volume(),
                shape,
                shape.volume()
            )));
        }
        let strides = shape.strides();
        Ok(TensorView::new(self.data(), shape, strides, self.dtype()))
    }

    /// A zero-copy view restricted to per-axis `[start, end)` ranges.
    pub fn slice(&self, ranges: &[(usize, usize)]) -> Result<TensorView<'_>> {
        self.view().slice(ranges)
    }

    /// A mutable view of the whole tensor.
    pub fn view_mut(&mut self) -> TensorViewMut<'_> {
        let shape = *self.shape();
        let strides = shape.strides();
        let data = self.data_mut();
        let len = data.len();
        // SAFETY: the view borrows `self` mutably for its lifetime, so
        // it is the only handle on the storage.
        unsafe { TensorViewMut::from_raw_parts(data.as_mut_ptr(), len, shape, &strides) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_data(Shape::new(dims), DType::F32, data).unwrap()
    }

    #[test]
    fn full_view_is_contiguous() {
        let x = t(vec![2, 3], (0..6).map(|i| i as f32).collect());
        let v = x.view();
        assert!(v.is_contiguous());
        assert_eq!(v.as_slice().unwrap(), x.data());
        assert_eq!(v.at(&[1, 2]), 5.0);
    }

    #[test]
    fn row_slice_is_contiguous_column_slice_is_not() {
        let x = t(vec![4, 3], (0..12).map(|i| i as f32).collect());
        let rows = x.slice(&[(1, 3), (0, 3)]).unwrap();
        assert!(rows.is_contiguous());
        assert_eq!(rows.as_slice().unwrap(), &x.data()[3..9]);

        let cols = x.slice(&[(0, 4), (1, 2)]).unwrap();
        assert!(!cols.is_contiguous());
        assert_eq!(cols.dims(), &[4, 1]);
        assert_eq!(cols.to_tensor().data(), &[1.0, 4.0, 7.0, 10.0]);
    }

    #[test]
    fn nested_slicing_composes() {
        let x = t(vec![4, 4], (0..16).map(|i| i as f32).collect());
        let v = x.slice(&[(1, 4), (1, 4)]).unwrap();
        let w = v.slice(&[(1, 3), (0, 2)]).unwrap();
        assert_eq!(w.dims(), &[2, 2]);
        assert_eq!(w.to_tensor().data(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn slice_validates_ranges() {
        let x = t(vec![2, 2], vec![0.0; 4]);
        assert!(x.slice(&[(0, 3), (0, 2)]).is_err());
        assert!(x.slice(&[(1, 0), (0, 2)]).is_err());
        assert!(x.slice(&[(0, 2)]).is_err());
    }

    #[test]
    fn reshaped_view_matches_reshape() {
        let x = t(vec![2, 6], (0..12).map(|i| i as f32).collect());
        let v = x.view_reshaped(Shape::new(vec![3, 4])).unwrap();
        assert_eq!(v.to_tensor(), x.reshape(Shape::new(vec![3, 4])).unwrap());
        assert!(x.view_reshaped(Shape::new(vec![5])).is_err());
    }

    #[test]
    fn view_mut_copies_strided_regions() {
        // Write the two column halves of a 4x4 through disjoint views.
        let mut x = t(vec![4, 4], vec![0.0; 16]);
        let strides = x.shape().strides();
        let len = x.data().len();
        let base = x.data_mut().as_mut_ptr();
        // SAFETY: the left region [0..4, 0..2) is in bounds and `x` is
        // not otherwise touched while the views live.
        let mut left =
            unsafe { TensorViewMut::from_raw_parts(base, len, Shape::new(vec![4, 2]), &strides) };
        // SAFETY: the right region [0..4, 2..4) is in bounds and disjoint
        // from `left`.
        let mut right = unsafe {
            TensorViewMut::from_raw_parts(base.add(2), len - 2, Shape::new(vec![4, 2]), &strides)
        };
        left.copy_from_dense(&[1.0; 8]).unwrap();
        right.copy_from_dense(&[2.0; 8]).unwrap();
        drop((left, right));
        for r in 0..4 {
            assert_eq!(&x.data()[r * 4..r * 4 + 4], &[1.0, 1.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn view_mut_validates_source_length() {
        let mut x = t(vec![2, 2], vec![0.0; 4]);
        assert!(x.view_mut().copy_from_dense(&[0.0; 3]).is_err());
        assert!(x.view_mut().copy_from_dense(&[9.0; 4]).is_ok());
        assert_eq!(x.data(), &[9.0; 4]);
    }

    #[test]
    fn view_mut_dense_suffix_is_one_run_for_row_regions() {
        // A row slab [1..3, 0..3) of a 4x3 tensor is fully dense: one
        // contiguous run.
        let mut x = t(vec![4, 3], vec![0.0; 12]);
        let strides = x.shape().strides();
        let len = x.data().len();
        let base = x.data_mut().as_mut_ptr();
        // SAFETY: the slab starts at row 1 and stays in bounds; `x` is
        // not otherwise touched while the view lives.
        let mut rows = unsafe {
            TensorViewMut::from_raw_parts(base.add(3), len - 3, Shape::new(vec![2, 3]), &strides)
        };
        rows.copy_from_dense(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        drop(rows);
        assert_eq!(
            x.data(),
            &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn empty_slice_has_zero_volume() {
        let x = t(vec![2, 2], vec![0.0; 4]);
        let v = x.slice(&[(2, 2), (0, 2)]).unwrap();
        assert_eq!(v.volume(), 0);
        assert_eq!(v.to_tensor().shape().dims(), &[0, 2]);
    }
}
