//! The dense tensor type.

use crate::dtype::DType;
use crate::error::{Result, TensorError};
use crate::rng::XorShiftRng;
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// The [`DType`] records the *storage* precision used for memory-traffic
/// accounting in the GPU model; arithmetic is always carried out in `f32`.
///
/// # Examples
///
/// ```
/// use sf_tensor::{Tensor, Shape, DType};
/// let t = Tensor::zeros(Shape::new(vec![2, 3]), DType::F16);
/// assert_eq!(t.shape().volume(), 6);
/// assert_eq!(t.size_bytes(), 12);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        // A clone materializes a fresh data buffer, so it counts toward
        // the allocation statistics like any constructor.
        crate::alloc_stats::record_alloc();
        Tensor {
            shape: self.shape,
            dtype: self.dtype,
            data: self.data.clone(),
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data.
    ///
    /// Returns [`TensorError::DataLenMismatch`] if `data.len()` does not
    /// equal the shape volume.
    pub fn from_data(shape: Shape, dtype: DType, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::DataLenMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, dtype, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape, dtype: DType) -> Self {
        crate::alloc_stats::record_alloc();
        let volume = shape.volume();
        Tensor {
            shape,
            dtype,
            data: vec![0.0; volume],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, dtype: DType, value: f32) -> Self {
        crate::alloc_stats::record_alloc();
        let volume = shape.volume();
        Tensor {
            shape,
            dtype,
            data: vec![value; volume],
        }
    }

    /// Creates a tensor with uniformly random values in `[-1, 1)`.
    ///
    /// Deterministic for a given `seed`, so tests and benchmarks are
    /// reproducible.
    pub fn random(shape: Shape, dtype: DType, seed: u64) -> Self {
        crate::alloc_stats::record_alloc();
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let volume = shape.volume();
        let data = (0..volume).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Tensor { shape, dtype, data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The storage precision.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, yielding its data buffer (used by
    /// [`ScratchPool::recycle_tensor`](crate::ScratchPool::recycle_tensor)).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Storage size in bytes at the tensor's precision.
    pub fn size_bytes(&self) -> usize {
        self.shape.volume() * self.dtype.size_bytes()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a copy with every element rounded through the storage
    /// precision (a no-op for `F32`). Models what values survive a trip
    /// through half-precision global memory.
    pub fn quantized(&self) -> Tensor {
        crate::alloc_stats::record_alloc();
        let data = self.data.iter().map(|&v| self.dtype.quantize(v)).collect();
        Tensor {
            shape: self.shape,
            dtype: self.dtype,
            data,
        }
    }

    /// Reinterprets the data under a new shape of equal volume.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        if shape.volume() != self.shape.volume() {
            return Err(TensorError::InvalidShape(format!(
                "cannot reshape {} (volume {}) to {} (volume {})",
                self.shape,
                self.shape.volume(),
                shape,
                shape.volume()
            )));
        }
        crate::alloc_stats::record_alloc();
        Ok(Tensor {
            shape,
            dtype: self.dtype,
            data: self.data.clone(),
        })
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// Returns `None` when the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }

    /// Whether all elements are within `tol` of `other` (same shape).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).is_some_and(|d| d <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_data_validates_len() {
        let err = Tensor::from_data(Shape::new(vec![2, 2]), DType::F32, vec![1.0; 3]);
        assert!(matches!(err, Err(TensorError::DataLenMismatch { .. })));
        assert!(Tensor::from_data(Shape::new(vec![2, 2]), DType::F32, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(Shape::new(vec![8]), DType::F32, 7);
        let b = Tensor::random(Shape::new(vec![8]), DType::F32, 7);
        let c = Tensor::random(Shape::new(vec![8]), DType::F32, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(Shape::new(vec![3, 4]), DType::F32);
        t.set(&[2, 1], 5.5);
        assert_eq!(t.at(&[2, 1]), 5.5);
        assert_eq!(t.data()[2 * 4 + 1], 5.5);
    }

    #[test]
    fn size_accounts_for_dtype() {
        let s = Shape::new(vec![4, 4]);
        assert_eq!(Tensor::zeros(s, DType::F16).size_bytes(), 32);
        assert_eq!(Tensor::zeros(s, DType::F32).size_bytes(), 64);
    }

    #[test]
    fn reshape_checks_volume() {
        let t = Tensor::zeros(Shape::new(vec![2, 6]), DType::F32);
        assert!(t.reshape(Shape::new(vec![3, 4])).is_ok());
        assert!(t.reshape(Shape::new(vec![5])).is_err());
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::full(Shape::new(vec![2]), DType::F32, 1.0);
        let mut b = a.clone();
        b.set(&[1], 1.01);
        assert!(a.allclose(&b, 0.02));
        assert!(!a.allclose(&b, 0.001));
        let c = Tensor::zeros(Shape::new(vec![3]), DType::F32);
        assert_eq!(a.max_abs_diff(&c), None);
    }
}
