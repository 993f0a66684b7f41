//! Tensor shapes and the small shape algebra used by the compiler.

use crate::error::{Result, TensorError};
use crate::inline::{InlineVec, INLINE};
use std::fmt;

/// The largest rank a [`Shape`] holds.
pub const MAX_RANK: usize = INLINE;

/// A dense, row-major tensor shape of rank at most [`MAX_RANK`]. The
/// extents are stored inline ([`InlineVec`]), so a shape is a `Copy`
/// value: building, copying and dropping one never touches the heap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shape(InlineVec<usize>);

impl Shape {
    /// Creates a shape from its dimension extents; panics past
    /// [`MAX_RANK`] of them (input checks the rank where it enters).
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims.into_iter().collect())
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape::default()
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The dimension extents, for in-place edits that keep the rank.
    pub(crate) fn dims_mut(&mut self) -> &mut [usize] {
        &mut self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `dim`.
    pub fn dim(&self, dim: usize) -> Result<usize> {
        self.0.get(dim).copied().ok_or(TensorError::DimOutOfRange {
            dim,
            rank: self.0.len(),
        })
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> InlineVec<usize> {
        // The extents, replaced back to front by their running product.
        let mut strides = self.0;
        let mut stride = 1;
        for s in strides.iter_mut().rev() {
            stride *= std::mem::replace(s, stride);
        }
        strides
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index rank does not match.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            off += index[i] * stride;
            stride *= d;
        }
        off
    }

    /// Shape with dimension `dim` replaced by extent 1 (a kept reduction).
    pub fn with_dim(&self, dim: usize, extent: usize) -> Result<Shape> {
        if dim >= self.0.len() {
            return Err(TensorError::DimOutOfRange {
                dim,
                rank: self.0.len(),
            });
        }
        let mut shape = *self;
        shape.0[dim] = extent;
        Ok(shape)
    }

    /// Whether `other` broadcasts to `self` (equal extents or `other` has 1).
    pub fn broadcasts_from(&self, other: &Shape) -> bool {
        if self.rank() != other.rank() {
            return false;
        }
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(&a, &b)| a == b || b == 1)
    }

    /// Broadcasted result shape of two operands, if compatible.
    pub fn broadcast_with(&self, other: &Shape) -> Result<Shape> {
        if self.rank() != other.rank() {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast",
                lhs: *self,
                rhs: *other,
            });
        }
        let mut dims = InlineVec::default();
        for (&a, &b) in self.0.iter().zip(other.0.iter()) {
            if a == b || b == 1 {
                dims.push(a);
            } else if a == 1 {
                dims.push(b);
            } else {
                return Err(TensorError::ShapeMismatch {
                    op: "broadcast",
                    lhs: *self,
                    rhs: *other,
                });
            }
        }
        Ok(Shape(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.0).finish()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        dims.iter().copied().collect()
    }
}

impl FromIterator<usize> for Shape {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Shape(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(&*s.strides(), &[12, 4, 1]);
        assert_eq!(format!("{s:?}"), "Shape([2, 3, 4])");
        assert_eq!(s.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn dim_out_of_range() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.dim(2).is_err());
        assert_eq!(s.dim(1).unwrap(), 3);
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape::new(vec![4, 5]);
        let b = Shape::new(vec![4, 1]);
        assert!(a.broadcasts_from(&b));
        assert!(!b.broadcasts_from(&a));
        assert_eq!(a.broadcast_with(&b).unwrap(), a);
        assert_eq!(b.broadcast_with(&a).unwrap(), a);

        let c = Shape::new(vec![3, 5]);
        assert!(a.broadcast_with(&c).is_err());
    }

    #[test]
    fn with_dim_replaces_extent() {
        let s = Shape::new(vec![4, 5]);
        assert_eq!(s.with_dim(1, 1).unwrap(), Shape::new(vec![4, 1]));
        assert!(s.with_dim(2, 1).is_err());
    }
}
