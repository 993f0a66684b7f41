//! A small vector that stores up to [`INLINE`] elements without a heap
//! allocation.
//!
//! Shapes, strides, per-axis ranges and block restrictions are a
//! handful of machine words each (every shipped workload is rank ≤ 2),
//! but the executor builds them once per operand per tile. Keeping them
//! inline is what makes `Tensor::view`, `TensorView::slice` and every
//! operator's output shape allocation-free; longer lists spill to a
//! `Vec`, so no rank is rejected.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Elements stored inline before spilling to the heap.
pub const INLINE: usize = 4;

/// A vector of `Copy` elements, inline up to [`INLINE`] of them. Built
/// by `collect` or [`push`](InlineVec::push); compares, hashes and
/// prints as the slice it dereferences to.
///
/// # Examples
///
/// ```
/// use sf_tensor::InlineVec;
/// let mut v: InlineVec<usize> = [2, 3].into_iter().collect();
/// v.push(4);
/// assert_eq!(&*v, &[2, 3, 4]);
/// ```
#[derive(Clone)]
pub struct InlineVec<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    /// `buf[..len]` are the elements; `len <= INLINE`.
    Inline { len: u8, buf: [T; INLINE] },
    /// More than [`INLINE`] elements.
    Heap(Vec<T>),
}

impl<T: Copy + Default> InlineVec<T> {
    /// Appends an element, spilling to the heap when the inline
    /// storage is full.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = value;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(buf);
                spilled.push(value);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(v) => v.push(value),
        }
    }
}

impl<T: Copy + Default> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); INLINE],
        })
    }
}

impl<T: Copy + Default> FromIterator<T> for InlineVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::default();
        for item in iter {
            out.push(item);
        }
        out
    }
}

impl<T> Deref for InlineVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T> DerefMut for InlineVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: PartialEq> PartialEq for InlineVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for InlineVec<T> {}

impl<T: Hash> Hash for InlineVec<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for InlineVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn spills_past_inline_capacity_and_keeps_order() {
        let mut v = InlineVec::default();
        for i in 0..INLINE + 3 {
            assert_eq!(v.len(), i);
            v.push(i);
        }
        assert!(matches!(v.0, Repr::Heap(_)));
        assert_eq!(&*v, &(0..INLINE + 3).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn behaves_as_the_slice_it_holds() {
        let long: Vec<usize> = (0..9).collect();
        for items in [&[][..], &[5][..], &[1, 2, 3, 4][..], &long[..]] {
            let a: InlineVec<usize> = items.iter().copied().collect();
            assert_eq!(&*a, items);
            assert_eq!(a, a.clone());
            assert_eq!(hash_of(&a), hash_of(&items.to_vec()));
            assert_eq!(format!("{a:?}"), format!("{items:?}"));
        }
        let mut m: InlineVec<usize> = [1, 2].into_iter().collect();
        m[1] = 9;
        assert_eq!(&*m, &[1, 9]);
    }
}
