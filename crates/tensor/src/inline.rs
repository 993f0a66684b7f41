//! A fixed-capacity vector of up to [`INLINE`] elements, stored inline.
//!
//! Shapes, strides, per-axis ranges and block restrictions are a
//! handful of machine words each (every shipped workload is rank ≤ 2),
//! but the executor builds them once per operand per tile. Holding them
//! in a `Copy` value with no heap variant makes building, copying and
//! dropping one free — no allocation, no drop glue. The capacity is the
//! system's rank limit ([`crate::MAX_RANK`]), checked where shapes enter
//! the system, so pushing past it is a bug and panics.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Capacity of an [`InlineVec`].
pub const INLINE: usize = 4;

/// A vector of at most [`INLINE`] `Copy` elements. Built by `collect`
/// or [`push`](InlineVec::push); compares, hashes and prints as the
/// slice it dereferences to.
///
/// # Examples
///
/// ```
/// use sf_tensor::InlineVec;
/// let mut v: InlineVec<usize> = [2, 3].into_iter().collect();
/// v.push(4);
/// assert_eq!(&*v, &[2, 3, 4]);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T> {
    /// `buf[..len]` are the elements.
    len: u8,
    buf: [T; INLINE],
}

impl<T: Copy + Default> InlineVec<T> {
    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds [`INLINE`] elements.
    pub fn push(&mut self, value: T) {
        let len = usize::from(self.len);
        assert!(len < INLINE, "InlineVec holds at most {INLINE} elements");
        self.buf[len] = value;
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec {
            len: 0,
            buf: [T::default(); INLINE],
        }
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
        &self.buf[..usize::from(self.len)]
    }
}

impl<T> DerefMut for InlineVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..usize::from(self.len)]
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
    fn fills_to_capacity_then_refuses_to_grow() {
        let mut v = InlineVec::default();
        for i in 0..INLINE {
            assert_eq!(v.len(), i);
            v.push(i);
        }
        assert_eq!(&*v, &(0..INLINE).collect::<Vec<_>>()[..]);
        assert!(std::panic::catch_unwind(move || {
            let mut full = v;
            full.push(INLINE);
        })
        .is_err());
    }

    #[test]
    fn behaves_as_the_slice_it_holds() {
        for items in [&[][..], &[5][..], &[1, 2, 3][..], &[1, 2, 3, 4][..]] {
            let a: InlineVec<usize> = items.iter().copied().collect();
            assert_eq!(&*a, items);
            let copy = a;
            assert_eq!(a, copy);
            assert_eq!(hash_of(&a), hash_of(&items.to_vec()));
            assert_eq!(format!("{a:?}"), format!("{items:?}"));
        }
        let mut m: InlineVec<usize> = [1, 2].into_iter().collect();
        m[1] = 9;
        assert_eq!(&*m, &[1, 9]);
    }
}
