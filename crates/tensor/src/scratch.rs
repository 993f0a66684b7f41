//! Scratch-buffer pool for the execution engine.
//!
//! The kernel interpreter produces short-lived intermediate tensors at a
//! high rate: one per operator per spatial block per temporal tile. A
//! [`ScratchPool`] recycles those `Vec<f32>` buffers so steady-state
//! execution performs no heap allocation — a worker thread owns one pool
//! and drains its block-local tensors back into it after every block and
//! tile.
//!
//! Free buffers are binned by capacity (power-of-two classes), so a
//! `take` is a bit scan and a pop, not a walk of the free list. Two
//! flavours of `take` exist: [`take`](ScratchPool::take) hands out a
//! zero-filled buffer — pooled and fresh buffers are indistinguishable —
//! for the one kernel that accumulates into its output, and
//! [`take_for_overwrite`](ScratchPool::take_for_overwrite) skips the
//! fill for the kernels that assign every element anyway. Either way
//! results are bit-identical with pooling on or off.
//!
//! Hits and misses are counted in the pool and added to the
//! process-wide [`alloc_stats`](crate::alloc_stats) totals by
//! [`flush_stats`](ScratchPool::flush_stats) (the engine calls it once
//! per kernel per worker) and on drop, so the hot path touches no
//! shared cache line and the totals stay exact.

use crate::dtype::DType;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Maximum number of free buffers retained per pool; beyond this,
/// recycled buffers are dropped.
const MAX_FREE: usize = 64;

/// A recycling pool of `f32` scratch buffers.
///
/// # Examples
///
/// ```
/// use sf_tensor::ScratchPool;
/// let mut pool = ScratchPool::new();
/// let buf = pool.take(16);
/// assert_eq!(buf.len(), 16);
/// pool.recycle(buf);
/// // The next take of a compatible size reuses the same storage.
/// let again = pool.take(8);
/// assert_eq!(again.len(), 8);
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Free buffers by capacity class: `free[c]` holds capacities in
    /// `[2^c, 2^(c+1))`. Empty until the first `recycle`.
    free: Vec<Vec<Vec<f32>>>,
    /// Bit `c` is set iff `free[c]` is non-empty.
    nonempty: usize,
    /// Buffers held over all classes.
    held: usize,
    enabled: bool,
    hits: u64,
    /// Hits and misses not yet added to `alloc_stats`.
    unflushed: (u64, u64),
}

impl ScratchPool {
    /// A pool that recycles buffers.
    pub fn new() -> Self {
        let mut pool = ScratchPool::default();
        pool.enabled = true;
        pool
    }

    /// A pool that always allocates fresh buffers and drops recycled
    /// ones (used by the plain `&Tensor` reference operators).
    pub fn disabled() -> Self {
        ScratchPool::default()
    }

    /// Number of `take` calls served from recycled storage.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Adds the hits and misses counted since the last flush to the
    /// process-wide [`alloc_stats`](crate::alloc_stats) totals.
    pub fn flush_stats(&mut self) {
        let (hits, misses) = std::mem::take(&mut self.unflushed);
        if hits + misses > 0 {
            crate::alloc_stats::record_pool_takes(hits, misses);
        }
    }

    /// A recycled buffer for a request of `volume` elements, if the
    /// pool recycles and holds one: from the smallest class whose every
    /// buffer covers the request, else the largest buffer held (the
    /// caller grows it). Counts the hit or miss.
    fn reuse(&mut self, volume: usize) -> Option<Vec<f32>> {
        if !self.enabled {
            return None;
        }
        // Every buffer of class `c` has capacity >= 2^c; `covering` is
        // ceil(log2(volume)).
        let covering = usize::BITS - (volume.max(1) - 1).leading_zeros();
        let above = self.nonempty.checked_shr(covering).unwrap_or(0);
        let class = if above != 0 {
            covering + above.trailing_zeros()
        } else if self.nonempty != 0 {
            // Highest non-empty class.
            self.nonempty.ilog2()
        } else {
            self.unflushed.1 += 1;
            return None;
        } as usize;
        let buf = self.free[class].pop();
        if self.free[class].is_empty() {
            self.nonempty &= !(1 << class);
        }
        self.held -= 1;
        self.hits += 1;
        self.unflushed.0 += 1;
        buf
    }

    /// A buffer of `volume` elements with unspecified (but initialized)
    /// contents, for callers that assign every element: a recycled
    /// buffer keeps its old values instead of being filled.
    pub fn take_for_overwrite(&mut self, volume: usize) -> Vec<f32> {
        if let Some(mut buf) = self.reuse(volume) {
            // Shrinks in place, or zero-fills only the grown tail.
            buf.resize(volume, 0.0);
            return buf;
        }
        crate::alloc_stats::record_alloc();
        vec![0.0; volume]
    }

    /// Hands out a zero-filled buffer of `volume` elements, reusing
    /// recycled storage when possible.
    pub fn take(&mut self, volume: usize) -> Vec<f32> {
        if let Some(mut buf) = self.reuse(volume) {
            buf.clear();
            buf.resize(volume, 0.0);
            return buf;
        }
        crate::alloc_stats::record_alloc();
        vec![0.0; volume]
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if self.enabled && buf.capacity() > 0 && self.held < MAX_FREE {
            let class = buf.capacity().ilog2() as usize;
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push(buf);
            self.nonempty |= 1 << class;
            self.held += 1;
        }
    }

    /// Returns a tensor's data buffer to the pool for reuse.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_data());
    }

    /// Builds a zero-filled tensor backed by pooled storage.
    pub fn tensor(&mut self, shape: Shape, dtype: DType) -> Tensor {
        let data = self.take(shape.volume());
        Tensor::from_data(shape, dtype, data).expect("pooled buffer length matches volume")
    }
}

impl Drop for ScratchPool {
    fn drop(&mut self) {
        self.flush_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_are_reused_and_zeroed() {
        let mut pool = ScratchPool::new();
        let mut buf = pool.take(8);
        buf.iter_mut().for_each(|v| *v = 7.0);
        pool.recycle(buf);
        let again = pool.take(4);
        assert_eq!(again, vec![0.0; 4]);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn growing_take_reuses_largest() {
        let mut pool = ScratchPool::new();
        pool.recycle(vec![0.0; 4]);
        let big = pool.take(16);
        assert_eq!(big.len(), 16);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn disabled_pool_always_allocates() {
        let mut pool = ScratchPool::disabled();
        pool.recycle(vec![0.0; 8]);
        let b = pool.take(8);
        assert_eq!(b.len(), 8);
        assert_eq!(pool.hits(), 0);
    }

    #[test]
    fn pool_tensor_round_trip() {
        let mut pool = ScratchPool::new();
        let t = pool.tensor(Shape::new(vec![2, 3]), DType::F32);
        assert_eq!(t.data(), &[0.0; 6]);
        pool.recycle_tensor(t);
        assert_eq!(pool.take(6).len(), 6);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn take_picks_the_smallest_covering_class() {
        let mut pool = ScratchPool::new();
        for cap in [3usize, 100, 17, 1000] {
            pool.recycle(Vec::with_capacity(cap));
        }
        // 17 elements: class 4 (capacity 17) cannot promise 17, class 6
        // (capacity 100) can.
        assert_eq!(pool.take_for_overwrite(17).capacity(), 100);
        assert_eq!(pool.take_for_overwrite(16).capacity(), 17);
        assert_eq!(pool.take_for_overwrite(0).capacity(), 3);
        assert_eq!(pool.take_for_overwrite(5).capacity(), 1000);
        assert_eq!(pool.hits(), 4);
        // Empty again: a miss allocates.
        assert_eq!(pool.take_for_overwrite(5).len(), 5);
        assert_eq!(pool.hits(), 4);
    }

    #[test]
    fn overwrite_take_grows_with_zeros_and_keeps_the_rest_initialized() {
        let mut pool = ScratchPool::new();
        pool.recycle(vec![7.0; 4]);
        let grown = pool.take_for_overwrite(6);
        assert_eq!(grown, vec![7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = ScratchPool::new();
        for _ in 0..2 * MAX_FREE {
            pool.recycle(vec![0.0; 8]);
        }
        assert_eq!(pool.held, MAX_FREE);
    }
}
