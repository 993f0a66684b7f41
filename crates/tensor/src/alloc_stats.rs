//! Process-wide tensor-allocation counters.
//!
//! Counts *fresh data-buffer acquisitions*: tensor constructors that
//! materialize a new `Vec<f32>` ([`Tensor::zeros`](crate::Tensor::zeros),
//! `full`, `random`, `reshape`, `quantized`, `Clone`,
//! [`TensorView::to_tensor`](crate::TensorView::to_tensor)) and
//! [`ScratchPool`](crate::ScratchPool) misses. Pool hits and zero-copy
//! views are free and therefore not counted — the counter is the metric
//! benchmarks use to show that the execution engine recycles buffers
//! instead of allocating per block/tile.
//!
//! A second pair of counters tracks recycling-enabled pools only:
//! [`pool_hits`] (a `take` served from recycled storage) and
//! [`pool_misses`] (a `take` that had to allocate), each pool adding
//! its counts when it is flushed ([`ScratchPool::flush_stats`](crate::ScratchPool::flush_stats):
//! once per kernel per worker, and on drop). Because the
//! execution engine's worker pools persist across
//! `ExecEngine::execute_kernel` calls, the hit ratio measures *cross-call*
//! scratch reuse: after a warm-up execution, repeated executions should
//! serve ≥90% of takes from recycled buffers.
//!
//! `Tensor::from_data` adopts a caller-provided buffer and is *not*
//! counted; buffers produced by a pool are counted once, at `take` time.

use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Records one fresh buffer allocation (crate-internal).
pub(crate) fn record_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Adds a pool's `take` counts since its last flush: `hits` served
/// from recycled storage, `misses` that allocated (crate-internal;
/// disabled pools count neither). Pools batch these so that the hot
/// path of several workers does not share a cache line.
pub(crate) fn record_pool_takes(hits: u64, misses: u64) {
    POOL_HITS.fetch_add(hits, Ordering::Relaxed);
    POOL_MISSES.fetch_add(misses, Ordering::Relaxed);
}

/// Number of fresh tensor-buffer allocations since the last
/// [`reset_allocations`].
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Number of pooled takes served from recycled storage since the last
/// [`reset_pool_stats`].
pub fn pool_hits() -> u64 {
    POOL_HITS.load(Ordering::Relaxed)
}

/// Number of pooled takes that allocated fresh storage since the last
/// [`reset_pool_stats`].
pub fn pool_misses() -> u64 {
    POOL_MISSES.load(Ordering::Relaxed)
}

/// Fraction of pooled takes served from recycled storage; `1.0` when
/// no pooled take has happened yet.
pub fn pool_reuse_ratio() -> f64 {
    let hits = pool_hits();
    let total = hits + pool_misses();
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// Resets the allocation counter to zero.
pub fn reset_allocations() {
    ALLOCS.store(0, Ordering::Relaxed);
}

/// Resets the pool hit/miss counters to zero.
pub fn reset_pool_stats() {
    POOL_HITS.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use crate::{DType, Shape, Tensor};

    #[test]
    fn constructors_and_clones_count() {
        // Other tests run concurrently, so measure deltas with >= bounds.
        let before = super::allocations();
        let t = Tensor::zeros(Shape::new(vec![4]), DType::F32);
        let _c = t.clone();
        let _q = t.quantized();
        let _r = t.reshape(Shape::new(vec![2, 2])).unwrap();
        let _v = t.view(); // free
        assert!(super::allocations() >= before + 4);
    }
}
