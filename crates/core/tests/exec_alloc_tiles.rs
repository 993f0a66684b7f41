//! Allocation guard of the tile executor.
//!
//! A warm `execute_with` allocates per kernel launch (output tensors,
//! slot vectors, the block list) but must not allocate per tile: no
//! per-tile `Vec` of ranges or strides, no `Shape` on the heap, no hash
//! map. This binary counts every heap allocation of the process with a
//! counting `#[global_allocator]` and runs the two deepest tile loops of
//! the zoo at two reduction extents each: twice the tiles, the same
//! count.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use spacefusion::codegen::ExecOptions;
use spacefusion::{CompileOptions, CompileSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocations while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract is `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations of one warm single-thread execution of `graph`, and
/// the number of intra-block tiles its kernels loop over.
fn warm_execution(graph: &Graph) -> (u64, usize) {
    let program = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .compile(graph)
        .expect("compile");
    let bindings = graph.random_bindings(3);
    let opts = ExecOptions::with_threads(1);
    for _ in 0..3 {
        program.execute_with(&bindings, &opts).expect("warm-up");
    }
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = program.execute_with(&bindings, &opts);
    ARMED.store(false, Ordering::Relaxed);
    out.expect("measured run");
    let tiles = program
        .kernels
        .iter()
        .filter_map(|k| {
            let s = &k.schedule;
            let blocks: usize = s
                .spatial
                .iter()
                .map(|&(d, b)| s.smg.extent(d).div_ceil(b))
                .product();
            Some(blocks * k.plan().tiles.as_ref()?.n_tiles())
        })
        .sum();
    (ALLOCATIONS.load(Ordering::Relaxed), tiles)
}

/// One test, so nothing else in this process allocates while the
/// counter is armed.
#[test]
fn allocations_do_not_grow_with_the_tile_count() {
    for (name, small, large) in [
        (
            "softmax",
            subgraphs::softmax(16, 4096),
            subgraphs::softmax(16, 8192),
        ),
        (
            "mha_decode",
            subgraphs::mha_decode(1, 4, 1024, 32),
            subgraphs::mha_decode(1, 4, 2048, 32),
        ),
    ] {
        let (allocs_small, tiles_small) = warm_execution(&small);
        let (allocs_large, tiles_large) = warm_execution(&large);
        assert!(
            tiles_small >= 64 && tiles_large >= 2 * tiles_small,
            "{name}: the tile loops must differ in length ({tiles_small} vs {tiles_large} tiles)"
        );
        assert!(allocs_small > 0, "{name}: the counter must observe the run");
        assert_eq!(
            allocs_small, allocs_large,
            "{name}: {tiles_small} tiles took {allocs_small} allocations, \
             {tiles_large} tiles took {allocs_large}"
        );
        // Per launch, not per tile: a few dozen at most.
        assert!(
            allocs_small < 64,
            "{name}: {allocs_small} allocations for one warm execution"
        );
    }
}
