//! Schedule-cache semantics and concurrent-compilation determinism.
//!
//! The shared [`ScheduleCache`] is keyed by `(shape key, fusion policy,
//! architecture)`: equal keys must hit, any differing component must
//! miss, and concurrent compilations sharing one session must observe a
//! consistent cache — identical subprograms are tuned exactly once no
//! matter how many threads race. Parallel group scheduling must produce
//! exactly the kernels (and cost estimates) sequential scheduling does.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape};
use spacefusion::pipeline::{CollectingSink, CompileSession, EventDetail, ScheduleCache};
use spacefusion::{CompileOptions, CompiledProgram, FusionPolicy};
use std::sync::Arc;

fn layernorm(m: usize, n: usize) -> Graph {
    let mut g = Graph::new("ln", DType::F32);
    let x = g.input("x", Shape::new(vec![m, n]));
    let w = g.weight("w", Shape::new(vec![1, n]));
    let b = g.weight("b", Shape::new(vec![1, n]));
    let mean = g.reduce(ReduceOp::Mean, x, 1).unwrap();
    let c = g.binary(BinaryOp::Sub, x, mean).unwrap();
    let sq = g.binary(BinaryOp::Mul, c, c).unwrap();
    let var = g.reduce(ReduceOp::Mean, sq, 1).unwrap();
    let veps = g.scalar(BinaryOp::Add, var, 1e-5).unwrap();
    let std = g.unary(UnaryOp::Sqrt, veps).unwrap();
    let norm = g.binary(BinaryOp::Div, c, std).unwrap();
    let sc = g.binary(BinaryOp::Mul, norm, w).unwrap();
    let y = g.binary(BinaryOp::Add, sc, b).unwrap();
    g.mark_output(y);
    g
}

/// A GEMM+ReLU stack: under `Unfused` it splits into `2 × layers`
/// groups with exactly two distinct cache keys, so group workers race
/// on shared entries.
fn mlp_stack(layers: usize, m: usize, n: usize) -> Graph {
    let mut g = Graph::new("mlp", DType::F32);
    let mut h = g.input("x", Shape::new(vec![m, n]));
    for l in 0..layers {
        let w = g.weight(format!("w{l}"), Shape::new(vec![n, n]));
        let o = g.gemm(h, w, false).unwrap();
        h = g.unary(UnaryOp::Relu, o).unwrap();
    }
    g.mark_output(h);
    g
}

/// Two stages separated by a reshape barrier → two segments.
fn barrier_graph() -> Graph {
    let mut g = Graph::new("two_stage", DType::F32);
    let x = g.input("x", Shape::new(vec![64, 128]));
    let w1 = g.weight("w1", Shape::new(vec![128, 128]));
    let h = g.gemm(x, w1, false).unwrap();
    let h = g.unary(UnaryOp::Relu, h).unwrap();
    let r = g.layout_barrier(h, Shape::new(vec![128, 64])).unwrap();
    let w2 = g.weight("w2", Shape::new(vec![64, 64]));
    let y = g.gemm(r, w2, false).unwrap();
    g.mark_output(y);
    g
}

/// Structural fingerprint of a compiled program, excluding kernel names.
fn fingerprint(p: &CompiledProgram) -> Vec<(usize, Vec<usize>, Option<usize>)> {
    p.kernels
        .iter()
        .map(|k| {
            (
                k.graph.ops().len(),
                k.schedule.spatial.iter().map(|&(_, b)| b).collect(),
                k.schedule.temporal.as_ref().map(|t| t.block),
            )
        })
        .collect()
}

#[test]
fn repeat_compilation_hits_cache() {
    let g = layernorm(64, 2048);
    let session = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let p1 = session.compile(&g).unwrap();
    let misses_after_first = session.cache().misses();
    assert!(misses_after_first >= 1);
    assert_eq!(p1.stats.cache_hits, 0);

    let p2 = session.compile(&g).unwrap();
    assert_eq!(
        session.cache().misses(),
        misses_after_first,
        "second compilation must not recompute anything"
    );
    assert!(p2.stats.cache_hits >= 1);
    assert_eq!(fingerprint(&p1), fingerprint(&p2));
    assert!((p1.estimate_us() - p2.estimate_us()).abs() < 1e-9);
}

#[test]
fn differing_policy_misses() {
    let shared = Arc::new(ScheduleCache::new());
    let g = layernorm(32, 512);
    let sf =
        CompileSession::new(Arch::Ampere, CompileOptions::default()).with_cache(shared.clone());
    sf.compile(&g).unwrap();
    let after_sf = shared.misses();

    // Same shapes, same arch, different fusion policy → its schedules
    // are different objects; every group must miss.
    let opts = CompileOptions {
        policy: FusionPolicy::Unfused,
        ..Default::default()
    };
    let unfused = CompileSession::new(Arch::Ampere, opts).with_cache(shared.clone());
    unfused.compile(&g).unwrap();
    // New misses, not pure hits: the SpaceFusion entries don't serve the
    // Unfused groups. (Repeated per-op shapes *within* the Unfused
    // compile may legitimately hit each other.)
    assert!(shared.misses() > after_sf, "policy must be part of the key");
}

#[test]
fn differing_arch_misses() {
    let shared = Arc::new(ScheduleCache::new());
    let g = layernorm(32, 512);
    CompileSession::new(Arch::Ampere, CompileOptions::default())
        .with_cache(shared.clone())
        .compile(&g)
        .unwrap();
    let after_ampere = shared.misses();

    // A *variant* of the same chip — only the launch overhead differs —
    // must not alias: the full GpuArch fingerprint is in the key.
    let mut variant = Arch::Ampere.config();
    variant.launch_overhead_us *= 3.0;
    let p = CompileSession::with_config(variant, CompileOptions::default())
        .with_cache(shared.clone())
        .compile(&g)
        .unwrap();
    assert!(
        shared.misses() > after_ampere,
        "arch must be part of the key"
    );
    assert_eq!(p.stats.cache_hits, 0);
}

#[test]
fn concurrent_compilations_tune_once() {
    const THREADS: usize = 8;
    let g = layernorm(64, 2048);
    let sink = Arc::new(CollectingSink::new());
    let session = Arc::new(
        CompileSession::new(Arch::Ampere, CompileOptions::default()).with_sink(sink.clone()),
    );

    let programs: Vec<CompiledProgram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let session = session.clone();
                let g = &g;
                s.spawn(move || session.compile(g).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The graph fuses into one kernel → one cache key. Exactly one
    // thread computes; the other seven block on the claim and then hit.
    assert_eq!(session.cache().misses(), 1, "one shape, one computation");
    assert_eq!(session.cache().hits(), THREADS - 1);

    // No duplicate tuning: the tuner ran for the single miss only.
    let tune_events = sink
        .events()
        .iter()
        .filter(|e| matches!(e.detail, EventDetail::Tune { .. }))
        .count();
    assert_eq!(tune_events, 1, "identical subprograms must be tuned once");

    // Every thread observed the same program.
    let fp = fingerprint(&programs[0]);
    let est = programs[0].estimate_us();
    for p in &programs[1..] {
        assert_eq!(fingerprint(p), fp);
        assert!((p.estimate_us() - est).abs() < 1e-9);
    }
}

#[test]
fn parallel_matches_sequential_groups() {
    // Unfused on a deep stack → 16 groups, two distinct cache keys:
    // plenty of worker contention.
    let g = mlp_stack(8, 64, 256);
    let opts = CompileOptions {
        policy: FusionPolicy::Unfused,
        ..Default::default()
    };
    let seq = CompileSession::new(Arch::Ampere, opts.clone())
        .with_workers(1)
        .compile(&g)
        .unwrap();
    let par = CompileSession::new(Arch::Ampere, opts)
        .with_workers(8)
        .compile(&g)
        .unwrap();

    assert_eq!(seq.kernels.len(), 16);
    assert_eq!(fingerprint(&seq), fingerprint(&par));
    assert!((seq.estimate_us() - par.estimate_us()).abs() < 1e-9);

    // Numerics agree exactly: both orders execute the same kernels.
    let bindings = g.random_bindings(7);
    let a = seq.execute(&bindings).unwrap();
    let b = par.execute(&bindings).unwrap();
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.max_abs_diff(y).unwrap(), 0.0);
    }
}

#[test]
fn parallel_matches_sequential_segments() {
    // Layout barrier → two segments compiled as independent units.
    let g = barrier_graph();
    let seq = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .with_workers(1)
        .compile(&g)
        .unwrap();
    let par = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .with_workers(4)
        .compile(&g)
        .unwrap();

    assert!(
        seq.kernels.len() >= 2,
        "barrier forces at least two kernels"
    );
    assert_eq!(fingerprint(&seq), fingerprint(&par));
    assert!((seq.estimate_us() - par.estimate_us()).abs() < 1e-9);

    let bindings = g.random_bindings(13);
    let reference = g.execute(&bindings).unwrap();
    let a = seq.execute(&bindings).unwrap();
    let b = par.execute(&bindings).unwrap();
    for ((x, y), r) in a.iter().zip(b.iter()).zip(reference.iter()) {
        assert_eq!(x.max_abs_diff(y).unwrap(), 0.0);
        assert!(x.allclose(r, 1e-3), "compiled result must match reference");
    }
}

/// A claimant that panics while holding a `ClaimTicket` must not wedge
/// the cache: unwinding drops the ticket, which abandons the claim and
/// hands the key to the next claimant.
#[test]
fn panicking_claimant_does_not_wedge_waiters() {
    use spacefusion::pipeline::{CacheKey, Claim};

    spacefusion::resilience::silence_injected_panics();
    let cache = Arc::new(ScheduleCache::new());
    let key = CacheKey {
        shape: "hot".into(),
        policy: FusionPolicy::SpaceFusion,
        arch: "test".into(),
    };

    // The claimant takes the Miss, then dies mid-computation.
    let c = cache.clone();
    let k = key.clone();
    let claimant = std::thread::spawn(move || match c.claim(&k) {
        Claim::Miss(_ticket) => panic!("injected claimant crash"),
        Claim::Hit(_) => panic!("empty cache cannot hit"),
    });
    assert!(claimant.join().is_err(), "claimant must have panicked");

    // The key must be claimable again — a Miss, not a deadlock and not
    // a phantom Hit.
    match cache.claim(&key) {
        Claim::Miss(_) => {}
        Claim::Hit(_) => panic!("abandoned claim must not publish an entry"),
    };
}

/// Same, but with waiters already blocked on the condition variable
/// when the claimant dies: one of them must wake, take over the claim,
/// and fulfill it for the rest.
#[test]
fn waiters_take_over_after_claimant_panic() {
    use spacefusion::pipeline::{CacheEntry, CacheKey, Claim, SavedConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    spacefusion::resilience::silence_injected_panics();
    let cache = ScheduleCache::new();
    let key = CacheKey {
        shape: "hot".into(),
        policy: FusionPolicy::SpaceFusion,
        arch: "test".into(),
    };
    let entry = CacheEntry {
        piece_lens: vec![1],
        suffixes: vec![String::new()],
        configs: vec![SavedConfig {
            spatial: vec![8],
            temporal: None,
            split: None,
        }],
    };
    let claimed = Barrier::new(5);
    let computed = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // The doomed first claimant: grabs the Miss, lets the waiters
        // pile onto the condvar, then panics with the ticket in hand.
        let doomed = s.spawn(|| match cache.claim(&key) {
            Claim::Miss(_ticket) => {
                claimed.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("injected claimant crash");
            }
            Claim::Hit(_) => panic!("empty cache cannot hit"),
        });
        for _ in 0..4 {
            s.spawn(|| {
                claimed.wait();
                match cache.claim(&key) {
                    Claim::Miss(t) => {
                        computed.fetch_add(1, Ordering::SeqCst);
                        t.fulfill(entry.clone());
                    }
                    Claim::Hit(e) => {
                        assert_eq!(e, entry);
                        hits.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
        // Consume the intentional panic so the scope does not re-raise
        // it on join.
        assert!(doomed.join().is_err(), "claimant must have panicked");
    });

    assert_eq!(
        computed.load(Ordering::SeqCst),
        1,
        "exactly one waiter takes over the abandoned claim"
    );
    assert_eq!(hits.load(Ordering::SeqCst), 3);
}
