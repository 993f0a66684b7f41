//! Property-based tests: every schedule the compiler emits — for
//! *randomly generated* operator graphs and shapes — must reproduce the
//! reference numerics and respect hardware resource bounds.
//!
//! Formerly gated behind a `proptest` feature; now driven by the
//! in-tree seeded generator (`sf_fuzz::gen`), so the whole suite runs
//! in the default offline `cargo test` and every case is reproducible
//! from its seed.

use sf_fuzz::{derive_tolerance, generate, GenConfig};
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::assert_tensors_close;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::rng::XorShiftRng;
use sf_tensor::{DType, Shape};
use spacefusion::{CompileSession, FusionPolicy};

fn cases(seeds: u64) -> impl Iterator<Item = (u64, Graph)> {
    let cfg = GenConfig::default();
    (0..seeds).map(move |seed| {
        let g = generate(seed, &cfg)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed} failed to build: {e}"));
        (seed, g)
    })
}

/// Fused execution of random pipelines matches the reference.
#[test]
fn fused_random_pipelines_match_reference() {
    for (seed, g) in cases(48) {
        let bindings = g.random_bindings(seed);
        let expect = g.execute(&bindings).unwrap();
        let tol = derive_tolerance(&g);
        for policy in [FusionPolicy::SpaceFusion, FusionPolicy::MiOnly] {
            let compiler = CompileSession::with_policy(Arch::Ampere, policy);
            let program = compiler
                .compile(&g)
                .unwrap_or_else(|e| panic!("seed {seed} {policy:?}: {e}"));
            let got = program.execute(&bindings).unwrap();
            for (i, (got, want)) in got.iter().zip(expect.iter()).enumerate() {
                assert_tensors_close(
                    &format!("seed {seed} {policy:?} output {i}"),
                    got,
                    want,
                    tol,
                );
            }
        }
    }
}

/// Attention matches the reference at arbitrary (legal) shapes,
/// through the mechanically derived online softmax.
#[test]
fn fused_attention_matches_reference_at_random_shapes() {
    let mut rng = XorShiftRng::seed_from_u64(0xa77e);
    for case in 0..12 {
        let m = 17 + rng.below(63) as usize;
        let l = 33 + rng.below(167) as usize;
        let d = 8 + rng.below(32) as usize;
        let seed = rng.next_u64();
        let mut g = Graph::new("mha", DType::F32);
        let q = g.input("q", Shape::new(vec![m, d]));
        let k = g.input("k", Shape::new(vec![l, d]));
        let v = g.input("v", Shape::new(vec![l, d]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let dv = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(dv, v, false).unwrap();
        g.mark_output(out);

        let bindings = g.random_bindings(seed);
        let expect = g.execute(&bindings).unwrap();
        let program = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let got = program.execute(&bindings).unwrap();
        assert_tensors_close(
            &format!("case {case} mha {m}x{l}x{d}"),
            &got[0],
            &expect[0],
            derive_tolerance(&g),
        );
    }
}

/// Every emitted kernel respects the target's resource bounds.
#[test]
fn schedules_respect_resource_bounds() {
    for (seed, g) in cases(32) {
        for arch in [Arch::Volta, Arch::Hopper] {
            let compiler = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion);
            let program = compiler
                .compile(&g)
                .unwrap_or_else(|e| panic!("seed {seed} {arch:?}: {e}"));
            let cfg = arch.config();
            for k in &program.kernels {
                assert!(
                    k.schedule.smem_per_block(&k.graph) <= cfg.smem_per_block,
                    "seed {seed} {arch:?}: smem over budget"
                );
                assert!(
                    k.schedule.regs_per_block(&k.graph) <= cfg.regs_per_block,
                    "seed {seed} {arch:?}: regs over budget"
                );
            }
        }
    }
}

/// Partition invariant: however a graph is split by policies, the
/// kernels chain back to the reference result.
#[test]
fn policies_agree_with_each_other() {
    for (seed, g) in cases(32) {
        let bindings = g.random_bindings(seed);
        let a = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap()
            .execute(&bindings)
            .unwrap();
        let b = CompileSession::with_policy(Arch::Ampere, FusionPolicy::Unfused)
            .compile(&g)
            .unwrap()
            .execute(&bindings)
            .unwrap();
        let tol = derive_tolerance(&g);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_tensors_close(&format!("seed {seed} output {i}"), x, y, tol);
        }
    }
}

/// The profiler's counters are internally consistent on random
/// fused programs: misses never exceed accesses, DRAM reads never
/// exceed requested bytes rounded to lines.
#[test]
fn profiler_counters_are_consistent() {
    for (seed, g) in cases(24) {
        let program = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let r = program.profile(1);
        assert!(r.stats.l1_misses <= r.stats.l1_accesses, "seed {seed}");
        assert!(r.stats.l2_misses <= r.stats.l2_accesses, "seed {seed}");
        for k in &r.kernels {
            // Line-granularity DRAM reads can exceed requested bytes by
            // at most one line per row access; bound loosely by 2x+line.
            assert!(
                k.dram_read_bytes <= 2 * k.global_read_bytes + 4096,
                "seed {seed} {}: dram {} vs requested {}",
                k.name,
                k.dram_read_bytes,
                k.global_read_bytes
            );
        }
        assert!(r.time_us > 0.0, "seed {seed}");
    }
}
