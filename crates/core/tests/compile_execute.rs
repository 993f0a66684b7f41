//! End-to-end compiler correctness: compile → execute must reproduce the
//! unfused reference numerics for every policy and workload shape.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{assert_tensors_bitwise, assert_tensors_close, DType, Shape, Tolerance};
use spacefusion::codegen::ExecOptions;
use spacefusion::{CompileOptions, CompileSession, CompiledProgram, FusionPolicy};

/// The historical per-test absolute tolerances, upgraded to the shared
/// comparator: the absolute value keeps its role as cancellation floor,
/// and a 256-ULP relative budget covers re-associated reductions on
/// large-magnitude values (a GEMM row of extent 4096 re-summed in
/// blocks drifts by ~extent ULPs in the worst case).
fn tol(abs: f32) -> Tolerance {
    Tolerance::new(abs, 256)
}

fn softmax_graph(m: usize, n: usize) -> Graph {
    let mut g = Graph::new("softmax", DType::F32);
    let x = g.input("x", Shape::new(vec![m, n]));
    let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
    let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, s).unwrap();
    let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    let d = g.binary(BinaryOp::Div, e, z).unwrap();
    g.mark_output(d);
    g
}

fn mha_graph(m: usize, l: usize, k: usize) -> Graph {
    let mut g = Graph::new("mha", DType::F32);
    let q = g.input("q", Shape::new(vec![m, k]));
    let kk = g.input("k", Shape::new(vec![l, k]));
    let v = g.input("v", Shape::new(vec![l, k]));
    let qk = g.gemm(q, kk, true).unwrap();
    let sc = g
        .scalar(BinaryOp::Mul, qk, 1.0 / (k as f32).sqrt())
        .unwrap();
    let mx = g.reduce(ReduceOp::Max, sc, 1).unwrap();
    let sub = g.binary(BinaryOp::Sub, sc, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, sub).unwrap();
    let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    let d = g.binary(BinaryOp::Div, e, s).unwrap();
    let out = g.gemm(d, v, false).unwrap();
    g.mark_output(out);
    g
}

fn mlp_graph(layers: usize, m: usize, h: usize) -> Graph {
    let mut g = Graph::new("mlp", DType::F32);
    let mut x = g.input("x", Shape::new(vec![m, h]));
    for i in 0..layers {
        let w = g.weight(format!("w{i}"), Shape::new(vec![h, h]));
        let b = g.weight(format!("b{i}"), Shape::new(vec![1, h]));
        let t = g.gemm(x, w, false).unwrap();
        let t = g.binary(BinaryOp::Add, t, b).unwrap();
        x = g.unary(UnaryOp::Relu, t).unwrap();
    }
    g.mark_output(x);
    g
}

fn layernorm_graph(m: usize, n: usize) -> Graph {
    let mut g = Graph::new("layernorm", DType::F32);
    let x = g.input("x", Shape::new(vec![m, n]));
    let w = g.weight("w", Shape::new(vec![1, n]));
    let b = g.weight("b", Shape::new(vec![1, n]));
    let mean = g.reduce(ReduceOp::Mean, x, 1).unwrap();
    let c = g.binary(BinaryOp::Sub, x, mean).unwrap();
    let sq = g.unary(UnaryOp::Sqr, c).unwrap();
    let var = g.reduce(ReduceOp::Mean, sq, 1).unwrap();
    let veps = g.scalar(BinaryOp::Add, var, 1e-5).unwrap();
    let std = g.unary(UnaryOp::Sqrt, veps).unwrap();
    let norm = g.binary(BinaryOp::Div, c, std).unwrap();
    let sc = g.binary(BinaryOp::Mul, norm, w).unwrap();
    let y = g.binary(BinaryOp::Add, sc, b).unwrap();
    g.mark_output(y);
    g
}

fn rmsnorm_graph(m: usize, n: usize) -> Graph {
    let mut g = Graph::new("rmsnorm", DType::F32);
    let x = g.input("x", Shape::new(vec![m, n]));
    let w = g.weight("w", Shape::new(vec![1, n]));
    let sq = g.unary(UnaryOp::Sqr, x).unwrap();
    let ms = g.reduce(ReduceOp::Mean, sq, 1).unwrap();
    let eps = g.scalar(BinaryOp::Add, ms, 1e-5).unwrap();
    let rms = g.unary(UnaryOp::Sqrt, eps).unwrap();
    let n1 = g.binary(BinaryOp::Div, x, rms).unwrap();
    let y = g.binary(BinaryOp::Mul, n1, w).unwrap();
    g.mark_output(y);
    g
}

/// `x² → Σ` over a deep row: one long sliced reduction.
fn deep_reduce_graph(m: usize, n: usize) -> Graph {
    let mut g = Graph::new("deep_reduce", DType::F32);
    let x = g.input("x", Shape::new(vec![m, n]));
    let sq = g.unary(UnaryOp::Sqr, x).unwrap();
    let z = g.reduce(ReduceOp::Sum, sq, 1).unwrap();
    let y = g.scalar(BinaryOp::Mul, z, 0.5).unwrap();
    g.mark_output(y);
    g
}

/// Compiles under a policy and checks numerics against the reference.
fn check(g: &Graph, policy: FusionPolicy, arch: Arch, seed: u64, tol: Tolerance) {
    check_opts(g, CompileOptions::for_policy(policy), arch, seed, tol);
}

/// Compiles under explicit options, checks the numerics against the
/// unfused reference (`Graph::execute`, which shares nothing with the
/// lowering) and that threads 1/2/8 agree bit for bit. Returns the
/// program so callers can inspect the schedules that ran.
fn check_opts(
    g: &Graph,
    opts: CompileOptions,
    arch: Arch,
    seed: u64,
    tol: Tolerance,
) -> CompiledProgram {
    let what = format!("{} under {:?} {:?}", g.name(), opts.policy, opts.slicing);
    let program = CompileSession::new(arch, opts)
        .compile(g)
        .unwrap_or_else(|e| panic!("compile failed for {what}: {e}"));
    let bindings = g.random_bindings(seed);
    let expect = g.execute(&bindings).unwrap();
    let run = |threads: usize| {
        program
            .execute_with(&bindings, &ExecOptions::with_threads(threads))
            .unwrap_or_else(|e| panic!("execute failed for {what} at {threads} threads: {e}"))
    };
    let got = run(1);
    assert_eq!(got.len(), expect.len());
    for (i, (a, b)) in got.iter().zip(expect.iter()).enumerate() {
        assert_tensors_close(&format!("{what}, output {i}"), a, b, tol);
    }
    for threads in [2, 8] {
        for (i, (a, b)) in run(threads).iter().zip(&got).enumerate() {
            assert_tensors_bitwise(&format!("{what}, output {i}, {threads} threads"), a, b);
        }
    }
    program
}

/// Metamorphic companions of the differential oracle: the block sizes
/// and the split factor are free parameters of a schedule, so every
/// setting of them must compute the same function. Pinned blocks (the
/// tile size, twice it, a non-divisor of the extent) with the tuner off
/// take the most-sliced candidate, so the clamp tiles of both the
/// spatial grid and the intra-block loop really run.
#[test]
fn block_sizes_and_split_factor_do_not_change_results() {
    let shapes: [(Graph, &[usize], &[usize]); 5] = [
        (softmax_graph(64, 256), &[16, 32, 24], &[32, 64, 48]),
        (layernorm_graph(64, 256), &[16, 32, 24], &[32, 64, 48]),
        (mha_graph(64, 256, 32), &[16, 32, 24], &[32, 64, 48]),
        // Decode: one query row, the grid is a single block.
        (mha_graph(1, 256, 32), &[1], &[32, 64, 48]),
        (deep_reduce_graph(64, 4096), &[16, 32, 24], &[64, 128, 96]),
    ];
    let (mut spatial_clamps, mut temporal_clamps, mut splits) = (0, 0, 0);
    for (seed, (g, spatial_blocks, temporal_blocks)) in shapes.into_iter().enumerate() {
        let tol = sf_fuzz::derive_tolerance(&g);
        let mut variants = Vec::new();
        for &sb in spatial_blocks {
            for &tb in temporal_blocks {
                let mut opts = CompileOptions {
                    autotune: false,
                    ..Default::default()
                };
                opts.slicing.fixed_spatial_block = Some(sb);
                opts.slicing.fixed_temporal_block = Some(tb);
                variants.push(opts);
            }
        }
        for enable_split in [true, false] {
            let mut opts = CompileOptions::default();
            opts.slicing.enable_split = enable_split;
            variants.push(opts);
        }
        for opts in variants {
            let split_allowed = opts.slicing.enable_split;
            let program = check_opts(&g, opts, Arch::Ampere, 40 + seed as u64, tol);
            for kp in &program.kernels {
                let s = &kp.schedule;
                let clamped = |&(d, b): &(_, usize)| s.smg.extent(d) % b != 0;
                spatial_clamps += s.spatial.iter().filter(|sp| clamped(sp)).count();
                if let Some(t) = &s.temporal {
                    temporal_clamps += usize::from(clamped(&(t.plan.dim, t.block)));
                    assert!(split_allowed || t.split.is_none(), "{}", kp.name);
                    splits += usize::from(t.split.is_some());
                }
            }
        }
    }
    assert!(spatial_clamps > 0, "no clamped spatial block was exercised");
    assert!(
        temporal_clamps > 0,
        "no clamped temporal tile was exercised"
    );
    assert!(splits > 0, "no split-K schedule was exercised");
}

#[test]
fn softmax_fused_matches_reference() {
    check(
        &softmax_graph(64, 256),
        FusionPolicy::SpaceFusion,
        Arch::Ampere,
        1,
        tol(1e-5),
    );
}

#[test]
fn softmax_with_uneven_tiles_matches() {
    // Extents that do not divide the block sizes exercise edge clamping.
    check(
        &softmax_graph(37, 100),
        FusionPolicy::SpaceFusion,
        Arch::Ampere,
        2,
        tol(1e-5),
    );
}

#[test]
fn softmax_unfused_matches_reference() {
    check(
        &softmax_graph(64, 256),
        FusionPolicy::Unfused,
        Arch::Ampere,
        3,
        tol(1e-5),
    );
}

#[test]
fn mha_flash_attention_schedule_matches() {
    // Long sequence forces the temporal slicer + UTA: this is the
    // mechanically derived FlashAttention, validated numerically.
    let g = mha_graph(64, 2048, 64);
    let compiler = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(program.kernels.len(), 1, "MHA must fuse into one kernel");
    assert!(
        program.kernels[0].schedule.temporal.is_some(),
        "long-sequence MHA must be temporally sliced"
    );
    check(&g, FusionPolicy::SpaceFusion, Arch::Volta, 4, tol(1e-3));
}

#[test]
fn mha_short_sequence_matches() {
    check(
        &mha_graph(32, 64, 32),
        FusionPolicy::SpaceFusion,
        Arch::Hopper,
        5,
        tol(1e-4),
    );
}

#[test]
fn mha_all_policies_match() {
    let g = mha_graph(32, 128, 32);
    for policy in [
        FusionPolicy::SpaceFusion,
        FusionPolicy::Unfused,
        FusionPolicy::EpilogueOnly,
        FusionPolicy::MiOnly,
        FusionPolicy::TileGraph,
    ] {
        check(&g, policy, Arch::Ampere, 6, tol(1e-4));
    }
}

#[test]
fn mlp_stack_fuses_and_matches() {
    let g = mlp_graph(4, 64, 64);
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(
        program.kernels.len(),
        1,
        "small MLP stack should fully fuse"
    );
    check(&g, FusionPolicy::SpaceFusion, Arch::Ampere, 7, tol(1e-3));
}

#[test]
fn mlp_unfused_has_one_kernel_per_op() {
    let g = mlp_graph(3, 32, 32);
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::Unfused);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(program.kernels.len(), 9);
    check(&g, FusionPolicy::Unfused, Arch::Ampere, 8, tol(1e-4));
}

#[test]
fn mlp_epilogue_policy_groups_gemm_plus_epilogue() {
    let g = mlp_graph(3, 32, 32);
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::EpilogueOnly);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(program.kernels.len(), 3, "one kernel per gemm+bias+relu");
    check(&g, FusionPolicy::EpilogueOnly, Arch::Ampere, 9, tol(1e-4));
}

#[test]
fn layernorm_fuses_to_one_kernel_and_matches() {
    let g = layernorm_graph(128, 256);
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(program.kernels.len(), 1);
    check(&g, FusionPolicy::SpaceFusion, Arch::Ampere, 10, tol(1e-4));
}

#[test]
fn layernorm_mi_only_also_fuses() {
    // LayerNorm is all memory-intensive ops: the AStitch-like policy
    // fuses it too (paper Table 6: MI fusion is where BladeDISC works).
    let g = layernorm_graph(64, 128);
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::MiOnly);
    let program = compiler.compile(&g).unwrap();
    assert_eq!(program.kernels.len(), 1);
    check(&g, FusionPolicy::MiOnly, Arch::Ampere, 11, tol(1e-4));
}

#[test]
fn rmsnorm_streams_with_simple_aggregate() {
    let g = rmsnorm_graph(64, 512);
    check(&g, FusionPolicy::SpaceFusion, Arch::Ampere, 12, tol(1e-4));
}

#[test]
fn welder_policy_partitions_long_mha() {
    // Without UTA the fused MHA is unschedulable at long sequence
    // lengths; the tile-graph policy must fall back to multiple kernels
    // (the paper's "NNFusion fails to fuse MHA with long sequence
    // lengths") while staying numerically correct.
    let g = mha_graph(64, 4096, 64);
    let compiler = CompileSession::with_policy(Arch::Volta, FusionPolicy::TileGraph);
    let program = compiler.compile(&g).unwrap();
    assert!(
        program.kernels.len() > 1,
        "tile-graph policy should have split long MHA"
    );
    // A warm schedule-cache hit rebuilds the same kernels under the
    // same names: each fragment keeps its own, not the group's.
    let warm = compiler.compile(&g).unwrap();
    assert!(warm.stats.cache_hits > 0, "second compile must hit");
    let names =
        |p: &CompiledProgram| -> Vec<String> { p.kernels.iter().map(|k| k.name.clone()).collect() };
    let schedules = |p: &CompiledProgram| -> Vec<String> {
        p.kernels
            .iter()
            .map(|k| format!("{:?}", k.schedule))
            .collect()
    };
    assert_eq!(names(&program), ["mha.g0.f", "mha.g0.l.f", "mha.g0.l.l"]);
    assert_eq!(names(&warm), names(&program));
    assert_eq!(schedules(&warm), schedules(&program));
    let sf = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion);
    let sf_program = sf.compile(&g).unwrap();
    assert_eq!(sf_program.kernels.len(), 1, "SpaceFusion keeps one kernel");
    check(&g, FusionPolicy::TileGraph, Arch::Volta, 13, tol(1e-3));
}

#[test]
fn compile_stats_record_search_space() {
    let g = mha_graph(128, 512, 64);
    let compiler = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let program = compiler.compile(&g).unwrap();
    assert!(program.stats.configs > 1);
    assert_eq!(
        program.stats.evaluated + program.stats.pruned,
        program.stats.configs
    );
    assert!(program.stats.total_us > 0.0);
    // MHA has 4 A2O mappings: it must appear in the fusion census.
    assert_eq!(program.stats.fusion_patterns.len(), 1);
}

#[test]
fn schedule_cache_hits_on_repeated_shapes() {
    let g = softmax_graph(64, 256);
    let compiler = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let p1 = compiler.compile(&g).unwrap();
    assert_eq!(p1.stats.cache_hits, 0);
    let p2 = compiler.compile(&g).unwrap();
    assert_eq!(p2.stats.cache_hits, 1);
    // Cached compilation still executes correctly.
    let bindings = g.random_bindings(14);
    let expect = g.execute(&bindings).unwrap();
    let got = p2.execute(&bindings).unwrap();
    assert_tensors_close("cached softmax", &got[0], &expect[0], tol(1e-5));
}

#[test]
fn profile_reports_cache_and_dram_counters() {
    let g = mha_graph(128, 512, 64);
    let compiler = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let fused = compiler.compile(&g).unwrap();
    let unfused = CompileSession::with_policy(Arch::Ampere, FusionPolicy::Unfused)
        .compile(&g)
        .unwrap();
    let fr = fused.profile(1);
    let ur = unfused.profile(1);
    assert!(fr.stats.dram_total_bytes() > 0);
    // Fusion must reduce DRAM traffic and simulated time.
    assert!(
        fr.stats.dram_total_bytes() < ur.stats.dram_total_bytes(),
        "fused {} vs unfused {}",
        fr.stats.dram_total_bytes(),
        ur.stats.dram_total_bytes()
    );
    assert!(fr.time_us < ur.time_us);
    assert_eq!(ur.stats.kernels as usize, unfused.kernels.len());
}

#[test]
fn batched_instances_scale_profile() {
    let mut g = mha_graph(128, 256, 64);
    g.instances = 8;
    let compiler = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let p = compiler.compile(&g).unwrap();
    let r1 = {
        let mut g1 = mha_graph(128, 256, 64);
        g1.instances = 1;
        compiler.compile(&g1).unwrap().profile(1)
    };
    let r8 = p.profile(2);
    // Eight instances move ~8x the data.
    let ratio = r8.stats.dram_total_bytes() as f64 / r1.stats.dram_total_bytes() as f64;
    assert!((4.0..=12.0).contains(&ratio), "ratio {ratio}");
}
