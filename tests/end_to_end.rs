//! Cross-crate integration: models × engines, compiled, executed and
//! compared against the reference numerics, plus the performance
//! orderings the paper's evaluation rests on.

use sf_baselines::Engine;
use sf_gpu_sim::Arch;
use sf_models::{bert, llama2_7b, subgraphs};

/// Every engine must produce reference numerics on every subprogram of a
/// (shrunken) BERT layer.
#[test]
fn all_engines_match_reference_on_bert_subprograms() {
    let mut cfg = bert();
    cfg.layers = 1;
    cfg.hidden = 64;
    cfg.heads = 2;
    cfg.head_dim = 32;
    cfg.ffn = 128;
    for w in cfg.subprograms(1, 32) {
        let bindings = w.graph.random_bindings(99);
        let expect = w.graph.execute(&bindings).expect("reference");
        for e in Engine::all() {
            let p = e
                .compile(Arch::Ampere, &w.graph)
                .unwrap_or_else(|err| panic!("{} on {}: {err}", e.name(), w.graph.name()));
            let got = p.execute(&bindings).expect("execute");
            for (g, x) in got.iter().zip(expect.iter()) {
                assert!(
                    g.allclose(x, 2e-3),
                    "{} wrong on {} (diff {:?})",
                    e.name(),
                    w.graph.name(),
                    g.max_abs_diff(x)
                );
            }
        }
    }
}

/// Llama2's SwiGLU and RMSNorm subprograms compile and execute.
#[test]
fn llama2_subprograms_compile_and_match() {
    let mut cfg = llama2_7b();
    cfg.layers = 1;
    cfg.hidden = 64;
    cfg.heads = 2;
    cfg.head_dim = 32;
    cfg.ffn = 96;
    for w in cfg.subprograms(1, 16) {
        let bindings = w.graph.random_bindings(17);
        let expect = w.graph.execute(&bindings).expect("reference");
        let p = Engine::SpaceFusion
            .compile(Arch::Hopper, &w.graph)
            .expect("compile");
        let got = p.execute(&bindings).expect("execute");
        assert!(
            got[0].allclose(&expect[0], 2e-3),
            "wrong on {}",
            w.graph.name()
        );
    }
}

/// The paper's central subgraph claims, as orderings on the simulator.
#[test]
fn headline_performance_orderings_hold() {
    let arch = Arch::Ampere;

    // LayerNorm: SpaceFusion beats the unfused baseline by a large
    // factor (paper: ~7x average).
    let ln = subgraphs::layernorm(2048, 2048);
    let ln_sf = Engine::SpaceFusion.compile(arch, &ln).unwrap().profile(1);
    let ln_py = Engine::PyTorch.compile(arch, &ln).unwrap().profile(1);
    let ln_speedup = ln_py.time_us / ln_sf.time_us;
    assert!(ln_speedup > 3.0, "LN speedup too small: {ln_speedup:.2}");

    // MHA: fused beats the eager baseline and matches hand-tuned
    // FlashAttention within a modest band (paper: "comparable").
    let mha = subgraphs::mha(8, 8, 1024, 64);
    let mha_sf = Engine::SpaceFusion.compile(arch, &mha).unwrap().profile(2);
    let mha_py = Engine::PyTorch.compile(arch, &mha).unwrap().profile(2);
    assert!(mha_py.time_us / mha_sf.time_us > 1.5);
    let fa = sf_baselines::flash_attention_v2(arch, &mha)
        .expect("supported")
        .expect("compile")
        .profile(2);
    let ratio = fa.time_us / mha_sf.time_us;
    assert!((0.8..=2.0).contains(&ratio), "SF vs FA2 ratio {ratio:.2}");

    // Fusion reduces DRAM traffic in every case.
    assert!(ln_sf.stats.dram_total_bytes() < ln_py.stats.dram_total_bytes());
    assert!(mha_sf.stats.dram_total_bytes() < mha_py.stats.dram_total_bytes());
}

/// Memory-intensity explains speedup-per-byte (paper §6.3): LN converts
/// data-movement reduction into speedup more directly than MHA.
#[test]
fn ln_converts_traffic_savings_better_than_mha() {
    let arch = Arch::Ampere;
    let ln = subgraphs::layernorm(4096, 4096);
    let mha = subgraphs::mha(32, 16, 1024, 64);

    let eff = |g: &sf_ir::Graph| {
        let sf = Engine::SpaceFusion.compile(arch, g).unwrap().profile(2);
        let py = Engine::PyTorch.compile(arch, g).unwrap().profile(2);
        let speedup = py.time_us / sf.time_us;
        let reduction =
            py.stats.dram_total_bytes() as f64 / sf.stats.dram_total_bytes().max(1) as f64;
        speedup / reduction
    };
    let ln_eff = eff(&ln);
    let mha_eff = eff(&mha);
    assert!(
        ln_eff > mha_eff,
        "LN speedup-per-traffic {ln_eff:.2} must exceed MHA {mha_eff:.2}"
    );
}

/// Architecture scaling: the same fused MHA gets faster from Volta to
/// Ampere to Hopper, but sub-linearly vs the peak ratio (paper Fig 16c).
#[test]
fn architecture_scaling_is_monotone_and_sublinear() {
    let g = subgraphs::mha(32, 16, 512, 64);
    let mut times = Vec::new();
    for arch in Arch::all() {
        let p = Engine::SpaceFusion.compile(arch, &g).unwrap();
        times.push(p.profile(2).time_us);
    }
    assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
    let hopper_ratio = times[0] / times[2];
    assert!(
        hopper_ratio < 6.75,
        "speedup {hopper_ratio:.2} cannot exceed the peak ratio"
    );
    assert!(hopper_ratio > 1.5, "Hopper should be clearly faster");
}

/// Batch-1 vs batch-32 (paper Fig 16b mechanism): more instances mean
/// more parallelism, so fused speedups at batch 32 are at least as good.
#[test]
fn batching_does_not_hurt_fused_speedups() {
    let arch = Arch::Ampere;
    let small = subgraphs::mha(1, 16, 512, 64);
    let big = subgraphs::mha(32, 16, 512, 64);
    let su = |g: &sf_ir::Graph| {
        let sf = Engine::SpaceFusion
            .compile(arch, g)
            .unwrap()
            .profile(2)
            .time_us;
        let py = Engine::PyTorch.compile(arch, g).unwrap().profile(2).time_us;
        py / sf
    };
    let su1 = su(&small);
    let su32 = su(&big);
    assert!(
        su32 > 0.5 * su1,
        "batch 32 speedup collapsed: {su32:.2} vs {su1:.2}"
    );
}

/// The compile-cache makes repeated layers cheap (paper §5 / Table 5).
#[test]
fn repeated_subprograms_hit_the_schedule_cache() {
    use spacefusion::{CompileOptions, CompileSession};
    let compiler = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let g = subgraphs::layernorm(256, 256);
    let p1 = compiler.compile(&g).unwrap();
    let p2 = compiler.compile(&g).unwrap();
    assert_eq!(p1.stats.cache_hits, 0);
    assert!(p2.stats.cache_hits > 0);
    assert!(p2.stats.total_us < p1.stats.total_us * 2.0);
}
