//! The entire in-tree model zoo lints clean on every architecture.
//!
//! This is the golden-corpus side of the verifier: the mutation tests in
//! `crates/core/tests/verify_negative.rs` prove seeded violations are
//! caught; this suite proves the compiler never produces a schedule the
//! verifier objects to — across fusion policies, workload shapes and
//! transformer configurations.

use sf_gpu_sim::Arch;
use sf_models::{extended, subgraphs, transformer};
use spacefusion::verify::{verify_program, VerifyConfig};
use spacefusion::{CompileSession, FusionPolicy};

fn assert_lint_clean(g: &sf_ir::Graph, arch: Arch, policy: FusionPolicy) {
    let p = CompileSession::with_policy(arch, policy)
        .compile(g)
        .unwrap_or_else(|e| panic!("{} on {arch} ({policy:?}): {e}", g.name()));
    let cfg = arch.config();
    let diags = verify_program(&p.kernels, &cfg, &VerifyConfig::default());
    assert!(
        diags.is_empty(),
        "{} on {arch} ({policy:?}) is not lint-clean:\n{}",
        g.name(),
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn subgraph_zoo_is_lint_clean_on_every_arch() {
    let zoo = [
        subgraphs::softmax(1024, 4096),
        subgraphs::layernorm(1024, 8192),
        subgraphs::rmsnorm(512, 4096),
        subgraphs::mha(8, 16, 1024, 64),
        subgraphs::mha(2, 8, 8192, 64), // long sequence: temporal + UTA
        subgraphs::masked_mha(4, 8, 512, 64),
        subgraphs::mha_decode(8, 32, 2048, 128),
        subgraphs::mlp_stack(3, 512, 1024),
        subgraphs::lstm_cell(64, 512),
    ];
    for g in &zoo {
        for arch in Arch::all() {
            assert_lint_clean(g, arch, FusionPolicy::SpaceFusion);
        }
    }
}

#[test]
fn extended_workloads_are_lint_clean() {
    let zoo = [
        extended::conv2d_im2col(8, 14, 3, 16, 32),
        extended::batchnorm_inference(4096, 256),
        extended::glu(512, 1024, 1024),
        extended::log_softmax_nll(2048, 1024),
    ];
    for g in &zoo {
        assert_lint_clean(g, Arch::Ampere, FusionPolicy::SpaceFusion);
    }
}

#[test]
fn every_fusion_policy_stays_lint_clean() {
    let g = subgraphs::mha(4, 8, 1024, 64);
    for policy in [
        FusionPolicy::SpaceFusion,
        FusionPolicy::Unfused,
        FusionPolicy::EpilogueOnly,
        FusionPolicy::MiOnly,
    ] {
        assert_lint_clean(&g, Arch::Ampere, policy);
    }
}

#[test]
fn transformer_subprograms_are_lint_clean() {
    for cfg in transformer::all_models() {
        for w in cfg.subprograms(1, 512) {
            assert_lint_clean(&w.graph, Arch::Hopper, FusionPolicy::SpaceFusion);
        }
    }
}
