//! Cross-checks of the static disjoint-write race prover against the
//! dynamic executor.
//!
//! Three claims tie the prover (`verify::races`) to the lock-free
//! engine it licenses:
//!
//! 1. **Coverage** — every kernel the compiler emits for the model zoo,
//!    under every fusion policy and architecture, is statically proven
//!    disjoint (zero `RACE` diagnostics). The lock-free executor never
//!    runs on faith.
//! 2. **Agreement** — statically proven kernels execute in parallel
//!    without tripping the debug claim bitmap (the dynamic overlap
//!    oracle in `OutputSlot`), bit-identically to serial execution.
//! 3. **Gate** — a kernel whose proof is withheld is pinned to the
//!    serial fallback path: the engine counts the fallback, never
//!    fans the kernel out over the pool, and still produces
//!    bit-identical results.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::assert_tensors_bitwise;
use spacefusion::codegen::{ExecEngine, ExecOptions};
use spacefusion::pipeline::{CompileOptions, CompileSession};
use spacefusion::verify::{verify_kernel, DisjointProof};
use spacefusion::FusionPolicy;
use std::sync::Arc;

/// Small-size zoo instances: every subgraph family from Fig. 10.
fn zoo() -> Vec<Graph> {
    vec![
        subgraphs::mlp_stack(2, 24, 16),
        subgraphs::lstm_cell(8, 16),
        subgraphs::softmax(32, 24),
        subgraphs::layernorm(24, 16),
        subgraphs::rmsnorm(24, 16),
        subgraphs::mha(1, 2, 16, 8),
        subgraphs::masked_mha(1, 2, 16, 8),
        subgraphs::mha_decode(1, 2, 16, 8),
    ]
}

const POLICIES: [FusionPolicy; 5] = [
    FusionPolicy::SpaceFusion,
    FusionPolicy::Unfused,
    FusionPolicy::EpilogueOnly,
    FusionPolicy::MiOnly,
    FusionPolicy::TileGraph,
];

const ARCHS: [Arch; 3] = [Arch::Volta, Arch::Ampere, Arch::Hopper];

#[test]
fn zoo_is_statically_proven_disjoint_under_every_policy_and_arch() {
    let mut kernels = 0usize;
    for graph in zoo() {
        for arch in ARCHS {
            for policy in POLICIES {
                let program = CompileSession::with_policy(arch, policy)
                    .compile(&graph)
                    .unwrap_or_else(|e| panic!("{}/{arch:?}/{policy:?}: {e}", graph.name()));
                for kp in &program.kernels {
                    assert!(
                        kp.disjoint.is_proven(),
                        "{}/{arch:?}/{policy:?}: kernel '{}' not proven disjoint: {:?}",
                        graph.name(),
                        kp.name,
                        kp.disjoint
                    );
                    let races: Vec<_> = verify_kernel(kp, &program.arch)
                        .into_iter()
                        .filter(|d| d.code.code().starts_with("RACE"))
                        .collect();
                    assert!(
                        races.is_empty(),
                        "{}/{arch:?}/{policy:?}: kernel '{}' has race diagnostics: {races:?}",
                        graph.name(),
                        kp.name
                    );
                    kernels += 1;
                }
            }
        }
    }
    // The matrix must actually cover a real kernel population.
    assert!(kernels > 100, "only {kernels} kernels checked");
}

#[test]
fn proven_kernels_execute_lock_free_without_tripping_the_claim_bitmap() {
    // Debug builds re-check the prover's verdict dynamically: region
    // hand-out panics if any element is claimed twice. Executing the
    // statically proven zoo in parallel therefore cross-validates the
    // symbolic footprints against the interpreter's real ones; bitwise
    // serial equality pins the result too.
    for graph in zoo() {
        let bindings = graph.random_bindings(13);
        for arch in ARCHS {
            let program = CompileSession::with_policy(arch, FusionPolicy::SpaceFusion)
                .compile(&graph)
                .unwrap_or_else(|e| panic!("{}/{arch:?}: {e}", graph.name()));
            assert!(program.kernels.iter().all(|k| k.disjoint.is_proven()));
            let serial = program
                .execute_with(&bindings, &ExecOptions::with_threads(1))
                .unwrap();
            let parallel = program
                .execute_with(&bindings, &ExecOptions::with_threads(4))
                .unwrap();
            for (s, p) in serial.iter().zip(&parallel) {
                assert_tensors_bitwise(&format!("{}/{arch:?}", graph.name()), p, s);
            }
        }
    }
}

#[test]
fn unproven_kernel_is_pinned_to_the_serial_fallback_bit_identically() {
    let graph = subgraphs::mha(1, 2, 16, 8);
    let bindings = graph.random_bindings(11);
    // Isolated engine: the shared one's counters are polluted by
    // concurrent tests.
    let engine = Arc::new(ExecEngine::new());
    let session =
        CompileSession::new(Arch::Volta, CompileOptions::default()).with_engine(engine.clone());
    let mut program = session.compile(&graph).expect("mha compiles");
    let baseline = program
        .execute_with(&bindings, &ExecOptions::with_threads(4))
        .expect("baseline run");
    assert_eq!(
        engine.race_fallbacks(),
        0,
        "proven kernels must not take the race fallback"
    );
    let dispatches_before = engine.dispatches();

    // Withhold the proof, as the prover does for a RACE505 kernel.
    for kp in &mut program.kernels {
        kp.disjoint = DisjointProof::Unproven("withheld for the fallback test".into());
    }
    let fallback = program
        .execute_with(&bindings, &ExecOptions::with_threads(4))
        .expect("fallback run");

    assert_eq!(
        engine.race_fallbacks(),
        program.kernels.len() as u64,
        "every unproven kernel execution must be counted as a fallback"
    );
    assert_eq!(
        engine.dispatches(),
        dispatches_before,
        "an unproven kernel must never be dispatched to the lock-free pool"
    );
    assert_eq!(baseline.len(), fallback.len());
    for (b, f) in baseline.iter().zip(&fallback) {
        assert_tensors_bitwise("serial fallback vs lock-free", f, b);
    }
}
