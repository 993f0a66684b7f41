//! Parallel execution determinism: the multi-threaded block engine must
//! be *bit-identical* to serial execution. Spatial blocks write disjoint
//! output regions (Table 3 legality), so no thread count, scheduling
//! order, scratch-pool reuse pattern, or worker-pool reuse across calls
//! may change a single bit of any output. The whole model zoo is checked
//! under every fusion policy and architecture at `exec-threads` ∈
//! {1, 2, 8, max}, on engines reused across hundreds of calls.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::{assert_tensors_bitwise, Tensor};
use spacefusion::codegen::{ExecEngine, ExecOptions};
use spacefusion::compiler::{CompileOptions, Compiler, FusionPolicy};
use spacefusion::pipeline::CompileSession;
use spacefusion::resilience::{silence_injected_panics, FaultKind, FaultPlan, FaultStage, Rung};
use spacefusion::FaultInjector;
use std::collections::HashMap;
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
fn parallel_execution_is_bit_identical_to_serial() {
    for graph in zoo() {
        let bindings = graph.random_bindings(7);
        for arch in ARCHS {
            for policy in POLICIES {
                let program = Compiler::with_policy(arch, policy)
                    .compile(&graph)
                    .unwrap_or_else(|e| panic!("{}/{arch:?}/{policy:?}: {e}", graph.name()));
                let serial = program
                    .execute_with(&bindings, &ExecOptions::with_threads(1))
                    .unwrap_or_else(|e| panic!("{}/{arch:?}/{policy:?}: {e}", graph.name()));
                for threads in [2usize, 8, 0] {
                    let parallel = program
                        .execute_with(&bindings, &ExecOptions::with_threads(threads))
                        .unwrap_or_else(|e| {
                            panic!("{}/{arch:?}/{policy:?}/t{threads}: {e}", graph.name())
                        });
                    assert_eq!(serial.len(), parallel.len());
                    for (s, p) in serial.iter().zip(&parallel) {
                        // Bitwise, not approximate: identical FP operation
                        // order is a hard requirement of the engine.
                        assert_tensors_bitwise(
                            &format!("{}/{arch:?}/{policy:?} at {threads} threads", graph.name()),
                            p,
                            s,
                        );
                    }
                }
            }
        }
    }
}

/// Compiles `graph` onto a private engine, so pool/counter assertions
/// are not perturbed by concurrently running tests.
fn compile_on(
    graph: &Graph,
    engine: &Arc<ExecEngine>,
    policy: FusionPolicy,
) -> spacefusion::CompiledProgram {
    CompileSession::new(
        Arch::Ampere,
        CompileOptions {
            policy,
            ..Default::default()
        },
    )
    .with_engine(Arc::clone(engine))
    .compile(graph)
    .unwrap_or_else(|e| panic!("{}: {e}", graph.name()))
}

fn assert_outputs_bitwise(label: &str, got: &[Tensor], want: &[Tensor]) {
    assert_eq!(got.len(), want.len(), "{label}: output count");
    for (g, w) in got.iter().zip(want) {
        assert_tensors_bitwise(label, g, w);
    }
}

/// A reused engine must stay bit-identical to serial no matter how many
/// executions (at shifting thread counts) have warmed its worker pool
/// and scratch arenas. 100 runs, all against the same serial reference.
#[test]
fn engine_reuse_stays_bit_identical_over_hundreds_of_runs() {
    let graph = subgraphs::masked_mha(1, 2, 32, 16);
    let engine = Arc::new(ExecEngine::new());
    let program = compile_on(&graph, &engine, FusionPolicy::SpaceFusion);

    let sets: Vec<HashMap<String, Tensor>> =
        (0..8).map(|i| graph.random_bindings(50 + i)).collect();
    let refs: Vec<Vec<Tensor>> = sets
        .iter()
        .map(|b| {
            program
                .execute_with(b, &ExecOptions::with_threads(1))
                .expect("serial reference")
        })
        .collect();

    for i in 0..100 {
        let threads = [1usize, 2, 8, 0][i % 4];
        let out = program
            .execute_with(&sets[i % sets.len()], &ExecOptions::with_threads(threads))
            .unwrap_or_else(|e| panic!("run {i} at {threads} threads: {e}"));
        assert_outputs_bitwise(
            &format!("run {i} at {threads} threads"),
            &out,
            &refs[i % sets.len()],
        );
    }
}

/// A worker crash inside the pool must not kill the pool: the crashed
/// kernel falls back to the reference interpreter (resilience ladder),
/// and the *same* engine keeps executing parallel kernels correctly
/// afterwards without respawning threads.
#[test]
fn pool_survives_worker_crash_and_keeps_executing() {
    silence_injected_panics();
    // Large enough to clear the serial cutoff so the crash happens on a
    // real pool worker, not the inline serial path.
    let graph = subgraphs::softmax(128, 256);
    let engine = Arc::new(ExecEngine::new());
    let program = compile_on(&graph, &engine, FusionPolicy::SpaceFusion);
    let bindings = graph.random_bindings(3);
    let want = program
        .execute_with(&bindings, &ExecOptions::with_threads(1))
        .expect("serial reference");

    let opts = ExecOptions::with_threads(2);
    let dispatches_before = engine.dispatches();
    program.execute_with(&bindings, &opts).expect("warm-up");
    assert!(
        engine.dispatches() > dispatches_before,
        "workload must be large enough to dispatch to the pool"
    );
    let workers = engine.pool_workers();
    assert!(workers >= 2, "pool must have spawned workers");

    let inj = FaultInjector::new(FaultPlan::single(
        FaultStage::ExecBlock,
        FaultKind::CrashWorker,
    ));
    let (got, report) = program
        .execute_resilient(&bindings, &opts, Some(&inj))
        .expect("crashed kernel must fall back, not abort");
    assert_eq!(inj.fired().len(), 1, "the injected crash must fire");
    assert_eq!(report.len(), 1, "{}", report.render());
    assert_eq!(report.steps[0].rung, Rung::Unfused);
    assert_outputs_bitwise("fallback output", &got, &want);

    // The pool survived: same worker threads, and parallel execution on
    // this engine is still bit-identical.
    assert_eq!(
        engine.pool_workers(),
        workers,
        "crash must not kill or respawn pool threads"
    );
    for _ in 0..3 {
        let again = program
            .execute_with(&bindings, &opts)
            .expect("pool must stay usable after a crash");
        assert_outputs_bitwise("post-crash run", &again, &want);
    }
}

/// The serial cutoff routes tiny kernels (single-row decode) away from
/// the pool even at high thread counts, while large kernels dispatch.
#[test]
fn tiny_kernels_run_serially_large_kernels_dispatch() {
    let engine = Arc::new(ExecEngine::new());

    // mha_decode: one query row — far below the cutoff.
    let tiny = subgraphs::mha_decode(1, 2, 64, 16);
    let program = compile_on(&tiny, &engine, FusionPolicy::SpaceFusion);
    let bindings = tiny.random_bindings(9);
    program
        .execute_with(&bindings, &ExecOptions::with_threads(8))
        .expect("tiny kernel");
    assert_eq!(
        engine.dispatches(),
        0,
        "decode must stay on the serial path"
    );
    assert!(engine.serial_runs() > 0);
    assert_eq!(engine.pool_workers(), 0, "no threads for serial work");

    // A big softmax clears the cutoff and dispatches.
    let big = subgraphs::softmax(256, 256);
    let program = compile_on(&big, &engine, FusionPolicy::SpaceFusion);
    let bindings = big.random_bindings(9);
    program
        .execute_with(&bindings, &ExecOptions::with_threads(2))
        .expect("big kernel");
    assert!(engine.dispatches() > 0, "big kernel must use the pool");
}
