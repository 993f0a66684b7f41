//! Split-K end-to-end guarantees: the tuner selects split schedules on
//! reduction-bound shapes, execution is bit-identical across worker
//! counts (the combine fold is fixed-order), the split path really is
//! two pool dispatches, and the partition count survives the schedule
//! cache.

use sf_gpu_sim::Arch;
use sf_models::subgraphs;
use sf_tensor::Tensor;
use spacefusion::codegen::{ExecEngine, ExecOptions};
use spacefusion::{CompileOptions, CompileSession, CompiledProgram};

fn split_partitions(program: &CompiledProgram) -> Vec<usize> {
    program
        .kernels
        .iter()
        .filter_map(|kp| {
            kp.schedule
                .temporal
                .as_ref()
                .and_then(|t| t.split.as_ref().map(|s| s.partitions))
        })
        .collect()
}

fn bits(outs: &[Tensor]) -> Vec<Vec<u32>> {
    outs.iter()
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The decode-shaped zoo workloads must auto-select split-K at default
/// options — no pinned blocks, plain cost-model arbitration.
#[test]
fn tuner_selects_split_k_on_reduction_bound_shapes() {
    for (graph, why) in [
        (
            subgraphs::mha_decode(1, 4, 1024, 32),
            "single query row vs 1024-token KV cache",
        ),
        (
            subgraphs::deep_reduce(16, 4096),
            "16 spatial rows vs a 4096-wide reduction",
        ),
        (subgraphs::softmax(16, 4096), "occupancy-starved softmax"),
    ] {
        let program = CompileSession::new(Arch::Ampere, CompileOptions::default())
            .compile(&graph)
            .expect("compile");
        let parts = split_partitions(&program);
        assert!(
            parts.iter().any(|&p| p >= 2),
            "{} ({why}): expected a split-K schedule, got partitions {parts:?}",
            graph.name()
        );
    }
}

/// A shape with ample spatial parallelism must NOT split: the combine
/// phase costs extra state traffic that only pays off when the grid is
/// too small to occupy the machine.
#[test]
fn tuner_declines_split_k_when_spatially_saturated() {
    let graph = subgraphs::deep_reduce(64, 4096);
    let program = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .compile(&graph)
        .expect("compile");
    assert!(
        split_partitions(&program).is_empty(),
        "64 spatial rows already occupy the grid; splitting only adds combine traffic"
    );
}

/// The combine fold runs in partition order regardless of which worker
/// finished first, so outputs are bitwise identical across 1/2/8
/// threads — the same determinism contract the spatial executor holds.
#[test]
fn split_outputs_are_bit_identical_across_thread_counts() {
    for graph in [
        subgraphs::mha_decode(1, 4, 1024, 32),
        subgraphs::deep_reduce(16, 4096),
    ] {
        let bindings = graph.random_bindings(7);
        let program = CompileSession::new(Arch::Ampere, CompileOptions::default())
            .compile(&graph)
            .expect("compile");
        assert!(
            split_partitions(&program).iter().any(|&p| p >= 2),
            "{} must exercise the split path",
            graph.name()
        );
        let reference = bits(
            &program
                .execute_with(&bindings, &ExecOptions::with_threads(1))
                .expect("1 thread"),
        );
        for threads in [2, 8] {
            let outs = program
                .execute_with(&bindings, &ExecOptions::with_threads(threads))
                .expect("threaded run");
            assert_eq!(
                reference,
                bits(&outs),
                "{}: outputs drifted at {threads} threads",
                graph.name()
            );
        }
    }
}

/// At ≥ 2 workers a split kernel is exactly two pool dispatches
/// (accumulate + combine) where the serialized schedule has at most
/// one per kernel.
#[test]
fn split_execution_is_two_pool_dispatches() {
    let graph = subgraphs::mha_decode(1, 4, 1024, 32);
    let bindings = graph.random_bindings(7);
    // Isolated engine: the process-wide shared pool's dispatch counter
    // moves under concurrent tests, so count on a private one.
    let engine = std::sync::Arc::new(ExecEngine::new());
    let program = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .with_engine(engine)
        .compile(&graph)
        .expect("compile");
    assert_eq!(split_partitions(&program), vec![8]);

    let opts = ExecOptions::with_threads(4);
    let before = program.engine().dispatches();
    program.execute_with(&bindings, &opts).expect("split run");
    let split_dispatches = program.engine().dispatches() - before;
    assert_eq!(
        split_dispatches,
        2 * program.kernels.len() as u64,
        "each split kernel must dispatch an accumulate pass and a combine pass"
    );

    // One worker collapses to the serial path: partitions fold in a
    // plain loop, no pool round-trips at all.
    let before = program.engine().dispatches();
    program
        .execute_with(&bindings, &ExecOptions::with_threads(1))
        .expect("serial run");
    assert_eq!(program.engine().dispatches() - before, 0);
}

/// The partition count is part of the saved scheduling decision: a
/// cache hit must rebuild the same split schedule the tuner chose,
/// not silently fall back to the serial variant.
#[test]
fn split_partition_count_round_trips_through_the_schedule_cache() {
    let graph = subgraphs::mha_decode(1, 4, 1024, 32);
    let session = CompileSession::new(Arch::Ampere, CompileOptions::default());
    let first = session.compile(&graph).expect("cold compile");
    let second = session.compile(&graph).expect("cached compile");
    let parts = split_partitions(&first);
    assert!(parts.iter().any(|&p| p >= 2));
    assert_eq!(parts, split_partitions(&second));
    assert!(
        second.stats.cache_hits >= 1,
        "second compile should hit the schedule cache"
    );
}
