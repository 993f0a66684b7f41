//! End-to-end resilience: every injected fault either recovers
//! transparently or degrades down the ladder to output bit-identical
//! to the unfused reference interpreter.
//!
//! Fault kinds covered: scheduler panics (pass isolation +
//! `SfError::Internal`), forced resource infeasibility (absorbed by
//! the Alg.-2 fallback — a recovery, not a degradation), injected
//! deadline expiry (`SfError::Timeout` → ladder), cache poisoning
//! (validation on rebuild → invalidate + recompute), and worker
//! crashes (block isolation → per-kernel reference fallback in
//! `execute_resilient`).

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{assert_tensors_bitwise, DType, Shape};
use spacefusion::codegen::ExecOptions;
use spacefusion::pipeline::{CollectingSink, CompileSession, PassId};
use spacefusion::resilience::{
    silence_injected_panics, Fault, FaultInjector, FaultKind, FaultPlan, FaultStage, Rung,
};
use spacefusion::sched::SlicingOptions;
use spacefusion::SfError;
use spacefusion::{CompileOptions, FusionPolicy};
use std::sync::Arc;

/// Options for compiles whose outputs are asserted bit-identical to the
/// unfused reference interpreter. Split-K schedules fold per-partition
/// partial accumulators, which re-associates the sliced reduction: the
/// result is deterministic at every thread count but differs from the
/// reference's serial association by rounding, so the ladder's bit-exact
/// contract is only checkable with split-K off.
fn reference_exact_options() -> CompileOptions {
    CompileOptions {
        slicing: SlicingOptions {
            enable_split: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn softmax(m: usize, n: usize) -> Graph {
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

fn session_with(plan: FaultPlan) -> (CompileSession, Arc<FaultInjector>) {
    silence_injected_panics();
    let inj = Arc::new(FaultInjector::new(plan));
    let session = CompileSession::new(Arch::Ampere, reference_exact_options())
        .with_workers(1)
        .with_faults(inj.clone());
    (session, inj)
}

/// Compiles under `plan`, executes, and asserts the outputs are
/// bit-identical to the reference interpreter. Returns the recorded
/// compile-time degradation steps.
fn compile_execute_check(plan: FaultPlan) -> Vec<spacefusion::resilience::DegradationStep> {
    let g = softmax(64, 256);
    let (session, _inj) = session_with(plan);
    let program = session.compile(&g).expect("resilient compile must succeed");
    let bindings = g.random_bindings(7);
    let want = g.execute(&bindings).unwrap();
    let got = program.execute(&bindings).unwrap();
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_tensors_bitwise(&format!("output {i}"), a, b);
    }
    program.stats.degradations.clone()
}

#[test]
fn injected_panic_degrades_and_stays_bit_exact() {
    let steps = compile_execute_check(FaultPlan::single(FaultStage::Schedule, FaultKind::Panic));
    assert!(!steps.is_empty(), "a caught panic must be recorded");
    assert!(steps[0].rung >= Rung::Partitioned);
    assert!(
        steps[0].reason.contains("injected panic"),
        "reason must name the fault: {}",
        steps[0].reason
    );
}

#[test]
fn forced_infeasibility_recovers_via_partitioning_fallback() {
    let g = softmax(64, 256);
    let (session, inj) = session_with(FaultPlan::single(
        FaultStage::Schedule,
        FaultKind::ForceInfeasible,
    ));
    let program = session.compile(&g).expect("Alg.-2 fallback must absorb it");
    assert_eq!(inj.fired().len(), 1, "the fault must actually fire");
    // ResourceInfeasible is handled by the paper's own partitioning
    // fallback inside the primary rung: a recovery, not a degradation.
    assert!(
        program.stats.degradations.is_empty(),
        "{:?}",
        program.stats.degradations
    );
    let bindings = g.random_bindings(9);
    let want = g.execute(&bindings).unwrap();
    let got = program.execute(&bindings).unwrap();
    for (a, b) in got.iter().zip(want.iter()) {
        assert_tensors_bitwise("out", a, b);
    }
}

#[test]
fn injected_deadline_expiry_degrades_with_timeout_reason() {
    let steps = compile_execute_check(FaultPlan::single(
        FaultStage::Schedule,
        FaultKind::ExpireDeadline,
    ));
    assert!(!steps.is_empty());
    assert!(
        steps[0].reason.contains("deadline"),
        "reason must mention the deadline: {}",
        steps[0].reason
    );
}

#[test]
fn zero_budget_still_compiles_best_so_far() {
    // A zero budget expires immediately, but the first candidate is
    // always evaluated: expiry narrows the search, it never fails a
    // graph that has any feasible schedule.
    let g = softmax(64, 256);
    let opts = CompileOptions {
        schedule_budget_ms: Some(0),
        ..reference_exact_options()
    };
    let program = CompileSession::new(Arch::Ampere, opts)
        .compile(&g)
        .expect("zero budget must still produce a program");
    assert!(program.stats.degradations.is_empty());
    let bindings = g.random_bindings(3);
    let want = g.execute(&bindings).unwrap();
    let got = program.execute(&bindings).unwrap();
    for (a, b) in got.iter().zip(want.iter()) {
        assert_tensors_bitwise("out", a, b);
    }
}

#[test]
fn poisoned_cache_entry_is_detected_and_recomputed() {
    let g = softmax(64, 256);
    let (session, inj) = session_with(FaultPlan::single(
        FaultStage::CachePublish,
        FaultKind::PoisonCache,
    ));
    // First compile publishes the poisoned entry; its own kernels were
    // scheduled before publication and are good.
    let first = session.compile(&g).expect("first compile");
    assert_eq!(inj.fired().len(), 1);
    assert!(first.stats.degradations.is_empty());
    // Second compile hits the poisoned entry, detects the corruption on
    // rebuild, evicts it, and recomputes in place (a Primary-rung
    // recovery step).
    let second = session.compile(&g).expect("second compile must recover");
    let steps = &second.stats.degradations;
    assert_eq!(steps.len(), 1, "{steps:?}");
    assert_eq!(steps[0].rung, Rung::Primary);
    assert!(
        steps[0].reason.contains("evicted and recomputed"),
        "{}",
        steps[0].reason
    );
    let bindings = g.random_bindings(11);
    let want = g.execute(&bindings).unwrap();
    for p in [&first, &second] {
        let got = p.execute(&bindings).unwrap();
        for (a, b) in got.iter().zip(want.iter()) {
            assert_tensors_bitwise("out", a, b);
        }
    }
}

#[test]
fn worker_crash_falls_back_to_reference_kernel() {
    silence_injected_panics();
    let g = softmax(64, 256);
    let program = CompileSession::new(Arch::Ampere, reference_exact_options())
        .compile(&g)
        .unwrap();
    let inj = FaultInjector::new(FaultPlan::single(
        FaultStage::ExecBlock,
        FaultKind::CrashWorker,
    ));
    let bindings = g.random_bindings(5);
    let want = g.execute(&bindings).unwrap();
    let (got, report) = program
        .execute_resilient(&bindings, &ExecOptions::with_threads(2), Some(&inj))
        .expect("crashed kernel must fall back, not abort");
    assert_eq!(inj.fired().len(), 1);
    assert_eq!(report.len(), 1, "{}", report.render());
    assert_eq!(report.steps[0].rung, Rung::Unfused);
    assert!(
        report.steps[0].reason.contains("injected"),
        "{}",
        report.steps[0].reason
    );
    // The fallback re-runs the kernel on the reference interpreter, so
    // the result is exactly the reference result.
    for (a, b) in got.iter().zip(want.iter()) {
        assert_tensors_bitwise("out", a, b);
    }
}

#[test]
fn non_resilient_mode_surfaces_the_panic_as_internal_error() {
    silence_injected_panics();
    let inj = Arc::new(FaultInjector::new(FaultPlan::single(
        FaultStage::Schedule,
        FaultKind::Panic,
    )));
    let opts = CompileOptions {
        resilient: false,
        ..Default::default()
    };
    let session = CompileSession::new(Arch::Ampere, opts)
        .with_workers(1)
        .with_faults(inj);
    match session.compile(&softmax(64, 256)) {
        Err(SfError::Internal { pass, payload }) => {
            assert!(pass.starts_with("schedule:"), "{pass}");
            assert!(payload.contains("injected panic"), "{payload}");
        }
        other => panic!("expected Internal error, got {other:?}"),
    }
}

#[test]
fn degradation_steps_surface_as_events() {
    silence_injected_panics();
    let g = softmax(64, 256);
    let sink = Arc::new(CollectingSink::new());
    let inj = Arc::new(FaultInjector::new(FaultPlan::single(
        FaultStage::Schedule,
        FaultKind::Panic,
    )));
    let session = CompileSession::new(Arch::Ampere, CompileOptions::default())
        .with_workers(1)
        .with_faults(inj)
        .with_sink(sink.clone());
    session.compile(&g).unwrap();
    let events = sink.events();
    assert!(
        events.iter().any(|e| e.pass == PassId::Degrade),
        "a Degrade event must reach the sink"
    );
}

#[test]
fn bottom_rung_failure_is_retried_once() {
    // Two ForceInfeasible faults against a single-op graph: the first
    // exhausts the primary rung (a one-op graph cannot be Alg.-2
    // partitioned, so the built-in fallback fails too), the second
    // fires inside the *bottom* rung, where there is no next rung to
    // fall to. The ladder must retry the bottom rung once — single-op
    // kernels are feasible by construction, so the failure is
    // transient — instead of aborting the compilation.
    let mut g = Graph::new("single", DType::F32);
    let x = g.input("x", Shape::new(vec![32, 64]));
    let y = g.unary(UnaryOp::Relu, x).unwrap();
    g.mark_output(y);
    let infeasible = Fault {
        stage: FaultStage::Schedule,
        kind: FaultKind::ForceInfeasible,
        unit: String::new(),
        block: 0,
    };
    let plan = FaultPlan {
        seed: 0,
        faults: vec![infeasible.clone(), infeasible],
    };
    let (session, inj) = session_with(plan);
    let program = session
        .compile(&g)
        .expect("bottom-rung retry must absorb the second fault");
    assert_eq!(inj.fired().len(), 2, "{:?}", inj.fired());
    let steps = &program.stats.degradations;
    assert!(
        steps
            .last()
            .is_some_and(|s| s.reason.contains("bottom rung retried")),
        "{steps:?}"
    );
    let bindings = g.random_bindings(17);
    let want = g.execute(&bindings).unwrap();
    let got = program.execute(&bindings).unwrap();
    for (a, b) in got.iter().zip(want.iter()) {
        assert_tensors_bitwise("out", a, b);
    }
}

#[test]
fn unfused_policy_ladder_still_terminates() {
    // Bottom-rung sanity: even when the primary policy *is* unfused, a
    // panic walks the ladder (partitioned, then unfused again) and the
    // second attempt — fault already spent — succeeds.
    let g = softmax(64, 256);
    silence_injected_panics();
    let inj = Arc::new(FaultInjector::new(FaultPlan::single(
        FaultStage::Schedule,
        FaultKind::Panic,
    )));
    let opts = CompileOptions {
        policy: FusionPolicy::Unfused,
        ..reference_exact_options()
    };
    let session = CompileSession::new(Arch::Ampere, opts)
        .with_workers(1)
        .with_faults(inj);
    let program = session.compile(&g).expect("ladder must terminate");
    assert!(!program.stats.degradations.is_empty());
    let bindings = g.random_bindings(13);
    let want = g.execute(&bindings).unwrap();
    let got = program.execute(&bindings).unwrap();
    for (a, b) in got.iter().zip(want.iter()) {
        assert_tensors_bitwise("out", a, b);
    }
}

#[test]
fn serve_zero_deadline_degrades_instead_of_hanging() {
    // Serve-level deadline flow: a request with `deadline_ms: 0` pushes
    // the compiler's schedule budget to zero. The degradation ladder
    // guarantees forward progress (best-so-far schedules), so the
    // request must answer Ok — never hang, never error.
    use sf_ir::dsl::print_graph;
    use spacefusion::serve::{CompileRequest, Response, ServeConfig, ServeCore};

    let core = ServeCore::start(ServeConfig::default()).unwrap();
    let req = CompileRequest {
        id: 1,
        graph: print_graph(&softmax(64, 256)),
        deadline_ms: Some(0),
        seed: 11,
        ..CompileRequest::default()
    };
    match core.submit(req.clone()) {
        Response::Ok(ok) => assert!(!ok.outputs.is_empty()),
        other => panic!("zero-deadline request must answer Ok, got {other:?}"),
    }
    // An unconstrained request for the same bucket piggybacks on the
    // degraded-but-published program rather than recompiling.
    let relaxed = CompileRequest {
        id: 2,
        deadline_ms: None,
        ..req
    };
    assert!(matches!(core.submit(relaxed), Response::Ok(_)));
    let stats = core.shutdown().unwrap();
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.program_compiles, 1);
}
