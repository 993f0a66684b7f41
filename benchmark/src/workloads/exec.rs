//! `exec_small` and `exec_large`: `CompiledProgram::execute_with` on
//! programs compiled once at set-up (SpaceFusion, Ampere).
//!
//! `exec_small` runs 50 µs–5 ms kernels on one thread, where the
//! executor's interpretive overhead dominates and the pool is bypassed.
//! `exec_large` runs shapes big enough for block compute and pool
//! dispatch to dominate, at `min(host cores, 4)` threads: the small zoo
//! at two threads measured wake jitter, not the program.

use super::{cold_session, probes};
use crate::harness::{drive, shuffle, Recorder, Row, RunCfg, FROZEN_ORDER};
use crate::metrics::{host_cores, Measured, SimClock};
use crate::oracle;
use crate::programs::{load, Frozen, Loaded, EXEC_LARGE_SET, EXEC_SMALL_SET};
use sf_gpu_sim::Arch;
use sf_tensor::{alloc_stats, Tensor};
use spacefusion::codegen::{ExecEngine, ExecOptions};
use spacefusion::{CompiledProgram, FusionPolicy};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// One of the two executor workloads.
pub struct Spec {
    set: &'static [Frozen],
    /// Ops per row and round, fixed so that every row gets a comparable
    /// share of a round's wall time. The slowest row of `exec_small`
    /// holds 1.3% of the ops, so the pooled p99 falls inside that row's
    /// distribution and not between two rows.
    iters: &'static [usize],
    threads: usize,
    /// The deep-reduction rows whose schedules split the reduction
    /// (partial accumulators plus combine); reported on their own as
    /// `codegen.split_rows_us`.
    split_rows: &'static [&'static str],
}

pub fn small() -> Spec {
    Spec {
        set: EXEC_SMALL_SET,
        iters: &[30, 200, 50, 40, 60, 100, 125, 400, 140, 170, 20, 170],
        threads: 1,
        split_rows: &[
            "mha_decode_b1h4kv1024d32",
            "softmax_16x4096",
            "reduce_16x4096",
        ],
    }
}

pub fn large() -> Spec {
    Spec {
        set: EXEC_LARGE_SET,
        iters: &[10; 8],
        threads: host_cores().min(4),
        split_rows: &[],
    }
}

struct Case {
    program: CompiledProgram,
    bindings: HashMap<String, Tensor>,
    /// Output of the set-up run. Every timed op must repeat it bit for
    /// bit, and after the rounds it is checked against the reference
    /// interpreter (whose buffers should not shape the heap the timed
    /// ops run in).
    expect: Vec<Tensor>,
}

struct State {
    set: Vec<Loaded>,
    cases: Vec<Case>,
    sim: SimClock,
    /// Engine and scratch-pool counter deltas of each traced round.
    round_counters: Vec<[u64; 5]>,
}

fn setup(cfg: &RunCfg, spec: &Spec, exec: &ExecOptions) -> Result<State, String> {
    let set = load(spec.set)?;
    let mut cases = Vec::new();
    let mut pairs = Vec::new();
    for (p, &iters) in set.iter().zip(spec.iters) {
        let compile = |policy| {
            cold_session(Arch::Ampere, policy)
                .compile(&p.graph)
                .map_err(|e| format!("{}: {e}", p.name))
        };
        let program = compile(FusionPolicy::SpaceFusion)?;
        pairs.push((
            program.estimate_us(),
            compile(FusionPolicy::Unfused)?.estimate_us(),
        ));
        let bindings = p.graph.random_bindings(cfg.seed);
        let expect = program
            .execute_with(&bindings, exec)
            .map_err(|e| format!("{}: {e}", p.name))?;
        // Warm-up, a quarter of a round: scratch arenas fill and pool
        // workers spawn here.
        for _ in 0..iters.div_ceil(4) {
            let again = program
                .execute_with(&bindings, exec)
                .map_err(|e| format!("{}: {e}", p.name))?;
            if !oracle::same_bits(&again, &expect) {
                return Err(format!("{}: warm-up output changed bits", p.name));
            }
        }
        cases.push(Case {
            program,
            bindings,
            expect,
        });
    }
    Ok(State {
        set,
        cases,
        sim: SimClock::from_pairs(&pairs),
        round_counters: Vec::new(),
    })
}

fn engine_counters(engine: &ExecEngine) -> [u64; 5] {
    [
        engine.dispatches(),
        engine.serial_runs(),
        engine.race_fallbacks(),
        alloc_stats::pool_hits(),
        alloc_stats::pool_misses(),
    ]
}

pub fn run(cfg: &RunCfg, spec: &Spec) -> Result<Measured, String> {
    assert_eq!(spec.set.len(), spec.iters.len());
    let exec = ExecOptions::with_threads(spec.threads);
    let rows = spec.set.iter().map(|f| Row::new(f.name, true)).collect();
    let mut rec = Recorder::new(rows);
    let mut order: Vec<usize> = spec
        .iters
        .iter()
        .enumerate()
        .flat_map(|(row, &n)| std::iter::repeat_n(row, n))
        .collect();
    shuffle(&mut order, FROZEN_ORDER);
    let engine = ExecEngine::shared();

    let (state, mut rounds) = drive(
        cfg,
        &mut rec,
        || setup(cfg, spec, &exec),
        |state, rec| {
            let before = engine_counters(&engine);
            let start = Instant::now();
            for &row in &order {
                let case = &state.cases[row];
                let out = rec.op("codegen.exec_kernel", row, || {
                    case.program.execute_with(&case.bindings, &exec)
                });
                match black_box(out) {
                    Ok(out) if oracle::same_bits(&out, &case.expect) => {}
                    Ok(_) => rec.fail(format!("{}: output changed bits", spec.set[row].name)),
                    Err(e) => rec.fail(format!("{}: {e}", spec.set[row].name)),
                }
            }
            let secs = start.elapsed().as_secs_f64();
            if rec.tracing {
                let after = engine_counters(&engine);
                state
                    .round_counters
                    .push(std::array::from_fn(|i| after[i] - before[i]));
            }
            Ok(secs)
        },
        |_| Ok(()),
    )?;

    for (p, case) in state.set.iter().zip(&state.cases) {
        let want = oracle::reference(&p.name, &p.graph, &case.bindings)?;
        oracle::check(&p.name, &case.expect, &want, oracle::tolerance(&p.graph))?;
    }
    let mut values = BTreeMap::new();
    if cfg.trace {
        layer_probes(&mut rec, &state, spec, cfg.seed, &mut values);
        values.insert("codegen.pool_workers", engine.pool_workers() as f64);
    }
    let sim = state.sim;
    drop(state);
    rounds.more_setups(cfg, || setup(cfg, spec, &exec), |_| Ok(()))?;
    Ok(Measured {
        rec,
        rounds,
        ops_per_round: order.len(),
        sim,
        exec_threads: exec.effective_threads(),
        layer_values: values,
    })
}

fn layer_probes(
    rec: &mut Recorder,
    state: &State,
    spec: &Spec,
    seed: u64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    // Counters of the median traced round (they may differ by a few
    // pool misses when blocks land on another worker).
    let names = [
        "codegen.dispatches",
        "codegen.serial_runs",
        "codegen.race_fallbacks",
        "tensor.pool_hits",
        "tensor.pool_misses",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let per_round: Vec<f64> = state.round_counters.iter().map(|c| c[i] as f64).collect();
        values.insert(name, crate::stats::median(&per_round));
    }
    let (hits, misses) = (values["tensor.pool_hits"], values["tensor.pool_misses"]);
    if hits + misses > 0.0 {
        values.insert("tensor.pool_reuse_ratio", hits / (hits + misses));
    }

    probes::ir(rec, &state.set, state.set.len(), seed, false);
    probes::tensor(rec);
    let serial = ExecOptions::with_threads(1);
    let mut allocations = 0;
    for (row, case) in state.cases.iter().enumerate() {
        for _ in 0..5 {
            black_box(rec.probe("codegen.bindings_clone", row, || case.bindings.clone()));
            if spec.threads > 1 {
                black_box(
                    rec.probe("codegen.exec_kernel_1t", row, || {
                        case.program.execute_with(&case.bindings, &serial)
                    })
                    .is_ok(),
                );
            }
        }
        alloc_stats::reset_allocations();
        black_box(case.program.execute_with(&case.bindings, &serial).is_ok());
        allocations += alloc_stats::allocations();
    }
    values.insert(
        "tensor.allocations_per_exec",
        allocations as f64 / state.cases.len() as f64,
    );
    let split: Vec<f64> = spec
        .split_rows
        .iter()
        .filter_map(|name| spec.set.iter().position(|f| f.name == *name))
        .map(|row| rec.row_median_us("codegen.exec_kernel", row))
        .collect();
    if !split.is_empty() {
        values.insert(
            "codegen.split_rows_us",
            split.iter().sum::<f64>() / split.len() as f64,
        );
    }
}
