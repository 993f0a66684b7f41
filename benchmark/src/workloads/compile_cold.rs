//! `compile_cold`: the compiler layers only. Every op is one
//! `CompileSession::compile` in a fresh session (cold schedule cache,
//! verifier on) over 31 frozen programs × 3 archs × 5 fusion policies —
//! the host analogue of the paper's Tables 4–5. The executor runs only
//! after the rounds, for the oracle.

use super::{cold_session, probes, publish_counts, traced_compile, Counts, Under};
use crate::harness::{drive, shuffle, Recorder, Row, RunCfg, FROZEN_ORDER};
use crate::metrics::{Measured, SimClock};
use crate::oracle;
use crate::programs::{load, Loaded, COMPILE_HOST_SIZED, COMPILE_SET};
use sf_gpu_sim::Arch;
use spacefusion::codegen::ExecOptions;
use spacefusion::{CompiledProgram, FusionPolicy};
use std::collections::BTreeMap;
use std::time::Instant;

struct Combo {
    program: usize,
    arch: Arch,
    policy: FusionPolicy,
}

struct State {
    set: Vec<Loaded>,
    sim: SimClock,
    /// Kernel count per combo from set-up; a round that disagrees chose
    /// a different schedule.
    kernels: Vec<usize>,
    /// The SpaceFusion × Ampere programs, for the codegen probes.
    headline_programs: Vec<CompiledProgram>,
    round_counts: Vec<Counts>,
}

fn combos() -> Vec<Combo> {
    let mut out = Vec::new();
    for program in 0..COMPILE_SET.len() {
        for arch in Arch::all() {
            for policy in FusionPolicy::all() {
                out.push(Combo {
                    program,
                    arch,
                    policy,
                });
            }
        }
    }
    out
}

/// Parses the set and compiles every combo once: the warm-up, and the
/// source of the simulated clock.
fn setup(combos: &[Combo]) -> Result<State, String> {
    let set = load(COMPILE_SET)?;
    let mut kernels = Vec::with_capacity(combos.len());
    let mut estimates: BTreeMap<(usize, &'static str), (f64, f64)> = BTreeMap::new();
    let mut headline_programs = Vec::new();
    for c in combos {
        let p = &set[c.program];
        let program = cold_session(c.arch, c.policy)
            .compile(&p.graph)
            .map_err(|e| format!("{} {} {}: {e}", p.name, c.arch.name(), c.policy.name()))?;
        let slot = estimates
            .entry((c.program, c.arch.name()))
            .or_insert((0.0, 0.0));
        match c.policy {
            FusionPolicy::SpaceFusion => slot.0 = program.estimate_us(),
            FusionPolicy::Unfused => slot.1 = program.estimate_us(),
            _ => {}
        }
        kernels.push(program.kernels.len());
        if c.policy == FusionPolicy::SpaceFusion && c.arch == Arch::Ampere {
            headline_programs.push(program);
        }
    }
    let pairs: Vec<(f64, f64)> = estimates.into_values().collect();
    Ok(State {
        set,
        sim: SimClock::from_pairs(&pairs),
        kernels,
        headline_programs,
        round_counts: Vec::new(),
    })
}

/// The oracle: the host-sized programs of every (policy, arch), executed
/// and compared with the reference interpreter. It runs after the
/// rounds. At set-up its megabyte tensors left the allocator in one of
/// several states, which showed in the timed compiles as two throughput
/// modes 15% apart and three peak-RSS modes.
fn check_outputs(cfg: &RunCfg, set: &[Loaded], combos: &[Combo]) -> Result<(), String> {
    for (i, p) in set[..COMPILE_HOST_SIZED].iter().enumerate() {
        let bindings = p.graph.random_bindings(cfg.seed);
        let want = oracle::reference(&p.name, &p.graph, &bindings)?;
        for c in combos.iter().filter(|c| c.program == i) {
            let label = format!("{} {} {}", p.name, c.arch.name(), c.policy.name());
            let got = cold_session(c.arch, c.policy)
                .compile(&p.graph)
                .and_then(|program| program.execute_with(&bindings, &ExecOptions::with_threads(1)))
                .map_err(|e| format!("{label}: {e}"))?;
            oracle::check(&label, &got, &want, oracle::tolerance(&p.graph))?;
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Measured, String> {
    let combos = combos();
    let rows = combos
        .iter()
        .map(|c| {
            Row::new(
                format!(
                    "{} {} {}",
                    COMPILE_SET[c.program].name,
                    c.arch.name(),
                    c.policy.name()
                ),
                c.policy == FusionPolicy::SpaceFusion && c.arch == Arch::Ampere,
            )
        })
        .collect();
    let mut rec = Recorder::new(rows);
    let mut order: Vec<usize> = (0..combos.len()).collect();
    shuffle(&mut order, FROZEN_ORDER);

    let (state, mut rounds) = drive(
        cfg,
        &mut rec,
        || setup(&combos),
        |state, rec| {
            let mut counts = Counts::new();
            let start = Instant::now();
            for &row in &order {
                let c = &combos[row];
                let graph = &state.set[c.program].graph;
                let session = cold_session(c.arch, c.policy);
                let result = if rec.tracing {
                    traced_compile(rec, &mut counts, Under::Op(row), session, graph)
                } else {
                    rec.op("pipeline.compile", row, || session.compile(graph))
                };
                match std::hint::black_box(result) {
                    Ok(p) if p.kernels.len() == state.kernels[row] => {}
                    Ok(p) => rec.fail(format!(
                        "{}: {} kernels, set-up compiled {}",
                        rec.rows[row].name,
                        p.kernels.len(),
                        state.kernels[row]
                    )),
                    Err(e) => rec.fail(format!("{}: {e}", rec.rows[row].name)),
                }
            }
            let secs = start.elapsed().as_secs_f64();
            if rec.tracing {
                state.round_counts.push(counts);
            }
            Ok(secs)
        },
        |_| Ok(()),
    )?;

    check_outputs(cfg, &state.set, &combos)?;
    let mut layer_values = BTreeMap::new();
    if cfg.trace {
        let first = state.round_counts.first().cloned().unwrap_or_default();
        if state.round_counts.iter().any(|c| *c != first) {
            rec.fail("compile counts differ between rounds".into());
        }
        publish_counts(&mut layer_values, &first);
        probes::ir(&mut rec, &state.set, COMPILE_HOST_SIZED, cfg.seed, false);
        probes::tensor(&mut rec);
        probes::codegen_lowering(&mut rec, &state.headline_programs, &mut layer_values);
    }
    let sim = state.sim;
    drop(state);
    rounds.more_setups(cfg, || setup(&combos), |_| Ok(()))?;
    Ok(Measured {
        rec,
        rounds,
        ops_per_round: combos.len(),
        sim,
        exec_threads: 1,
        layer_values,
    })
}
