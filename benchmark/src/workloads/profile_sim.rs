//! `profile_sim`: the simulated clock and what it costs on the host.
//! The op is one `CompiledProgram::profile(2)` pair — SpaceFusion and
//! the unfused PyTorch-eager baseline — on 14 paper-scale programs × 3
//! archs, compiled at set-up. `codegen/trace.rs` and the `gpu-sim` cache
//! model do all the timed work, and every simulated number is exact.

use super::probes;
use crate::harness::{drive, shuffle, Recorder, Row, RunCfg, FROZEN_ORDER};
use crate::metrics::{Measured, SimClock};
use crate::oracle;
use crate::programs::{load, Loaded, PROFILE_HOST_SIZED, PROFILE_SET};
use sf_baselines::Engine;
use sf_gpu_sim::{Arch, Profiler};
use sf_ir::ValueKind;
use spacefusion::codegen::{trace_kernel, ExecOptions};
use spacefusion::pipeline::ProfileReport;
use spacefusion::CompiledProgram;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Instances replayed in detail, as the figure binaries use.
const REPLAY: usize = 2;

struct Case {
    fused: CompiledProgram,
    unfused: CompiledProgram,
    /// Exact results of the first round: `(simulated µs, l1 accesses,
    /// l1 misses, l2 misses, DRAM bytes)` of each side.
    first: Option<[Exact; 2]>,
}

type Exact = (u64, u64, u64, u64, u64);

fn exact(r: &ProfileReport) -> Exact {
    (
        r.time_us.to_bits(),
        r.stats.l1_accesses,
        r.stats.l1_misses,
        r.stats.l2_misses,
        r.stats.dram_total_bytes(),
    )
}

struct State {
    set: Vec<Loaded>,
    cases: Vec<Case>,
}

fn setup() -> Result<State, String> {
    let set = load(PROFILE_SET)?;
    let mut cases = Vec::new();
    for p in &set {
        for arch in Arch::all() {
            let compile = |engine: Engine| {
                engine
                    .compile(arch, &p.graph)
                    .map_err(|e| format!("{} {} {}: {e}", p.name, arch.name(), engine.name()))
            };
            cases.push(Case {
                fused: compile(Engine::SpaceFusion)?,
                unfused: compile(Engine::PyTorch)?,
                first: None,
            });
        }
    }
    Ok(State { set, cases })
}

/// The oracle: the host-sized programs as compiled for every arch,
/// executed and compared with the reference interpreter. After the
/// rounds, as on `compile_cold`: the timed op never executes, and the
/// oracle's buffers should not shape the heap it runs in.
fn check_outputs(cfg: &RunCfg, state: &State) -> Result<(), String> {
    for (i, p) in state.set[..PROFILE_HOST_SIZED].iter().enumerate() {
        let bindings = p.graph.random_bindings(cfg.seed);
        let want = oracle::reference(&p.name, &p.graph, &bindings)?;
        for (arch, case) in Arch::all().iter().zip(&state.cases[i * 3..]) {
            let label = format!("{} {}", p.name, arch.name());
            let got = case
                .fused
                .execute_with(&bindings, &ExecOptions::default())
                .map_err(|e| format!("{label}: {e}"))?;
            oracle::check(&label, &got, &want, oracle::tolerance(&p.graph))?;
        }
    }
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Measured, String> {
    let rows: Vec<Row> = PROFILE_SET
        .iter()
        .flat_map(|f| Arch::all().map(|arch| Row::new(format!("{} {}", f.name, arch.name()), true)))
        .collect();
    let n_rows = rows.len();
    let mut rec = Recorder::new(rows);
    let mut order: Vec<usize> = (0..n_rows).collect();
    shuffle(&mut order, FROZEN_ORDER);

    let (state, mut rounds) = drive(
        cfg,
        &mut rec,
        setup,
        |state, rec| {
            let start = Instant::now();
            for &row in &order {
                let case = &mut state.cases[row];
                let pair = rec.op("gpu_sim.profile", row, || {
                    [case.fused.profile(REPLAY), case.unfused.profile(REPLAY)]
                });
                let got = [exact(&pair[0]), exact(&pair[1])];
                if *case.first.get_or_insert(got) != got {
                    rec.fail(format!(
                        "{}: simulated counters changed",
                        rec.rows[row].name
                    ));
                }
            }
            Ok(start.elapsed().as_secs_f64())
        },
        |_| Ok(()),
    )?;

    check_outputs(cfg, &state)?;
    let firsts: Vec<[Exact; 2]> = state.cases.iter().filter_map(|c| c.first).collect();
    let pairs: Vec<(f64, f64)> = firsts
        .iter()
        .map(|f| (f64::from_bits(f[0].0), f64::from_bits(f[1].0)))
        .collect();
    let mut values = BTreeMap::new();
    if cfg.trace {
        let fused_sum = |pick: fn(&Exact) -> u64| firsts.iter().map(|f| pick(&f[0])).sum::<u64>();
        values.insert("gpu_sim.l1_accesses", fused_sum(|e| e.1) as f64);
        values.insert("gpu_sim.l1_misses", fused_sum(|e| e.2) as f64);
        values.insert("gpu_sim.l2_misses", fused_sum(|e| e.3) as f64);
        values.insert("gpu_sim.dram_bytes", fused_sum(|e| e.4) as f64);
        let launches: usize = state.cases.iter().map(|c| c.fused.kernels.len()).sum();
        values.insert("gpu_sim.kernel_launches", launches as f64);
        probes::ir(&mut rec, &state.set, PROFILE_HOST_SIZED, cfg.seed, false);
        probes::tensor(&mut rec);
        let (accesses, secs) = replay_traces(&mut rec, &state.cases);
        values.insert("gpu_sim.accesses_per_s", accesses as f64 / secs);
    }
    drop(state);
    rounds.more_setups(cfg, setup, |_| Ok(()))?;
    Ok(Measured {
        rec,
        rounds,
        ops_per_round: n_rows,
        sim: SimClock::from_pairs(&pairs),
        exec_threads: 1,
        layer_values: values,
    })
}

/// Replays what `profile` does, from outside, so that the
/// `trace_kernel` calls are timed on their own: buffer allocation, then
/// one `codegen.trace_kernel` span per kernel. Returns the L1 accesses
/// actually simulated and the seconds the spans took.
fn replay_traces(rec: &mut Recorder, cases: &[Case]) -> (u64, f64) {
    let (mut accesses, mut ns) = (0u64, 0u64);
    for (row, case) in cases.iter().enumerate() {
        let op = rec.open("gpu_sim.replay", row);
        for program in [&case.fused, &case.unfused] {
            let mut profiler = Profiler::new(&program.arch);
            let mut bufs = HashMap::new();
            for k in &program.kernels {
                for v in k.graph.values() {
                    let global = matches!(v.kind, ValueKind::Input | ValueKind::Weight)
                        || k.graph
                            .outputs()
                            .iter()
                            .any(|&o| k.graph.value(o).name == v.name);
                    if global && !bufs.contains_key(&v.name) {
                        let bytes =
                            (v.shape.volume() * v.dtype.size_bytes() * program.instances) as u64;
                        bufs.insert(v.name.clone(), profiler.alloc(bytes));
                    }
                }
            }
            let replay = REPLAY.clamp(1, program.instances);
            for k in &program.kernels {
                rec.stage(op, "codegen.trace_kernel", || {
                    trace_kernel(k, &mut profiler, &bufs, replay, program.instances as u64)
                });
                let s = &rec.spans[rec.spans.len() - 1];
                ns += s.end_ns - s.start_ns;
            }
            accesses += black_box(profiler.stats()).l1_accesses;
        }
        rec.close(op);
    }
    (accesses, ns as f64 / 1e9)
}
