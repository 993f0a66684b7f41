//! Fault-injection sweeps: the driver behind `sfc faultsim` and the
//! `--faults` mode of `sfc fuzz`.
//!
//! For every generated graph the sweep first computes the unfused
//! reference output (`Graph::execute`), then replays the graph under K
//! deterministic [`FaultPlan`]s. Each plan arms injected panics, cache
//! poisoning, forced resource infeasibility, worker crashes, and
//! deadline expiries inside a fresh `CompileSession`; the graph is
//! compiled **twice** per plan (the second compilation revisits —  and
//! must recover from — any poisoned cache entry the first one
//! published) and then executed with `execute_resilient`, which falls
//! back to the reference interpreter for any kernel whose workers
//! crash.
//!
//! The resilience contract under test: every injected fault either
//! recovers transparently or degrades to a recorded rung whose output
//! is **bit-identical** to the unfused reference
//! ([`Tolerance::exact`]). A compile abort, an execute abort, a hang,
//! or any numeric difference is a [`FailureKind::Fault`] failure.

use crate::gen::{generate, GenConfig};
use crate::oracle::{Failure, FailureKind};
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::{compare_tensors, Tensor, Tolerance};
use spacefusion::codegen::ExecOptions;
use spacefusion::pipeline::{
    CompileOptions, CompileSession, EventDetail, EventSink, PassEvent, PassId,
};
use spacefusion::resilience::{silence_injected_panics, FaultInjector, FaultPlan};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct FaultSimOptions {
    /// Number of graph seeds to sweep.
    pub seeds: u64,
    /// First graph seed (the sweep covers `seed0..seed0 + seeds`).
    pub seed0: u64,
    /// Fault plans injected per graph seed.
    pub plans: usize,
    /// Target architecture.
    pub arch: Arch,
    /// Generator configuration.
    pub gen: GenConfig,
}

impl Default for FaultSimOptions {
    fn default() -> Self {
        FaultSimOptions {
            seeds: 25,
            seed0: 0,
            plans: 2,
            arch: Arch::Ampere,
            gen: GenConfig::default(),
        }
    }
}

/// Derives the fault-plan seed for plan `k` of graph seed `seed`.
/// Deterministic and collision-free across a sweep, and it walks the
/// plan-seed space densely so [`FaultPlan::from_seed`]'s kind cycling
/// covers all five fault kinds within a handful of plans.
pub fn plan_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(7).wrapping_add(k as u64)
}

/// Outcome of one fault plan against one graph.
#[derive(Debug, Clone, Default)]
pub struct PlanOutcome {
    /// Graph seed.
    pub seed: u64,
    /// Fault-plan seed ([`FaultPlan::from_seed`]).
    pub plan_seed: u64,
    /// `"kind stage at site"` lines for faults that actually fired.
    pub fired: Vec<String>,
    /// Rendered degradation steps across both compilations and the
    /// resilient execution, in order.
    pub degraded: Vec<String>,
    /// Hard failures: aborts and bitwise divergence from the unfused
    /// reference.
    pub failures: Vec<Failure>,
}

/// Outcome of a whole sweep.
#[derive(Debug, Clone)]
pub struct FaultSimReport {
    /// Graph seeds swept.
    pub seeds: u64,
    /// First graph seed.
    pub seed0: u64,
    /// Fault plans per seed.
    pub plans_per_seed: usize,
    /// Architecture targeted.
    pub arch: Arch,
    /// One outcome per (seed, plan), in order.
    pub outcomes: Vec<PlanOutcome>,
}

impl FaultSimReport {
    /// Whether every injected fault recovered or degraded bit-exactly.
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.failures.is_empty())
    }

    /// Total faults fired across the sweep.
    pub fn fired(&self) -> usize {
        self.outcomes.iter().map(|o| o.fired.len()).sum()
    }

    /// Total degradation steps recorded across the sweep.
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().map(|o| o.degraded.len()).sum()
    }

    /// Total hard failures across the sweep.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().map(|o| o.failures.len()).sum()
    }

    /// Deterministic text report (no wall-clock content).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "faultsim: seeds {}..{} ({}), arch {:?}, {} plan(s)/seed",
            self.seed0,
            self.seed0 + self.seeds,
            self.seeds,
            self.arch,
            self.plans_per_seed
        );
        for o in &self.outcomes {
            if o.fired.is_empty() && o.failures.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "seed {} plan {}: {} fired, {} degraded, {} failure(s)",
                o.seed,
                o.plan_seed,
                o.fired.len(),
                o.degraded.len(),
                o.failures.len()
            );
            for f in &o.fired {
                let _ = writeln!(out, "  fault: {f}");
            }
            for d in &o.degraded {
                let _ = writeln!(out, "  degraded {d}");
            }
            for f in &o.failures {
                let _ = writeln!(out, "  {}", f.render());
            }
        }
        let _ = writeln!(
            out,
            "faultsim: {} plan(s), {} fault(s) fired, {} degradation(s), {} failure(s), 0 abort(s)",
            self.outcomes.len(),
            self.fired(),
            self.degraded(),
            self.failures()
        );
        out
    }
}

/// Runs one fault plan against `graph`, comparing every output against
/// the precomputed `reference` bitwise.
fn run_plan(
    graph: &Graph,
    bindings: &HashMap<String, Tensor>,
    reference: &[Tensor],
    seed: u64,
    plan_seed: u64,
    arch: Arch,
) -> PlanOutcome {
    let injector = Arc::new(FaultInjector::new(FaultPlan::from_seed(plan_seed)));
    // Split-K re-associates sliced reductions (deterministic across
    // thread counts, but off the reference's serial association by
    // rounding), so the bit-exact-vs-reference contract checked below
    // requires split-free schedules.
    let opts = CompileOptions {
        slicing: spacefusion::sched::SlicingOptions {
            enable_split: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let session = CompileSession::new(arch, opts)
        .with_workers(1)
        .with_faults(injector.clone());
    let mut outcome = PlanOutcome {
        seed,
        plan_seed,
        ..Default::default()
    };
    let fault_failure = |detail: String| Failure::new(FailureKind::Fault, detail);

    // Compile twice in one session: round 0 trips schedule-stage
    // faults and may publish a poisoned cache entry; round 1 must
    // detect the poison on hit, invalidate, and recompute.
    let mut program = None;
    for round in 0..2 {
        match session.compile(graph) {
            Ok(p) => {
                outcome
                    .degraded
                    .extend(p.stats.degradations.iter().map(|s| s.render()));
                program = Some(p);
            }
            Err(e) => outcome
                .failures
                .push(fault_failure(format!("compile round {round} aborted: {e}"))),
        }
    }

    if let Some(p) = &program {
        match p.execute_resilient(bindings, &ExecOptions::with_threads(2), Some(&injector)) {
            Ok((outputs, exec_report)) => {
                outcome
                    .degraded
                    .extend(exec_report.steps.iter().map(|s| s.render()));
                for (i, (got, want)) in outputs.iter().zip(reference.iter()).enumerate() {
                    if let Err(m) = compare_tensors(got, want, Tolerance::exact()) {
                        outcome.failures.push(fault_failure(format!(
                            "output {i} of '{}' diverges from unfused reference: {m:?}",
                            graph.name()
                        )));
                    }
                }
            }
            Err(e) => outcome
                .failures
                .push(fault_failure(format!("execution aborted: {e}"))),
        }
    }
    outcome.fired = injector.fired();
    outcome
}

/// The per-graph sweep: computes the unfused reference once, then runs
/// plans `0..plans` against it, returning each outcome with its wall time
/// in µs. `Err` is a failed reference execution.
fn sweep_graph(
    graph: &Graph,
    seed: u64,
    plans: usize,
    arch: Arch,
) -> Result<Vec<(PlanOutcome, f64)>, Failure> {
    let bindings = graph.random_bindings(seed);
    let reference = graph.execute(&bindings).map_err(|e| {
        Failure::new(
            FailureKind::Reference,
            format!("reference execution failed: {e}"),
        )
    })?;
    Ok((0..plans)
        .map(|k| {
            let start = Instant::now();
            let outcome = run_plan(graph, &bindings, &reference, seed, plan_seed(seed, k), arch);
            (outcome, start.elapsed().as_secs_f64() * 1e6)
        })
        .collect())
}

/// Runs `plans` fault plans against one prebuilt graph, returning only
/// the hard failures. This is the hook `sfc fuzz --faults` uses to add
/// fault coverage to each oracle seed.
pub fn run_fault_plans(graph: &Graph, seed: u64, plans: usize, arch: Arch) -> Vec<Failure> {
    silence_injected_panics();
    match sweep_graph(graph, seed, plans, arch) {
        Ok(runs) => runs.into_iter().flat_map(|(o, _)| o.failures).collect(),
        Err(f) => vec![f],
    }
}

/// Runs a fault-injection sweep, emitting one [`PassId::FaultSim`]
/// event per (seed, plan) to `sink`.
pub fn run_faultsim(opts: &FaultSimOptions, sink: &dyn EventSink) -> FaultSimReport {
    silence_injected_panics();
    let mut report = FaultSimReport {
        seeds: opts.seeds,
        seed0: opts.seed0,
        plans_per_seed: opts.plans,
        arch: opts.arch,
        outcomes: Vec::new(),
    };
    for seed in opts.seed0..opts.seed0.saturating_add(opts.seeds) {
        let runs = generate(seed, &opts.gen)
            .build()
            .map_err(|e| Failure::new(FailureKind::Reference, format!("spec failed to build: {e}")))
            .and_then(|graph| sweep_graph(&graph, seed, opts.plans, opts.arch));
        let runs = match runs {
            Ok(runs) => runs,
            Err(f) => {
                report.outcomes.push(PlanOutcome {
                    seed,
                    failures: vec![f],
                    ..Default::default()
                });
                continue;
            }
        };
        for (k, (outcome, duration_us)) in runs.into_iter().enumerate() {
            sink.record(PassEvent {
                pass: PassId::FaultSim,
                segment: 0,
                unit: format!("fs{seed}p{k}"),
                duration_us,
                detail: EventDetail::FaultSim {
                    seed,
                    plan_seed: outcome.plan_seed,
                    fired: outcome.fired.len(),
                    degraded: outcome.degraded.len(),
                    failures: outcome.failures.len(),
                },
            });
            report.outcomes.push(outcome);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacefusion::pipeline::{CollectingSink, NullSink};

    #[test]
    fn sweep_recovers_from_every_injected_fault() {
        // 10 seeds x 2 plans covers all five fault kinds (the first
        // fault of plan_seed s is kind `s % 5`).
        let opts = FaultSimOptions {
            seeds: 10,
            plans: 2,
            ..Default::default()
        };
        let r = run_faultsim(&opts, &NullSink);
        assert_eq!(r.outcomes.len(), 20);
        assert!(r.ok(), "fault sweep must be clean:\n{}", r.render());
        assert!(r.fired() > 0, "faults must actually fire");
        let rendered = r.render();
        assert!(rendered.contains("0 abort(s)"));
    }

    #[test]
    fn sweep_report_is_deterministic() {
        let opts = FaultSimOptions {
            seeds: 6,
            seed0: 3,
            plans: 2,
            ..Default::default()
        };
        let a = run_faultsim(&opts, &NullSink);
        let b = run_faultsim(&opts, &NullSink);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.fired(), b.fired());
        assert_eq!(a.degraded(), b.degraded());
    }

    #[test]
    fn one_event_per_plan_reaches_the_sink() {
        let sink = CollectingSink::default();
        let opts = FaultSimOptions {
            seeds: 3,
            seed0: 11,
            plans: 2,
            ..Default::default()
        };
        run_faultsim(&opts, &sink);
        let events = sink.events();
        let fs: Vec<_> = events
            .iter()
            .filter(|e| e.pass == PassId::FaultSim)
            .collect();
        assert_eq!(fs.len(), 6);
        match &fs[0].detail {
            EventDetail::FaultSim {
                seed, plan_seed, ..
            } => {
                assert_eq!(*seed, 11);
                assert_eq!(*plan_seed, super::plan_seed(11, 0));
            }
            d => panic!("wrong detail {d:?}"),
        }
    }

    #[test]
    fn fault_plans_on_prebuilt_graph_are_clean() {
        let spec = generate(5, &GenConfig::default());
        let graph = spec.build().unwrap();
        let failures = run_fault_plans(&graph, 5, 3, Arch::Ampere);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
