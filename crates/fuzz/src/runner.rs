//! The fuzz campaign driver behind `sfc fuzz`.
//!
//! Iterates seeds, runs generator → oracle per seed, optionally
//! shrinks failures and writes them to the corpus directory, and
//! produces a deterministic text report (no wall-clock content — two
//! runs with the same flags yield byte-identical reports; durations
//! go only to the event sink).

use crate::corpus;
use crate::gen::{generate, GenConfig, GraphSpec};
use crate::oracle::{run_oracle, Failure, FailureKind, OracleOptions, OracleReport, POLICIES};
use crate::shrink::shrink;
use sf_gpu_sim::Arch;
use spacefusion::pipeline::{EventDetail, EventSink, PassEvent, PassId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Predicate-evaluation budget per shrink run (each evaluation
/// compiles the candidate under all policies).
const SHRINK_ATTEMPTS: usize = 400;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of seeds to run.
    pub seeds: u64,
    /// First seed (the campaign covers `seed0..seed0 + seeds`).
    pub seed0: u64,
    /// Shrink failures and write minimized repros to `corpus_dir`.
    pub minimize: bool,
    /// Target architecture.
    pub arch: Arch,
    /// Where minimized repros are written (when `minimize`).
    pub corpus_dir: Option<PathBuf>,
    /// Fault plans injected per seed (`0` disables fault injection).
    /// Each plan recompiles and re-executes the graph under seeded
    /// faults and asserts the degraded result still matches the
    /// unfused reference bitwise (see [`crate::faultsim`]).
    pub faults: usize,
    /// Generator configuration.
    pub gen: GenConfig,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seeds: 50,
            seed0: 0,
            minimize: false,
            arch: Arch::Ampere,
            corpus_dir: None,
            faults: 0,
            gen: GenConfig::default(),
        }
    }
}

/// One failing seed.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The failing recipe.
    pub spec: GraphSpec,
    /// Oracle report of the original (unshrunk) graph.
    pub report: OracleReport,
    /// Minimized recipe, when `minimize` was on and shrinking worked.
    pub minimized: Option<GraphSpec>,
    /// Corpus path the minimized repro was written to.
    pub corpus_path: Option<PathBuf>,
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds run.
    pub seeds: u64,
    /// First seed.
    pub seed0: u64,
    /// Architecture fuzzed.
    pub arch: Arch,
    /// Successful compilations across all seeds.
    pub compiles: usize,
    /// Successful executions across all seeds.
    pub executions: usize,
    /// Total operators generated across all seeds.
    pub ops: usize,
    /// The failing seeds, in order.
    pub failures: Vec<SeedFailure>,
}

impl FuzzReport {
    /// Whether the whole campaign was clean.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: seeds {}..{} ({}), arch {:?}, {} policies, threads [1, 2, max]",
            self.seed0,
            self.seed0 + self.seeds,
            self.seeds,
            self.arch,
            POLICIES.len()
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "seed {}: {} failure(s)",
                f.spec.seed,
                f.report.failures.len()
            );
            for fail in &f.report.failures {
                let _ = writeln!(out, "  {}", fail.render());
            }
            if let Some(min) = &f.minimized {
                let ops = min.build().map(|g| g.ops().len()).unwrap_or(0);
                match &f.corpus_path {
                    Some(p) => {
                        let _ = writeln!(out, "  minimized to {} op(s): {}", ops, p.display());
                    }
                    None => {
                        let _ = writeln!(out, "  minimized to {} op(s)", ops);
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "fuzz: {} seed(s), {} op(s), {} compile(s), {} execution(s), {} failing seed(s)",
            self.seeds,
            self.ops,
            self.compiles,
            self.executions,
            self.failures.len()
        );
        out
    }
}

/// Runs a fuzzing campaign, emitting one [`PassId::Fuzz`] event per
/// seed to `sink`.
pub fn run_fuzz(opts: &FuzzOptions, sink: &dyn EventSink) -> FuzzReport {
    let mut report = FuzzReport {
        seeds: opts.seeds,
        seed0: opts.seed0,
        arch: opts.arch,
        compiles: 0,
        executions: 0,
        ops: 0,
        failures: Vec::new(),
    };
    let oracle_opts = |seed: u64| OracleOptions {
        arch: opts.arch,
        binding_seed: seed,
        ..Default::default()
    };
    for seed in opts.seed0..opts.seed0.saturating_add(opts.seeds) {
        let start = Instant::now();
        let spec = generate(seed, &opts.gen);
        let oopts = oracle_opts(seed);
        let built = spec.build();
        let (ops, mut seed_report) = match &built {
            Ok(graph) => {
                let ops = graph.ops().len();
                let r = match graph.validate() {
                    Ok(()) => run_oracle(graph, &oopts),
                    Err(e) => OracleReport {
                        failures: vec![Failure::new(
                            FailureKind::Reference,
                            format!("generated graph is invalid: {e}"),
                        )],
                        ..Default::default()
                    },
                };
                (ops, r)
            }
            Err(e) => (
                0,
                OracleReport {
                    failures: vec![Failure::new(
                        FailureKind::Reference,
                        format!("spec failed to build: {e}"),
                    )],
                    ..Default::default()
                },
            ),
        };
        if opts.faults > 0 {
            if let Ok(graph) = &built {
                if graph.validate().is_ok() {
                    seed_report
                        .failures
                        .extend(crate::faultsim::run_fault_plans(
                            graph,
                            seed,
                            opts.faults,
                            opts.arch,
                        ));
                }
            }
        }
        report.compiles += seed_report.compiles;
        report.executions += seed_report.executions;
        report.ops += ops;

        let failed = !seed_report.ok();
        sink.record(PassEvent {
            pass: PassId::Fuzz,
            segment: 0,
            unit: format!("fz{seed}"),
            duration_us: start.elapsed().as_secs_f64() * 1e6,
            detail: EventDetail::Fuzz {
                seed,
                ops,
                failures: seed_report.failures.len(),
            },
        });
        if !failed {
            continue;
        }

        let mut failure = SeedFailure {
            spec: spec.clone(),
            report: seed_report,
            minimized: None,
            corpus_path: None,
        };
        if opts.minimize {
            let oopts = oracle_opts(seed);
            let res = shrink(&spec, |g| !run_oracle(g, &oopts).ok(), SHRINK_ATTEMPTS);
            let min_graph = res.spec.build().ok();
            if let Some(g) = min_graph {
                let min_report = run_oracle(&g, &oopts);
                if !min_report.ok() {
                    if let Some(dir) = &opts.corpus_dir {
                        let text = corpus::render_entry(&res.spec, &min_report);
                        if let Ok(p) = corpus::write_entry(dir, &format!("min_seed{seed}"), &text) {
                            failure.corpus_path = Some(p);
                        }
                    }
                    failure.minimized = Some(res.spec);
                }
            }
        }
        report.failures.push(failure);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacefusion::pipeline::{CollectingSink, NullSink};

    #[test]
    fn campaign_report_is_deterministic() {
        let opts = FuzzOptions {
            seeds: 8,
            seed0: 42,
            ..Default::default()
        };
        let a = run_fuzz(&opts, &NullSink);
        let b = run_fuzz(&opts, &NullSink);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.compiles, b.compiles);
        assert_eq!(a.executions, b.executions);
    }

    #[test]
    fn one_event_per_seed_reaches_the_sink() {
        let sink = CollectingSink::default();
        let opts = FuzzOptions {
            seeds: 5,
            seed0: 7,
            ..Default::default()
        };
        run_fuzz(&opts, &sink);
        let events = sink.events();
        let fuzz_events: Vec<_> = events.iter().filter(|e| e.pass == PassId::Fuzz).collect();
        assert_eq!(fuzz_events.len(), 5);
        for (i, e) in fuzz_events.iter().enumerate() {
            match e.detail {
                EventDetail::Fuzz { seed, ops, .. } => {
                    assert_eq!(seed, 7 + i as u64);
                    assert!(ops > 0);
                }
                _ => panic!("wrong detail {:?}", e.detail),
            }
        }
    }

    #[test]
    fn report_counts_are_consistent() {
        let opts = FuzzOptions {
            seeds: 6,
            seed0: 0,
            ..Default::default()
        };
        let r = run_fuzz(&opts, &NullSink);
        assert_eq!(r.seeds, 6);
        // Clean seeds contribute 5 compiles and 15 executions each.
        assert!(r.compiles <= 6 * POLICIES.len());
        assert!(r.executions <= 6 * POLICIES.len() * 3);
        let rendered = r.render();
        assert!(rendered.starts_with("fuzz: seeds 0..6 (6)"));
        assert!(rendered.contains("failing seed(s)"));
    }
}
