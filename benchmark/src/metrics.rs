//! The metric registry (mirrored by `BENCHMARK.json`; a unit test holds
//! the two together) and the per-run report.

use crate::harness::{Recorder, Rounds, RunCfg};
use crate::stats;
use crate::workloads::PASS_SPANS;
use spacefusion::serve::json::Json;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("op_us_geomean", "us", false, 0.25),
    e2e("latency_p50_us", "us", false, 0.25),
    e2e("latency_p99_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("sim_us_geomean", "us_sim", false, 0.001),
    e2e("sim_speedup_geomean", "ratio", true, 0.001),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// A per-layer metric. `exact` marks counts that must repeat bit for bit
/// between two runs of one build.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `better` in `BENCHMARK.json`; only the mirror test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
    pub exact: bool,
}

const fn us(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        higher_is_better: false,
        exact: false,
    }
}

const fn count(name: &'static str, higher_is_better: bool, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        higher_is_better,
        exact,
    }
}

const fn other(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    exact: bool,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        exact,
    }
}

/// Every per-layer metric, in layer order. A metric reads 0 on a
/// workload whose timed ops never enter its layer (README, "Per-layer
/// metrics").
pub const PER_LAYER: &[PerLayer] = &[
    // ir
    us("ir.parse_us"),
    us("ir.print_us"),
    us("ir.shape_key_us"),
    us("ir.random_bindings_us"),
    us("ir.reference_exec_us"),
    // tensor
    count("tensor.allocations_per_exec", false, true),
    count("tensor.pool_hits", true, false),
    count("tensor.pool_misses", false, false),
    other("tensor.pool_reuse_ratio", "ratio", true, false),
    us("tensor.matmul_us"),
    us("tensor.reduce_us"),
    us("tensor.binary_us"),
    // compile side: timings
    us("pipeline.compile_us"),
    us("pipeline.segment_us"),
    us("pipeline.group_us"),
    us("pipeline.cache_lookup_us"),
    us("pipeline.unattributed_us"),
    us("smg.build_us"),
    us("slicer.spatial_us"),
    us("slicer.temporal_us"),
    us("sched.enum_cfg_us"),
    us("sched.partition_us"),
    us("tune.tune_us"),
    us("codegen.emit_us"),
    us("codegen.kernel_new_us"),
    us("codegen.lower_instructions_us"),
    us("codegen.estimate_cost_us"),
    us("verify.verify_us"),
    // compile side: counts per round
    count("sched.configs_generated", false, true),
    count("sched.partition_rounds", false, true),
    count("tune.evaluated", false, true),
    count("tune.pruned", true, true),
    count("tune.split_k_chosen", true, true),
    count("pipeline.kernels_emitted", false, true),
    count("pipeline.degradations", false, true),
    count("pipeline.lockfree_fallbacks", false, true),
    count("pipeline.schedule_hits", true, true),
    count("pipeline.schedule_misses", false, true),
    count("codegen.instr_count", false, true),
    count("verify.errors", false, true),
    count("verify.warnings", false, true),
    // executor and tracer
    us("codegen.exec_kernel_us"),
    us("codegen.bindings_clone_us"),
    other("codegen.exec_over_reference", "ratio", false, false),
    us("codegen.split_rows_us"),
    count("codegen.dispatches", false, false),
    count("codegen.serial_runs", false, false),
    count("codegen.race_fallbacks", false, false),
    count("codegen.pool_workers", true, false),
    other("codegen.parallel_speedup", "ratio", true, false),
    us("codegen.trace_kernel_us"),
    // gpu_sim
    us("gpu_sim.profile_us"),
    other("gpu_sim.accesses_per_s", "1/s", true, false),
    count("gpu_sim.l1_accesses", false, true),
    count("gpu_sim.l1_misses", false, true),
    count("gpu_sim.l2_misses", false, true),
    other("gpu_sim.dram_bytes", "B", false, true),
    count("gpu_sim.kernel_launches", false, true),
    // baselines
    other("baselines.unfused_sim_us_geomean", "us_sim", false, true),
    // serve: one request, stage by stage
    us("serve.frame_encode_us"),
    us("serve.frame_decode_us"),
    us("serve.response_encode_us"),
    us("serve.response_decode_us"),
    us("serve.bucket_key_us"),
    us("serve.checksum_us"),
    us("serve.exec_us"),
    us("serve.submit_inproc_us"),
    us("serve.roundtrip_us"),
    us("serve.stage_sum_us"),
    us("serve.handoff_us"),
    // serve: daemon counters per traced round
    count("serve.program_hits", true, true),
    count("serve.program_compiles", false, true),
    other("serve.hit_ratio", "ratio", true, true),
    count("serve.schedule_hits", true, false),
    count("serve.schedule_misses", false, false),
    count("serve.sheds", false, true),
    count("serve.client_retries", false, true),
    count("serve.errors", false, true),
    count("serve.sessions_reaped", false, true),
    count("serve.sessions_crashed", false, true),
    count("serve.frames_rejected", false, true),
    other("serve.rss_kib_per_bucket", "KiB", false, false),
    // the harness itself
    other("bench.trace_overhead_ratio", "ratio", false, false),
    count("bench.host_cores", true, false),
    count("bench.exec_threads", true, false),
];

/// The simulated clock of one workload's program set. Exact: it depends
/// only on the schedules the compiler chose.
#[derive(Clone, Copy)]
pub struct SimClock {
    /// Geomean over (program × arch) of SpaceFusion-policy simulated µs.
    pub fused_us_geomean: f64,
    /// Geomean of unfused simulated µs over the same set.
    pub unfused_us_geomean: f64,
    /// Geomean of the per-(program × arch) unfused ÷ fused ratios.
    pub speedup_geomean: f64,
}

impl SimClock {
    /// From `(fused µs, unfused µs)` pairs.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> SimClock {
        let col =
            |f: fn(&(f64, f64)) -> f64| stats::geomean(&pairs.iter().map(f).collect::<Vec<_>>());
        SimClock {
            fused_us_geomean: col(|p| p.0),
            unfused_us_geomean: col(|p| p.1),
            speedup_geomean: col(|p| p.1 / p.0),
        }
    }
}

/// What one workload hands back to `main`.
pub struct Measured {
    pub rec: Recorder,
    pub rounds: Rounds,
    pub ops_per_round: usize,
    pub sim: SimClock,
    pub exec_threads: usize,
    /// Trace mode: counters and probe results that are not span sums.
    pub layer_values: BTreeMap<&'static str, f64>,
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A reported metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced run, in registry order, plus
/// human-readable notes on sample support.
pub fn end_to_end(m: &Measured) -> (Vec<Metric>, Vec<String>) {
    let mut notes = Vec::new();
    let headline: Vec<f64> = m
        .rec
        .rows
        .iter()
        .filter(|r| r.headline && !r.lat_us.is_empty())
        .map(|r| stats::median(&r.lat_us))
        .collect();
    let pooled = stats::sorted(
        m.rec
            .rows
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect(),
    );
    // A tail with fewer than ten samples beyond it is still printed (the
    // contract wants a number on every workload) but flagged.
    let (p99, tail) = match stats::percentile_sorted(&pooled, 99.0) {
        Some(p99) => (p99, ""),
        None if pooled.is_empty() => (f64::NAN, ""),
        None => (
            stats::nearest_rank(&pooled, 99.0).0,
            "; thin tail: read latency_p99_us as the slowest ops, not a percentile",
        ),
    };
    notes.push(format!(
        "samples: {} timed ops in {} rounds of {}; {} headline rows{tail}",
        pooled.len(),
        m.rounds.round_s.len(),
        m.ops_per_round,
        headline.len(),
    ));
    if !m.rounds.peak_is_per_round {
        notes.push(
            "VmHWM could not be restarted: peak_rss_mb is the resident set at the end of a round"
                .into(),
        );
    }
    let values = [
        stats::median(&m.rounds.setup_secs),
        stats::median_round_throughput(m.ops_per_round, &m.rounds.round_s),
        stats::geomean(&headline),
        stats::median_sorted(&pooled),
        p99,
        m.rounds
            .peak_kib
            .iter()
            .min()
            .map_or(f64::NAN, |&k| k as f64)
            / 1024.0,
        m.sim.fused_us_geomean,
        m.sim.speedup_geomean,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();
    (metrics, notes)
}

/// Stages of a replayed serve request (the compile is added when the
/// request misses).
const REQUEST_STAGES: [&str; 9] = [
    "serve.frame_encode",
    "serve.frame_decode",
    "ir.parse",
    "serve.bucket_key",
    "ir.random_bindings",
    "serve.exec",
    "serve.checksum",
    "serve.response_encode",
    "serve.response_decode",
];

/// The per-layer metrics of a traced run, in registry order. Timings
/// come from the span table; sums and remainders are formed from the
/// table's own entries, so `compile = Σ passes + unattributed` and
/// `roundtrip = stage_sum + handoff` hold exactly.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let spans = m.rec.layer_us();
    let span = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let mut values = m.layer_values.clone();
    values.insert("bench.trace_overhead_ratio", m.rec.trace_overhead_ratio());
    values.insert("bench.host_cores", host_cores() as f64);
    values.insert("bench.exec_threads", m.exec_threads as f64);
    values.insert("baselines.unfused_sim_us_geomean", m.sim.unfused_us_geomean);

    // A compile span's self time is what no pass event accounts for;
    // with the pass spans it adds up to the compile.
    let passes: f64 = PASS_SPANS.iter().map(|(_, name)| span(name)).sum();
    let compile = span("pipeline.compile") + passes;
    values.insert("pipeline.unattributed_us", span("pipeline.compile"));
    values.insert("pipeline.compile_us", compile);
    if spans.contains_key("serve.roundtrip") {
        let stage_sum = compile + REQUEST_STAGES.iter().map(|n| span(n)).sum::<f64>();
        values.insert("serve.stage_sum_us", stage_sum);
        values.insert("serve.handoff_us", span("serve.roundtrip") - stage_sum);
    }
    if span("ir.reference_exec") > 0.0 && span("codegen.exec_kernel") > 0.0 {
        values.insert(
            "codegen.exec_over_reference",
            span("codegen.exec_kernel") / span("ir.reference_exec"),
        );
    }
    if span("codegen.exec_kernel_1t") > 0.0 {
        values.insert(
            "codegen.parallel_speedup",
            span("codegen.exec_kernel_1t") / span("codegen.exec_kernel"),
        );
    }
    PER_LAYER
        .iter()
        .map(|l| {
            let span_name = l.name.strip_suffix("_us").unwrap_or(l.name);
            let value = values
                .get(l.name)
                .copied()
                .unwrap_or_else(|| span(span_name));
            (l.name, value, l.unit)
        })
        .collect()
}

/// One run's result: the contract line plus the stamped report file.
pub struct Report {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In registry order.
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// `(row, samples, median µs)`.
    pub rows: Vec<(String, usize, f64)>,
    /// Timed seconds of every untraced round, in order.
    pub round_secs: Vec<f64>,
    /// Peak resident set of every untraced round, KiB.
    pub round_peak_kib: Vec<u64>,
}

impl Report {
    /// The driver's contract: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The report file: the contract fields plus provenance stamps and
    /// per-row sample counts.
    pub fn stamped_json(&self, cfg: &RunCfg, exec_threads: usize) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|(name, n, med)| {
                Json::obj(vec![
                    ("row", Json::Str(name.clone())),
                    ("samples", Json::Num(*n as f64)),
                    ("median_us", Json::Num(*med)),
                ])
            })
            .collect();
        let Json::Obj(mut doc) = self.contract_json() else {
            unreachable!("contract_json builds an object")
        };
        let git_rev = std::env::var("SFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
        for (key, value) in [
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("trace", Json::Bool(cfg.trace)),
            ("quick", Json::Bool(cfg.quick)),
            ("host_cores", Json::Num(host_cores() as f64)),
            ("exec_threads", Json::Num(exec_threads as f64)),
            ("git_rev", Json::Str(git_rev)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("rows", Json::Arr(rows)),
            (
                "round_secs",
                Json::Arr(self.round_secs.iter().map(|&s| Json::Num(s)).collect()),
            ),
            (
                "round_peak_kib",
                Json::Arr(
                    self.round_peak_kib
                        .iter()
                        .map(|&k| Json::Num(k as f64))
                        .collect(),
                ),
            ),
        ] {
            doc.insert(key.to_string(), value);
        }
        Json::Obj(doc)
    }

    /// Every metric by name with its unit, then the notes.
    pub fn print_table(&self) {
        println!("== {} ==", self.workload);
        for &(name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.4} {unit}");
        }
        println!(
            "{:<36} {:>16} of {} ops",
            "failed", self.failed, self.attempted
        );
        for note in &self.notes {
            println!("  {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacefusion::serve::json::parse;

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the binary prints. They must name the same metrics.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.higher_is_better)))
            .collect();
        assert_eq!(names("end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.higher_is_better)))
            .collect();
        assert_eq!(names("per_layer"), want);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn registry_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
