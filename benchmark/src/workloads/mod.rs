//! The six workloads and the helpers they share.

pub mod compile_cold;
pub mod exec;
pub mod probes;
pub mod profile_sim;
pub mod serve;

use crate::harness::Recorder;
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use spacefusion::pipeline::{CollectingSink, EventDetail, PassEvent, PassId};
use spacefusion::{CompileOptions, CompileSession, CompiledProgram, FusionPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Compile options of the benchmark: the verifier always on, and
/// tile-graph fusion without UTA (as `Compiler::with_policy` sets it).
pub fn compile_options(policy: FusionPolicy) -> CompileOptions {
    let mut opts = CompileOptions {
        policy,
        verify: true,
        ..Default::default()
    };
    if policy == FusionPolicy::TileGraph {
        opts.slicing.enable_uta = false;
    }
    opts
}

/// A fresh session: cold schedule cache, and one worker so that pass
/// spans never overlap and no thread is spawned inside a timed compile.
pub fn cold_session(arch: Arch, policy: FusionPolicy) -> CompileSession {
    CompileSession::new(arch, compile_options(policy)).with_workers(1)
}

/// Span name of each pass that takes time inside a compile. Events of
/// other kinds (fuzz, faultsim, the zero-length degrade) become no span.
/// With the compile span's self time, these spans add up to the compile.
pub const PASS_SPANS: [(PassId, &str); 11] = [
    (PassId::Segment, "pipeline.segment"),
    (PassId::Group, "pipeline.group"),
    (PassId::CacheLookup, "pipeline.cache_lookup"),
    (PassId::SmgBuild, "smg.build"),
    (PassId::SpatialSlice, "slicer.spatial"),
    (PassId::TemporalSlice, "slicer.temporal"),
    (PassId::EnumCfg, "sched.enum_cfg"),
    (PassId::Partition, "sched.partition"),
    (PassId::Tune, "tune.tune"),
    (PassId::Emit, "codegen.emit"),
    (PassId::Verify, "verify.verify"),
];

/// Compile-side counts of one round, by per-layer metric name. They
/// depend only on the compiler's decisions, so every round must produce
/// the same table.
pub type Counts = BTreeMap<&'static str, u64>;

fn bump(counts: &mut Counts, name: &'static str, by: usize) {
    *counts.entry(name).or_insert(0) += by as u64;
}

fn count_events(counts: &mut Counts, events: &[PassEvent]) {
    for e in events {
        match e.detail {
            EventDetail::Candidates { generated } => {
                bump(counts, "sched.configs_generated", generated)
            }
            EventDetail::Partition { .. } => bump(counts, "sched.partition_rounds", 1),
            EventDetail::Tune {
                evaluated, pruned, ..
            } => {
                bump(counts, "tune.evaluated", evaluated);
                bump(counts, "tune.pruned", pruned);
            }
            EventDetail::Cache { hit, .. } => bump(
                counts,
                if hit {
                    "pipeline.schedule_hits"
                } else {
                    "pipeline.schedule_misses"
                },
                1,
            ),
            EventDetail::Verify { errors, warnings } => {
                bump(counts, "verify.errors", errors);
                bump(counts, "verify.warnings", warnings);
            }
            _ => {}
        }
    }
}

fn count_program(counts: &mut Counts, program: &CompiledProgram) {
    bump(counts, "pipeline.kernels_emitted", program.kernels.len());
    bump(
        counts,
        "pipeline.degradations",
        program.stats.degradations.len(),
    );
    bump(
        counts,
        "pipeline.lockfree_fallbacks",
        program.stats.lockfree_fallbacks.len(),
    );
    let split = program
        .kernels
        .iter()
        .filter(|k| {
            k.schedule
                .temporal
                .as_ref()
                .is_some_and(|t| t.split.is_some())
        })
        .count();
    bump(counts, "tune.split_k_chosen", split);
}

/// Where a traced compile hangs in the span tree.
pub enum Under {
    /// A timed op of its own, on this row.
    Op(usize),
    /// A stage of the probe op whose parent span this is.
    Stage(u32),
}

/// One traced compile (the recorder must be tracing): the attached
/// `CollectingSink` turns every `PassEvent` into a child span of the
/// `pipeline.compile` span and feeds `counts`.
pub fn traced_compile(
    rec: &mut Recorder,
    counts: &mut Counts,
    under: Under,
    session: CompileSession,
    graph: &Graph,
) -> spacefusion::Result<CompiledProgram> {
    let sink = Arc::new(CollectingSink::new());
    let session = session.with_sink(sink.clone());
    let result = match under {
        Under::Op(row) => rec.op("pipeline.compile", row, || session.compile(graph)),
        Under::Stage(parent) => rec.stage(parent, "pipeline.compile", || session.compile(graph)),
    };
    let span = rec.spans.len() as u32 - 1;
    let events = sink.take();
    let children: Vec<(&'static str, f64)> = events
        .iter()
        .filter_map(|e| {
            let (_, name) = PASS_SPANS.iter().find(|(pass, _)| *pass == e.pass)?;
            Some((*name, e.duration_us))
        })
        .collect();
    rec.children(span, &children);
    count_events(counts, &events);
    if let Ok(program) = &result {
        count_program(counts, program);
    }
    result
}

/// Inserts the count table into the per-layer values.
pub fn publish_counts(values: &mut BTreeMap<&'static str, f64>, counts: &Counts) {
    for (&name, &n) in counts {
        values.insert(name, n as f64);
    }
}
