//! The end-to-end compilation pipeline (paper Fig. 9).
//!
//! `Graph → segments → fusion groups → SMG → resource-aware slicing →
//! (partitioning) → auto-tuning → kernel programs`. A [`CompileSession`]
//! is the one way to compile: [`CompileSession::compile`] calls the
//! stages in order, each a plain function behind its own panic-isolation
//! boundary:
//!
//! * `passes` — the stages: segmentation, policy grouping, per-group
//!   scheduling (SMG build, slicing, enumeration, partitioning, tuning),
//!   kernel emission and static verification.
//! * [`cache`] — the thread-safe schedule cache, keyed by `(shape key,
//!   fusion policy, architecture)` and shared across compilations and
//!   threads. Repetitive subprograms are compiled once (paper §5).
//! * [`stats`] — structured instrumentation events ([`PassEvent`])
//!   delivered to a pluggable [`EventSink`], plus the per-compile
//!   [`CompileStats`] counters.
//!
//! Independent fusion groups are compiled concurrently on
//! `std::thread::scope` workers (see [`CompileSession::with_workers`]);
//! results are merged in deterministic group order, so parallel and
//! sequential compilation yield identical programs.
//!
//! The [`FusionPolicy`] knob restricts the pipeline's capabilities to
//! model the baseline systems of the evaluation (Table 2).

pub mod cache;
mod passes;
pub mod stats;

pub use cache::{CacheEntry, CacheKey, Claim, ClaimMap, ClaimTicket, SavedConfig, ScheduleCache};
pub use stats::{
    render_timings, CollectingSink, CompileStats, EventDetail, EventSink, NullSink, PassEvent,
    PassId,
};

use crate::codegen::{estimate_cost, trace_kernel, Env, ExecEngine, ExecOptions, KernelProgram};
use crate::error::{Result, SfError};
use crate::resilience::{panic_payload, Deadline, DegradationReport, FaultInjector, Rung};
use crate::sched::SlicingOptions;
use sf_gpu_sim::{Arch, GpuArch, KernelCost, Profiler, ProgramStats};
use sf_ir::{Graph, ValueKind};
use sf_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What the compiler is allowed to fuse — SpaceFusion itself plus the
/// restricted capability sets of the baseline systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionPolicy {
    /// Full SpaceFusion: SMG slicing, UTA, partitioning, tuning.
    SpaceFusion,
    /// One kernel per operator (PyTorch-eager / cuBLAS style).
    Unfused,
    /// GEMMs absorb their element-wise epilogues (cuBLASLt style).
    EpilogueOnly,
    /// Only memory-intensive operators fuse; GEMMs stay standalone
    /// (AStitch / BladeDISC style).
    MiOnly,
    /// Tile-graph fusion: full fusion scope but no intra-operator
    /// dependency transformation — UTA disabled (Welder / NNFusion
    /// style). Oversized fusions fall back to partitioning.
    TileGraph,
}

impl FusionPolicy {
    /// All policies, in presentation order.
    pub fn all() -> [FusionPolicy; 5] {
        [
            FusionPolicy::SpaceFusion,
            FusionPolicy::Unfused,
            FusionPolicy::EpilogueOnly,
            FusionPolicy::MiOnly,
            FusionPolicy::TileGraph,
        ]
    }

    /// Stable lowercase name, shared by the `sfc` flag vocabulary, the
    /// serve protocol, and the schedule-cache snapshot format.
    pub fn name(self) -> &'static str {
        match self {
            FusionPolicy::SpaceFusion => "spacefusion",
            FusionPolicy::Unfused => "unfused",
            FusionPolicy::EpilogueOnly => "epilogue",
            FusionPolicy::MiOnly => "mi-only",
            FusionPolicy::TileGraph => "tile-graph",
        }
    }

    /// Inverse of [`name`](FusionPolicy::name).
    pub fn parse(s: &str) -> Option<FusionPolicy> {
        FusionPolicy::all().into_iter().find(|p| p.name() == s)
    }
}

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Fusion capability set.
    pub policy: FusionPolicy,
    /// Slicing options (temporal/UTA toggles, fixed blocks for
    /// ablations).
    pub slicing: SlicingOptions,
    /// Whether to auto-tune block sizes. When disabled, the last
    /// (most-sliced) feasible candidate is used — the paper's
    /// expert-fixed-configuration ablation.
    pub autotune: bool,
    /// Early-quit proportion α (paper §6.5 uses 0.25).
    pub alpha: f64,
    /// Whether to run the static verifier ([`crate::verify`]) over the
    /// compiled kernels as a final pass. Defaults to on in debug builds
    /// (every test compile is checked) and off in release builds.
    pub verify: bool,
    /// Optional wall-clock budget for schedule exploration, in
    /// milliseconds. When the budget runs out, enumeration and tuning
    /// return best-so-far instead of searching further; expiry never
    /// fails a compilation on its own. `None` (the default) explores
    /// unbounded.
    pub schedule_budget_ms: Option<u64>,
    /// Whether a unit that fails to schedule or verify retries down the
    /// degradation ladder (current policy → Alg.-2 partitioned →
    /// per-op unfused; see [`crate::resilience::ladder`]) instead of
    /// failing the compilation. Each fall is recorded in
    /// [`CompileStats::degradations`] and as a
    /// [`PassId::Degrade`] event. On by default.
    pub resilient: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            policy: FusionPolicy::SpaceFusion,
            slicing: SlicingOptions::default(),
            autotune: true,
            alpha: 0.25,
            verify: cfg!(debug_assertions),
            schedule_budget_ms: None,
            resilient: true,
        }
    }
}

impl CompileOptions {
    /// Default options under a fusion policy: the one place where a
    /// policy's capability restrictions become option values.
    pub fn for_policy(policy: FusionPolicy) -> Self {
        let mut opts = CompileOptions {
            policy,
            ..Default::default()
        };
        if policy == FusionPolicy::TileGraph {
            // Welder-style tile graphs align tile shapes but cannot
            // rewrite reductions: UTA stays off.
            opts.slicing.enable_uta = false;
        }
        opts
    }
}

/// A compiled program: an ordered list of kernels over a shared tensor
/// environment.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Kernels in execution order.
    pub kernels: Vec<KernelProgram>,
    /// Dependency-free instance multiplier (batch × heads).
    pub instances: usize,
    /// Program outputs: the environment name that holds each value
    /// (layout barriers are resolved to their source) and the declared
    /// output shape it is viewed under.
    pub outputs: Vec<(String, sf_tensor::Shape)>,
    /// Architecture compiled for.
    pub arch: GpuArch,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// The execution engine every `execute*` call runs on (inherited
    /// from the compiling session; the process-shared engine by
    /// default), carrying the persistent worker pool and scratch
    /// arenas.
    engine: Arc<ExecEngine>,
}

/// Result of profiling a compiled program on the simulator.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Cache and DRAM counters.
    pub stats: ProgramStats,
    /// Per-kernel costs.
    pub kernels: Vec<KernelCost>,
    /// Simulated wall time, µs.
    pub time_us: f64,
}

impl CompiledProgram {
    /// Executes the program numerically over named bindings with
    /// default execution options.
    ///
    /// Returns the output tensors in the original graph's output order.
    pub fn execute(&self, bindings: &HashMap<String, Tensor>) -> Result<Vec<Tensor>> {
        self.execute_with(bindings, &ExecOptions::default())
    }

    /// Executes the program with explicit execution options (worker
    /// thread count for the spatial block loop).
    ///
    /// Results are bit-identical for every thread count.
    pub fn execute_with(
        &self,
        bindings: &HashMap<String, Tensor>,
        opts: &ExecOptions,
    ) -> Result<Vec<Tensor>> {
        let mut env = Env::new(bindings);
        for k in &self.kernels {
            self.engine.execute_kernel(k, &mut env, opts, None)?;
        }
        self.resolve_outputs(env)
    }

    /// The execution engine this program runs on.
    pub fn engine(&self) -> &Arc<ExecEngine> {
        &self.engine
    }

    /// Executes the program with per-kernel fault isolation: a kernel
    /// that fails (panicking worker, injected fault, internal error) is
    /// re-run on the reference interpreter over the same environment —
    /// the always-correct unfused path — and the fall is recorded in
    /// the returned [`DegradationReport`]. A failed kernel leaves the
    /// environment untouched (outputs are only published on success),
    /// so the fallback sees exactly the inputs the kernel saw.
    pub fn execute_resilient(
        &self,
        bindings: &HashMap<String, Tensor>,
        opts: &ExecOptions,
        faults: Option<&FaultInjector>,
    ) -> Result<(Vec<Tensor>, DegradationReport)> {
        let mut env = Env::new(bindings);
        let mut report = DegradationReport::default();
        for k in &self.kernels {
            if let Err(e) = self.engine.execute_kernel(k, &mut env, opts, faults) {
                reference_kernel(k, &mut env)?;
                report.record(k.name.clone(), Rung::Unfused, e.to_string());
            }
        }
        Ok((self.resolve_outputs(env)?, report))
    }

    /// Hands the program outputs out of a finished environment. A
    /// produced tensor is moved, not copied; only an output that is
    /// also a caller's binding, or is named again later in the list, is
    /// cloned.
    fn resolve_outputs(&self, mut env: Env) -> Result<Vec<Tensor>> {
        let mut outs = Vec::with_capacity(self.outputs.len());
        for (i, (n, shape)) in self.outputs.iter().enumerate() {
            let named_again = self.outputs[i + 1..].iter().any(|(later, _)| later == n);
            let owned = if named_again {
                None
            } else {
                env.take_produced(n)
            };
            let t = match owned {
                Some(t) => t,
                None => env
                    .get(n)
                    .ok_or_else(|| SfError::Codegen(format!("missing output '{n}'")))?
                    .clone(),
            };
            outs.push(if t.shape() == shape {
                t
            } else {
                // The declared output sits behind a layout barrier.
                Tensor::from_data(*shape, t.dtype(), t.into_data())?
            });
        }
        Ok(outs)
    }

    /// Profiles the program through the cache-simulating profiler.
    ///
    /// `replay_instances` caps how many batch instances are replayed in
    /// detail; counters are scaled up to the full instance count.
    pub fn profile(&self, replay_instances: usize) -> ProfileReport {
        let mut profiler = Profiler::new(&self.arch);
        // Allocate every distinct global value once, across all kernels.
        let mut bufs = HashMap::new();
        for k in &self.kernels {
            for v in k.graph.values() {
                let global = matches!(v.kind, ValueKind::Input | ValueKind::Weight)
                    || k.graph
                        .outputs()
                        .iter()
                        .any(|&o| k.graph.value(o).name == v.name);
                if global && !bufs.contains_key(&v.name) {
                    let bytes =
                        (v.shape.volume() * v.dtype.size_bytes()) as u64 * self.instances as u64;
                    bufs.insert(v.name.clone(), profiler.alloc(bytes));
                }
            }
        }
        let replay = replay_instances.clamp(1, self.instances);
        for k in &self.kernels {
            trace_kernel(k, &mut profiler, &bufs, replay, self.instances as u64);
        }
        let factor = self.instances as f64 / replay as f64;
        let scale = |x: u64| (x as f64 * factor) as u64;

        let mut stats = profiler.stats().clone();
        stats.l1_accesses = scale(stats.l1_accesses);
        stats.l1_misses = scale(stats.l1_misses);
        stats.l2_accesses = scale(stats.l2_accesses);
        stats.l2_misses = scale(stats.l2_misses);
        stats.dram_read_bytes = scale(stats.dram_read_bytes);
        stats.dram_write_bytes = scale(stats.dram_write_bytes);

        let kernels: Vec<KernelCost> = profiler
            .kernels()
            .iter()
            .map(|k| {
                let mut k = k.clone();
                k.flops = scale(k.flops);
                k.global_read_bytes = scale(k.global_read_bytes);
                k.global_write_bytes = scale(k.global_write_bytes);
                k.dram_read_bytes = scale(k.dram_read_bytes);
                k.dram_write_bytes = scale(k.dram_write_bytes);
                k.l2_bytes = scale(k.l2_bytes);
                k
            })
            .collect();
        let time_us = self.arch.program_time_us(&kernels);
        ProfileReport {
            stats,
            kernels,
            time_us,
        }
    }

    /// Analytic time estimate (no cache simulation), µs.
    pub fn estimate_us(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| {
                self.arch
                    .kernel_time_us(&estimate_cost(k, self.instances as u64))
            })
            .sum()
    }
}

/// Evaluates one kernel's subgraph on the reference interpreter,
/// publishing its outputs into the shared environment. This is the
/// executor-side bottom rung of the degradation ladder.
fn reference_kernel(k: &KernelProgram, env: &mut Env) -> Result<()> {
    let mut bindings = HashMap::new();
    for v in k.graph.values() {
        if !matches!(v.kind, ValueKind::Input | ValueKind::Weight) {
            continue;
        }
        let t = env.get(&v.name).ok_or_else(|| {
            SfError::Codegen(format!("reference fallback: missing input '{}'", v.name))
        })?;
        let t = if t.shape() == &v.shape {
            t.clone()
        } else {
            t.reshape(v.shape)?
        };
        bindings.insert(v.name.clone(), t);
    }
    let outs = k
        .graph
        .execute(&bindings)
        .map_err(|e| SfError::Codegen(format!("reference fallback failed: {e}")))?;
    for (&oid, t) in k.graph.outputs().iter().zip(outs) {
        env.insert(k.graph.value(oid).name.clone(), t);
    }
    Ok(())
}

/// Per-compilation view of the session handed to every stage.
struct PassCtx<'s> {
    /// Target configuration.
    arch: &'s GpuArch,
    /// Session compile options.
    opts: &'s CompileOptions,
    /// The shared schedule cache.
    cache: &'s ScheduleCache,
    /// Instrumentation sink.
    sink: &'s dyn EventSink,
    /// Worker-thread budget for the schedule stage.
    workers: usize,
    /// Schedule-exploration budget for this compilation (derived from
    /// [`CompileOptions::schedule_budget_ms`]).
    deadline: Deadline,
    /// Fault-injection hooks, `None` in normal operation.
    faults: Option<&'s FaultInjector>,
}

impl PassCtx<'_> {
    /// Records one instrumentation event.
    fn emit(&self, event: PassEvent) {
        self.sink.record(event);
    }
}

/// Isolation boundary: a panic inside `f` becomes an
/// [`SfError::Internal`] naming `pass` instead of unwinding through the
/// caller. Claimed-but-unfulfilled cache tickets are abandoned during
/// the unwind, so waiters on the same key are never wedged.
fn isolate<T>(pass: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SfError::Internal {
            pass: pass.to_string(),
            payload: panic_payload(payload),
        })
    })
}

/// Default worker budget: the machine's parallelism, capped — segment
/// counts are small, so more threads only add scheduling noise.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// A long-lived compilation context: one target architecture, one option
/// set, a shared schedule cache and an instrumentation sink.
///
/// Sessions are cheap to share (`&CompileSession` is `Sync`): many
/// threads may call [`compile`](CompileSession::compile) concurrently
/// and observe one consistent cache — identical subprograms are tuned
/// exactly once per session, no matter which thread gets there first.
pub struct CompileSession {
    arch: GpuArch,
    opts: CompileOptions,
    cache: Arc<ScheduleCache>,
    sink: Arc<dyn EventSink>,
    workers: usize,
    faults: Option<Arc<FaultInjector>>,
    engine: Arc<ExecEngine>,
}

impl CompileSession {
    /// Creates a session for the given architecture.
    pub fn new(arch: Arch, opts: CompileOptions) -> Self {
        CompileSession::with_config(arch.config(), opts)
    }

    /// Creates a session with default options under a fusion policy.
    pub fn with_policy(arch: Arch, policy: FusionPolicy) -> Self {
        CompileSession::new(arch, CompileOptions::for_policy(policy))
    }

    /// Creates a session for an explicit hardware configuration (e.g. a
    /// variant with a different per-kernel launch overhead).
    pub fn with_config(arch: GpuArch, opts: CompileOptions) -> Self {
        CompileSession {
            arch,
            opts,
            cache: Arc::new(ScheduleCache::new()),
            sink: Arc::new(NullSink),
            workers: default_workers(),
            faults: None,
            engine: ExecEngine::shared(),
        }
    }

    /// Shares an explicit execution engine: programs compiled by this
    /// session execute on its persistent worker pool and scratch
    /// arenas. Defaults to the process-wide [`ExecEngine::shared`]
    /// instance, so sessions already share one engine unless isolated
    /// on purpose (as the engine's own tests are).
    pub fn with_engine(mut self, engine: Arc<ExecEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the instrumentation sink.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Shares an existing schedule cache (e.g. one cache across several
    /// per-thread sessions for the same target).
    pub fn with_cache(mut self, cache: Arc<ScheduleCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the worker-thread budget for independent fusion groups.
    /// `1` forces fully sequential compilation.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Arms a deterministic fault-injection plan for this session's
    /// compilations (see [`crate::resilience::fault`]). Used by
    /// `sfc faultsim` and the resilience tests; normal operation leaves
    /// this unset.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The shared schedule cache.
    pub fn cache(&self) -> &Arc<ScheduleCache> {
        &self.cache
    }

    /// Compiles a graph into a [`CompiledProgram`]: the Fig. 9
    /// stages in order, each behind its own panic-isolation boundary.
    pub fn compile(&self, graph: &Graph) -> Result<CompiledProgram> {
        let t0 = Instant::now();
        let ctx = PassCtx {
            arch: &self.arch,
            opts: &self.opts,
            cache: &self.cache,
            sink: self.sink.as_ref(),
            workers: self.workers,
            deadline: Deadline::from_budget_ms(self.opts.schedule_budget_ms),
            faults: self.faults.as_deref(),
        };
        let segments = isolate(PassId::Segment.name(), || passes::segment(&ctx, graph))?;
        let mut units = isolate(PassId::Group.name(), || passes::group(&ctx, &segments))?;
        isolate("schedule", || passes::schedule(&ctx, &mut units))?;
        let (kernels, outputs, mut stats) =
            isolate(PassId::Emit.name(), || Ok(passes::emit(&ctx, graph, units)))?;
        isolate(PassId::Verify.name(), || {
            passes::verify(&ctx, graph.name(), &kernels)
        })?;
        stats.total_us = t0.elapsed().as_secs_f64() * 1e6;
        Ok(CompiledProgram {
            kernels,
            instances: graph.instances,
            outputs,
            arch: self.arch.clone(),
            stats,
            engine: Arc::clone(&self.engine),
        })
    }
}
