//! The pipeline stages (paper Fig. 9), called in order by
//! [`CompileSession::compile`](super::CompileSession::compile).
//!
//! * [`segment`] — split the graph into subprograms at layout barriers.
//! * [`group`] — split each segment into fusion groups according to
//!   the [`FusionPolicy`].
//! * [`schedule`] — schedule every group: SMG construction, spatial and
//!   temporal slicing, configuration enumeration, the partitioning
//!   fallback (Alg. 2 + §5.3) and block-size auto-tuning. Groups are
//!   independent, so they fan out across `std::thread::scope` workers;
//!   results land in per-unit slots and are merged in deterministic
//!   unit order. The shared [`ScheduleCache`](super::ScheduleCache)
//!   guarantees identical subprograms are tuned exactly once, even when
//!   two workers (or two concurrent compilations) reach them
//!   simultaneously.
//! * [`emit`] — merge kernels and statistics in unit order and resolve
//!   program outputs through trailing layout barriers.
//! * [`verify`] — statically verify the merged kernels when
//!   [`CompileOptions::verify`] is on.

use super::cache::{CacheEntry, CacheKey, Claim, SavedConfig};
use super::stats::{CompileStats, EventDetail, PassEvent, PassId};
use super::{isolate, CompileOptions, FusionPolicy, PassCtx};
use crate::codegen::{estimate_cost, KernelProgram};
use crate::error::{Result, SfError};
use crate::resilience::{DegradationStep, FaultKind, FaultStage, Rung};
use crate::sched::resource::{enum_cfg, find_temporal_plan, fused_schedule, slice_temporally};
use crate::sched::{partition, resource_aware_slicing, TemporalSchedule};
use crate::slicer::eligible_spatial_dims;
use crate::smg::build_smg;
use crate::tune::tune_bounded;
use crate::verify::{verify_program, Severity, VerifyConfig};
use sf_gpu_sim::GpuArch;
use sf_ir::{analysis, Graph, OpKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Microseconds elapsed since `t`.
fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One fusion group flowing through the pipeline: a contiguous slice of
/// a segment, scheduled independently of its peers.
pub(super) struct Unit {
    /// Index of the segment this group came from.
    segment: usize,
    /// The group's subgraph.
    graph: Graph,
    /// Kernels the scheduler produced (filled by [`schedule`]).
    kernels: Vec<KernelProgram>,
    /// Per-unit statistics, merged in unit order by [`emit`].
    stats: CompileStats,
}

/// Splits the graph into subprograms at layout barriers.
pub(super) fn segment(ctx: &PassCtx<'_>, graph: &Graph) -> Result<Vec<Graph>> {
    let t = Instant::now();
    let has_barrier = graph
        .ops()
        .iter()
        .any(|o| matches!(o.kind, OpKind::LayoutBarrier));
    let segments = if has_barrier {
        sf_ir::segment::segment(graph)?
    } else {
        vec![graph.clone()]
    };
    ctx.emit(PassEvent {
        pass: PassId::Segment,
        segment: 0,
        unit: graph.name().to_string(),
        duration_us: elapsed_us(t),
        detail: EventDetail::Segments {
            count: segments.len(),
        },
    });
    Ok(segments)
}

/// Splits each segment into fusion groups according to the policy.
pub(super) fn group(ctx: &PassCtx<'_>, segments: &[Graph]) -> Result<Vec<Unit>> {
    let mut units = Vec::new();
    for (si, seg) in segments.iter().enumerate() {
        let t = Instant::now();
        let groups = split_into_groups(ctx.opts.policy, seg)?;
        ctx.emit(PassEvent {
            pass: PassId::Group,
            segment: si,
            unit: seg.name().to_string(),
            duration_us: elapsed_us(t),
            detail: EventDetail::Groups {
                count: groups.len(),
            },
        });
        units.extend(groups.into_iter().map(|graph| Unit {
            segment: si,
            graph,
            kernels: Vec::new(),
            stats: CompileStats::default(),
        }));
    }
    Ok(units)
}

/// Schedules every fusion group, fanning independent groups out across
/// worker threads.
pub(super) fn schedule(ctx: &PassCtx<'_>, units: &mut [Unit]) -> Result<()> {
    let workers = ctx.workers.min(units.len()).max(1);
    if workers == 1 {
        for unit in units.iter_mut() {
            Scheduler {
                ctx,
                segment: unit.segment,
            }
            .schedule_unit(unit)?;
        }
        return Ok(());
    }

    // Dynamic work queue over per-unit slots: each slot is locked by
    // exactly one worker, results stay in deterministic unit order.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Unit>> = units.iter_mut().map(Mutex::new).collect();
    let failures: Mutex<Vec<(usize, SfError)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let mut unit = slot.lock().unwrap_or_else(PoisonError::into_inner);
                let segment = unit.segment;
                if let Err(e) = (Scheduler { ctx, segment }).schedule_unit(&mut unit) {
                    failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, e));
                }
            });
        }
    });
    // First failure in unit order, so errors are deterministic too.
    let mut failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    failures.sort_by_key(|(i, _)| *i);
    match failures.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Merges scheduled kernels and statistics in unit order and resolves
/// program outputs.
pub(super) fn emit(
    ctx: &PassCtx<'_>,
    graph: &Graph,
    units: Vec<Unit>,
) -> (
    Vec<KernelProgram>,
    Vec<(String, sf_tensor::Shape)>,
    CompileStats,
) {
    let t = Instant::now();
    let mut kernels = Vec::new();
    let mut stats = CompileStats::default();
    for mut unit in units {
        stats.absorb(&unit.stats);
        kernels.append(&mut unit.kernels);
    }
    // Record every kernel the disjoint-write prover refused: the engine
    // will pin them to the serial path at execution time, and
    // `sfc compile` surfaces them next to the degradations.
    for kp in &kernels {
        if let crate::verify::DisjointProof::Unproven(reason) = &kp.disjoint {
            stats
                .lockfree_fallbacks
                .push((kp.name.clone(), reason.clone()));
        }
    }
    // Resolve each output through any trailing layout barriers: the
    // kernels materialize the barrier's *source* value.
    let outputs = graph
        .outputs()
        .iter()
        .map(|&v| {
            let shape = *graph.shape(v);
            let mut src = v;
            while let Some(op) = graph.producer(src) {
                if matches!(op.kind, OpKind::LayoutBarrier) {
                    src = op.inputs[0];
                } else {
                    break;
                }
            }
            (graph.value(src).name.clone(), shape)
        })
        .collect();
    ctx.emit(PassEvent {
        pass: PassId::Emit,
        segment: 0,
        unit: graph.name().to_string(),
        duration_us: elapsed_us(t),
        detail: EventDetail::None,
    });
    (kernels, outputs, stats)
}

/// Static verification of the emitted kernels ([`crate::verify`]).
/// Gated by [`CompileOptions::verify`] — on by default in debug builds
/// — and fails the compilation with [`SfError::Verify`] when any
/// error-level diagnostic survives.
pub(super) fn verify(ctx: &PassCtx<'_>, unit: &str, kernels: &[KernelProgram]) -> Result<()> {
    if !ctx.opts.verify {
        return Ok(());
    }
    let t = Instant::now();
    let (errors, warnings, verdict) = verify_kernels(kernels, ctx.arch);
    ctx.emit(PassEvent {
        pass: PassId::Verify,
        segment: 0,
        unit: unit.to_string(),
        duration_us: elapsed_us(t),
        detail: EventDetail::Verify { errors, warnings },
    });
    verdict
}

/// Runs the static verifier over `kernels`: the error and warning
/// counts, and an [`SfError::Verify`] quoting the first three errors
/// when there are any.
fn verify_kernels(kernels: &[KernelProgram], arch: &GpuArch) -> (usize, usize, Result<()>) {
    let diags = verify_program(kernels, arch, &VerifyConfig::default());
    let (errors, warnings) = crate::verify::counts(&diags);
    if errors == 0 {
        return (errors, warnings, Ok(()));
    }
    let head: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .take(3)
        .map(|d| d.to_string())
        .collect();
    let err = SfError::Verify(format!("{errors} error(s): {}", head.join("; ")));
    (errors, warnings, Err(err))
}

/// Whether ops `[i, i+5)` form the canonical softmax chain
/// `max → sub → exp → sum → div` over one dimension.
fn is_softmax_chain(g: &Graph, i: usize) -> bool {
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    let ops = g.ops();
    if i + 5 > ops.len() {
        return false;
    }
    let dim = match ops[i].kind {
        OpKind::Reduce {
            op: ReduceOp::Max,
            dim,
        } => dim,
        _ => return false,
    };
    matches!(ops[i + 1].kind, OpKind::Binary(BinaryOp::Sub))
        && ops[i + 1].inputs[1] == ops[i].output
        && matches!(ops[i + 2].kind, OpKind::Unary(UnaryOp::Exp))
        && ops[i + 2].inputs[0] == ops[i + 1].output
        && matches!(ops[i + 3].kind, OpKind::Reduce { op: ReduceOp::Sum, dim: d } if d == dim)
        && ops[i + 3].inputs[0] == ops[i + 2].output
        && matches!(ops[i + 4].kind, OpKind::Binary(BinaryOp::Div))
        && ops[i + 4].inputs[0] == ops[i + 2].output
        && ops[i + 4].inputs[1] == ops[i + 3].output
}

/// Splits a segment into fusion groups according to the policy.
fn split_into_groups(policy: FusionPolicy, g: &Graph) -> Result<Vec<Graph>> {
    let n = g.ops().len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let boundaries: Vec<usize> = match policy {
        FusionPolicy::SpaceFusion | FusionPolicy::TileGraph => vec![0],
        FusionPolicy::Unfused => {
            // PyTorch-eager: one kernel per *framework op*. Softmax
            // is a single framework op (one fused CUDA kernel in
            // eager mode), so its five-primitive chain stays one
            // kernel; everything else launches separately.
            let mut b = Vec::new();
            let mut i = 0;
            while i < n {
                b.push(i);
                i += if is_softmax_chain(g, i) { 5 } else { 1 };
            }
            b
        }
        FusionPolicy::EpilogueOnly => {
            let mut b = vec![0];
            for (i, op) in g.ops().iter().enumerate().skip(1) {
                match op.kind {
                    // GEMMs and reductions start new kernels;
                    // element-wise ops ride along as epilogues.
                    OpKind::Gemm { .. } | OpKind::Reduce { .. } => b.push(i),
                    _ => {}
                }
            }
            b
        }
        FusionPolicy::MiOnly => {
            let mut b = vec![0];
            for (i, op) in g.ops().iter().enumerate().skip(1) {
                let is_ci = matches!(op.kind, OpKind::Gemm { .. });
                let prev_ci = matches!(g.ops()[i - 1].kind, OpKind::Gemm { .. });
                if is_ci || prev_ci {
                    b.push(i);
                }
            }
            b
        }
    };
    let mut groups = Vec::with_capacity(boundaries.len());
    for (bi, &start) in boundaries.iter().enumerate() {
        let end = boundaries.get(bi + 1).copied().unwrap_or(n);
        groups.push(partition::extract_ops(
            g,
            start,
            end,
            &format!("{}.g{}", g.name(), bi),
        )?);
    }
    Ok(groups)
}

/// Per-unit scheduling engine: the SMG → slice → (partition) → tune
/// pipeline of one fusion group, instrumented and cache-aware.
struct Scheduler<'c, 's> {
    ctx: &'c PassCtx<'s>,
    segment: usize,
}

impl Scheduler<'_, '_> {
    fn emit(&self, pass: PassId, unit: &str, duration_us: f64, detail: EventDetail) {
        self.ctx.emit(PassEvent {
            pass,
            segment: self.segment,
            unit: unit.to_string(),
            duration_us,
            detail,
        });
    }

    /// Schedules one fusion group into its unit slot, retrying down the
    /// degradation ladder when [`CompileOptions::resilient`] is on:
    /// current policy → forced Alg.-2 partitioning → per-op unfused.
    /// Every fall is recorded in the unit's stats and as a
    /// [`PassId::Degrade`] event; the error only propagates when the
    /// bottom rung fails twice (or resilience is off).
    fn schedule_unit(&self, unit: &mut Unit) -> Result<()> {
        let name = unit.graph.name().to_string();
        let mut rung = Rung::Primary;
        let mut bottom_retried = false;
        loop {
            match self.attempt(rung, &name, &unit.graph) {
                Ok((kernels, stats)) => {
                    unit.stats.absorb(&stats);
                    unit.kernels = kernels;
                    return Ok(());
                }
                Err(e) => {
                    if !self.ctx.opts.resilient {
                        return Err(e);
                    }
                    // Single-op unfused kernels are feasible by
                    // construction, so a bottom-rung failure is
                    // transient (a caught panic, an injected fault):
                    // one bounded retry absorbs it; a second failure
                    // is a real bug and escapes.
                    let (next, reason) = match rung.next() {
                        Some(next) => (next, e.to_string()),
                        None if !bottom_retried => {
                            bottom_retried = true;
                            (Rung::Unfused, format!("{e}; bottom rung retried"))
                        }
                        None => return Err(e),
                    };
                    unit.stats.degradations.push(DegradationStep {
                        unit: name.clone(),
                        rung: next,
                        reason: reason.clone(),
                    });
                    self.emit(
                        PassId::Degrade,
                        &name,
                        0.0,
                        EventDetail::Degrade {
                            rung: next.name(),
                            reason,
                        },
                    );
                    rung = next;
                }
            }
        }
    }

    /// Runs one rung of the ladder behind a panic-isolation boundary.
    /// Returns the kernels plus the statistics of this attempt only, so
    /// a failed attempt contributes nothing to the unit's totals.
    fn attempt(
        &self,
        rung: Rung,
        name: &str,
        g: &Graph,
    ) -> Result<(Vec<KernelProgram>, CompileStats)> {
        let opts = self.ctx.opts;
        isolate(&format!("schedule:{name}"), || {
            let mut stats = CompileStats::default();
            let kernels = match rung {
                Rung::Primary => self.schedule_group(opts, g.clone(), &mut stats, false)?,
                Rung::Partitioned => self.schedule_partitioned(opts, g, &mut stats)?.0,
                Rung::Unfused => {
                    let mut out = Vec::new();
                    for piece in split_into_groups(FusionPolicy::Unfused, g)? {
                        out.extend(self.schedule_group(opts, piece, &mut stats, true)?);
                    }
                    out
                }
            };
            // Per-rung verification: a kernel set the verifier rejects
            // must fall to the next rung, not ship. (The verify stage
            // still checks the merged program at the end.)
            if opts.verify && opts.resilient {
                let (_, _, verdict) = verify_kernels(&kernels, self.ctx.arch);
                verdict?;
            }
            Ok((kernels, stats))
        })
    }

    /// Schedules a fusion group through the shared cache, partitioning
    /// recursively when slicing fails (Algorithm 2 + §5.3 candidates).
    /// `partitioned` records that this group is a fallback fragment of a
    /// failed fusion: fragments execute fine but do not count as
    /// *discovered* fusion patterns in the §6.6 census.
    fn schedule_group(
        &self,
        opts: &CompileOptions,
        g: Graph,
        stats: &mut CompileStats,
        partitioned: bool,
    ) -> Result<Vec<KernelProgram>> {
        // Schedule cache (repetitive subprograms compile once). A miss
        // claims the key: concurrent claimants of the same key block
        // until this thread publishes (or abandons) the entry.
        let key = CacheKey::new(&g, opts.policy, self.ctx.arch);
        // A cached entry that fails validation on rebuild (corruption,
        // shape drift) is evicted and recomputed: two attempts suffice
        // — hit-then-evict, then a guaranteed miss.
        for _attempt in 0..2 {
            let t = Instant::now();
            let claim = self.ctx.cache.claim(&key);
            self.emit(
                PassId::CacheLookup,
                g.name(),
                t.elapsed().as_secs_f64() * 1e6,
                EventDetail::Cache {
                    hit: matches!(claim, Claim::Hit(_)),
                    key: key.shape.clone(),
                },
            );
            match claim {
                Claim::Hit(entry) => {
                    stats.cache_hits += 1;
                    match self.rebuild_from_cache(opts, &g, &entry) {
                        Ok(kps) => {
                            if !partitioned {
                                census(stats, &kps);
                            }
                            return Ok(kps);
                        }
                        Err(e) if self.ctx.opts.resilient => {
                            // In-place recovery: evict the bad entry so
                            // the next claim recomputes it.
                            self.ctx.cache.invalidate(&key);
                            stats.degradations.push(DegradationStep {
                                unit: g.name().to_string(),
                                rung: Rung::Primary,
                                reason: format!("{e}; entry evicted and recomputed"),
                            });
                            self.emit(
                                PassId::Degrade,
                                g.name(),
                                0.0,
                                EventDetail::Degrade {
                                    rung: Rung::Primary.name(),
                                    reason: e.to_string(),
                                },
                            );
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                Claim::Miss(ticket) => {
                    let (kps, intended_fusion) = self.schedule_uncached(opts, &g, stats)?;
                    let mut entry = CacheEntry {
                        piece_lens: kps.iter().map(|k| k.graph.ops().len()).collect(),
                        suffixes: kps
                            .iter()
                            .map(|k| k.name.strip_prefix(g.name()).unwrap_or("").to_string())
                            .collect(),
                        configs: kps
                            .iter()
                            .map(|k| SavedConfig {
                                spatial: k.schedule.spatial.iter().map(|&(_, b)| b).collect(),
                                temporal: k.schedule.temporal.as_ref().map(|t| t.block),
                                split: k
                                    .schedule
                                    .temporal
                                    .as_ref()
                                    .and_then(|t| t.split.as_ref())
                                    .map(|s| s.partitions),
                            })
                            .collect(),
                    };
                    if let Some(inj) = self.ctx.faults {
                        if inj.fire(FaultStage::CachePublish, g.name())
                            == Some(FaultKind::PoisonCache)
                        {
                            // Publish a corrupted entry (the kernels
                            // returned from *this* compilation are
                            // good); the next hit on this key must
                            // detect the corruption and recover.
                            entry.piece_lens = vec![usize::MAX / 2];
                            entry.configs.clear();
                        }
                    }
                    ticket.fulfill(entry);
                    // §6.6 census: only *intended* fusions count as
                    // discovered patterns — fragments produced by the
                    // Algorithm-2 fallback are fusion failures, not
                    // discoveries.
                    if !partitioned && intended_fusion {
                        census(stats, &kps);
                    }
                    return Ok(kps);
                }
            }
        }
        // Both attempts hit corrupt entries (another thread kept
        // republishing bad data) — let the ladder take over.
        Err(SfError::Codegen(format!(
            "cache entry for '{}' unusable after eviction",
            g.name()
        )))
    }

    /// Schedules a group that missed the cache. Returns the kernels and
    /// whether they realize the *intended* fusion (false when the group
    /// fell back to partitioning).
    fn schedule_uncached(
        &self,
        opts: &CompileOptions,
        g: &Graph,
        stats: &mut CompileStats,
    ) -> Result<(Vec<KernelProgram>, bool)> {
        let mut opts = opts.clone();
        loop {
            match self.schedule_fused(&opts, g, stats) {
                Ok(kp) => return Ok((vec![kp], true)),
                Err(SfError::ResourceInfeasible(_))
                | Err(SfError::NoSpatialDim(_))
                | Err(SfError::SmgBuild(_)) => {
                    // Expert-pinned block sizes can be infeasible for
                    // shapes the expert never tuned (a fixed 16-row
                    // LayerNorm block at N = 32K). Hand-tuned kernels
                    // adapt their block count rather than refuse; model
                    // that by halving the pinned sizes, then falling
                    // back to full tuning.
                    if opts.slicing.fixed_spatial_block.is_some()
                        || opts.slicing.fixed_temporal_block.is_some()
                    {
                        let hs = opts.slicing.fixed_spatial_block.map(|b| (b / 2).max(1));
                        let ht = opts.slicing.fixed_temporal_block.map(|b| (b / 2).max(1));
                        if hs != opts.slicing.fixed_spatial_block
                            || ht != opts.slicing.fixed_temporal_block
                        {
                            opts.slicing.fixed_spatial_block = hs;
                            opts.slicing.fixed_temporal_block = ht;
                        } else {
                            opts.slicing.fixed_spatial_block = None;
                            opts.slicing.fixed_temporal_block = None;
                            opts.autotune = true;
                        }
                        continue;
                    }
                    return self.schedule_partitioned(&opts, g, stats);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The Algorithm-2 fallback: split the group and schedule both
    /// halves, then consider the §5.3 alternative cut.
    fn schedule_partitioned(
        &self,
        opts: &CompileOptions,
        g: &Graph,
        stats: &mut CompileStats,
    ) -> Result<(Vec<KernelProgram>, bool)> {
        let arch = self.ctx.arch;
        let slicing = opts.slicing.clone();
        let schedulable = |cand: &Graph| -> bool {
            build_smg(cand)
                .ok()
                .and_then(|smg| resource_aware_slicing(cand, &smg, arch, &slicing).ok())
                .is_some()
        };
        let t = Instant::now();
        let round = partition::partition_round(g, &schedulable);
        let cut = round.as_ref().map(|(gf, _)| gf.ops().len()).unwrap_or(0);
        self.emit(
            PassId::Partition,
            g.name(),
            t.elapsed().as_secs_f64() * 1e6,
            EventDetail::Partition { cut },
        );
        let (gf, gl) = round?;

        let mut primary = self.schedule_group(opts, gf, stats, true)?;
        primary.extend(self.schedule_group(opts, gl, stats, true)?);

        // §5.3: also consider moving the trailing non-A2O unit.
        if let Some(alt) = partition::alternative_cut(g, cut) {
            if let Ok((gf2, gl2)) = partition::split_graph(g, alt) {
                if schedulable(&gf2) {
                    let mut alt_stats = CompileStats::default();
                    if let (Ok(mut a), Ok(b)) = (
                        self.schedule_group(opts, gf2, &mut alt_stats, true),
                        self.schedule_group(opts, gl2, &mut alt_stats, true),
                    ) {
                        a.extend(b);
                        if self.sequence_us(&a, g.instances) + f64::EPSILON
                            < self.sequence_us(&primary, g.instances)
                        {
                            primary = a;
                        }
                    }
                }
            }
        }
        Ok((primary, false))
    }

    /// Total estimated time of a kernel sequence (for §5.3 comparison).
    fn sequence_us(&self, kps: &[KernelProgram], instances: usize) -> f64 {
        kps.iter()
            .map(|k| {
                self.ctx
                    .arch
                    .kernel_time_us(&estimate_cost(k, instances as u64))
            })
            .sum()
    }

    /// Schedules one graph as a single fused kernel (Alg. 1 + tuning).
    fn schedule_fused(
        &self,
        opts: &CompileOptions,
        g: &Graph,
        stats: &mut CompileStats,
    ) -> Result<KernelProgram> {
        let name = g.name();
        if let Some(inj) = self.ctx.faults {
            match inj.fire(FaultStage::Schedule, name) {
                Some(FaultKind::Panic) => panic!("injected panic at schedule of '{name}'"),
                Some(FaultKind::ForceInfeasible) => {
                    return Err(SfError::ResourceInfeasible(format!(
                        "injected resource infeasibility at schedule of '{name}'"
                    )));
                }
                Some(FaultKind::ExpireDeadline) => {
                    return Err(SfError::Timeout(format!(
                        "injected deadline expiry at schedule of '{name}'"
                    )));
                }
                _ => {}
            }
        }
        let t = Instant::now();
        let smg = build_smg(g);
        self.emit(
            PassId::SmgBuild,
            name,
            t.elapsed().as_secs_f64() * 1e6,
            EventDetail::None,
        );
        let smg = smg?;

        // Alg. 1 step by step, each step timed where it runs:
        // `SS.getDims`, `TS.getPriorDim + TS.slice`, then `enumCfg`.
        let t = Instant::now();
        let spatial_dims = eligible_spatial_dims(g, &smg);
        self.emit(PassId::SpatialSlice, name, elapsed_us(t), EventDetail::None);

        let mut slicing = opts.slicing.clone();
        slicing.deadline = slicing.deadline.earliest(self.ctx.deadline);
        let t = Instant::now();
        let plan = slice_temporally(g, &smg, &spatial_dims, &slicing);
        self.emit(
            PassId::TemporalSlice,
            name,
            elapsed_us(t),
            EventDetail::None,
        );

        let t = Instant::now();
        let schedules = enum_cfg(
            g,
            &smg,
            self.ctx.arch,
            &slicing,
            &spatial_dims,
            plan.as_ref(),
        );
        self.emit(
            PassId::EnumCfg,
            name,
            elapsed_us(t),
            EventDetail::Candidates {
                generated: schedules.as_ref().map(|s| s.len()).unwrap_or(0),
            },
        );
        let schedules = schedules?;
        stats.configs += schedules.len();

        let candidates: Vec<KernelProgram> = schedules
            .into_iter()
            .map(|s| KernelProgram::new(g.name().to_string(), g.clone(), s))
            .collect();

        let t = Instant::now();
        let pick = if opts.autotune {
            let r = tune_bounded(
                &candidates,
                self.ctx.arch,
                g.instances as u64,
                opts.alpha,
                self.ctx.deadline,
            )
            .ok_or_else(|| {
                SfError::ResourceInfeasible(format!("no schedule candidates to tune for '{name}'"))
            })?;
            stats.evaluated += r.evaluated;
            stats.pruned += r.pruned;
            self.emit(
                PassId::Tune,
                name,
                elapsed_us(t),
                EventDetail::Tune {
                    evaluated: r.evaluated,
                    pruned: r.pruned,
                    best_us: r.best_us,
                },
            );
            r.best
        } else {
            let last = candidates.len().checked_sub(1).ok_or_else(|| {
                SfError::ResourceInfeasible(format!("no feasible schedule candidates for '{name}'"))
            })?;
            self.emit(
                PassId::Tune,
                name,
                elapsed_us(t),
                EventDetail::Tune {
                    evaluated: 0,
                    pruned: 0,
                    best_us: f64::NAN,
                },
            );
            last
        };

        candidates
            .into_iter()
            .nth(pick)
            .ok_or_else(|| SfError::Codegen(format!("tuner pick out of range for '{name}'")))
    }

    /// Rebuilds kernels for a graph whose shape was already scheduled.
    /// Validates the entry's piece layout first so a corrupted entry is
    /// rejected (and recoverable) instead of panicking downstream.
    fn rebuild_from_cache(
        &self,
        opts: &CompileOptions,
        g: &Graph,
        entry: &CacheEntry,
    ) -> Result<Vec<KernelProgram>> {
        let total = entry
            .piece_lens
            .iter()
            .copied()
            .fold(0usize, usize::saturating_add);
        if total != g.ops().len() || !entry.is_well_formed() {
            return Err(SfError::Codegen(format!(
                "cache entry corrupt for '{}': piece layout does not match graph",
                g.name()
            )));
        }
        let mut out = Vec::with_capacity(entry.piece_lens.len());
        let mut start = 0usize;
        for ((len, suffix), cfg) in entry
            .piece_lens
            .iter()
            .zip(&entry.suffixes)
            .zip(&entry.configs)
        {
            let name = format!("{}{suffix}", g.name());
            let piece = partition::extract_ops(g, start, start + len, &name)?;
            start += len;
            out.push(self.schedule_from_config(opts, piece, cfg)?);
        }
        Ok(out)
    }

    /// Builds a kernel directly from a saved block configuration.
    fn schedule_from_config(
        &self,
        opts: &CompileOptions,
        g: Graph,
        cfg: &SavedConfig,
    ) -> Result<KernelProgram> {
        let smg = build_smg(&g)?;
        let dims = eligible_spatial_dims(&g, &smg);
        if dims.len() != cfg.spatial.len()
            || dims.len() + usize::from(cfg.temporal.is_some()) > sf_tensor::MAX_RANK
        {
            return Err(SfError::Codegen("cache shape drift".into()));
        }
        let spatial: Vec<_> = dims.into_iter().zip(cfg.spatial.iter().copied()).collect();
        let temporal = match cfg.temporal {
            Some(block) => {
                let dims: Vec<_> = spatial.iter().map(|&(d, _)| d).collect();
                let plan = find_temporal_plan(&g, &smg, &dims, &opts.slicing).ok_or_else(|| {
                    SfError::Codegen("cached temporal plan not reproducible".into())
                })?;
                // A saved split factor is rebuilt from the plan: the
                // combine algebra is a pure function of (graph, plan),
                // so only the partition count needs caching. A plan
                // that no longer derives a combine means shape drift.
                let split = match cfg.split {
                    Some(partitions) => Some(crate::sched::SplitK {
                        partitions,
                        combine: crate::slicer::derive_combine(&g, &plan).ok_or_else(|| {
                            SfError::Codegen("cached split-K combine not reproducible".into())
                        })?,
                    }),
                    None => None,
                };
                Some(TemporalSchedule { plan, block, split })
            }
            None => None,
        };
        let schedule = fused_schedule(&g, smg, spatial, temporal, self.ctx.arch);
        Ok(KernelProgram::new(g.name().to_string(), g, schedule))
    }
}

/// Adds the §6.6 census patterns of `kps` to `stats`: fused kernels
/// containing ≥ 2 All-to-One mappings.
fn census(stats: &mut CompileStats, kps: &[KernelProgram]) {
    for k in kps {
        if k.is_fused() && k.schedule.smg.a2o_count() >= 2 {
            stats
                .fusion_patterns
                .push(analysis::pattern_signature(&k.graph));
        }
    }
}
