//! `RACE501`–`RACE505`: the static disjoint-write race prover.
//!
//! The lock-free executor ([`crate::codegen::exec`]) hands every spatial
//! block a raw `TensorViewMut` region of each output slot and lets the
//! blocks write concurrently with no synchronization at all. The
//! soundness of that `unsafe` rests entirely on SpaceFusion's Table-3
//! disjoint-write legality: distinct blocks must write distinct
//! elements. Until this module, that legality was only *asserted at
//! runtime* by the debug-mode per-element claim bitmap, which samples
//! executions instead of proving schedules.
//!
//! This analysis promotes the property to a compile-time proof. Every
//! [`Instr::Store`] in the lowered stream carries its symbolic write
//! footprint: per output axis, either a block-indexed affine tile
//! `[i*block, min(i*block + span, clamp))` ([`AxisWrite::Tiled`]) or the
//! full interval `[0, extent)` ([`AxisWrite::Full`]). Over that region
//! algebra the prover discharges pairwise disjointness for *all* block
//! pairs at once:
//!
//! * two blocks differ in at least one partitioned dimension index, and
//! * along any `Tiled` axis with `span <= block`, tiles of distinct
//!   indices are disjoint intervals,
//!
//! so a store is race-free iff every dimension with two or more blocks
//! tiles at least one of its axes. The checks:
//!
//! * **RACE501** — two blocks write overlapping output regions (a
//!   multi-block dimension tiles no axis of a store, a tile `span`
//!   exceeds its `block` stride, or the same value is scattered twice).
//! * **RACE502** — a write region escapes the partitioned extent (the
//!   tile clamp lies beyond the axis' storage, so the last blocks write
//!   past the end of the slot region).
//! * **RACE503** — scratch aliased across workers: a compute writes its
//!   result directly to global memory, bypassing the partitioned
//!   [`OutputSlot`](crate::codegen::exec) scatter — the only channel
//!   through which concurrent workers may publish.
//! * **RACE504** — read-after-parallel-write: an instruction reads a
//!   value this kernel already stored. Block-level barriers do not order
//!   other blocks' writes; only the kernel-boundary drain does, so
//!   in-kernel readback of a published output is racy.
//! * **RACE505** — the footprint is not provable in the affine form
//!   (non-affine block space, broken alignment metadata, degenerate
//!   tiles). Not necessarily a race — but unproven, so the kernel is
//!   forced onto the serial fallback path instead of executing
//!   unsoundly (see [`DisjointProof`] and DESIGN.md §3h).
//!
//! The same analysis runs twice: once inside the verifier
//! ([`check_races`], surfacing diagnostics through the verify stage and
//! `sfc lint`), and once at kernel construction
//! ([`prove_disjoint`], whose [`DisjointProof`] verdict gates the
//! lock-free vs. serial executor path even in release builds where the
//! verifier is off).

use super::{DiagCode, Diagnostic, Span};
use crate::codegen::instr::lower_stores;
use crate::codegen::{AxisWrite, Instr, KernelProgram, MemSpace};
use crate::smg::DimId;
use sf_ir::ValueId;
use std::collections::BTreeMap;

/// Outcome of the disjointness proof for one kernel.
///
/// Computed once per [`KernelProgram`] at construction and consulted by
/// [`ExecEngine::execute_kernel`](crate::codegen::ExecEngine): only a
/// `Proven` kernel may fan its blocks out over the lock-free worker
/// pool; anything else runs on the serial path, where block writes are
/// ordered by program order and the `unsafe` region hand-out is trivially
/// sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisjointProof {
    /// Every pair of spatial blocks provably writes disjoint regions of
    /// every output (Table-3 legality discharged statically).
    Proven,
    /// The prover found an overlap or could not express the footprint in
    /// the affine form; the payload is the first diagnostic. The kernel
    /// must not take the lock-free path.
    Unproven(String),
}

impl DisjointProof {
    /// Whether the lock-free path is statically justified.
    pub fn is_proven(&self) -> bool {
        matches!(self, DisjointProof::Proven)
    }
}

/// Proves (or fails to prove) pairwise-disjoint block writes for `kp`.
///
/// Runs the RACE analysis over the stores of the kernel's plan — the
/// one the executor walks — and condenses it into the executor-facing
/// verdict. Stores suffice: a lowered stream never writes a compute
/// result to global memory (RACE503) and never reads a value after
/// storing it (RACE504); those codes exist for corrupted streams, which
/// [`check_races`] sees in full. Instruction indices in the verdict's
/// message therefore count stores only. Unlike the verifier this runs
/// unconditionally — release builds with `verify: false` still refuse
/// the lock-free path for unproven kernels.
pub fn prove_disjoint(kp: &KernelProgram) -> DisjointProof {
    match check_races(kp, &lower_stores(kp)).into_iter().next() {
        None => DisjointProof::Proven,
        Some(d) => DisjointProof::Unproven(format!("{}: {}", d.code, d.message)),
    }
}

/// Display name of a value.
fn name(kp: &KernelProgram, v: ValueId) -> String {
    kp.graph.value(v).name.clone()
}

/// Runs the RACE501–505 checks over one lowered instruction stream.
///
/// Exposed separately from [`prove_disjoint`] so the mutation harness
/// can corrupt the stream (widen a tile span, retarget a compute write,
/// re-load a stored output) and assert each code catches its planted
/// race.
pub fn check_races(kp: &KernelProgram, instrs: &[Instr]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let smg = &kp.schedule.smg;

    // The affine block space itself: each partitioned dimension
    // contributes one independent block index. Duplicate or dangling
    // dimensions mean block coordinates are no longer independent and
    // nothing below is provable.
    let mut seen: Vec<DimId> = Vec::new();
    for &(d, b) in &kp.schedule.spatial {
        let span = Span::Schedule { dim: d, block: b };
        if d.0 >= smg.dims.len() {
            diags.push(Diagnostic::new(
                DiagCode::RaceUnprovableFootprint,
                span,
                format!("spatial restriction names unknown dimension d{}; the block space is not affine", d.0),
            ));
            continue;
        }
        if seen.contains(&d) {
            diags.push(Diagnostic::new(
                DiagCode::RaceUnprovableFootprint,
                span,
                format!(
                    "dimension '{}' is partitioned twice; block indices along it are not independent",
                    smg.dims[d.0].name
                ),
            ));
            continue;
        }
        if b == 0 {
            diags.push(Diagnostic::new(
                DiagCode::RaceUnprovableFootprint,
                span,
                format!(
                    "zero block size on '{}': degenerate tile interval",
                    smg.dims[d.0].name
                ),
            ));
            continue;
        }
        seen.push(d);
    }

    // Dimensions whose block index actually varies: these are the
    // coordinates in which two distinct blocks can differ, so each must
    // be discharged per store.
    let multi: Vec<(DimId, usize, usize)> = seen
        .iter()
        .filter_map(|&d| {
            let b = kp.schedule.spatial.iter().find(|&&(rd, _)| rd == d)?.1;
            let n = smg.extent(d).div_ceil(b);
            (n >= 2).then_some((d, b, n))
        })
        .collect();

    // Values this kernel has already published to global memory, by
    // first store site. Block barriers do NOT clear this set: they order
    // threads of one block, never the writes of other blocks.
    let mut stored: BTreeMap<ValueId, usize> = BTreeMap::new();

    for (idx, ins) in instrs.iter().enumerate() {
        match ins {
            Instr::Store { value, region } => {
                if let Some(&first) = stored.get(value) {
                    diags.push(Diagnostic::new(
                        DiagCode::RaceOverlappingWrites,
                        Span::Instr(idx),
                        format!(
                            "'{}' is scattered twice (instr #{first} and #{idx}); the second store re-claims elements the first already published",
                            name(kp, *value)
                        ),
                    ));
                }
                stored.insert(*value, idx);
                check_store_footprint(kp, idx, *value, region, None, &multi, &mut diags);
            }
            Instr::StorePartial { value, region } => {
                // A partial-state slot is worker scratch between the
                // two dispatches of a split execution, not a published
                // output: it never enters the readback set. Its
                // footprint must additionally tile the partition axis,
                // which is encoded along the *sliced* (temporal)
                // dimension — a concurrent writer exists per partition,
                // exactly like a spatial block along a tiled axis.
                let temporal = kp.schedule.temporal.as_ref();
                let t_dim = temporal.map(|t| t.plan.dim);
                let mut required = multi.clone();
                if let Some(t) = temporal {
                    if t.partitions() >= 2 {
                        if let Some(d) = t_dim {
                            let n_tiles = smg.extent(d).div_ceil(t.block.max(1));
                            let stride = n_tiles.div_ceil(t.partitions()) * t.block;
                            required.push((d, stride, t.partitions()));
                        }
                    }
                }
                check_store_footprint(kp, idx, *value, region, t_dim, &required, &mut diags);
            }
            Instr::LoadBlock { value } | Instr::LoadTile { value } => {
                if let Some(&first) = stored.get(value) {
                    diags.push(Diagnostic::new(
                        DiagCode::RaceReadAfterParallelWrite,
                        Span::Instr(idx),
                        format!(
                            "loads '{}' after its parallel store at instr #{first}; other blocks' writes are still in flight and no grid-wide barrier exists inside a kernel",
                            name(kp, *value)
                        ),
                    ));
                }
            }
            Instr::Compute { reads, write, .. } => {
                for &(v, space) in reads {
                    if space == MemSpace::Global {
                        if let Some(&first) = stored.get(&v) {
                            diags.push(Diagnostic::new(
                                DiagCode::RaceReadAfterParallelWrite,
                                Span::Instr(idx),
                                format!(
                                    "reads '{}' from global memory after its parallel store at instr #{first}; only the kernel-boundary drain orders other blocks' writes",
                                    name(kp, v)
                                ),
                            ));
                        }
                    }
                }
                if write.1 == MemSpace::Global {
                    diags.push(Diagnostic::new(
                        DiagCode::RaceScratchAliasing,
                        Span::Instr(idx),
                        format!(
                            "op result '{}' is written directly to global memory, bypassing the partitioned output-slot scatter: the buffer would be shared mutably across workers",
                            name(kp, write.0)
                        ),
                    ));
                }
            }
            // The combine phase runs after the phase-1 pool drain (a
            // kernel-internal ordering point for the partial slots);
            // its algebra is SLC104's concern, not a race.
            Instr::Combine { .. } => {}
            Instr::Barrier | Instr::LoopBegin { .. } | Instr::LoopEnd { .. } => {}
        }
    }
    diags
}

/// Validates one store footprint: per-axis affine form and tile
/// overlap/escape rules, then coverage of every `required` concurrency
/// axis (each `(dim, block, count)` with two or more concurrent writers
/// must be tiled by some axis of the region). `temporal` names the
/// sliced dimension a partial-state slot may legally tile in addition
/// to the spatially partitioned ones.
#[allow(clippy::too_many_arguments)]
fn check_store_footprint(
    kp: &KernelProgram,
    idx: usize,
    value: ValueId,
    region: &[AxisWrite],
    temporal: Option<DimId>,
    required: &[(DimId, usize, usize)],
    diags: &mut Vec<Diagnostic>,
) {
    let smg = &kp.schedule.smg;
    let mut provable = true;
    for (axis, aw) in region.iter().enumerate() {
        match aw {
            AxisWrite::Opaque => {
                provable = false;
                diags.push(Diagnostic::new(
                    DiagCode::RaceUnprovableFootprint,
                    Span::Instr(idx),
                    format!(
                        "axis {axis} of '{}' has no affine footprint (axis\u{2194}dimension alignment is broken); disjointness is unprovable",
                        name(kp, value)
                    ),
                ));
            }
            AxisWrite::Tiled {
                dim,
                block,
                span,
                clamp,
                extent,
            } => {
                let n_writers = required
                    .iter()
                    .find(|&&(d, _, _)| d == *dim)
                    .map(|&(_, _, n)| n)
                    .unwrap_or(1);
                let partitioned =
                    kp.schedule.spatial.iter().any(|&(rd, _)| rd == *dim) || temporal == Some(*dim);
                if dim.0 >= smg.dims.len() || !partitioned {
                    provable = false;
                    diags.push(Diagnostic::new(
                        DiagCode::RaceUnprovableFootprint,
                        Span::Instr(idx),
                        format!(
                            "axis {axis} of '{}' claims a tile along d{} which the schedule does not partition",
                            name(kp, value),
                            dim.0
                        ),
                    ));
                    continue;
                }
                if *block == 0 || *span == 0 {
                    provable = false;
                    diags.push(Diagnostic::new(
                        DiagCode::RaceUnprovableFootprint,
                        Span::Instr(idx),
                        format!(
                            "axis {axis} of '{}' has a degenerate tile (block {block}, span {span})",
                            name(kp, value)
                        ),
                    ));
                    continue;
                }
                if *clamp > *extent {
                    diags.push(Diagnostic::new(
                        DiagCode::RaceWriteEscapesExtent,
                        Span::Instr(idx),
                        format!(
                            "axis {axis} of '{}' is clamped at {clamp} but the axis holds only {extent} elements: the last block writes past the end of its slot region",
                            name(kp, value)
                        ),
                    ));
                }
                if span > block && n_writers >= 2 {
                    diags.push(Diagnostic::new(
                        DiagCode::RaceOverlappingWrites,
                        Span::Instr(idx),
                        format!(
                            "tiles of '{}' along '{}' overlap: each block writes {span} elements at stride {block}, so blocks 0 and 1 collide on [{block}, {})",
                            name(kp, value),
                            smg.dims[dim.0].name,
                            (*span).min(*clamp)
                        ),
                    ));
                }
            }
            AxisWrite::Full { .. } => {}
        }
    }
    if provable {
        for &(d, b, n) in required {
            let covered = region.iter().any(|aw| {
                matches!(aw, AxisWrite::Tiled { dim, block, span, .. }
                         if *dim == d && *span <= *block)
            });
            if !covered {
                diags.push(Diagnostic::new(
                    DiagCode::RaceOverlappingWrites,
                    Span::Instr(idx),
                    format!(
                        "no axis of '{}' is tiled by '{}' ({n} blocks of {b}): blocks 0 and 1 write identical regions",
                        name(kp, value),
                        smg.dims[d.0].name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::lower_instructions;
    use crate::pipeline::{CompileSession, FusionPolicy};
    use sf_gpu_sim::Arch;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha(l: usize) -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("Q", Shape::new(vec![256, 64]));
        let k = g.input("K", Shape::new(vec![l, 64]));
        let v = g.input("V", Shape::new(vec![l, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn compiled_kernels_prove_disjoint() {
        for l in [64usize, 8192] {
            let p = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
                .compile(&mha(l))
                .unwrap();
            for kp in &p.kernels {
                assert_eq!(kp.disjoint, DisjointProof::Proven, "{}", kp.name);
                let instrs = lower_instructions(kp);
                let diags = check_races(kp, &instrs);
                assert!(diags.is_empty(), "{}: {diags:?}", kp.name);
            }
        }
    }

    #[test]
    fn duplicate_spatial_partition_is_unprovable() {
        let p = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
            .compile(&mha(64))
            .unwrap();
        let mut kp = p.kernels[0].clone();
        let first = kp.schedule.spatial[0];
        kp.schedule.spatial.push(first);
        let instrs = lower_instructions(&kp);
        let diags = check_races(&kp, &instrs);
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::RaceUnprovableFootprint),
            "{diags:?}"
        );
        assert!(!prove_disjoint(&kp).is_proven());
    }
}
