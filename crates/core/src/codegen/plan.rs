//! The kernel plan: the one lowered description of a kernel's loop
//! structure.
//!
//! The paper's backend describes a fused kernel once — parallel SMG
//! blocks, an intra-block loop with Simple-Aggregate / UTA running
//! reductions, a post-loop epilogue, an optional second streaming pass,
//! stores (Figs. 6–7, §6.5) — and everything downstream consumes that
//! description. [`KernelPlan::build`] is this crate's equivalent: it
//! alone decides which op runs in which section, which global is read
//! where, which output is written where, and which axis of which value
//! a schedule dimension restricts. The executor ([`super::exec`]), the
//! tracer and cost model ([`super::trace`]), the instruction lowering
//! ([`super::instr`]) and the pseudo-code emitter ([`super::emit`]) walk
//! the plan and add only their own payload (arithmetic, profiler calls,
//! `Instr` construction, text), so what the verifier proves about the
//! lowered stream is a statement about the loop nest that executes.
//!
//! The plan is data, not a visitor: the executor needs per-tile state,
//! early exit and split-K partition ranges that callbacks would fight.
//!
//! The consumers differ in which globals they touch (the tracer loads a
//! non-varying global only if it is used, the instruction stream only if
//! it is staged, the emitter prints every varying global). The plan
//! records the flags; each consumer keeps its own filter over the one
//! list.

use crate::sched::{FusedSchedule, OpRole};
use crate::slicer::{AggKind, CombineSpec};
use crate::smg::DimId;
use sf_ir::{Graph, OpId, ValueId, ValueKind};
use sf_tensor::InlineVec;

/// Dimension restrictions of one block or tile: `dim -> [start, end)`,
/// the spatial dimensions in schedule order, then (inside the
/// intra-block loop) the temporal tile. Stored inline: the executor and
/// the tracer build one per tile.
pub(crate) type Restrict = InlineVec<(DimId, (usize, usize))>;

/// Per-axis `[start, end)` ranges of one value under a [`Restrict`].
pub(crate) type Ranges = InlineVec<(usize, usize)>;

/// Which section of the loop nest holds a value, i.e. for how long the
/// executor's slot of that value stays filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// A kernel input or weight: read from the environment, never
    /// computed.
    Global,
    /// Produced per intra-block tile by an in-loop op (in either pass)
    /// and dead at the end of that tile.
    Tile,
    /// The running, then finalized, aggregate of a sliced reduction:
    /// lives across the tiles of a block.
    Acc,
    /// Produced once per block: a post-loop op, or any op of an
    /// unsliced kernel.
    Block,
}

/// One kernel global (input or weight) and where the kernel reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalUse {
    /// The global value.
    pub value: ValueId,
    /// The value spans the temporally sliced dimension, so its tile
    /// changes per intra-block.
    pub varying: bool,
    /// The per-block tile is staged in shared memory (else streamed).
    pub staged: bool,
    /// Read by a phase-1 (reduction-feeding) step.
    pub used_p1: bool,
    /// Read by an output-producing in-loop op. Post-loop reads of
    /// globals happen once per block; they are folded into this class
    /// (cheap either way).
    pub used_p2: bool,
}

impl GlobalUse {
    /// Whether any op of the kernel reads the global.
    pub fn used(&self) -> bool {
        self.used_p1 || self.used_p2
    }
}

/// One step of the phase-1 intra-block loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Plain evaluation of op `.0` on the current tile.
    Op(usize),
    /// Sliced reduction: op `op` produces a tile partial that is
    /// aggregated into its running accumulator by
    /// `schedule.temporal.plan.sliced[idx].agg` (Simple or UTA).
    Reduce {
        /// The reduction op.
        op: usize,
        /// Index into [`crate::slicer::TemporalPlan::sliced`].
        idx: usize,
    },
}

impl Step {
    /// The op this step evaluates.
    pub fn op(self) -> usize {
        match self {
            Step::Op(op) | Step::Reduce { op, .. } => op,
        }
    }
}

/// The split-K tail of phase 1: each partition parks its partial
/// aggregate states, then the combine folds them in partition order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// Partial states parked per partition (every sliced reduction's
    /// output, in plan order).
    pub parks: Vec<ValueId>,
    /// Folds of the combine phase, in plan order: the combined sliced
    /// reduction and its merge algebra.
    pub folds: Vec<(OpId, CombineSpec)>,
}

/// The second streaming pass of a two-phase schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase2 {
    /// Output-producing in-loop ops, re-evaluated per tile on the
    /// finalized aggregates.
    pub ops: Vec<usize>,
    /// Outputs spanning the sliced dimension: stored per tile.
    pub tile_stores: Vec<ValueId>,
}

/// The intra-block loop nest of a temporally sliced kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLoop {
    /// The sliced dimension.
    pub dim: DimId,
    /// Intra-block (tile) extent along `dim`.
    pub tile: usize,
    /// Extent of `dim`.
    pub extent: usize,
    /// Split-K partitions of the tile loop (1 when unsplit).
    pub partitions: usize,
    /// Phase-1 loop body: every op the sliced reductions need, except
    /// post-loop ops.
    pub phase1: Vec<Step>,
    /// Outputs of the reductions some UTA update factor depends on:
    /// their pre-tile value must survive re-aggregation.
    pub uta_deps: Vec<ValueId>,
    /// Park / combine lists of a split-K schedule.
    pub split: Option<SplitPlan>,
    /// The second streaming pass, if the schedule has one. It runs after
    /// the block-level ops, on the finalized aggregates.
    pub phase2: Option<Phase2>,
}

impl TileLoop {
    /// Number of intra-blocks of the tile loop.
    pub fn n_tiles(&self) -> usize {
        self.extent.div_ceil(self.tile.max(1))
    }

    /// Tiles owned by one partition (the last may own fewer).
    fn tiles_per_partition(&self) -> usize {
        self.n_tiles().div_ceil(self.partitions)
    }

    /// Tile range `[lo, hi)` of partition `p`. Every partition of a
    /// normalized count ([`crate::sched::normalize_partitions`]) is
    /// non-empty.
    pub fn partition_tiles(&self, p: usize) -> (usize, usize) {
        let per = self.tiles_per_partition();
        (p * per, ((p + 1) * per).min(self.n_tiles()))
    }

    /// Elements of `dim` between the starts of consecutive partitions.
    pub fn partition_stride(&self) -> usize {
        self.tiles_per_partition() * self.tile
    }

    /// The restriction of intra-block `tile` within spatial block
    /// `spatial`.
    pub(crate) fn tile_restrict(&self, spatial: &Restrict, tile: usize) -> Restrict {
        let start = tile * self.tile;
        let mut restrict = *spatial;
        restrict.push((self.dim, (start, (start + self.tile).min(self.extent))));
        restrict
    }
}

/// How the schedule cuts one axis of one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisTile {
    /// The axis has the full extent of a restricted dimension, so a
    /// block (or tile) sees only its range of it. `slot` indexes a
    /// [`Restrict`]: below `spatial.len()` the spatial dimension at that
    /// position, otherwise the temporal dimension.
    Tiled {
        /// Position in the restriction list.
        slot: u8,
    },
    /// Every block sees the whole axis (a placeholder extent, or an
    /// unrestricted dimension).
    Full,
    /// The axis↔dimension alignment metadata is broken (rank mismatch,
    /// dangling dimension id).
    Opaque,
}

impl AxisTile {
    /// `[start, end)` of an axis of declared extent `extent` under a
    /// restriction.
    pub(crate) fn range(self, extent: usize, restrict: &Restrict) -> (usize, usize) {
        match self {
            AxisTile::Tiled { slot } => restrict
                .get(usize::from(slot))
                .map_or((0, extent), |&(_, (s, t))| (s.min(extent), t.min(extent))),
            AxisTile::Full | AxisTile::Opaque => (0, extent),
        }
    }
}

/// The lowered loop structure of one kernel, sections in execution
/// order: the tile loop (phase 1, split-K park / combine), the
/// block-level ops, the tile loop's second pass, the block stores. An
/// unsliced kernel is the same nest without the loop. See the module
/// docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    /// Kernel globals (inputs and weights) in value order.
    pub globals: Vec<GlobalUse>,
    /// The intra-block loop nest, if the schedule slices temporally.
    pub tiles: Option<TileLoop>,
    /// Ops evaluated once per block on the block tile: the post-loop
    /// ops on the finalized aggregates, or every op of an unsliced
    /// kernel.
    pub block_ops: Vec<usize>,
    /// Outputs stored once per block (those not spanning the sliced
    /// dimension; every output of an unsliced kernel).
    pub block_stores: Vec<ValueId>,
    /// `axes[axis_off[v] .. axis_off[v + 1]]` are the axes of value `v`
    /// (narrow types: every cached kernel keeps this table).
    axis_off: Vec<u32>,
    axes: Vec<AxisTile>,
    /// The section of each value: with `ValueId` as the dense slot
    /// number, all the executor needs to address its per-worker value
    /// slots (one byte per value).
    sections: Vec<Section>,
}

impl KernelPlan {
    /// Lowers `(graph, schedule, roles)` to the kernel's loop structure.
    pub fn build(graph: &Graph, s: &FusedSchedule, roles: &[OpRole]) -> KernelPlan {
        let n_ops = graph.ops().len();
        let n_vals = graph.values().len();
        let needed_output = needed_by(graph, graph.outputs());
        // The ops of the second streaming pass. A global they read counts
        // as a phase-2 use whether or not the schedule has that pass (in
        // a one-pass or unsliced kernel these are simply the ops the
        // outputs need).
        let out_ops: Vec<usize> = (0..n_ops)
            .filter(|&oi| roles[oi] == OpRole::InLoop && needed_output[oi])
            .collect();
        let mut used_p1 = vec![false; n_vals];
        let mut used_p2 = vec![false; n_vals];
        let mark = |used: &mut [bool], oi: usize| {
            for &i in &graph.ops()[oi].inputs {
                used[i.0] = true;
            }
        };
        for &oi in &out_ops {
            mark(&mut used_p2, oi);
        }

        let mut block_ops: Vec<usize> = (0..n_ops).collect();
        let mut block_stores = graph.outputs().to_vec();
        let tiles = s.temporal.as_ref().map(|t| {
            let dim = t.plan.dim;
            let reduction_outputs: Vec<ValueId> = (0..n_ops)
                .filter(|&oi| matches!(roles[oi], OpRole::SlicedReduction(_)))
                .map(|oi| graph.ops()[oi].output)
                .collect();
            let needed_phase1 = needed_by(graph, &reduction_outputs);
            let phase1: Vec<Step> = (0..n_ops)
                .filter(|&oi| needed_phase1[oi] && roles[oi] != OpRole::PostLoop)
                .map(|op| match roles[op] {
                    OpRole::SlicedReduction(idx) => Step::Reduce { op, idx },
                    _ => Step::Op(op),
                })
                .collect();
            block_ops.retain(|&oi| roles[oi] == OpRole::PostLoop);
            for step in &phase1 {
                mark(&mut used_p1, step.op());
            }
            for &oi in &block_ops {
                mark(&mut used_p2, oi);
            }
            let tile_stores;
            (tile_stores, block_stores) = graph
                .outputs()
                .iter()
                .partition(|&&o| s.smg.value_has_dim(graph, o, dim));
            let sliced_out = |op: OpId| graph.ops()[op.0].output;
            TileLoop {
                dim,
                tile: t.block,
                extent: s.smg.dims.get(dim.0).map_or(0, |d| d.extent),
                partitions: t.partitions(),
                phase1,
                uta_deps: t
                    .plan
                    .sliced
                    .iter()
                    .filter_map(|sl| match &sl.agg {
                        AggKind::Uta(factors) => Some(factors.as_slice()),
                        _ => None,
                    })
                    .flatten()
                    .filter_map(|f| graph.ops().get(f.dep.0))
                    .map(|dep| dep.output)
                    .collect(),
                split: t.split.as_ref().map(|sp| SplitPlan {
                    parks: t.plan.sliced.iter().map(|sl| sliced_out(sl.op)).collect(),
                    folds: t
                        .plan
                        .sliced
                        .iter()
                        .map(|sl| sl.op)
                        .zip(sp.combine.iter().copied())
                        .collect(),
                }),
                phase2: t.plan.two_phase.then_some(Phase2 {
                    ops: out_ops,
                    tile_stores,
                }),
            }
        });

        let globals = graph
            .values()
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, ValueKind::Input | ValueKind::Weight))
            .map(|(vi, _)| GlobalUse {
                value: ValueId(vi),
                varying: s
                    .temporal
                    .as_ref()
                    .is_some_and(|t| s.smg.value_has_dim(graph, ValueId(vi), t.plan.dim)),
                staged: s.mem.staged[vi],
                used_p1: used_p1[vi],
                used_p2: used_p2[vi],
            })
            .collect();

        // Axis resolution: an axis is cut by the first restricted
        // dimension it is aligned to, and only where it carries that
        // dimension's full extent (a unit placeholder axis is not cut).
        let restricted = |d: DimId| {
            let slot = s
                .spatial
                .iter()
                .map(|&(rd, _)| rd)
                .chain(s.temporal.as_ref().map(|t| t.plan.dim))
                .position(|rd| rd == d)?;
            // Below `MAX_RANK`: the slicer skips candidates restricting
            // more dimensions.
            Some(slot as u8)
        };
        let mut axis_off = Vec::with_capacity(n_vals + 1);
        let n_axes = graph.values().iter().map(|v| v.shape.rank().max(1)).sum();
        let mut axes = Vec::with_capacity(n_axes);
        for (vi, v) in graph.values().iter().enumerate() {
            axis_off.push(axes.len() as u32);
            let dims = v.shape.dims();
            match s.smg.value_axes.get(vi) {
                Some(aligned) if aligned.len() == dims.len() => {
                    axes.extend(dims.iter().zip(aligned).map(|(&e, &d)| {
                        if d.0 >= s.smg.dims.len() {
                            return AxisTile::Opaque;
                        }
                        match restricted(d) {
                            Some(slot) if e == s.smg.extent(d) => AxisTile::Tiled { slot },
                            _ => AxisTile::Full,
                        }
                    }));
                }
                _ => axes.extend(std::iter::repeat_n(AxisTile::Opaque, dims.len().max(1))),
            }
        }
        axis_off.push(axes.len() as u32);

        let mut sections: Vec<Section> = graph
            .values()
            .iter()
            .map(|v| match v.kind {
                ValueKind::Input | ValueKind::Weight => Section::Global,
                ValueKind::Intermediate => Section::Block,
            })
            .collect();
        if tiles.is_some() {
            for (op, role) in graph.ops().iter().zip(roles) {
                sections[op.output.0] = match role {
                    OpRole::InLoop => Section::Tile,
                    OpRole::SlicedReduction(_) => Section::Acc,
                    OpRole::PostLoop => Section::Block,
                };
            }
        }

        KernelPlan {
            globals,
            tiles,
            block_ops,
            block_stores,
            axis_off,
            axes,
            sections,
        }
    }

    /// The section of each value, indexed by `ValueId`.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The second streaming pass and the tile loop it re-runs, if the
    /// schedule has one.
    pub fn phase2(&self) -> Option<(&TileLoop, &Phase2)> {
        let tiles = self.tiles.as_ref()?;
        Some((tiles, tiles.phase2.as_ref()?))
    }

    /// How the schedule cuts each axis of `v`.
    pub fn axes(&self, v: ValueId) -> &[AxisTile] {
        &self.axes[self.axis_off[v.0] as usize..self.axis_off[v.0 + 1] as usize]
    }

    /// Per-axis `[start, end)` ranges of `v` under a restriction.
    pub(crate) fn ranges(&self, graph: &Graph, v: ValueId, restrict: &Restrict) -> Ranges {
        graph
            .shape(v)
            .dims()
            .iter()
            .zip(self.axes(v))
            .map(|(&e, axis)| axis.range(e, restrict))
            .collect()
    }
}

/// Enumerates the spatial block restrictions of a schedule in row-major
/// block order (first spatial dimension fastest): block `n` is the
/// mixed-radix decoding of `n` over the per-dimension block counts.
/// Lazy, because a paper-scale grid has 10⁵ blocks and the tracer only
/// ever needs one at a time.
pub(crate) fn blocks(s: &FusedSchedule) -> impl Iterator<Item = Restrict> {
    let grid: Vec<(DimId, usize, usize, usize)> = s
        .spatial
        .iter()
        .map(|&(d, b)| (d, b, s.smg.extent(d), s.smg.extent(d).div_ceil(b)))
        .collect();
    let n_blocks: usize = grid.iter().map(|&(.., count)| count).product();
    (0..n_blocks).map(move |mut n| {
        grid.iter()
            .map(|&(d, b, extent, count)| {
                let start = (n % count) * b;
                n /= count;
                (d, (start, (start + b).min(extent)))
            })
            .collect()
    })
}

/// The aggregation (Simple, or UTA with its update factors) of the
/// sliced reduction a [`Step::Reduce`] names by `idx`.
pub(crate) fn sliced_agg(s: &FusedSchedule, idx: usize) -> Option<&AggKind> {
    Some(&s.temporal.as_ref()?.plan.sliced.get(idx)?.agg)
}

/// Ops transitively needed to compute the given values.
fn needed_by(graph: &Graph, targets: &[ValueId]) -> Vec<bool> {
    let mut needed_vals = vec![false; graph.values().len()];
    for &t in targets {
        needed_vals[t.0] = true;
    }
    let mut needed_ops = vec![false; graph.ops().len()];
    for (oi, op) in graph.ops().iter().enumerate().rev() {
        if needed_vals[op.output.0] {
            needed_ops[oi] = true;
            for &i in &op.inputs {
                needed_vals[i.0] = true;
            }
        }
    }
    needed_ops
}

#[cfg(test)]
mod tests {
    use super::{Ranges, Restrict};
    use sf_tensor::{Shape, TensorView};
    use std::mem::{needs_drop, size_of};

    /// `Copy` and free of drop glue: what the executor builds per tile.
    const fn plain<T: Copy>() -> bool {
        !needs_drop::<T>()
    }

    #[test]
    fn tile_geometry_is_copy_without_drop_glue() {
        // Checked at compile time: per-tile geometry stays plain data,
        // and a shape stays five words (every cached program holds its
        // shapes).
        const _: () = assert!(plain::<Shape>() && plain::<TensorView<'static>>());
        const _: () = assert!(plain::<Restrict>() && plain::<Ranges>());
        const _: () = assert!(size_of::<Shape>() == 40);
    }
}
