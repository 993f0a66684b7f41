//! Concrete fusion schedules.

use super::memory::{MemLevel, MemoryAssignment};
use crate::slicer::{CombineSpec, TemporalPlan};
use crate::smg::{DimId, Smg};
use sf_ir::{Graph, ValueId};

/// Split-K reduction: the temporal tile loop is cut into `partitions`
/// independent ranges, each producing a partial aggregate state, folded
/// by a deterministic fixed-order combine phase (Neptune-style split
/// reduction / FlashDecoding). The serial executor walks partitions in
/// the same order with the same combine, so results are bit-identical
/// at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitK {
    /// Number of parallel partial accumulators (≥ 2, and every
    /// partition owns a non-empty tile range — see
    /// [`normalize_partitions`]).
    pub partitions: usize,
    /// Per-sliced-reduction combine algebra, in
    /// [`TemporalPlan::sliced`] order.
    pub combine: Vec<CombineSpec>,
}

/// Temporal slicing with its chosen intra-block size.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSchedule {
    /// The slicing plan (dimension, sliced reductions, phases).
    pub plan: TemporalPlan,
    /// Intra-block extent along the sliced dimension.
    pub block: usize,
    /// Optional split-K partitioning of the tile loop.
    pub split: Option<SplitK>,
}

impl TemporalSchedule {
    /// Number of split-K partitions (1 when unsplit).
    pub fn partitions(&self) -> usize {
        self.split.as_ref().map_or(1, |s| s.partitions)
    }
}

/// Largest partition count `≤ want` for which every partition owns at
/// least one of `n_tiles` tiles under the `ceil(T/P)`-sized blocking.
/// Iterating `P ↦ ceil(T / ceil(T/P))` to its fixed point removes the
/// trailing empty partitions a naive ceil-split can produce (e.g.
/// `T=5, want=4` gives per=2 and only 3 non-empty partitions).
pub fn normalize_partitions(n_tiles: usize, want: usize) -> usize {
    let mut p = want.clamp(1, n_tiles.max(1));
    loop {
        let per = n_tiles.div_ceil(p).max(1);
        let effective = n_tiles.div_ceil(per).max(1);
        if effective == p {
            return p;
        }
        p = effective;
    }
}

/// A fully concrete schedule for one fused kernel.
#[derive(Debug, Clone)]
pub struct FusedSchedule {
    /// The SMG this schedule slices.
    pub smg: Smg,
    /// Spatially sliced dimensions with their block sizes.
    pub spatial: Vec<(DimId, usize)>,
    /// Optional temporal slicing.
    pub temporal: Option<TemporalSchedule>,
    /// Memory-hierarchy assignment of every value.
    pub mem: MemoryAssignment,
}

/// Role of an operator under a temporal schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpRole {
    /// Executed once per intra-block (its output spans the sliced dim).
    InLoop,
    /// A sliced reduction: aggregated across intra-blocks. The payload is
    /// the index into [`TemporalPlan::sliced`].
    SlicedReduction(usize),
    /// Executed after the intra-block loop on finalized aggregates.
    PostLoop,
}

impl FusedSchedule {
    /// All dimension restrictions of one block (spatial blocks plus the
    /// temporal block when present) — the tile footprint context.
    pub fn block_restrictions(&self) -> Vec<(DimId, usize)> {
        let mut r = self.spatial.clone();
        if let Some(t) = &self.temporal {
            r.push((t.plan.dim, t.block));
        }
        r
    }

    /// Restrictions that persist for the whole block (spatial only).
    pub fn spatial_restrictions(&self) -> &[(DimId, usize)] {
        &self.spatial
    }

    /// Number of thread blocks per instance.
    pub fn grid(&self) -> u64 {
        self.spatial
            .iter()
            .map(|&(d, b)| self.smg.extent(d).div_ceil(b) as u64)
            .product()
    }

    /// Number of intra-blocks in the temporal loop (1 if unsliced).
    pub fn intra_blocks(&self) -> u64 {
        match &self.temporal {
            Some(t) => self.smg.extent(t.plan.dim).div_ceil(t.block) as u64,
            None => 1,
        }
    }

    /// Shared-memory bytes per block (liveness-aware maximum).
    pub fn smem_per_block(&self, graph: &Graph) -> u64 {
        super::memory::smem_per_block(graph, self)
    }

    /// Register bytes per block.
    pub fn regs_per_block(&self, graph: &Graph) -> u64 {
        super::memory::regs_per_block(graph, self)
    }

    /// Whether `v` is staged in shared memory for the whole block.
    pub fn is_staged(&self, v: ValueId) -> bool {
        self.mem.staged[v.0]
    }

    /// Memory level of `v`.
    pub fn level(&self, v: ValueId) -> MemLevel {
        self.mem.level[v.0]
    }
}

/// Classifies every operator of `graph` under `schedule`.
///
/// Without temporal slicing every op is [`OpRole::InLoop`] (there is a
/// single implicit intra-block).
pub fn op_roles(graph: &Graph, schedule: &FusedSchedule) -> Vec<OpRole> {
    let Some(t) = &schedule.temporal else {
        return vec![OpRole::InLoop; graph.ops().len()];
    };
    let dim = t.plan.dim;
    graph
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if let Some(idx) = t.plan.sliced.iter().position(|s| s.op.0 == i) {
                OpRole::SlicedReduction(idx)
            } else if schedule.smg.value_has_dim(graph, op.output, dim) {
                OpRole::InLoop
            } else {
                OpRole::PostLoop
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::memory::assign_memory;
    use crate::slicer::plan_temporal;
    use crate::smg::build_smg;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn softmax(m: usize, n: usize) -> Graph {
        let mut g = Graph::new("softmax", DType::F16);
        let x = g.input("x", Shape::new(vec![m, n]));
        let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, z).unwrap();
        g.mark_output(d);
        g
    }

    #[test]
    fn grid_and_intra_block_counts() {
        let g = softmax(100, 256);
        let smg = build_smg(&g).unwrap();
        let m_dim = smg.value_axes[0][0];
        let n_dim = smg.value_axes[0][1];
        let plan = plan_temporal(&g, &smg, n_dim).unwrap();
        let spatial = vec![(m_dim, 16)];
        let temporal = Some(TemporalSchedule {
            plan,
            block: 64,
            split: None,
        });
        let mem = assign_memory(&g, &smg, &spatial, temporal.as_ref(), 32 << 10);
        let s = FusedSchedule {
            smg,
            spatial,
            temporal,
            mem,
        };
        assert_eq!(s.grid(), 7); // ceil(100/16)
        assert_eq!(s.intra_blocks(), 4); // ceil(256/64)
        assert_eq!(s.block_restrictions().len(), 2);
    }

    #[test]
    fn roles_classify_reductions_and_loop_ops() {
        let g = softmax(64, 256);
        let smg = build_smg(&g).unwrap();
        let m_dim = smg.value_axes[0][0];
        let n_dim = smg.value_axes[0][1];
        let plan = plan_temporal(&g, &smg, n_dim).unwrap();
        let spatial = vec![(m_dim, 16)];
        let temporal = Some(TemporalSchedule {
            plan,
            block: 64,
            split: None,
        });
        let mem = assign_memory(&g, &smg, &spatial, temporal.as_ref(), 32 << 10);
        let s = FusedSchedule {
            smg,
            spatial,
            temporal,
            mem,
        };
        let roles = op_roles(&g, &s);
        // max, sub, exp, sum, div.
        assert_eq!(roles[0], OpRole::SlicedReduction(0));
        assert_eq!(roles[1], OpRole::InLoop);
        assert_eq!(roles[2], OpRole::InLoop);
        assert_eq!(roles[3], OpRole::SlicedReduction(1));
        assert_eq!(roles[4], OpRole::InLoop);
    }

    #[test]
    fn no_temporal_means_all_in_loop() {
        let g = softmax(64, 64);
        let smg = build_smg(&g).unwrap();
        let m_dim = smg.value_axes[0][0];
        let spatial = vec![(m_dim, 16)];
        let mem = assign_memory(&g, &smg, &spatial, None, 32 << 10);
        let s = FusedSchedule {
            smg,
            spatial,
            temporal: None,
            mem,
        };
        assert!(op_roles(&g, &s).iter().all(|r| *r == OpRole::InLoop));
        assert_eq!(s.intra_blocks(), 1);
    }
}
