//! Resource-aware slicing (paper §5.1, Algorithm 1).

use super::memory::assign_memory;
use super::schedule::{normalize_partitions, FusedSchedule, SplitK, TemporalSchedule};
use crate::error::{Result, SfError};
use crate::resilience::Deadline;
use crate::slicer::{
    derive_combine, eligible_spatial_dims, pick_temporal_dim, plan_temporal, AggKind, TemporalPlan,
};
use crate::smg::{DimId, Smg};
use sf_gpu_sim::GpuArch;
use sf_ir::Graph;
use sf_tensor::MAX_RANK;

/// Options controlling the slicing process (also used to model the
/// baseline systems' restricted capabilities and the ablation variants).
#[derive(Debug, Clone)]
pub struct SlicingOptions {
    /// Attempt temporal slicing (§4.3). Disabled for the `Base(SS)`
    /// ablation variant.
    pub enable_temporal: bool,
    /// Allow Update-then-Aggregate. Disabled to model tile-graph systems
    /// (Welder/NNFusion) that cannot transform intra-operator
    /// dependencies.
    pub enable_uta: bool,
    /// Use only this spatial block size (expert-fixed, for the
    /// auto-scheduling-disabled ablation variants).
    pub fixed_spatial_block: Option<usize>,
    /// Use only this temporal block size.
    pub fixed_temporal_block: Option<usize>,
    /// Enumerate split-K variants of temporally sliced schedules
    /// (partitioned tile loop + combine phase). Off for expert-pinned
    /// ablation variants, which model systems without partial-aggregate
    /// schedules.
    pub enable_split: bool,
    /// Cap on the number of feasible schedules returned.
    pub max_configs: usize,
    /// Wall-clock budget for the enumeration. When it expires the loop
    /// stops and returns the feasible configurations found so far — at
    /// least one spatial configuration is always checked, so an expired
    /// deadline narrows the search space but never fails a graph that
    /// has any feasible schedule.
    pub deadline: Deadline,
}

impl Default for SlicingOptions {
    fn default() -> Self {
        SlicingOptions {
            enable_temporal: true,
            enable_uta: true,
            fixed_spatial_block: None,
            fixed_temporal_block: None,
            enable_split: true,
            max_configs: 128,
            deadline: Deadline::none(),
        }
    }
}

/// Candidate block sizes for one dimension of the given extent.
///
/// `min_block` models backend tiling granularity: dimensions that feed a
/// GEMM iteration space cannot be tiled below the tensor-core MMA shape
/// (16), which is what makes flat long-sequence attention genuinely
/// infeasible rather than "feasible with one-row blocks".
fn candidate_sizes(extent: usize, min_block: usize, fixed: Option<usize>) -> Vec<usize> {
    if let Some(b) = fixed {
        return vec![b.clamp(min_block.min(extent), extent.max(1))];
    }
    let mut sizes: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&b| b <= extent && b >= min_block)
        .collect();
    if sizes.is_empty() {
        sizes.push(extent.max(1));
    }
    sizes
}

/// Minimum block size of a dimension: 16 when the dimension participates
/// in any GEMM iteration space, 1 otherwise.
fn min_block_of(graph: &Graph, smg: &Smg, d: DimId) -> usize {
    let in_gemm = graph.ops().iter().enumerate().any(|(oi, op)| {
        matches!(op.kind, sf_ir::OpKind::Gemm { .. })
            && smg.spaces[smg.iter_space[oi].0].dims.contains(&d)
    });
    if in_gemm {
        16
    } else {
        1
    }
}

/// Candidate split factors. Raw powers of two are normalized against
/// the tile count (every partition must own ≥ 1 tile) and deduplicated;
/// a factor that collapses to 1 is dropped.
const SPLIT_FACTORS: [usize; 3] = [2, 4, 8];

/// Split-K schedule variants for one temporal plan at tile size `tb`:
/// one [`SplitK`] per distinct effective partition count, or none when
/// any sliced reduction lacks a combinable partial-state algebra.
fn split_k_variants(graph: &Graph, plan: &TemporalPlan, extent: usize, tb: usize) -> Vec<SplitK> {
    let n_tiles = extent.div_ceil(tb);
    if n_tiles < 2 {
        return Vec::new();
    }
    let Some(combine) = derive_combine(graph, plan) else {
        return Vec::new();
    };
    let mut out: Vec<SplitK> = Vec::new();
    for want in SPLIT_FACTORS {
        let p = normalize_partitions(n_tiles, want);
        if p >= 2 && !out.iter().any(|s| s.partitions == p) {
            out.push(SplitK {
                partitions: p,
                combine: combine.clone(),
            });
        }
    }
    out
}

/// Finds the highest-priority temporal plan, skipping dimensions whose
/// dependency chains cannot be transformed (paper §4.3's △ cases fall
/// back to the next-priority dimension).
pub(crate) fn find_temporal_plan(
    graph: &Graph,
    smg: &Smg,
    spatial: &[DimId],
    opts: &SlicingOptions,
) -> Option<TemporalPlan> {
    let mut excluded: Vec<DimId> = spatial.to_vec();
    while let Some(dim) = pick_temporal_dim(graph, smg, &excluded) {
        match plan_temporal(graph, smg, dim) {
            Ok(plan) => {
                let needs_uta = plan.sliced.iter().any(|s| matches!(s.agg, AggKind::Uta(_)));
                if needs_uta && !opts.enable_uta {
                    excluded.push(dim);
                    continue;
                }
                // Slicing a dimension with no reductions and no benefit
                // is pointless; require at least one sliced mapping.
                return Some(plan);
            }
            Err(_) => excluded.push(dim),
        }
    }
    None
}

/// A concrete schedule of `graph` with its memory hierarchy assigned
/// (§5.4) under `arch`'s staging limit: the one place a
/// [`FusedSchedule`] is assembled.
pub(crate) fn fused_schedule(
    graph: &Graph,
    smg: Smg,
    spatial: Vec<(DimId, usize)>,
    temporal: Option<TemporalSchedule>,
    arch: &GpuArch,
) -> FusedSchedule {
    let mem = assign_memory(
        graph,
        &smg,
        &spatial,
        temporal.as_ref(),
        arch.smem_per_block / 4,
    );
    FusedSchedule {
        smg,
        spatial,
        temporal,
        mem,
    }
}

/// Algorithm 1: slices `smg` spatially then temporally and enumerates the
/// block-size configurations that satisfy `arch`'s resource constraints.
///
/// Returns every feasible concrete schedule (the tuner selects among
/// them). Fails with [`SfError::NoSpatialDim`] when no dimension is
/// spatially sliceable and with [`SfError::ResourceInfeasible`] when no
/// configuration fits — both trigger SMG partitioning in the caller.
/// The compile pipeline runs the three steps itself to time each one.
pub fn resource_aware_slicing(
    graph: &Graph,
    smg: &Smg,
    arch: &GpuArch,
    opts: &SlicingOptions,
) -> Result<Vec<FusedSchedule>> {
    let spatial_dims = eligible_spatial_dims(graph, smg);
    let plan = slice_temporally(graph, smg, &spatial_dims, opts);
    enum_cfg(graph, smg, arch, opts, &spatial_dims, plan.as_ref())
}

/// Alg. 1's temporal step (`TS.getPriorDim + TS.slice`): the plan every
/// temporally sliced candidate uses, or `None` when temporal slicing is
/// off or the spatial dimensions leave no rank for a tile.
pub(crate) fn slice_temporally(
    graph: &Graph,
    smg: &Smg,
    spatial_dims: &[DimId],
    opts: &SlicingOptions,
) -> Option<TemporalPlan> {
    if opts.enable_temporal && spatial_dims.len() < MAX_RANK {
        find_temporal_plan(graph, smg, spatial_dims, opts)
    } else {
        None
    }
}

/// Alg. 1's `enumCfg`: every feasible block configuration over the
/// spatial dimensions `spatial_dims` (when no dimension is
/// dependency-free, single-block schedules of grid 1 per instance —
/// batch-like instances still provide inter-block parallelism), with
/// and without the temporal `plan`.
pub(crate) fn enum_cfg(
    graph: &Graph,
    smg: &Smg,
    arch: &GpuArch,
    opts: &SlicingOptions,
    spatial_dims: &[DimId],
    plan: Option<&TemporalPlan>,
) -> Result<Vec<FusedSchedule>> {
    // A block restricts every spatial dimension and a tile one more, in
    // at most `MAX_RANK` inline entries: skip candidates exceeding that.
    if spatial_dims.len() > MAX_RANK {
        let why = format!("'{}': over {MAX_RANK} spatial dims", graph.name());
        return Err(SfError::ResourceInfeasible(why));
    }

    // Enumerate spatial configurations (cross product over dims; a
    // single empty configuration when nothing is sliceable).
    let per_dim: Vec<Vec<usize>> = spatial_dims
        .iter()
        .map(|&d| {
            candidate_sizes(
                smg.extent(d),
                min_block_of(graph, smg, d),
                opts.fixed_spatial_block,
            )
        })
        .collect();
    let mut spatial_cfgs: Vec<Vec<usize>> = vec![Vec::new()];
    for sizes in &per_dim {
        let mut next = Vec::with_capacity(spatial_cfgs.len() * sizes.len());
        for cfg in &spatial_cfgs {
            for &s in sizes {
                let mut c = cfg.clone();
                c.push(s);
                next.push(c);
            }
        }
        spatial_cfgs = next;
    }

    let mut feasible: Vec<FusedSchedule> = Vec::new();
    for (ci, cfg) in spatial_cfgs.iter().enumerate() {
        // Deadline: stop enumerating once the budget is gone, keeping
        // whatever is already feasible. The first configuration is
        // always checked so best-so-far is never empty-by-timeout
        // alone.
        if ci > 0 && opts.deadline.expired() {
            break;
        }
        let spatial: Vec<(DimId, usize)> = spatial_dims
            .iter()
            .copied()
            .zip(cfg.iter().copied())
            .collect();

        // Spatial-only variant.
        let s = fused_schedule(graph, smg.clone(), spatial.clone(), None, arch);
        if arch.block_fits(s.smem_per_block(graph), s.regs_per_block(graph)) {
            feasible.push(s);
        }

        // Temporally sliced variants. The paper notes slicing is
        // attempted whether or not the spatial schedule already fits:
        // "some SMGs that cannot satisfy the hardware resource
        // constraints during the spatial slicing become efficient after
        // being temporal sliced".
        if let Some(plan) = plan {
            let tmin = min_block_of(graph, smg, plan.dim);
            for tb in candidate_sizes(smg.extent(plan.dim), tmin, opts.fixed_temporal_block) {
                if tb < 8 && smg.extent(plan.dim) >= 8 {
                    continue; // degenerate intra-blocks.
                }
                let temporal = Some(TemporalSchedule {
                    plan: plan.clone(),
                    block: tb,
                    split: None,
                });
                let s = fused_schedule(graph, smg.clone(), spatial.clone(), temporal, arch);
                if arch.block_fits(s.smem_per_block(graph), s.regs_per_block(graph)) {
                    // Split-K variants: partition the tile loop into P
                    // parallel partial accumulators when every sliced
                    // reduction has a combinable partial-state algebra
                    // (§ DESIGN 3i). The serial variant stays in the
                    // pool too — the tuner arbitrates. Expert-pinned
                    // configurations never split: without the tuner the
                    // pipeline picks the last candidate blindly, and
                    // the systems those ablations model have no
                    // partial-aggregate schedules.
                    let splits = if opts.enable_split
                        && opts.fixed_spatial_block.is_none()
                        && opts.fixed_temporal_block.is_none()
                    {
                        split_k_variants(graph, plan, smg.extent(plan.dim), tb)
                    } else {
                        Vec::new()
                    };
                    feasible.push(s);
                    for split in splits {
                        let temporal = Some(TemporalSchedule {
                            plan: plan.clone(),
                            block: tb,
                            split: Some(split),
                        });
                        feasible.push(fused_schedule(
                            graph,
                            smg.clone(),
                            spatial.clone(),
                            temporal,
                            arch,
                        ));
                    }
                }
            }
        }
        if feasible.len() >= opts.max_configs * 2 {
            break;
        }
    }

    if feasible.is_empty() {
        return Err(SfError::ResourceInfeasible(format!(
            "graph '{}' ({} ops) has no feasible block configuration on {}",
            graph.name(),
            graph.ops().len(),
            arch.name
        )));
    }
    feasible.truncate(opts.max_configs);
    Ok(feasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smg::build_smg;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha(m: usize, l: usize, k: usize) -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("q", Shape::new(vec![m, k]));
        let kk = g.input("k", Shape::new(vec![l, k]));
        let v = g.input("v", Shape::new(vec![l, k]));
        let qk = g.gemm(q, kk, true).unwrap();
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
    fn mha_long_sequence_requires_temporal_slicing() {
        let g = mha(4096, 4096, 64);
        let smg = build_smg(&g).unwrap();
        let arch = GpuArch::volta();
        let schedules =
            resource_aware_slicing(&g, &smg, &arch, &SlicingOptions::default()).unwrap();
        assert!(!schedules.is_empty());
        // Every feasible schedule at this size is temporally sliced.
        assert!(schedules.iter().all(|s| s.temporal.is_some()));
    }

    #[test]
    fn without_uta_long_mha_is_infeasible() {
        // Models the tile-graph (Welder) limitation: the dependent
        // reduction chain cannot be sliced, and the flat intermediate
        // does not fit.
        let g = mha(4096, 4096, 64);
        let smg = build_smg(&g).unwrap();
        let arch = GpuArch::volta();
        let opts = SlicingOptions {
            enable_uta: false,
            ..Default::default()
        };
        let err = resource_aware_slicing(&g, &smg, &arch, &opts);
        assert!(matches!(err, Err(SfError::ResourceInfeasible(_))));
    }

    #[test]
    fn short_mha_fits_without_temporal_slicing_too() {
        let g = mha(256, 128, 64);
        let smg = build_smg(&g).unwrap();
        let arch = GpuArch::ampere();
        let schedules =
            resource_aware_slicing(&g, &smg, &arch, &SlicingOptions::default()).unwrap();
        assert!(schedules.iter().any(|s| s.temporal.is_none()));
        assert!(schedules.iter().any(|s| s.temporal.is_some()));
    }

    #[test]
    fn all_schedules_respect_resource_bounds() {
        let g = mha(1024, 1024, 64);
        let smg = build_smg(&g).unwrap();
        for arch in [GpuArch::volta(), GpuArch::ampere(), GpuArch::hopper()] {
            let schedules =
                resource_aware_slicing(&g, &smg, &arch, &SlicingOptions::default()).unwrap();
            for s in &schedules {
                assert!(s.smem_per_block(&g) <= arch.smem_per_block);
                assert!(s.regs_per_block(&g) <= arch.regs_per_block);
            }
        }
    }

    #[test]
    fn fixed_blocks_reduce_the_search_space() {
        let g = mha(1024, 1024, 64);
        let smg = build_smg(&g).unwrap();
        let arch = GpuArch::ampere();
        let opts = SlicingOptions {
            fixed_spatial_block: Some(64),
            fixed_temporal_block: Some(64),
            ..Default::default()
        };
        let schedules = resource_aware_slicing(&g, &smg, &arch, &opts).unwrap();
        assert!(schedules.len() <= 2);
        for s in &schedules {
            assert_eq!(s.spatial[0].1, 64);
        }
    }

    #[test]
    fn unsliceable_graph_falls_back_to_single_block() {
        // A graph whose every dimension carries a reduction cannot be
        // spatially sliced; it is scheduled as one block per instance.
        let mut g = Graph::new("t", DType::F16);
        let x = g.input("x", Shape::new(vec![1, 64]));
        let s = g.reduce(ReduceOp::Sum, x, 1).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        g.mark_output(e);
        let smg = build_smg(&g).unwrap();
        let schedules =
            resource_aware_slicing(&g, &smg, &GpuArch::ampere(), &SlicingOptions::default())
                .unwrap();
        assert!(schedules.iter().all(|s| s.grid() == 1));
    }

    #[test]
    fn candidates_restricting_more_than_max_rank_dims_are_skipped() {
        // `chains` independent row-reduce chains: two spatially sliceable
        // dimensions each, plus the reduced ones.
        let wide = |chains: usize| {
            let mut g = Graph::new("wide", DType::F32);
            for i in 0..chains {
                let x = g.input(format!("x{i}"), Shape::new(vec![8 + i, 4, 16]));
                let s = g.reduce(ReduceOp::Sum, x, 2).unwrap();
                g.mark_output(s);
            }
            g
        };
        let slice = |g: &Graph| {
            let smg = build_smg(g).unwrap();
            resource_aware_slicing(g, &smg, &GpuArch::ampere(), &SlicingOptions::default())
        };
        // Four spatial dimensions fit a block but leave no room for a tile.
        let four = slice(&wide(2)).unwrap();
        assert!(four
            .iter()
            .all(|s| s.spatial.len() == 4 && s.temporal.is_none()));
        // Six do not fit: the caller partitions, and the pieces compile
        // and execute bit-identically to the reference.
        assert!(matches!(
            slice(&wide(3)),
            Err(SfError::ResourceInfeasible(_))
        ));
        let g = wide(3);
        let program = crate::pipeline::CompileSession::with_policy(
            sf_gpu_sim::Arch::Ampere,
            crate::pipeline::FusionPolicy::SpaceFusion,
        )
        .compile(&g)
        .unwrap();
        let bindings = g.random_bindings(3);
        let (got, want) = (
            program.execute(&bindings).unwrap(),
            g.execute(&bindings).unwrap(),
        );
        for (got, want) in got.iter().zip(&want) {
            sf_tensor::assert_tensors_bitwise("wide", got, want);
        }
    }

    #[test]
    fn candidate_sizes_respect_extent_and_min_block() {
        assert_eq!(candidate_sizes(5, 1, None), vec![1, 2, 4]);
        assert_eq!(candidate_sizes(64, 1, Some(32)), vec![32]);
        assert_eq!(candidate_sizes(16, 1, Some(64)), vec![16]);
        assert!(candidate_sizes(4096, 16, None).contains(&256));
        assert!(!candidate_sizes(4096, 16, None).contains(&8));
    }
}
