//! A linear instruction form of a scheduled kernel.
//!
//! [`emit_pseudocode`](super::emit_pseudocode) renders a kernel's
//! [`KernelPlan`] for humans; this module renders it as a small
//! instruction stream that analyses can walk mechanically: staged
//! cooperative loads, block-wide barriers, per-operator computes with
//! explicit operand locations, the intra-block loop boundaries and the
//! final stores. The static verifier's barrier/race and
//! placement-consistency checks (see [`crate::verify`]) run over this
//! stream.
//!
//! Barrier discipline mirrors real cooperative kernels: any write that
//! lands in shared memory — a staged tile load or a compute producing a
//! block-visible intermediate — is followed by a block barrier before
//! other threads may read the buffer.

use super::plan::{sliced_agg, AxisTile, KernelPlan, Step};
use super::program::KernelProgram;
use crate::sched::{FusedSchedule, MemLevel};
use crate::slicer::AggKind;
use crate::smg::DimId;
use sf_ir::{Graph, OpId, ValueId, ValueKind};
use sf_tensor::ops::BinaryOp;

/// Where an operand access lands in the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSpace {
    /// Off-chip global memory (visible to every block).
    Global,
    /// Shared memory (visible within one block, requires barriers).
    Shared,
    /// Registers (private to one thread).
    Register,
}

/// Symbolic write interval of one stored-output axis as a function of
/// the spatial block index — the region algebra of the disjoint-write
/// prover ([`crate::verify::races`], DESIGN.md §3h).
///
/// The forms are read off the same axis resolution
/// ([`KernelPlan::axes`]) the executor's scatter uses: an axis aligned
/// to a spatially restricted dimension with matching extent receives
/// the block's tile, every other axis is written in full by every block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisWrite {
    /// Block `i` along `dim` writes `[i*block, min(i*block + span, clamp))`
    /// of an axis whose storage extent is `extent`.
    ///
    /// The lowering always emits `span == block` and
    /// `clamp == extent == smg.extent(dim)`; the prover re-checks those
    /// equalities rather than assuming them, so a corrupted stream (or a
    /// seeded mutation) is caught instead of trusted.
    Tiled {
        /// The partitioned global dimension.
        dim: DimId,
        /// Tile stride: block `i` starts at `i * block`.
        block: usize,
        /// Tile width actually written from the start offset.
        span: usize,
        /// Upper clamp applied to the tile end (the partitioned extent).
        clamp: usize,
        /// Declared storage extent of the axis.
        extent: usize,
    },
    /// Every block writes the whole axis `[0, extent)`. Harmless only
    /// when no other block coordinate varies, or when some *other* axis
    /// of the same store is tiled on every multi-block dimension.
    Full {
        /// Declared storage extent of the axis.
        extent: usize,
    },
    /// The axis cannot be expressed in the affine form (broken
    /// axis↔dimension alignment metadata). Forces `RACE505`.
    Opaque,
}

/// One instruction of the lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Cooperative staged load of a whole-block global tile into shared
    /// memory (lifetime: the whole block).
    LoadBlock {
        /// The staged global value.
        value: ValueId,
    },
    /// Cooperative per-intra-block tile load into shared memory (inside
    /// the temporal loop).
    LoadTile {
        /// The staged, loop-varying global value.
        value: ValueId,
    },
    /// Block-wide barrier (`__syncthreads`).
    Barrier,
    /// One operator evaluation: operand reads at their memory spaces,
    /// one output write.
    Compute {
        /// The evaluated operator.
        op: OpId,
        /// Operand reads (UTA updates additionally read their dependency
        /// accumulators).
        reads: Vec<(ValueId, MemSpace)>,
        /// The produced value and where it lands.
        write: (ValueId, MemSpace),
    },
    /// Start of the intra-block loop (`phase` 1 or 2).
    LoopBegin {
        /// 1 for the aggregation pass, 2 for the re-streaming pass.
        phase: u8,
    },
    /// End of the intra-block loop.
    LoopEnd {
        /// Matches the corresponding [`Instr::LoopBegin`].
        phase: u8,
    },
    /// Final store of an output back to global memory.
    Store {
        /// The stored output value.
        value: ValueId,
        /// Per-axis symbolic write footprint in the spatial block index.
        region: Vec<AxisWrite>,
    },
    /// Split-K phase-1 tail: each partition parks one sliced
    /// reduction's partial aggregate state in its partition-indexed
    /// scratch slot. The partition axis is encoded as a tiling of the
    /// sliced dimension (partition `p` owns tiles `[p·per, (p+1)·per)`),
    /// so the race prover's Tiled algebra discharges slot disjointness
    /// with the same rules as output scatters. The slot is worker
    /// scratch, not a published output: it never enters the prover's
    /// readback set.
    StorePartial {
        /// The sliced reduction's output (the partial state).
        value: ValueId,
        /// Per-axis footprint in the (spatial block × partition) index.
        region: Vec<AxisWrite>,
    },
    /// Split-K combine phase: after the phase-1 pool drain, folds one
    /// sliced reduction's `partitions` partial states pairwise in fixed
    /// partition order. `SLC104` re-checks this instruction against the
    /// combine algebra independently re-derived from the graph.
    Combine {
        /// The combined sliced reduction.
        op: OpId,
        /// Number of partition states folded — must cover the
        /// schedule's full partition count.
        partitions: usize,
        /// The associative merge operator.
        combine: BinaryOp,
        /// Whether both sides are rescaled by the reduction's UTA
        /// update factors before merging.
        rescaled: bool,
    },
}

/// What the lowering reads: a kernel's graph and schedule, and the
/// [`KernelPlan`] whose sections it renders as instructions.
struct Lowering<'a> {
    graph: &'a Graph,
    s: &'a FusedSchedule,
    plan: &'a KernelPlan,
}

impl<'a> Lowering<'a> {
    /// The lowering of `kp` as constructed.
    fn of(kp: &'a KernelProgram) -> Self {
        Lowering {
            graph: &kp.graph,
            s: &kp.schedule,
            plan: kp.plan(),
        }
    }

    /// See [`store_region`].
    fn store_region(&self, v: ValueId) -> Vec<AxisWrite> {
        let s = self.s;
        self.graph
            .shape(v)
            .dims()
            .iter()
            .zip(self.plan.axes(v))
            .map(|(&e, axis)| match *axis {
                AxisTile::Opaque => AxisWrite::Opaque,
                // Only spatial blocks run concurrently on an output: a
                // temporal tile slot leaves the axis written in full
                // over the block's lifetime.
                AxisTile::Tiled { slot } if usize::from(slot) < s.spatial.len() => {
                    let (dim, block) = s.spatial[usize::from(slot)];
                    AxisWrite::Tiled {
                        dim,
                        block,
                        span: block,
                        clamp: s.smg.extent(dim),
                        extent: e,
                    }
                }
                AxisTile::Tiled { .. } | AxisTile::Full => AxisWrite::Full { extent: e },
            })
            .collect()
    }

    /// See [`partial_region`].
    fn partial_region(&self, v: ValueId) -> Vec<AxisWrite> {
        let Some(tiles) = &self.plan.tiles else {
            return vec![AxisWrite::Opaque];
        };
        if tiles.dim.0 >= self.s.smg.dims.len() {
            return vec![AxisWrite::Opaque];
        }
        let stride = tiles.partition_stride();
        let mut region = vec![AxisWrite::Tiled {
            dim: tiles.dim,
            block: stride,
            span: stride,
            clamp: tiles.extent,
            extent: tiles.extent,
        }];
        region.extend(self.store_region(v));
        region
    }

    fn store(&self, value: ValueId) -> Instr {
        Instr::Store {
            value,
            region: self.store_region(value),
        }
    }

    fn store_partial(&self, value: ValueId) -> Instr {
        Instr::StorePartial {
            value,
            region: self.partial_region(value),
        }
    }

    /// Memory space an operand is read from.
    fn read_space(&self, v: ValueId) -> MemSpace {
        match self.graph.value(v).kind {
            ValueKind::Input | ValueKind::Weight => {
                if self.s.is_staged(v) {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                }
            }
            ValueKind::Intermediate => match self.s.level(v) {
                MemLevel::Shared => MemSpace::Shared,
                // Global-level intermediates (kernel outputs) stream back
                // through registers; reads of them inside the kernel see
                // the register copy.
                MemLevel::Register | MemLevel::Global => MemSpace::Register,
            },
        }
    }

    /// Memory space an op output is written to.
    fn write_space(&self, v: ValueId) -> MemSpace {
        match self.s.level(v) {
            MemLevel::Shared => MemSpace::Shared,
            MemLevel::Register | MemLevel::Global => MemSpace::Register,
        }
    }

    /// Appends op `oi` as a [`Instr::Compute`], with a trailing barrier
    /// when the result is published to shared memory. `sliced` is the
    /// reduction's index in the temporal plan when the op is a phase-1
    /// sliced reduction.
    fn push_compute(&self, out: &mut Vec<Instr>, oi: usize, sliced: Option<usize>) {
        let op = &self.graph.ops()[oi];
        let mut reads: Vec<(ValueId, MemSpace)> =
            op.inputs.iter().map(|&i| (i, self.read_space(i))).collect();
        // A UTA update additionally reads the accumulators of the earlier
        // sliced reductions it rescales by (paper Fig. 7, right).
        if let Some(AggKind::Uta(factors)) = sliced.and_then(|idx| sliced_agg(self.s, idx)) {
            for f in factors {
                if let Some(dep) = self.graph.ops().get(f.dep.0) {
                    reads.push((dep.output, MemSpace::Register));
                }
            }
        }
        let w = self.write_space(op.output);
        out.push(Instr::Compute {
            op: OpId(oi),
            reads,
            write: (op.output, w),
        });
        if w == MemSpace::Shared {
            out.push(Instr::Barrier);
        }
    }

    /// Cooperative loads of the staged globals that do (`varying`) or
    /// do not change per intra-block, followed by the barrier consumers
    /// must wait on before reading an element another thread loaded.
    fn push_staged_loads(&self, out: &mut Vec<Instr>, varying: bool) {
        let before = out.len();
        for g in &self.plan.globals {
            if g.staged && g.varying == varying {
                out.push(if varying {
                    Instr::LoadTile { value: g.value }
                } else {
                    Instr::LoadBlock { value: g.value }
                });
            }
        }
        if out.len() > before {
            out.push(Instr::Barrier);
        }
    }

    /// The whole stream: staged whole-block loads, then the plan's
    /// sections in order.
    fn lower(&self) -> Vec<Instr> {
        let plan = self.plan;
        let mut out = Vec::new();
        self.push_staged_loads(&mut out, false);
        if let Some(tiles) = &plan.tiles {
            out.push(Instr::LoopBegin { phase: 1 });
            self.push_staged_loads(&mut out, true);
            for step in &tiles.phase1 {
                match *step {
                    Step::Op(oi) => self.push_compute(&mut out, oi, None),
                    Step::Reduce { op, idx } => self.push_compute(&mut out, op, Some(idx)),
                }
            }
            out.push(Instr::LoopEnd { phase: 1 });

            // Split-K: each partition parks its partial aggregate
            // states (the phase-1 tail), then — after the pool drain —
            // the combine phase folds them in fixed partition order.
            if let Some(split) = &tiles.split {
                out.extend(split.parks.iter().map(|&v| self.store_partial(v)));
                out.extend(split.folds.iter().map(|&(op, spec)| Instr::Combine {
                    op,
                    partitions: tiles.partitions,
                    combine: spec.op,
                    rescaled: spec.rescale,
                }));
            }
        }
        for &oi in &plan.block_ops {
            self.push_compute(&mut out, oi, None);
        }
        if let Some((_, p2)) = plan.phase2() {
            out.push(Instr::LoopBegin { phase: 2 });
            self.push_staged_loads(&mut out, true);
            for &oi in &p2.ops {
                self.push_compute(&mut out, oi, None);
            }
            out.extend(p2.tile_stores.iter().map(|&o| self.store(o)));
            out.push(Instr::LoopEnd { phase: 2 });
        }
        out.extend(plan.block_stores.iter().map(|&o| self.store(o)));
        out
    }

    /// Only the [`Instr::Store`] / [`Instr::StorePartial`] instructions
    /// of [`lower`](Self::lower), in stream order.
    fn lower_stores(&self) -> Vec<Instr> {
        let plan = self.plan;
        let split = plan.tiles.as_ref().and_then(|tiles| tiles.split.as_ref());
        let parks = split.iter().flat_map(|sp| &sp.parks);
        let tile_stores = plan
            .phase2()
            .into_iter()
            .flat_map(|(_, p2)| &p2.tile_stores);
        parks
            .map(|&v| self.store_partial(v))
            .chain(
                tile_stores
                    .chain(&plan.block_stores)
                    .map(|&o| self.store(o)),
            )
            .collect()
    }
}

/// Symbolic write footprint of storing `v` under `kp`'s schedule.
///
/// Read off the plan's axis resolution, i.e. exactly the ranges the
/// executor's scatter writes: an axis is tiled iff its declared extent
/// equals the global extent of the dimension it is aligned to *and* that
/// dimension is spatially restricted; otherwise the whole axis is
/// written by every block. Broken alignment metadata (rank mismatch,
/// dangling dimension ids) degrades to [`AxisWrite::Opaque`], which the
/// prover reports as `RACE505`.
pub fn store_region(kp: &KernelProgram, v: ValueId) -> Vec<AxisWrite> {
    Lowering::of(kp).store_region(v)
}

/// Symbolic write footprint of one partition's partial-state slot under
/// a split-K schedule.
///
/// The first axis is the partition index, encoded as a tiling of the
/// sliced dimension: partition `p` covers tiles `[p·per, (p+1)·per)`,
/// i.e. elements `[p·per·tb, min((p+1)·per·tb, extent))`, so distinct
/// partitions own disjoint intervals exactly like spatial blocks along
/// a tiled output axis. The remaining axes are the state's own
/// footprint in the spatial block index ([`store_region`]). A schedule
/// without temporal slicing has no partial states; the footprint
/// degrades to [`AxisWrite::Opaque`].
pub fn partial_region(kp: &KernelProgram, v: ValueId) -> Vec<AxisWrite> {
    Lowering::of(kp).partial_region(v)
}

/// Lowers a kernel into its linear instruction stream.
///
/// This is the verifier's input, and the verifier must also judge
/// kernels whose public `graph` / `schedule` fields were edited after
/// construction (the mutation harness does exactly that), so the stream
/// is lowered from a plan rebuilt from the current fields rather than
/// from [`KernelProgram::plan`]. Both come from the one
/// [`KernelPlan::build`], so for an unedited kernel this is the plan the
/// executor walks.
pub fn lower_instructions(kp: &KernelProgram) -> Vec<Instr> {
    let plan = KernelPlan::build(&kp.graph, &kp.schedule, &kp.roles);
    Lowering {
        graph: &kp.graph,
        s: &kp.schedule,
        plan: &plan,
    }
    .lower()
}

/// The store instructions of the kernel as constructed — all the
/// disjoint-write proof at construction needs, without lowering the
/// whole stream per tuner candidate.
pub(crate) fn lower_stores(kp: &KernelProgram) -> Vec<Instr> {
    Lowering::of(kp).lower_stores()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn temporal_mha_lowers_to_loop_with_barriers() {
        let g = mha(8192);
        let p = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let instrs = lower_instructions(&p.kernels[0]);
        assert!(instrs.contains(&Instr::LoopBegin { phase: 1 }));
        assert!(instrs.contains(&Instr::LoopEnd { phase: 1 }));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Barrier)));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Store { .. })));
        // Every shared compute write is immediately followed by a
        // barrier (the cooperative publication rule).
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::Compute {
                write: (_, MemSpace::Shared),
                ..
            } = ins
            {
                assert_eq!(instrs.get(i + 1), Some(&Instr::Barrier), "at {i}");
            }
        }
    }

    #[test]
    fn flat_kernel_has_no_loop_markers() {
        let g = mha(64);
        let p = CompileSession::with_policy(Arch::Hopper, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let kp = &p.kernels[0];
        if kp.schedule.temporal.is_none() {
            let instrs = lower_instructions(kp);
            assert!(!instrs.iter().any(|i| matches!(i, Instr::LoopBegin { .. })));
            let computes = instrs
                .iter()
                .filter(|i| matches!(i, Instr::Compute { .. }))
                .count();
            assert_eq!(computes, kp.graph.ops().len());
        }
    }
}
