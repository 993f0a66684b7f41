//! Mutation-style negative tests for the static verifier.
//!
//! Each test takes a known-good compiled kernel (MHA with a long
//! sequence: temporal slicing, UTA, staged loads — every analyzer has
//! something to look at), corrupts exactly one invariant, and asserts
//! the verifier reports the expected diagnostic code. Together with the
//! clean-baseline test this pins down both directions: real kernels
//! lint clean, every seeded violation is caught.

use sf_gpu_sim::{Arch, GpuArch};
use sf_ir::{Graph, OpId};
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape};
use spacefusion::codegen::{lower_instructions, AxisWrite, Instr, KernelProgram, MemSpace};
use spacefusion::sched::SplitK;
use spacefusion::slicer::derive_combine;
use spacefusion::slicer::AggKind;
use spacefusion::smg::{DimId, Mapping, MappingKind};
use spacefusion::verify::{
    check_instructions, check_partial_aggregate, check_races, verify_kernel, DiagCode,
};
use spacefusion::{CompileSession, FusionPolicy};

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

/// A temporally sliced MHA kernel (UTA accumulators, staged loads) plus
/// its target architecture.
fn mha_kernel() -> (KernelProgram, GpuArch) {
    let p = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
        .compile(&mha(8192))
        .unwrap();
    assert_eq!(p.kernels.len(), 1, "MHA should fuse into one kernel");
    let kp = p.kernels.into_iter().next().unwrap();
    assert!(
        kp.schedule.temporal.is_some(),
        "long-L MHA should slice temporally"
    );
    (kp, p.arch)
}

fn codes(kp: &KernelProgram, arch: &GpuArch) -> Vec<DiagCode> {
    verify_kernel(kp, arch)
        .into_iter()
        .map(|d| d.code)
        .collect()
}

#[track_caller]
fn assert_flags(kp: &KernelProgram, arch: &GpuArch, expected: DiagCode) {
    let found = codes(kp, arch);
    assert!(
        found.contains(&expected),
        "expected {expected:?} ({}), got {found:?}",
        expected.code()
    );
}

#[test]
fn baseline_kernel_is_clean() {
    let (kp, arch) = mha_kernel();
    assert_eq!(codes(&kp, &arch), Vec::new());
}

#[test]
fn smg001_reclassified_reduction_mapping() {
    let (mut kp, arch) = mha_kernel();
    let mi = kp
        .schedule
        .smg
        .mappings
        .iter()
        .position(|m| matches!(m.kind, MappingKind::AllToOne(_)))
        .unwrap();
    kp.schedule.smg.mappings[mi].kind = MappingKind::OneToOne;
    assert_flags(&kp, &arch, DiagCode::SmgMappingClass);
}

#[test]
fn smg002_dangling_direction_dimension() {
    let (mut kp, arch) = mha_kernel();
    let mi = kp
        .schedule
        .smg
        .mappings
        .iter()
        .position(|m| m.kind.dim().is_some())
        .unwrap();
    kp.schedule.smg.mappings[mi].kind = MappingKind::AllToOne(DimId(999));
    assert_flags(&kp, &arch, DiagCode::SmgDirectionDim);
}

#[test]
fn smg003_extent_mismatch_after_dimension_corruption() {
    let (mut kp, arch) = mha_kernel();
    let d = kp.schedule.smg.value_axes[0][0]; // Q's row dimension.
    kp.schedule.smg.dims[d.0].extent += 5;
    assert_flags(&kp, &arch, DiagCode::SmgDimAlignment);
}

#[test]
fn smg004_cycle_through_reversed_edge() {
    let (mut kp, arch) = mha_kernel();
    let m = kp.schedule.smg.mappings[0];
    kp.schedule.smg.mappings.push(Mapping {
        src: m.dst,
        dst: m.src,
        kind: MappingKind::OneToOne,
    });
    assert_flags(&kp, &arch, DiagCode::SmgCycle);
}

#[test]
fn slc101_spatial_slice_of_a_reduction_dimension() {
    let (mut kp, arch) = mha_kernel();
    // Q's column dimension is the first GEMM's contraction: it carries
    // an All-to-One, so slicing it spatially splits a flow dependency.
    let k_dim = kp.schedule.smg.value_axes[0][1];
    assert!(kp
        .schedule
        .smg
        .mappings_in_dim(k_dim)
        .iter()
        .any(|m| matches!(m.kind, MappingKind::AllToOne(_))));
    kp.schedule.spatial.push((k_dim, 16));
    assert_flags(&kp, &arch, DiagCode::SlcIllegalSpatialDim);
}

#[test]
fn slc102_sliced_op_is_not_a_reduction_along_the_dim() {
    let (mut kp, arch) = mha_kernel();
    // Op #2 is the element-wise `sub`: no All-to-One along L.
    kp.schedule.temporal.as_mut().unwrap().plan.sliced[0].op = OpId(2);
    assert_flags(&kp, &arch, DiagCode::SlcNotASlicedReduction);
}

#[test]
fn slc103_broken_uta_chain() {
    let (mut kp, arch) = mha_kernel();
    let t = kp.schedule.temporal.as_mut().unwrap();
    // The running sum depends on the running max (exp(-Max) factor);
    // declaring it Simple Aggregate silently drops the rescale.
    let sum = t
        .plan
        .sliced
        .iter_mut()
        .find(|s| matches!(s.agg, AggKind::Uta(_)))
        .expect("MHA has UTA reductions");
    sum.agg = AggKind::Simple;
    assert_flags(&kp, &arch, DiagCode::SlcUpdateChain);
}

#[test]
fn res201_and_res203_shared_memory_over_a_tiny_budget() {
    let (kp, mut arch) = mha_kernel();
    arch.smem_per_block = 1 << 10; // 1 KiB: nothing fits.
    let found = codes(&kp, &arch);
    assert!(found.contains(&DiagCode::ResSmemOverBudget), "{found:?}");
    assert!(found.contains(&DiagCode::ResZeroOccupancy), "{found:?}");
}

#[test]
fn res202_registers_over_a_tiny_budget() {
    let (kp, mut arch) = mha_kernel();
    arch.regs_per_block = 1 << 10;
    assert_flags(&kp, &arch, DiagCode::ResRegsOverBudget);
}

#[test]
fn mem301_cross_thread_value_forced_into_registers() {
    let (mut kp, arch) = mha_kernel();
    // The softmax numerator `exp(...)` feeds the second GEMM across a
    // One-to-All; demote it from shared memory to registers.
    let vi = kp
        .graph
        .values()
        .iter()
        .enumerate()
        .position(|(vi, v)| {
            v.kind == sf_ir::ValueKind::Intermediate
                && kp.schedule.mem.level[vi] == spacefusion::sched::MemLevel::Shared
        })
        .expect("MHA keeps a communicating intermediate in shared memory");
    kp.schedule.mem.level[vi] = spacefusion::sched::MemLevel::Register;
    assert_flags(&kp, &arch, DiagCode::MemCrossThreadRegister);
}

#[test]
fn bar401_dropped_barriers_expose_the_race() {
    let (kp, _arch) = mha_kernel();
    let instrs: Vec<Instr> = lower_instructions(&kp)
        .into_iter()
        .filter(|i| !matches!(i, Instr::Barrier))
        .collect();
    let diags = check_instructions(&kp, &instrs);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::BarMissingBarrier),
        "{diags:?}"
    );
}

#[test]
fn mem302_dropped_loads_leave_reads_unplaced() {
    let (kp, _arch) = mha_kernel();
    let instrs: Vec<Instr> = lower_instructions(&kp)
        .into_iter()
        .filter(|i| !matches!(i, Instr::LoadBlock { .. } | Instr::LoadTile { .. }))
        .collect();
    let diags = check_instructions(&kp, &instrs);
    assert!(
        diags.iter().any(|d| d.code == DiagCode::MemReadUnplaced),
        "{diags:?}"
    );
}

#[test]
fn bnd402_oversized_and_unknown_tile_restrictions() {
    let (mut kp, arch) = mha_kernel();
    let (d, _) = kp.schedule.spatial[0];
    kp.schedule.spatial[0] = (d, kp.schedule.smg.extent(d) * 2);
    assert_flags(&kp, &arch, DiagCode::BndTileOutOfBounds);

    let (mut kp, arch) = mha_kernel();
    kp.schedule.spatial.push((DimId(99), 8));
    assert_flags(&kp, &arch, DiagCode::BndTileOutOfBounds);
}

#[test]
fn lowered_stream_passes_the_race_scan_unmodified() {
    let (kp, _arch) = mha_kernel();
    let instrs = lower_instructions(&kp);
    assert_eq!(check_instructions(&kp, &instrs), Vec::new());
}

/// Seeds one corruption into the lowered stream and asserts the race
/// prover reports exactly the expected code family.
#[track_caller]
fn assert_race(kp: &KernelProgram, instrs: &[Instr], expected: DiagCode) {
    let found: Vec<DiagCode> = check_races(kp, instrs)
        .into_iter()
        .map(|d| d.code)
        .collect();
    assert!(
        found.contains(&expected),
        "expected {expected:?} ({}), got {found:?}",
        expected.code()
    );
}

/// Mutates every `Tiled` axis of every store in the stream.
fn mutate_tiled(instrs: &mut [Instr], f: impl Fn(&mut usize, &mut usize, &mut usize, &mut usize)) {
    let mut hit = false;
    for i in instrs.iter_mut() {
        if let Instr::Store { region, .. } = i {
            for a in region.iter_mut() {
                if let AxisWrite::Tiled {
                    block,
                    span,
                    clamp,
                    extent,
                    ..
                } = a
                {
                    f(block, span, clamp, extent);
                    hit = true;
                }
            }
        }
    }
    assert!(hit, "the kernel should have at least one tiled store axis");
}

/// The MHA kernel with a 4-way split-K partitioning of its tile loop
/// (combine algebra derived from the graph, as the slicer would).
fn split_mha_kernel() -> (KernelProgram, GpuArch) {
    let (mut kp, arch) = mha_kernel();
    let t = kp.schedule.temporal.as_mut().unwrap();
    let combine = derive_combine(&kp.graph, &t.plan).expect("MHA combine algebra derives");
    t.split = Some(SplitK {
        partitions: 4,
        combine,
    });
    (kp, arch)
}

#[test]
fn split_baseline_kernel_is_clean() {
    let (kp, arch) = split_mha_kernel();
    assert_eq!(codes(&kp, &arch), Vec::new());
}

/// Seeds one corruption into the lowered stream and asserts the
/// partial-aggregate check reports `SLC104`.
#[track_caller]
fn assert_partial(kp: &KernelProgram, instrs: &[Instr]) {
    let found: Vec<DiagCode> = check_partial_aggregate(kp, instrs)
        .into_iter()
        .map(|d| d.code)
        .collect();
    assert!(
        found.contains(&DiagCode::SlcPartialAggregate),
        "expected SlcPartialAggregate (SLC104), got {found:?}"
    );
}

#[test]
fn slc104_dropped_partition_in_combine() {
    let (kp, _arch) = split_mha_kernel();
    let mut instrs = lower_instructions(&kp);
    // The combine folds one partition fewer than the schedule
    // dispatches: one partial accumulator is silently dropped.
    let mut hit = false;
    for i in instrs.iter_mut() {
        if let Instr::Combine { partitions, .. } = i {
            *partitions -= 1;
            hit = true;
        }
    }
    assert!(hit, "split kernel should lower Combine instructions");
    assert_partial(&kp, &instrs);
}

#[test]
fn slc104_wrong_combine_operator() {
    let (kp, _arch) = split_mha_kernel();
    let mut instrs = lower_instructions(&kp);
    // Sum partials folded with Max (or max partials with Add): the
    // merge no longer matches the reduction's algebra.
    let c = instrs
        .iter_mut()
        .find_map(|i| match i {
            Instr::Combine { combine, .. } => Some(combine),
            _ => None,
        })
        .expect("split kernel should lower Combine instructions");
    *c = if *c == BinaryOp::Add {
        BinaryOp::Max
    } else {
        BinaryOp::Add
    };
    assert_partial(&kp, &instrs);
}

#[test]
fn slc104_non_rescaled_softmax_partial() {
    let (kp, _arch) = split_mha_kernel();
    let mut instrs = lower_instructions(&kp);
    // The running softmax sum is a UTA partial: merging it without the
    // exp(m_p − m) rescale against the combined max is the classic
    // split-softmax bug.
    let r = instrs
        .iter_mut()
        .find_map(|i| match i {
            Instr::Combine {
                rescaled: r @ true, ..
            } => Some(r),
            _ => None,
        })
        .expect("MHA's UTA reductions need rescaled combines");
    *r = false;
    assert_partial(&kp, &instrs);
}

#[test]
fn slc104_dropped_store_partial() {
    let (kp, _arch) = split_mha_kernel();
    let instrs: Vec<Instr> = lower_instructions(&kp)
        .into_iter()
        .filter(|i| !matches!(i, Instr::StorePartial { .. }))
        .collect();
    assert_partial(&kp, &instrs);
}

#[test]
fn slc104_partial_aggregate_without_a_split_schedule() {
    // The corruption can also run the other way: a stream that parks
    // and folds partials under a schedule that never declared a split.
    let (split_kp, _) = split_mha_kernel();
    let instrs = lower_instructions(&split_kp);
    let (kp, _arch) = mha_kernel();
    assert_partial(&kp, &instrs);
}

#[test]
fn slc104_schedule_combine_drift_is_caught_end_to_end() {
    // Corrupt the *schedule's* declared algebra (not the stream): the
    // lowering propagates it into the Combine instruction and the
    // verifier's independent re-derivation from the graph flags it.
    let (mut kp, arch) = split_mha_kernel();
    let split = kp
        .schedule
        .temporal
        .as_mut()
        .unwrap()
        .split
        .as_mut()
        .unwrap();
    let spec = split.combine.first_mut().expect("split has combine specs");
    spec.op = if spec.op == BinaryOp::Add {
        BinaryOp::Max
    } else {
        BinaryOp::Add
    };
    assert_flags(&kp, &arch, DiagCode::SlcPartialAggregate);
}

#[test]
fn race501_widened_tile_span_overlaps_neighbour_blocks() {
    let (kp, _arch) = mha_kernel();
    let mut instrs = lower_instructions(&kp);
    // Each block now claims twice its stride: block i and block i+1
    // collide on the second half of i's span.
    mutate_tiled(&mut instrs, |block, span, _, _| *span = *block * 2);
    assert_race(&kp, &instrs, DiagCode::RaceOverlappingWrites);
}

#[test]
fn race502_clamp_beyond_the_axis_extent_escapes_the_slot() {
    let (kp, _arch) = mha_kernel();
    let mut instrs = lower_instructions(&kp);
    // The final block's range is cut at `clamp`; pushing the clamp past
    // the axis extent makes it write outside the output slot's storage.
    mutate_tiled(&mut instrs, |_, _, clamp, extent| *clamp = *extent + 7);
    assert_race(&kp, &instrs, DiagCode::RaceWriteEscapesExtent);
}

#[test]
fn race503_compute_write_retargeted_at_global_scratch() {
    let (kp, _arch) = mha_kernel();
    let mut instrs = lower_instructions(&kp);
    let c = instrs
        .iter_mut()
        .find_map(|i| match i {
            Instr::Compute { write, .. } => Some(write),
            _ => None,
        })
        .expect("the kernel computes something");
    // Intermediates live in shared/registers (block-private); a global
    // intermediate would be one buffer shared by all workers.
    c.1 = MemSpace::Global;
    assert_race(&kp, &instrs, DiagCode::RaceScratchAliasing);
}

#[test]
fn race504_readback_of_a_parallel_written_output() {
    let (kp, _arch) = mha_kernel();
    let mut instrs = lower_instructions(&kp);
    let v = instrs
        .iter()
        .find_map(|i| match i {
            Instr::Store { value, .. } => Some(*value),
            _ => None,
        })
        .expect("the kernel stores an output");
    // No grid-wide barrier exists: other blocks' stores are not yet
    // visible, so loading a stored output back is a read of in-flight
    // parallel writes.
    instrs.push(Instr::LoadBlock { value: v });
    assert_race(&kp, &instrs, DiagCode::RaceReadAfterParallelWrite);
}

#[test]
fn race505_opaque_footprint_is_unprovable() {
    let (kp, _arch) = mha_kernel();
    let mut instrs = lower_instructions(&kp);
    let region = instrs
        .iter_mut()
        .find_map(|i| match i {
            Instr::Store { region, .. } => Some(region),
            _ => None,
        })
        .expect("the kernel stores an output");
    region[0] = AxisWrite::Opaque;
    assert_race(&kp, &instrs, DiagCode::RaceUnprovableFootprint);
}
