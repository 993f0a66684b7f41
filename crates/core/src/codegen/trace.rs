//! Access-stream tracing and analytic cost estimation.
//!
//! [`trace_kernel`] replays the global-memory accesses a kernel performs
//! — walking the same [`KernelPlan`](super::plan::KernelPlan) as the
//! numeric interpreter — into the `sf-gpu-sim` [`Profiler`], yielding
//! L1/L2 miss counts and DRAM traffic. [`estimate_cost`] computes the
//! same quantities in closed form (without cache simulation); the
//! auto-tuner uses it to rank configurations cheaply (paper §6.5:
//! configurations are measured, with an early-quit cutoff).

use super::plan::{blocks, Restrict};
use super::program::KernelProgram;
use crate::smg::DimId;
use sf_gpu_sim::{BufId, KernelCost, Profiler};
use sf_ir::ValueId;
use std::collections::HashMap;

/// Flop-equivalent cost of one intra-block loop iteration (loop control,
/// barrier synchronization, pipeline drain). Gives the tuner a realistic
/// preference for larger temporal tiles instead of tying on traffic.
pub const TILE_OVERHEAD_FLOPS: u64 = 4096;

/// Bytes and 2-D layout of a restricted view of `v`.
fn tile_spec(kp: &KernelProgram, v: ValueId, restrict: &Restrict) -> (u64, u64, u64, u64) {
    // Returns (offset, row_bytes, rows, row_stride).
    let shape = kp.graph.shape(v);
    let esz = kp.graph.dtype().size_bytes() as u64;
    let ranges = kp.plan().ranges(&kp.graph, v, restrict);
    match ranges.len() {
        2 => {
            let cols_full = shape.dims()[1] as u64;
            let (r0, r1) = ranges[0];
            let (c0, c1) = ranges[1];
            (
                (r0 as u64 * cols_full + c0 as u64) * esz,
                (c1 - c0) as u64 * esz,
                (r1 - r0) as u64,
                cols_full * esz,
            )
        }
        _ => {
            let vol: u64 = ranges.iter().map(|&(s, t)| (t - s) as u64).product();
            (0, vol * esz, 1, 0)
        }
    }
}

/// Replays one kernel's access stream into the profiler.
///
/// `bufs` maps value names to their global buffers; `replay_instances` is
/// how many instances to simulate in detail (the caller scales counters
/// up for the rest), `total_instances` sets the true grid size used for
/// occupancy/timing.
pub fn trace_kernel(
    kp: &KernelProgram,
    profiler: &mut Profiler,
    bufs: &HashMap<String, BufId>,
    replay_instances: usize,
    total_instances: u64,
) {
    let graph = &kp.graph;
    let s = &kp.schedule;
    let smem = s.smem_per_block(graph);
    let regs = s.regs_per_block(graph);
    let grid_total = s.grid() * total_instances;
    profiler.begin_kernel(&kp.name, grid_total, smem, regs);

    let mut tracer = Tracer {
        kp,
        profiler,
        bufs,
        inst: 0,
    };
    for inst in 0..replay_instances as u64 {
        tracer.inst = inst;
        for spatial in blocks(s) {
            tracer.profiler.begin_block();
            tracer.block(&spatial);
        }
    }
    tracer.profiler.end_kernel();
}

/// The replay of one kernel instance.
struct Tracer<'a> {
    kp: &'a KernelProgram,
    profiler: &'a mut Profiler,
    bufs: &'a HashMap<String, BufId>,
    inst: u64,
}

impl Tracer<'_> {
    /// One tile access of a global value (kernel input or output) of
    /// this instance.
    fn access(&mut self, v: ValueId, restrict: &Restrict, write: bool) {
        let graph = &self.kp.graph;
        let Some(&buf) = self.bufs.get(&graph.value(v).name) else {
            return;
        };
        let (off, row_bytes, rows, stride) = tile_spec(self.kp, v, restrict);
        let base = self.inst * (graph.shape(v).volume() * graph.dtype().size_bytes()) as u64;
        if write {
            self.profiler
                .store_tile(buf, base + off, row_bytes, rows, stride);
        } else {
            self.profiler
                .load_tile(buf, base + off, row_bytes, rows, stride);
        }
    }

    /// Flops of one op over actual (edge-clamped) restricted ranges.
    fn flops(&mut self, op_idx: usize, restrict: &Restrict) {
        let sizes: Vec<(DimId, usize)> = restrict.iter().map(|&(d, (s, t))| (d, t - s)).collect();
        self.profiler.flops(crate::sched::memory::tile_flops(
            &self.kp.graph,
            &self.kp.schedule.smg,
            op_idx,
            &sizes,
        ));
    }

    /// One spatial block: the plan's sections in order.
    fn block(&mut self, spatial: &Restrict) {
        let plan = self.kp.plan();

        // Non-varying globals load once per block (they stay in shared memory
        // when staged, or in the block-lifetime L1 when streamed).
        for g in plan.globals.iter().filter(|g| !g.varying && g.used()) {
            self.access(g.value, spatial, false);
        }

        if let Some(tiles) = &plan.tiles {
            // Phase 1.
            for tile in 0..tiles.n_tiles() {
                self.profiler.flops(TILE_OVERHEAD_FLOPS);
                let restrict = tiles.tile_restrict(spatial, tile);
                for g in plan.globals.iter().filter(|g| g.varying && g.used_p1) {
                    self.access(g.value, &restrict, false);
                }
                for step in &tiles.phase1 {
                    self.flops(step.op(), &restrict);
                }
            }
        }

        // Block-level ops: flops over the block tile.
        for &oi in &plan.block_ops {
            self.flops(oi, spatial);
        }

        if let Some((tiles, p2)) = plan.phase2() {
            for tile in 0..tiles.n_tiles() {
                self.profiler.flops(TILE_OVERHEAD_FLOPS);
                let restrict = tiles.tile_restrict(spatial, tile);
                for g in plan.globals.iter().filter(|g| g.varying && g.used_p2) {
                    self.access(g.value, &restrict, false);
                }
                for &oi in &p2.ops {
                    self.flops(oi, &restrict);
                }
                for &o in &p2.tile_stores {
                    self.access(o, &restrict, true);
                }
            }
        }

        for &o in &plan.block_stores {
            self.access(o, spatial, true);
        }
    }
}

/// Split-K partition count and per-block bytes of partial aggregate
/// state (one accumulator per sliced reduction), for split schedules.
fn split_state(kp: &KernelProgram) -> Option<(u64, u64)> {
    let tiles = kp.plan().tiles.as_ref()?;
    let state_per_block = tiles
        .split
        .as_ref()?
        .parks
        .iter()
        .map(|&out| {
            kp.schedule
                .smg
                .block_footprint(&kp.graph, out, &kp.schedule.spatial)
        })
        .sum();
    (tiles.partitions > 1).then_some((tiles.partitions as u64, state_per_block))
}

/// Closed-form cost estimate of one kernel (for the auto-tuner).
///
/// Uses raw global traffic (no cache simulation): `dram_read_bytes` is
/// approximated by the compulsory footprint of the kernel inputs,
/// `l2_bytes` by the total requested read bytes. Rankings between
/// configurations of the same kernel are preserved, which is all the
/// tuner needs.
pub fn estimate_cost(kp: &KernelProgram, total_instances: u64) -> KernelCost {
    let graph = &kp.graph;
    let s = &kp.schedule;
    let plan = kp.plan();
    let esz = graph.dtype().size_bytes() as u64;
    let grid = s.grid();
    let n_tiles = s.intra_blocks();
    let two_phase = plan.phase2().is_some();

    let block_restrict = s.block_restrictions();
    let spatial_restrict: &[(DimId, usize)] = &s.spatial;

    let mut read_per_block = 0u64;
    let mut compulsory = 0u64;
    for g in plan.globals.iter().filter(|g| g.used()) {
        compulsory += (graph.shape(g.value).volume() as u64) * esz;
        if g.varying {
            let tile = s.smg.block_footprint(graph, g.value, &block_restrict);
            let phases = 1 + u64::from(two_phase && g.used_p2 && g.used_p1);
            read_per_block += tile * n_tiles * phases;
        } else {
            read_per_block += s.smg.block_footprint(graph, g.value, spatial_restrict);
        }
    }

    let mut write_per_block = 0u64;
    for &o in graph.outputs() {
        write_per_block += s.smg.block_footprint(graph, o, spatial_restrict);
    }

    let op_flops = |oi: usize| crate::sched::memory::tile_flops(graph, &s.smg, oi, &[]);
    let mut flops: u64 = (0..graph.ops().len()).map(op_flops).sum();
    if let Some((_, p2)) = plan.phase2() {
        // Recomputed in phase 2.
        flops += p2.ops.iter().map(|&oi| op_flops(oi)).sum::<u64>();
    }
    if s.temporal.is_some() {
        let phases = 1 + u64::from(two_phase);
        flops += TILE_OVERHEAD_FLOPS * n_tiles * phases * grid;
    }

    // Split-K: the tile loop runs as `partitions` independent grid
    // units (grid × P drives occupancy — the whole point of the split),
    // paid for by partial-state traffic (each sliced reduction's
    // accumulator is written per partition, re-read and folded by the
    // combine) plus per-partition loop setup. Where the grid already
    // saturates the machine the utilization term gains nothing and the
    // combine overhead makes split-K lose — exactly the tradeoff the
    // tuner should arbitrate.
    let mut partitions = 1;
    let mut l2_per_block = read_per_block + write_per_block;
    if let Some((p, state_per_block)) = split_state(kp) {
        partitions = p;
        // P partial writes + P combine reads + 1 combined write.
        l2_per_block += state_per_block * (2 * partitions + 1);
        // Rescale-and-merge arithmetic over every partial element,
        // plus per-partition loop entry overhead.
        flops += (state_per_block / esz.max(1)) * partitions * 8 * grid;
        flops += TILE_OVERHEAD_FLOPS * partitions * grid;
    }

    KernelCost {
        name: kp.name.clone(),
        grid: grid * partitions * total_instances,
        flops: flops * total_instances,
        global_read_bytes: read_per_block * grid * total_instances,
        global_write_bytes: write_per_block * grid * total_instances,
        dram_read_bytes: (compulsory * total_instances)
            .min(read_per_block * grid * total_instances),
        dram_write_bytes: write_per_block * grid * total_instances,
        l2_bytes: l2_per_block * grid * total_instances,
        smem_per_block: s.smem_per_block(graph),
        regs_per_block: s.regs_per_block(graph),
    }
}

/// Cost of a split-K candidate's **accumulate dispatch alone** — the
/// partial-accumulator launch, without the combine fold's traffic (the
/// P partial re-reads, the combined write) or its rescale-and-merge
/// arithmetic. For unsplit kernels this is the full cost.
///
/// The bounded tuner measures split candidates dispatch-by-dispatch
/// the way an on-GPU test run times the two launches; this is the
/// figure after the first launch. It never exceeds
/// [`estimate_cost`]'s total, so it is safe to early-quit on.
pub fn estimate_accumulate_cost(kp: &KernelProgram, total_instances: u64) -> KernelCost {
    let mut cost = estimate_cost(kp, total_instances);
    if let Some((partitions, state_per_block)) = split_state(kp) {
        let esz = kp.graph.dtype().size_bytes() as u64;
        let scale = kp.schedule.grid() * total_instances;
        // Combine dispatch's share of the split overhead added by
        // estimate_cost: P partial reads + 1 combined write, and
        // the rescale-and-merge flops.
        cost.l2_bytes = cost
            .l2_bytes
            .saturating_sub(state_per_block * (partitions + 1) * scale);
        cost.flops = cost
            .flops
            .saturating_sub((state_per_block / esz.max(1)) * partitions * 8 * scale);
    }
    cost
}
