//! Numeric interpretation of kernel programs.
//!
//! Executes a [`KernelProgram`] exactly as a GPU would: one pass over the
//! spatial blocks, and within each block the sections of the kernel's
//! [`KernelPlan`](super::plan::KernelPlan) — either a direct evaluation
//! of the fused subgraph on the block's tiles, or the temporal
//! intra-block loop with running aggregations (Simple Aggregate and
//! Update-then-Aggregate) and, for two-phase schedules, a second
//! streaming pass that produces the outputs from the finalized
//! aggregates. The plan decides what runs where; this module is the
//! arithmetic. The entry point is [`ExecEngine::execute_kernel`]; its
//! serial path is `execute_kernel_pooled`.
//!
//! This interpreter is the correctness oracle of the whole compiler: the
//! test suites compare its results bit-for-bit-ish (to float tolerance)
//! against the unfused reference execution of the same graph.
//!
//! Spatial blocks are the unit of parallelism. The slicer only admits
//! spatial dimensions whose blocks cover disjoint regions of every
//! output (Table 3 legality), so the block loop fans out over the
//! persistent [`ExecEngine`] worker pool — each worker with its own
//! thread-pinned [`ScratchPool`] — and the result stays bit-identical
//! to serial execution regardless of completion order. The same
//! disjointness makes output writes lock-free: workers scatter block
//! tiles through pre-partitioned [`sf_tensor::TensorViewMut`] regions
//! of the shared output buffers ([`OutputSlot`]) without any mutex; a
//! debug-build claim bitmap asserts that no two scatters ever touch
//! the same element. Kernels whose total work is under
//! [`super::engine::serial_cutoff`] skip the pool and run inline on
//! the caller's thread.
//!
//! The inner loop addresses everything by slot. A kernel launch
//! ([`Launch`]) looks each global up in the environment ([`Env`]) and
//! views it once; a worker keeps one `Option<Tensor>` slot per value of
//! the kernel ([`Slots`], indexed by `ValueId`, the plan's
//! [`Section`] saying how long a slot stays filled) and reuses them
//! across tiles, partitions and blocks. Operands are zero-copy
//! [`TensorView`]s of a slot or of a global narrowed by the plan's axis
//! table, restrictions and ranges live inline, and intermediate buffers
//! are recycled through the worker's pool — which persists across calls
//! — so the per-tile loop performs no heap allocation and no hashing.

use super::engine::{serial_cutoff, ExecEngine};
use super::plan::{blocks, Restrict, Section, Step, TileLoop};
use super::program::KernelProgram;
use crate::error::{Result, SfError};
use crate::resilience::{panic_payload, FaultInjector, FaultKind};
use crate::slicer::{AggKind, FactorForm, SlicedReduction};
use crate::smg::DimId;
use sf_ir::{Graph, OpKind, ValueId};
use sf_tensor::ops::{viewed, BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{InlineVec, ScratchPool, Shape, Tensor, TensorView, TensorViewMut};
use std::cell::UnsafeCell;
use std::collections::HashMap;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Options for the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Worker threads for the spatial block loop; `0` selects the
    /// machine's available parallelism (capped at 8, matching the
    /// compile session's worker default).
    pub threads: usize,
}

impl ExecOptions {
    /// Options pinned to an explicit worker count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions { threads }
    }

    /// Resolves the effective worker count.
    ///
    /// The auto-detected machine parallelism is cached for the process:
    /// `available_parallelism` consults cgroup limits on Linux, which is
    /// file I/O expensive enough to show up on sub-millisecond kernels.
    pub fn effective_threads(&self) -> usize {
        static AUTO: OnceLock<usize> = OnceLock::new();
        if self.threads > 0 {
            self.threads
        } else {
            *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)))
        }
    }
}

/// The tensor environment of one program execution: the caller's
/// bindings, borrowed, overlaid by the values kernels have produced so
/// far. Nothing the caller passed in is copied; a lookup sees a
/// produced value before a binding of the same name.
#[derive(Debug)]
pub struct Env<'a> {
    inputs: &'a HashMap<String, Tensor>,
    produced: HashMap<String, Tensor>,
}

impl<'a> Env<'a> {
    /// An environment over the caller's bindings with nothing produced.
    pub fn new(inputs: &'a HashMap<String, Tensor>) -> Self {
        Env {
            inputs,
            produced: HashMap::new(),
        }
    }

    /// The tensor bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.produced.get(name).or_else(|| self.inputs.get(name))
    }

    /// Publishes a produced value.
    pub fn insert(&mut self, name: String, tensor: Tensor) {
        self.produced.insert(name, tensor);
    }

    /// Moves a produced value out of the environment.
    pub fn take_produced(&mut self, name: &str) -> Option<Tensor> {
        self.produced.remove(name)
    }
}

/// A full output tensor shared lock-free across block workers.
///
/// Table-3 spatial legality guarantees that distinct blocks (and
/// distinct temporal tiles within a block) scatter into *disjoint*
/// element regions of every output, so no synchronization is needed on
/// the write path: each scatter goes through a [`TensorViewMut`] carved
/// out of the buffer with [`OutputSlot::region_mut`]. The data pointer
/// is captured once at construction — no `&mut Tensor` is ever formed
/// while workers hold region views, so views never alias a Rust unique
/// reference.
///
/// Debug builds keep a per-element claim bitmap and assert at region
/// hand-out that no element is ever claimed twice, turning a legality
/// bug (overlapping writes) into an immediate panic instead of a
/// silent, schedule-dependent result.
struct OutputSlot {
    value: ValueId,
    name: String,
    cell: UnsafeCell<Tensor>,
    base: *mut f32,
    len: usize,
    strides: InlineVec<usize>,
    #[cfg(debug_assertions)]
    claimed: Vec<AtomicU8>,
}

// SAFETY: workers only touch the buffer through disjoint `region_mut`
// views (asserted in debug builds); the tensor itself is only moved
// out after every worker has finished.
unsafe impl Send for OutputSlot {}
// SAFETY: shared access is read-only metadata plus `region_mut`, whose
// handed-out views are pairwise disjoint — proven statically per kernel
// by `verify::races::prove_disjoint` (kernels it cannot prove run on
// the serial path) and re-checked dynamically by the debug claim
// bitmap. No `&self` method forms a second reference to a region in
// flight.
unsafe impl Sync for OutputSlot {}

impl OutputSlot {
    fn new(value: ValueId, name: String, tensor: Tensor) -> Self {
        let len = tensor.shape().volume();
        let strides = tensor.shape().strides();
        let cell = UnsafeCell::new(tensor);
        // SAFETY: the slot was just constructed, so `cell` is exclusively
        // owned here — capturing the data pointer cannot race. Every
        // later region view derives from this one base pointer.
        let base = unsafe { (*cell.get()).data_mut().as_mut_ptr() };
        OutputSlot {
            value,
            name,
            cell,
            base,
            len,
            strides,
            #[cfg(debug_assertions)]
            claimed: (0..len).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Hands out the mutable strided view of the `[start, end)` region,
    /// claiming its elements in the debug overlap bitmap.
    fn region_mut(&self, ranges: &[(usize, usize)]) -> TensorViewMut<'_> {
        debug_assert_eq!(ranges.len(), self.strides.len());
        let offset: usize = ranges
            .iter()
            .zip(self.strides.iter())
            .map(|(&(s, _), &st)| s * st)
            .sum();
        let shape: Shape = ranges.iter().map(|&(s, t)| t - s).collect();
        #[cfg(debug_assertions)]
        self.claim(ranges, shape.dims());
        // SAFETY: `base + offset` addresses within the tensor buffer for
        // any in-bounds region; disjointness across concurrent callers
        // is the slicer's Table-3 guarantee (checked above in debug).
        unsafe {
            TensorViewMut::from_raw_parts(
                self.base.add(offset),
                self.len - offset,
                shape,
                &self.strides,
            )
        }
    }

    /// Marks every element of the region as written, panicking if any
    /// element was already claimed by an earlier region.
    #[cfg(debug_assertions)]
    fn claim(&self, ranges: &[(usize, usize)], dims: &[usize]) {
        let volume: usize = dims.iter().product();
        let mut idx: InlineVec<usize> = dims.iter().map(|_| 0).collect();
        for _ in 0..volume {
            let abs: usize = ranges
                .iter()
                .zip(self.strides.iter())
                .zip(idx.iter())
                .map(|((&(s, _), &st), &i)| (s + i) * st)
                .sum();
            assert_eq!(
                self.claimed[abs].swap(1, Ordering::Relaxed),
                0,
                "overlapping output write in '{}' at element {abs}",
                self.name
            );
            for ax in (0..dims.len()).rev() {
                idx[ax] += 1;
                if idx[ax] < dims[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
    }

    fn into_parts(self) -> (String, Tensor) {
        (self.name, self.cell.into_inner())
    }
}

/// Builds the lock-free output slots for one kernel.
fn output_slots(graph: &Graph) -> Vec<OutputSlot> {
    graph
        .outputs()
        .iter()
        .map(|&o| {
            OutputSlot::new(
                o,
                graph.value(o).name.clone(),
                Tensor::zeros(*graph.shape(o), graph.dtype()),
            )
        })
        .collect()
}

/// Publishes a finished kernel's outputs into the environment.
fn publish(slots: Vec<OutputSlot>, env: &mut Env) {
    for slot in slots {
        let (name, tensor) = slot.into_parts();
        env.insert(name, tensor);
    }
}

/// The whole of value `v` as bound in `env`, viewed under the kernel's
/// declared shape.
fn bound<'e>(kp: &KernelProgram, env: &'e Env, v: ValueId) -> Result<TensorView<'e>> {
    let value = kp.graph.value(v);
    let full = env
        .get(&value.name)
        .ok_or_else(|| SfError::Codegen(format!("missing binding '{}'", value.name)))?;
    if full.shape() == &value.shape {
        Ok(full.view())
    } else {
        // The binding was materialized upstream of a layout barrier
        // and carries the producing kernel's layout; view it under
        // this segment's declared shape before extracting the tile.
        Ok(full.view_reshaped(value.shape)?)
    }
}

/// What every block of one kernel launch shares: the kernel, its globals
/// as bound in the environment, and the output slots.
struct Launch<'a> {
    kp: &'a KernelProgram,
    env: &'a Env<'a>,
    /// Per value: the global's binding, looked up and viewed once for
    /// the whole launch. `None` for computed values and for a binding
    /// that is missing or of the wrong volume (an op that reads it
    /// repeats the lookup for the error).
    globals: Vec<Option<TensorView<'a>>>,
    outputs: Vec<OutputSlot>,
}

impl<'a> Launch<'a> {
    fn new(kp: &'a KernelProgram, env: &'a Env<'a>) -> Self {
        let globals = kp
            .plan()
            .sections()
            .iter()
            .enumerate()
            .map(|(vi, &section)| match section {
                Section::Global => bound(kp, env, ValueId(vi)).ok(),
                _ => None,
            })
            .collect();
        Launch {
            kp,
            env,
            globals,
            outputs: output_slots(&kp.graph),
        }
    }

    /// View of `v` for an op evaluated under `restrict`: the worker's
    /// slot if the value has been computed — each section only ever sees
    /// the slots filled before it — and otherwise a global, narrowed to
    /// the restricted sub-tensor directly in `env` storage.
    fn view<'s>(
        &'s self,
        vals: &'s [Option<Tensor>],
        v: ValueId,
        restrict: &Restrict,
    ) -> Result<TensorView<'s>> {
        if let Some(t) = &vals[v.0] {
            return Ok(t.view());
        }
        let ranges = self.kp.plan().ranges(&self.kp.graph, v, restrict);
        // Zero-copy view of the restricted sub-tensor.
        match &self.globals[v.0] {
            Some(full) => full.slice(&ranges),
            None => bound(self.kp, self.env, v)?.slice(&ranges),
        }
        .map_err(Into::into)
    }
}

/// One worker's state for a kernel launch: its scratch pool and three
/// lists of value slots, each indexed by `ValueId` and reused across
/// tiles, partitions and blocks.
struct Worker<'p> {
    pool: &'p mut ScratchPool,
    /// The values of the block being executed: op outputs on the
    /// current tile, running then finalized aggregates, block-level op
    /// outputs ([`Section`] says which is which).
    vals: Slots,
    /// Superseded aggregates that an update factor still reads: the
    /// pre-tile values of the UTA dependencies inside the tile loop,
    /// the left side's pre-fold values during a partition fold.
    prev: Slots,
    /// Phase-1 slots of the split-K partition being folded into `vals`.
    part: Slots,
}

type Slots = Vec<Option<Tensor>>;

impl<'p> Worker<'p> {
    fn new(kp: &KernelProgram, pool: &'p mut ScratchPool) -> Self {
        let empty = || kp.graph.values().iter().map(|_| None).collect();
        Worker {
            pool,
            vals: empty(),
            prev: empty(),
            part: empty(),
        }
    }
}

/// Returns the buffers of the filled slots of one section (of every
/// section with `None`) to the worker's pool, for the next tile or block
/// on this worker.
fn recycle(
    kp: &KernelProgram,
    slots: &mut [Option<Tensor>],
    section: Option<Section>,
    pool: &mut ScratchPool,
) {
    for (slot, &s) in slots.iter_mut().zip(kp.plan().sections()) {
        if section.is_none_or(|only| only == s) {
            if let Some(tensor) = slot.take() {
                pool.recycle_tensor(tensor);
            }
        }
    }
}

/// Executes one kernel serially with an explicit scratch pool,
/// publishing outputs into `env` on success. This is the serial path of
/// [`ExecEngine::execute_kernel`]: kernels under the serial cutoff, runs
/// at one thread, and kernels whose disjointness proof failed.
///
/// Every spatial block runs behind a `catch_unwind` boundary, so a
/// panicking block (a backend bug, an injected crash) surfaces as
/// [`SfError::Internal`] instead of unwinding through the caller. A
/// failed kernel publishes nothing to `env` — outputs are inserted only
/// after every block succeeded — which is what makes the reference
/// fallback of
/// [`CompiledProgram::execute_resilient`](crate::pipeline::CompiledProgram::execute_resilient)
/// see exactly the inputs this kernel saw.
pub(crate) fn execute_kernel_pooled(
    kp: &KernelProgram,
    env: &mut Env,
    pool: &mut ScratchPool,
    faults: Option<&FaultInjector>,
) -> Result<()> {
    let launch = Launch::new(kp, env);
    let mut worker = Worker::new(kp, pool);
    let blocks: Vec<Restrict> = blocks(&kp.schedule).collect();
    for (bi, block) in blocks.iter().enumerate() {
        isolated(kp, "block", bi, blocks.len(), faults, || {
            execute_block(&launch, block, &mut worker)
        })?;
    }
    let outputs = launch.outputs;
    publish(outputs, env);
    Ok(())
}

impl ExecEngine {
    /// Executes one kernel on this engine: serially on the caller's
    /// thread when a single worker is requested or the kernel is under
    /// the [`serial_cutoff`], otherwise fanned out over the persistent
    /// worker pool. Outputs are published into `env` only after every
    /// block succeeded; results are bit-identical for every worker
    /// count and across the serial/pooled paths: blocks write disjoint
    /// output regions (the slicer's spatial legality guarantee) and each
    /// block's arithmetic is self-contained.
    pub fn execute_kernel(
        &self,
        kp: &KernelProgram,
        env: &mut Env,
        opts: &ExecOptions,
        faults: Option<&FaultInjector>,
    ) -> Result<()> {
        let blocks: Vec<Restrict> = blocks(&kp.schedule).collect();
        let workers = opts.effective_threads().min(blocks.len()).max(1);
        let total_work: usize = kp
            .graph
            .outputs()
            .iter()
            .map(|&o| kp.graph.shape(o).volume())
            .sum();
        if !kp.disjoint.is_proven() {
            // The static prover could not discharge Table-3 disjointness
            // for this kernel (RACE505 or worse), so the lock-free
            // fan-out is not justified: fall back to the serial path,
            // where block writes are ordered by program order and the
            // region hand-out is trivially sound. Results stay
            // bit-identical — the serial path runs the same blocks in
            // the same deterministic order.
            self.note_race_fallback();
            return self.with_serial_scratch(|pool| execute_kernel_pooled(kp, env, pool, faults));
        }
        let threads = opts.effective_threads();
        if let Some(tiles) = kp.plan().tiles.as_ref().filter(|t| t.partitions > 1) {
            // A split-K schedule's unit of parallelism is the
            // (spatial block × partition) pair, and the output volume
            // hides its real work (a decode kernel writes one row but
            // reads the whole KV cache). What its accumulate dispatch
            // spreads over the workers is what the tile loops stream —
            // the varying globals phase 1 reads — so the cutoff is
            // taken on that. (Output volume × sliced extent counted a
            // GEMM's multiply-adds as elements, and sent kernels of
            // 2 Ki outputs through two pool hand-shakes and a combine.)
            let streamed: usize = kp
                .plan()
                .globals
                .iter()
                .filter(|g| g.varying && g.used_p1)
                .map(|g| kp.graph.shape(g.value).volume())
                .sum();
            if threads > 1 && !serial_cutoff(blocks.len() * tiles.partitions, streamed) {
                return self.execute_kernel_split(kp, tiles, env, &blocks, threads, faults);
            }
        }
        if workers == 1 || serial_cutoff(blocks.len(), total_work) {
            return self.with_serial_scratch(|pool| execute_kernel_pooled(kp, env, pool, faults));
        }

        let launch = Launch::new(kp, env);
        self.dispatch(kp, "block", workers, blocks.len(), faults, &|bi, worker| {
            execute_block(&launch, &blocks[bi], worker)
        })?;
        let outputs = launch.outputs;
        publish(outputs, env);
        Ok(())
    }

    /// Fans `n_items` work items of `kp` (each a `what`, for messages)
    /// out over `workers` pool workers in one pool dispatch.
    ///
    /// Items are claimed off a chunked atomic queue — coarse enough to
    /// amortize the atomic, fine enough to balance items of uneven
    /// cost — and each runs behind its own [`isolated`] boundary. A
    /// worker stops at its first failing item; the error returned is
    /// that of the lowest-index failed item, independent of worker
    /// scheduling.
    fn dispatch(
        &self,
        kp: &KernelProgram,
        what: &str,
        workers: usize,
        n_items: usize,
        faults: Option<&FaultInjector>,
        item: &(dyn Fn(usize, &mut Worker) -> Result<()> + Sync),
    ) -> Result<()> {
        let chunk = n_items.div_ceil(workers * 4).max(1);
        let next = AtomicUsize::new(0);
        let failures: Mutex<Vec<(usize, SfError)>> = Mutex::new(Vec::new());
        let panicked = self.run_dispatch(workers, &|pool: &mut ScratchPool| {
            let mut worker = Worker::new(kp, pool);
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n_items {
                    return;
                }
                for i in start..(start + chunk).min(n_items) {
                    if let Err(e) = isolated(kp, what, i, n_items, faults, || item(i, &mut worker))
                    {
                        failures
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((i, e));
                        return;
                    }
                }
            }
        });
        if panicked {
            // `isolated` already catches item panics; reaching here
            // means a panic escaped that boundary (a queue bug).
            return Err(SfError::Internal {
                pass: format!("exec:{}", kp.name),
                payload: format!("worker panicked outside {what} isolation"),
            });
        }
        let failures = failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match failures.into_iter().min_by_key(|&(i, _)| i) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Executes a split-K kernel as two pool dispatches. Phase 1 fans
    /// the (spatial block × partition) grid over the workers: each item
    /// runs the intra-block loop over its partition's tile sub-range
    /// and parks the resulting partial aggregate state in its dedicated
    /// [`PartialSlot`]. The pool drain at the end of the dispatch (the
    /// completion hand-shake of `WorkerPool::run`) is the
    /// happens-before edge publishing every slot. The combine dispatch
    /// then folds each block's partition states left-to-right in
    /// partition order — the fixed combine order that keeps outputs
    /// bit-identical at every thread count and to the serial path —
    /// and finalizes the block. Slots are strictly
    /// one-writer-then-one-reader, so no lock is added to the hot path.
    fn execute_kernel_split(
        &self,
        kp: &KernelProgram,
        tiles: &TileLoop,
        env: &mut Env,
        blocks: &[Restrict],
        threads: usize,
        faults: Option<&FaultInjector>,
    ) -> Result<()> {
        let partitions = tiles.partitions;
        let sliced = sliced_reductions(kp)?;
        let launch = Launch::new(kp, env);
        let items = blocks.len() * partitions;
        let partials: Vec<PartialSlot> = (0..items).map(|_| PartialSlot::default()).collect();

        // Dispatch 1: one phase-1 partial per (block, partition).
        self.dispatch(
            kp,
            "split item",
            threads.min(items),
            items,
            faults,
            &|item, worker| {
                let (bi, p) = (item / partitions, item % partitions);
                let Worker {
                    pool, vals, prev, ..
                } = worker;
                phase1_partition(&launch, tiles, vals, prev, &blocks[bi], pool, p)?;
                // The aggregates stay behind in `vals`: park all of it.
                let state = std::mem::replace(vals, (0..vals.len()).map(|_| None).collect());
                // SAFETY: item indices are claimed uniquely off the
                // atomic queue, so this worker is the slot's only
                // writer; the only reader runs in the combine
                // dispatch, after `run_dispatch` has drained this
                // one.
                unsafe { *partials[item].0.get() = Some(state) };
                Ok(())
            },
        )?;

        // Dispatch 2: fold each block's partitions and finalize it.
        self.dispatch(
            kp,
            "combine block",
            threads.min(blocks.len()),
            blocks.len(),
            None,
            &|bi, worker| {
                for p in 0..partitions {
                    // SAFETY: block `bi` is claimed by exactly one
                    // combine worker, making this the sole reader
                    // of its slots; every writer finished before
                    // the phase-1 dispatch drained.
                    let state = unsafe { (*partials[bi * partitions + p].0.get()).take() }
                        .ok_or_else(|| SfError::Internal {
                            pass: format!("exec:{} combine block {bi}", kp.name),
                            payload: format!("phase-1 state missing for partition {p}"),
                        })?;
                    if p == 0 {
                        worker.vals = state;
                    } else {
                        worker.part = state;
                        combine_partition_states(&kp.graph, sliced, &tiles.uta_deps, worker)?;
                    }
                }
                finish_block(&launch, &blocks[bi], worker)
            },
        )?;

        let outputs = launch.outputs;
        publish(outputs, env);
        Ok(())
    }
}

/// One (spatial block × partition) phase-1 result: the slots
/// [`phase1_partition`] left its partial aggregate state in, parked
/// between the two pool dispatches of a split-K execution.
#[derive(Default)]
struct PartialSlot(UnsafeCell<Option<Slots>>);

// SAFETY: a slot is written by exactly one phase-1 worker (work items
// are claimed uniquely off the atomic queue) and read by exactly one
// combine worker, strictly after `WorkerPool::run` drained the phase-1
// dispatch; the drain's completion hand-shake is the happens-before
// edge between the write and the read.
unsafe impl Send for PartialSlot {}
// SAFETY: see the `Send` impl — disjoint one-writer-then-one-reader
// access, ordered by the dispatch drain.
unsafe impl Sync for PartialSlot {}

/// Runs one work item (`what` number `idx` of `n`) behind a
/// panic-isolation boundary, firing any armed exec-block fault first
/// (inside the boundary, so an injected crash is caught like a real
/// one).
fn isolated<T>(
    kp: &KernelProgram,
    what: &str,
    idx: usize,
    n: usize,
    faults: Option<&FaultInjector>,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(inj) = faults {
            if inj.fire_block(&kp.name, idx, n) == Some(FaultKind::CrashWorker) {
                panic!("injected worker crash at kernel '{}' {what} {idx}", kp.name);
            }
        }
        f()
    }))
    .unwrap_or_else(|payload| {
        Err(SfError::Internal {
            pass: format!("exec:{} {what} {idx}", kp.name),
            payload: panic_payload(payload),
        })
    })
}

/// The output slots a store list of the plan names.
fn stored<'a>(
    outputs: &'a [OutputSlot],
    stores: &'a [ValueId],
) -> impl Iterator<Item = &'a OutputSlot> {
    outputs
        .iter()
        .filter(move |slot| stores.contains(&slot.value))
}

/// The aggregation payload (Simple / UTA factors) of the kernel's sliced
/// reductions, indexed by [`Step::Reduce`]'s `idx`.
fn sliced_reductions(kp: &KernelProgram) -> Result<&[SlicedReduction]> {
    kp.schedule
        .temporal
        .as_ref()
        .map(|t| t.plan.sliced.as_slice())
        .ok_or_else(|| SfError::Codegen("sliced plan without temporal slicing".into()))
}

fn execute_block(launch: &Launch, spatial: &Restrict, worker: &mut Worker) -> Result<()> {
    // Phase 1 over each split-K partition's tile range (one partition
    // spanning every tile when unsplit), folding the partial aggregate
    // states in fixed partition order. The parallel split path computes
    // the same per-partition states concurrently and folds them in the
    // same order, so results are bit-identical at every thread count.
    if let Some(tiles) = &launch.kp.plan().tiles {
        for p in 0..tiles.partitions {
            let Worker {
                pool,
                vals,
                prev,
                part,
            } = &mut *worker;
            if p == 0 {
                phase1_partition(launch, tiles, vals, prev, spatial, pool, p)?;
            } else {
                phase1_partition(launch, tiles, part, prev, spatial, pool, p)?;
                let kp = launch.kp;
                let sliced = sliced_reductions(kp)?;
                combine_partition_states(&kp.graph, sliced, &tiles.uta_deps, worker)?;
            }
        }
    }
    finish_block(launch, spatial, worker)
}

/// Runs the phase-1 intra-block loop over the tiles of partition `p` of
/// the sliced dimension, leaving the partial aggregate states (one
/// tensor per sliced reduction) in `vals`, which it expects empty.
///
/// With one partition this is exactly the serial phase-1 loop; a
/// split-K partition runs it over its own sub-range, producing a
/// partial state later folded by [`combine_partition_states`].
fn phase1_partition(
    launch: &Launch,
    tiles: &TileLoop,
    vals: &mut [Option<Tensor>],
    prev: &mut [Option<Tensor>],
    spatial: &Restrict,
    pool: &mut ScratchPool,
    p: usize,
) -> Result<()> {
    let kp = launch.kp;
    let graph = &kp.graph;
    let sliced = sliced_reductions(kp)?;
    let (tile_lo, tile_hi) = tiles.partition_tiles(p);

    // `prev` holds the pre-tile values of the UTA update-factor
    // dependencies (`tiles.uta_deps`) while later reductions of the same
    // tile rescale against them.
    for tile in tile_lo..tile_hi {
        let restrict = tiles.tile_restrict(spatial, tile);
        recycle(kp, prev, Some(Section::Acc), pool);
        for step in &tiles.phase1 {
            let out = graph.ops()[step.op()].output;
            match *step {
                Step::Op(oi) => {
                    let value = eval_op(launch, vals, oi, &restrict, pool)?;
                    vals[out.0] = Some(value);
                }
                Step::Reduce { op: oi, idx } => {
                    let partial =
                        eval_sliced_partial(launch, vals, oi, tiles.dim, &restrict, pool)?;
                    if vals[out.0].is_none() {
                        vals[out.0] = Some(partial);
                        continue;
                    }
                    let keep_old = tiles.uta_deps.contains(&out);
                    fold(graph, &sliced[idx], keep_old, vals, prev, &partial, pool)?;
                    pool.recycle_tensor(partial);
                }
            }
        }
        recycle(kp, vals, Some(Section::Tile), pool);
    }
    recycle(kp, prev, Some(Section::Acc), pool);
    Ok(())
}

/// Folds `partial` — a tile partial, or a partition's state rescaled to
/// the combined dependency values — into the running aggregate of `sl`
/// in `vals`: `acc = ((acc·g₁)·g₂…) ⊕ partial`, each `g` against the
/// dependency values in `prev` (old) and `vals` (new), written into the
/// aggregate itself. With `keep_old` — later reductions read the
/// aggregate's pre-fold value — that value moves to `prev` and the fold
/// goes to a pooled copy.
fn fold(
    graph: &Graph,
    sl: &SlicedReduction,
    keep_old: bool,
    vals: &mut [Option<Tensor>],
    prev: &mut [Option<Tensor>],
    partial: &Tensor,
    pool: &mut ScratchPool,
) -> Result<()> {
    let out = graph.ops()[sl.op.0].output;
    let mut acc = vals[out.0]
        .take()
        .ok_or_else(|| SfError::Codegen("running aggregate missing".into()))?;
    if keep_old {
        let copy = viewed::unary(UnaryOp::Identity, &acc.view(), pool);
        prev[out.0] = Some(std::mem::replace(&mut acc, copy));
    }
    rescale(graph, &mut acc, &sl.agg, prev, vals)?;
    viewed::binary_in_place(merge_op(graph, sl.op.0), &mut acc, &partial.view())?;
    vals[out.0] = Some(acc);
    Ok(())
}

/// Folds the partition state in `worker.part` into the one in
/// `worker.vals` (partitions are folded left-to-right in partition
/// order — the fixed combine order that keeps results reproducible at
/// every thread count).
///
/// Walks the sliced reductions in plan (topological) order, replacing
/// each left aggregate by the combined one and keeping the replaced
/// value in `worker.prev` when it is one of `uta_deps` (later factors
/// read it): a Simple aggregate merges directly with its
/// combine operator; a UTA partial first rescales **both** sides by the
/// update factors evaluated against the already-combined dependency
/// values (the serial tile loop only updates its old side because a
/// fresh tile partial is already expressed against the current factor
/// values — a partition's state is not). For attention this computes the
/// FlashDecoding fixup `o = o_a·(s_a/s)·e^(m_a−m) + o_b·(s_b/s)·e^(m_b−m)`.
fn combine_partition_states(
    graph: &Graph,
    sliced: &[SlicedReduction],
    uta_deps: &[ValueId],
    worker: &mut Worker,
) -> Result<()> {
    let Worker {
        pool,
        vals: combined,
        prev: left,
        part: right,
    } = worker;
    for sl in sliced {
        let out = graph.ops()[sl.op.0].output;
        let r = right[out.0]
            .as_ref()
            .ok_or_else(|| SfError::Codegen("partition state missing aggregate".into()))?;
        // Dependencies precede this reduction in plan order, so
        // `combined` already holds their folded values and `left` /
        // `right` their pre-fold ones: a UTA state is rescaled as a copy.
        let mut r_upd = matches!(sl.agg, AggKind::Uta(_))
            .then(|| viewed::unary(UnaryOp::Identity, &r.view(), pool));
        if let Some(copy) = &mut r_upd {
            rescale(graph, copy, &sl.agg, right, combined)?;
        }
        let r = r_upd.as_ref().unwrap_or(r);
        fold(graph, sl, uta_deps.contains(&out), combined, left, r, pool)?;
        if let Some(copy) = r_upd {
            pool.recycle_tensor(copy);
        }
    }
    // Both hold aggregates only.
    for tensor in left
        .iter_mut()
        .chain(right.iter_mut())
        .filter_map(Option::take)
    {
        pool.recycle_tensor(tensor);
    }
    Ok(())
}

/// Finalizes a block from the folded aggregate states in its slots
/// (none for an unsliced kernel): mean division, the block-level ops,
/// the phase-2 output re-stream, and the scatters into the shared
/// output slots.
fn finish_block(launch: &Launch, spatial: &Restrict, worker: &mut Worker) -> Result<()> {
    let kp = launch.kp;
    let graph = &kp.graph;
    let plan = kp.plan();
    let Worker { pool, vals, .. } = worker;

    // Finalize mean accumulators (in place; same scalar division the
    // reference `binary_scalar(Div, ...)` performs).
    if let Some(tiles) = &plan.tiles {
        for step in &tiles.phase1 {
            let Step::Reduce { op, .. } = *step else {
                continue;
            };
            let op = &graph.ops()[op];
            if let OpKind::Reduce {
                op: ReduceOp::Mean, ..
            } = op.kind
            {
                if let Some(acc) = vals[op.output.0].as_mut() {
                    for v in acc.data_mut() {
                        *v /= tiles.extent as f32;
                    }
                }
            }
        }
    }

    // Block-level ops, on the finalized aggregates.
    for &oi in &plan.block_ops {
        let out = eval_op(launch, vals, oi, spatial, pool)?;
        vals[graph.ops()[oi].output.0] = Some(out);
    }

    // Phase 2: re-stream tiles to produce outputs spanning the sliced
    // dimension, now with finalized aggregates.
    if let Some((tiles, p2)) = plan.phase2() {
        for tile in 0..tiles.n_tiles() {
            let restrict = tiles.tile_restrict(spatial, tile);
            for &oi in &p2.ops {
                let out = eval_op(launch, vals, oi, &restrict, pool)?;
                vals[graph.ops()[oi].output.0] = Some(out);
            }
            for slot in stored(&launch.outputs, &p2.tile_stores) {
                let value = vals[slot.value.0]
                    .as_ref()
                    .ok_or_else(|| SfError::Codegen("phase-2 output missing".into()))?;
                scatter(kp, slot, &restrict, value)?;
            }
            recycle(kp, vals, Some(Section::Tile), pool);
        }
    }

    // Outputs that do not span the sliced dimension come from the
    // aggregates / block-level values.
    for slot in stored(&launch.outputs, &plan.block_stores) {
        let value = vals[slot.value.0]
            .as_ref()
            .ok_or_else(|| SfError::Codegen("block output missing".into()))?;
        scatter(kp, slot, spatial, value)?;
    }

    recycle(kp, vals, None, pool);
    Ok(())
}

/// Writes a tile into its disjoint region of the shared output buffer.
///
/// Lock-free: the destination region is handed out as a
/// [`TensorViewMut`] over the slot's storage
/// ([`OutputSlot::region_mut`]); the view's dense-suffix copy decomposes
/// the region into contiguous runs copied slice-to-slice, exactly like
/// the old in-place scatter but without taking any mutex.
fn scatter(
    kp: &KernelProgram,
    slot: &OutputSlot,
    restrict: &Restrict,
    tile: &Tensor,
) -> Result<()> {
    let ranges = kp.plan().ranges(&kp.graph, slot.value, restrict);
    if !ranges
        .iter()
        .map(|&(s, t)| t - s)
        .eq(tile.shape().dims().iter().copied())
    {
        return Err(SfError::Codegen(format!(
            "scatter shape mismatch: tile {:?} vs region {:?}",
            tile.shape().dims(),
            ranges.iter().map(|&(s, t)| t - s).collect::<Vec<_>>()
        )));
    }
    let mut region = slot.region_mut(&ranges);
    region.copy_from_dense(tile.data()).map_err(Into::into)
}

/// Evaluates one (non-sliced) operator on restricted views.
fn eval_op(
    launch: &Launch,
    vals: &[Option<Tensor>],
    op_idx: usize,
    restrict: &Restrict,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let kp = launch.kp;
    let op = &kp.graph.ops()[op_idx];
    let get = |i: usize| launch.view(vals, op.inputs[i], restrict);
    let out = match &op.kind {
        OpKind::Gemm { transpose_b } => viewed::matmul(&get(0)?, &get(1)?, *transpose_b, pool)?,
        OpKind::Unary(u) => viewed::unary(*u, &get(0)?, pool),
        OpKind::Binary(b) => viewed::binary(*b, &get(0)?, &get(1)?, pool)?,
        OpKind::Scalar { op: b, value } => viewed::binary_scalar(*b, &get(0)?, *value, pool),
        OpKind::Reduce { op: r, dim } => viewed::reduce(*r, &get(0)?, *dim, pool)?,
        OpKind::Broadcast { dim, .. } => {
            // The broadcast target extent is the *restricted* extent.
            let extent = kp.graph.shape(op.output).dims()[*dim];
            let (s, t) = kp.plan().axes(op.output)[*dim].range(extent, restrict);
            viewed::broadcast_to(&get(0)?, *dim, t - s, pool)?
        }
        OpKind::LayoutBarrier => {
            return Err(SfError::Codegen("layout barrier inside a kernel".into()))
        }
    };
    Ok(out)
}

/// Evaluates the partial result of a sliced reduction on one tile.
///
/// Mean reductions accumulate raw sums (finalized at loop end).
fn eval_sliced_partial(
    launch: &Launch,
    vals: &[Option<Tensor>],
    op_idx: usize,
    dim: DimId,
    restrict: &Restrict,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let kp = launch.kp;
    let op = &kp.graph.ops()[op_idx];
    match &op.kind {
        // A sliced GEMM contracts over the tile like any other.
        OpKind::Gemm { .. } => eval_op(launch, vals, op_idx, restrict, pool),
        OpKind::Reduce { op: r, dim: axis } => {
            let input = launch.view(vals, op.inputs[0], restrict)?;
            // Sanity: the reduce axis must be the sliced dimension.
            debug_assert_eq!(kp.schedule.smg.value_axes[op.inputs[0].0][*axis], dim);
            let kind = if *r == ReduceOp::Mean {
                ReduceOp::Sum
            } else {
                *r
            };
            Ok(viewed::reduce(kind, &input, *axis, pool)?)
        }
        other => Err(SfError::Codegen(format!(
            "op {} cannot be a sliced reduction",
            other.name()
        ))),
    }
}

/// The operator merging two partial aggregates of reduction `op_idx`.
fn merge_op(graph: &Graph, op_idx: usize) -> BinaryOp {
    match graph.ops()[op_idx].kind {
        OpKind::Reduce {
            op: ReduceOp::Max, ..
        } => BinaryOp::Max,
        _ => BinaryOp::Add,
    }
}

/// Applies a UTA update in place: multiplies `acc` by `Π g(dep_old,
/// dep_new)`, factor by factor, each `g` evaluated once per accumulator
/// row (a Simple aggregate is left as is).
///
/// `old` holds the dependencies' pre-update values, `new` their freshly
/// combined ones.
fn rescale(
    graph: &Graph,
    acc: &mut Tensor,
    agg: &AggKind,
    old: &[Option<Tensor>],
    new: &[Option<Tensor>],
) -> Result<()> {
    let AggKind::Uta(factors) = agg else {
        return Ok(());
    };
    for f in factors {
        let dep = graph.ops()[f.dep.0].output;
        let (Some(old), Some(new)) = (&old[dep.0], &new[dep.0]) else {
            return Err(SfError::Codegen("missing update dependency value".into()));
        };
        let g: fn(f32, f32) -> f32 = match f.form {
            FactorForm::Recip => |old, new| old / new,
            FactorForm::ExpNeg => |old, new| (old - new).exp(),
            FactorForm::Value => |old, new| new / old,
        };
        viewed::fold_in_place(acc, &old.view(), &new.view(), g, |x, g| x * g)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Adversarial values through the in-place aggregate fold, checked
    //! bit for bit against the out-of-place composition it replaced.

    use super::*;
    use crate::slicer::UpdateFactor;
    use sf_ir::OpId;
    use sf_tensor::rng::XorShiftRng;
    use sf_tensor::DType;

    const ROWS: usize = 6;
    const COLS: usize = 5;

    /// ±0, ±inf, NaNs (one with a payload), denormals, huge and
    /// exp-overflowing magnitudes, and ordinary values.
    fn special() -> [f32; 16] {
        [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_1234),
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            3e38,
            -3e38,
            88.7,
            -104.0,
            1.0,
            -0.5,
            2.0,
        ]
    }

    fn adversarial(rng: &mut XorShiftRng, dims: [usize; 2]) -> Tensor {
        let data = (0..dims[0] * dims[1])
            .map(|_| match rng.below(3) {
                0 => rng.uniform(-4.0, 4.0),
                _ => special()[rng.below(16) as usize],
            })
            .collect();
        Tensor::from_data(Shape::new(dims.to_vec()), DType::F32, data).unwrap()
    }

    fn bits(t: &Option<Tensor>) -> Option<(Vec<usize>, Vec<u32>)> {
        t.as_ref().map(|t| {
            let data = t.data().iter().map(|v| v.to_bits()).collect();
            (t.shape().dims().to_vec(), data)
        })
    }

    /// `m` = row max (Simple Max, a dependency), `s` = row sum rescaled
    /// by `exp(m_old − m_new)` (a dependency), `o` = a GEMM output
    /// rescaled by `(s_old/s_new)·exp(m_old − m_new)`, `n` a row sum
    /// rescaled by `s_new/s_old`, `t` a plain row sum.
    fn reductions() -> (Graph, Vec<SlicedReduction>, Vec<bool>) {
        let mut g = Graph::new("fold", DType::F32);
        let x = g.input("x", Shape::new(vec![ROWS, 8]));
        let q = g.input("q", Shape::new(vec![ROWS, 8]));
        let v = g.input("v", Shape::new(vec![8, COLS]));
        let m = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.reduce(ReduceOp::Sum, x, 1).unwrap();
        let o = g.gemm(q, v, false).unwrap();
        let n = g.reduce(ReduceOp::Sum, x, 1).unwrap();
        let t = g.reduce(ReduceOp::Sum, x, 1).unwrap();
        for out in [m, s, o, n, t] {
            g.mark_output(out);
        }
        let factor = |dep: usize, form| UpdateFactor {
            dep: OpId(dep),
            form,
        };
        let sliced = vec![
            (0, AggKind::Simple),
            (1, AggKind::Uta(vec![factor(0, FactorForm::ExpNeg)])),
            (
                2,
                AggKind::Uta(vec![
                    factor(1, FactorForm::Recip),
                    factor(0, FactorForm::ExpNeg),
                ]),
            ),
            (3, AggKind::Uta(vec![factor(1, FactorForm::Value)])),
            (4, AggKind::Simple),
        ]
        .into_iter()
        .map(|(op, agg)| SlicedReduction { op: OpId(op), agg })
        .collect();
        (g, sliced, vec![true, true, false, false, false])
    }

    fn dims(graph: &Graph, sl: &SlicedReduction) -> [usize; 2] {
        match graph.ops()[sl.op.0].kind {
            OpKind::Gemm { .. } => [ROWS, COLS],
            _ => [ROWS, 1],
        }
    }

    /// The replaced `apply_update`: `acc · Π g(old, new)`, one pooled
    /// tensor per operation.
    fn reference_update(
        graph: &Graph,
        acc: &Tensor,
        agg: &AggKind,
        old: &[Option<Tensor>],
        new: &[Option<Tensor>],
        pool: &mut ScratchPool,
    ) -> Tensor {
        let mut result = viewed::unary(UnaryOp::Identity, &acc.view(), pool);
        let AggKind::Uta(factors) = agg else {
            return result;
        };
        for f in factors {
            let dep = graph.ops()[f.dep.0].output;
            let (old, new) = (old[dep.0].as_ref().unwrap(), new[dep.0].as_ref().unwrap());
            let (old, new) = (old.view(), new.view());
            let g = match f.form {
                FactorForm::Recip => viewed::binary(BinaryOp::Div, &old, &new, pool),
                FactorForm::ExpNeg => viewed::binary(BinaryOp::Sub, &old, &new, pool)
                    .map(|d| viewed::unary(UnaryOp::Exp, &d.view(), pool)),
                FactorForm::Value => viewed::binary(BinaryOp::Div, &new, &old, pool),
            }
            .unwrap();
            result = viewed::binary(BinaryOp::Mul, &result.view(), &g.view(), pool).unwrap();
        }
        result
    }

    /// The replaced `combine`.
    fn reference_merge(graph: &Graph, op: OpId, a: &Tensor, b: &Tensor) -> Tensor {
        let mut pool = ScratchPool::disabled();
        viewed::binary(merge_op(graph, op.0), &a.view(), &b.view(), &mut pool).unwrap()
    }

    #[test]
    fn tile_fold_matches_the_out_of_place_composition_bit_for_bit() {
        let (graph, sliced, deps) = reductions();
        let n_vals = graph.values().len();
        let mut pool = ScratchPool::new();
        for seed in 0..64 {
            let mut rng = XorShiftRng::seed_from_u64(seed);
            let (mut vals, mut prev): (Slots, Slots) = (vec![None; n_vals], vec![None; n_vals]);
            let (mut want, mut want_prev): (Slots, Slots) =
                (vec![None; n_vals], vec![None; n_vals]);
            for tile in 0..4 {
                prev.iter_mut().for_each(|p| *p = None);
                want_prev.iter_mut().for_each(|p| *p = None);
                for (sl, &keep_old) in sliced.iter().zip(&deps) {
                    let out = graph.ops()[sl.op.0].output;
                    let mut partial = adversarial(&mut rng, dims(&graph, sl));
                    if sl.op.0 == 0 && tile > 0 && seed % 2 == 0 {
                        // Fully masked rows: old and new maxima both −inf.
                        partial.data_mut()[..2].fill(f32::NEG_INFINITY);
                        if let Some(m) = vals[out.0].as_mut() {
                            m.data_mut()[..2].fill(f32::NEG_INFINITY);
                            want[out.0].as_mut().unwrap().data_mut()[..2].fill(f32::NEG_INFINITY);
                        }
                    }
                    let expect = match want[out.0].take() {
                        None => viewed::unary(UnaryOp::Identity, &partial.view(), &mut pool),
                        Some(old) => {
                            let updated = reference_update(
                                &graph, &old, &sl.agg, &want_prev, &want, &mut pool,
                            );
                            let merged = reference_merge(&graph, sl.op, &updated, &partial);
                            if keep_old {
                                want_prev[out.0] = Some(old);
                            }
                            merged
                        }
                    };
                    want[out.0] = Some(expect);
                    if vals[out.0].is_none() {
                        vals[out.0] = Some(partial);
                    } else {
                        fold(
                            &graph, sl, keep_old, &mut vals, &mut prev, &partial, &mut pool,
                        )
                        .unwrap();
                    }
                    assert_eq!(
                        bits(&vals[out.0]),
                        bits(&want[out.0]),
                        "seed {seed} tile {tile} op {}",
                        sl.op.0
                    );
                    assert_eq!(bits(&prev[out.0]), bits(&want_prev[out.0]));
                }
            }
        }
    }

    #[test]
    fn partition_fold_matches_the_out_of_place_composition_bit_for_bit() {
        let (graph, sliced, deps) = reductions();
        let n_vals = graph.values().len();
        let uta_deps: Vec<ValueId> = (sliced.iter().zip(&deps))
            .filter(|&(_, &dep)| dep)
            .map(|(sl, _)| graph.ops()[sl.op.0].output)
            .collect();
        let mut pool = ScratchPool::new();
        for seed in 0..64 {
            let mut rng = XorShiftRng::seed_from_u64(1000 + seed);
            let mut state = || -> Slots {
                let mut slots = vec![None; n_vals];
                for sl in &sliced {
                    let out = graph.ops()[sl.op.0].output;
                    slots[out.0] = Some(adversarial(&mut rng, dims(&graph, sl)));
                }
                slots
            };
            let (mut combined, mut right) = (state(), state());
            if seed % 2 == 0 {
                // Fully masked rows: both sides' maxima are −inf.
                let m = graph.ops()[0].output;
                for side in [&mut combined, &mut right] {
                    side[m.0].as_mut().unwrap().data_mut()[..2].fill(f32::NEG_INFINITY);
                }
            }
            let mut want = combined.clone();
            let mut want_left: Slots = vec![None; n_vals];
            for sl in &sliced {
                let out = graph.ops()[sl.op.0].output;
                let l = want[out.0].take().unwrap();
                let r = right[out.0].as_ref().unwrap();
                let l_upd = reference_update(&graph, &l, &sl.agg, &want_left, &want, &mut pool);
                let r_upd = reference_update(&graph, r, &sl.agg, &right, &want, &mut pool);
                want[out.0] = Some(reference_merge(&graph, sl.op, &l_upd, &r_upd));
                want_left[out.0] = Some(l);
            }
            let mut worker = Worker {
                pool: &mut pool,
                vals: combined,
                prev: vec![None; n_vals],
                part: right,
            };
            combine_partition_states(&graph, &sliced, &uta_deps, &mut worker).unwrap();
            for (got, want) in worker.vals.iter().zip(&want) {
                assert_eq!(bits(got), bits(want), "seed {seed}");
            }
        }
    }
}
