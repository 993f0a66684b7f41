//! Kernel code generation (the paper's Triton-backend substitute).
//!
//! A scheduled SMG lowers to a [`KernelProgram`]: the fused subgraph plus
//! its concrete [`crate::sched::FusedSchedule`], derived operator roles
//! and the [`KernelPlan`] — the one description of the kernel's loop
//! structure ([`plan`]). Every consumer walks that plan:
//!
//! * [`exec`] executes it numerically over real tensors, block by block
//!   and intra-block by intra-block, including the running aggregations
//!   with Simple Aggregate / Update-then-Aggregate — this is how the test
//!   suite proves that every generated schedule (including the derived
//!   FlashAttention-style online softmax) is exactly equivalent to the
//!   unfused reference;
//! * [`trace`] replays the program's global-memory access stream into the
//!   `sf-gpu-sim` profiler for the detailed cache/DRAM measurements, and
//!   provides the cheap analytic cost estimate used inside the
//!   auto-tuner;
//! * [`instr`] renders it as the linear instruction stream the static
//!   verifier checks, and [`emit`] as pseudo-code for humans.

pub mod emit;
pub mod engine;
pub mod exec;
pub mod instr;
pub mod plan;
pub mod program;
pub mod trace;

pub use emit::emit_pseudocode;
pub use engine::{serial_cutoff, ExecEngine, WorkerPool, MIN_PARALLEL_WORK};
pub use exec::{Env, ExecOptions};
pub use instr::{lower_instructions, store_region, AxisWrite, Instr, MemSpace};
pub use plan::KernelPlan;
pub use program::KernelProgram;
pub use trace::{estimate_accumulate_cost, estimate_cost, trace_kernel};
