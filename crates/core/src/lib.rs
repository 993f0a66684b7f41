//! SpaceFusion: operator fusion via Space-Mapping Graphs.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`smg`] — the Space-Mapping Graph abstraction (§4.1): computational
//!   spaces (data + iteration) as nodes, One-to-One / One-to-All /
//!   All-to-One mappings as directed edges with geometric direction
//!   dimensions, built from an operator DFG via dimension alignment.
//! * [`slicer`] — the spatial slicer (§4.2) that carves an SMG into
//!   independent, parallel SMG blocks, and the temporal slicer (§4.3)
//!   that serializes a block into intra-blocks, handling sliced
//!   reductions with Simple Aggregate or Update-then-Aggregate (UTA)
//!   derived through Broadcast Postposition.
//! * [`sched`] — resource-aware slicing (Alg. 1), SMG partitioning
//!   (Alg. 2 + §5.3 candidate exploration) and memory-hierarchy
//!   assignment (§5.4).
//! * [`codegen`] — lowering of scheduled SMGs to tile-level kernel
//!   programs, with a numeric interpreter (correctness) and an
//!   access-stream tracer feeding the `sf-gpu-sim` profiler
//!   (performance). This substitutes for the paper's Triton backend.
//! * [`tune`] — block-size auto-tuning over the enumerated search space
//!   with the paper's early-quit mechanism (§6.5).
//! * [`pipeline`] — the end-to-end pipeline of Fig. 9: a
//!   [`CompileSession`] is the one way to compile, calling the
//!   segment, group, schedule, emit and verify stages in order over a
//!   shared thread-safe schedule cache (repetitive subprograms compile once, across
//!   threads), concurrent scheduling of independent fusion groups with
//!   deterministic merge order, structured instrumentation events
//!   ([`pipeline::PassEvent`]) delivered to a pluggable
//!   [`pipeline::EventSink`], and the restricted fusion policies used
//!   to model the baseline systems (unfused, epilogue-only,
//!   memory-intensive-only, tile-graph).
//! * [`resilience`] — the degradation ladder (current policy → Alg.-2
//!   partitioned → per-op unfused), `catch_unwind` panic isolation
//!   feeding [`SfError::Internal`], compilation [`resilience::Deadline`]
//!   budgets, and the deterministic fault-injection harness behind
//!   `sfc faultsim`.
//!
//! # Quickstart
//!
//! ```
//! use sf_ir::Graph;
//! use sf_gpu_sim::Arch;
//! use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
//! use sf_tensor::{DType, Shape};
//! use spacefusion::{CompileOptions, CompileSession};
//!
//! // Build a softmax subprogram.
//! let mut g = Graph::new("softmax", DType::F16);
//! let x = g.input("x", Shape::new(vec![128, 256]));
//! let m = g.reduce(ReduceOp::Max, x, 1).unwrap();
//! let s = g.binary(BinaryOp::Sub, x, m).unwrap();
//! let e = g.unary(UnaryOp::Exp, s).unwrap();
//! let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
//! let d = g.binary(BinaryOp::Div, e, z).unwrap();
//! g.mark_output(d);
//!
//! // Compile for A100 and check it fused into a single kernel.
//! let session = CompileSession::new(Arch::Ampere, CompileOptions::default());
//! let program = session.compile(&g).unwrap();
//! assert_eq!(program.kernels.len(), 1);
//! ```

// Every `unsafe` block in the executor must carry a `// SAFETY:`
// justification (audited; enforced by verify.sh).
#[deny(clippy::undocumented_unsafe_blocks)]
pub mod codegen;
pub mod error;
// The no-new-unwrap gate: panics in the pipeline and resilience layers
// are bugs by construction (the whole point is to degrade, not abort),
// so `unwrap`/`expect` are denied outright. Test modules opt back in
// locally with `#[allow]`.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod pipeline;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod resilience;
pub mod rewrite;
// The serving layer runs unattended: a stray panic there is an outage,
// so the same deny gate applies.
pub mod sched;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod serve;
pub mod slicer;
pub mod smg;
pub mod tune;
pub mod verify;

pub use error::{Result, SfError};
pub use pipeline::{CompileOptions, CompileSession, CompiledProgram, FusionPolicy, ScheduleCache};
pub use resilience::{Deadline, DegradationReport, FaultInjector, FaultPlan};
pub use smg::{DimId, Mapping, MappingKind, Smg, SpaceId, SpaceKind};
