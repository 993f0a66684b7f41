//! Tensor substrate for the SpaceFusion reproduction.
//!
//! This crate provides the dense-tensor data structures and the CPU
//! *reference* implementations of every operator that appears in the
//! paper's workloads (GEMM, reductions, broadcasts, element-wise math, and
//! the composite operators Softmax / LayerNorm / RMSNorm built from them).
//!
//! The reference implementations serve two roles:
//!
//! 1. They define the ground-truth numerics that every fused kernel
//!    produced by the SpaceFusion scheduler must reproduce.
//! 2. They back the "PyTorch eager" unfused baseline of the evaluation.
//!
//! Values are stored as `f32`; the [`DType`] only affects the *byte size*
//! used by the GPU performance model (the paper evaluates in FP16, so most
//! workloads use [`DType::F16`] which occupies two bytes per element).

pub mod alloc_stats;
pub mod compare;
pub mod dtype;
pub mod error;
pub mod inline;
pub mod ops;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod tensor;
// Every `unsafe` block in the raw-view layer must carry a `// SAFETY:`
// justification (audited; enforced by verify.sh).
#[deny(clippy::undocumented_unsafe_blocks)]
pub mod view;

pub use compare::{assert_tensors_bitwise, assert_tensors_close, compare_tensors, Tolerance};
pub use dtype::DType;
pub use error::{Result, TensorError};
pub use inline::InlineVec;
pub use scratch::ScratchPool;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;
pub use view::{TensorView, TensorViewMut};
