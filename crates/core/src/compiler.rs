//! The end-to-end SpaceFusion compiler facade.
//!
//! The actual compilation machinery lives in [`crate::pipeline`]: a
//! pass pipeline over a [`CompileSession`] with a shared thread-safe
//! schedule cache, concurrent group scheduling and structured
//! instrumentation. [`Compiler`] is the thin convenience wrapper the
//! rest of the workspace (and downstream code) uses:
//! `Compiler::new(arch, opts).compile(&graph)` still works exactly as
//! before, now owning a private session per compiler.
//!
//! Create a [`CompileSession`] directly when you want to share the
//! schedule cache across compilations, plug in an
//! [`EventSink`](crate::pipeline::EventSink), or control the worker
//! count.

use crate::error::Result;
pub use crate::pipeline::{
    CompileOptions, CompileSession, CompileStats, CompiledProgram, FusionPolicy, ProfileReport,
};
use sf_gpu_sim::{Arch, GpuArch};
use sf_ir::Graph;

/// The SpaceFusion compiler for one target architecture.
///
/// Owns a private [`CompileSession`], so repeated [`compile`] calls on
/// one `Compiler` share its schedule cache (repetitive subprograms
/// compile once) but two `Compiler`s never interfere.
///
/// [`compile`]: Compiler::compile
pub struct Compiler {
    session: CompileSession,
}

impl Compiler {
    /// Creates a compiler for the given architecture.
    pub fn new(arch: Arch, opts: CompileOptions) -> Self {
        Compiler {
            session: CompileSession::new(arch, opts),
        }
    }

    /// Creates a compiler for an explicit hardware configuration (e.g. a
    /// variant with a different per-kernel launch overhead).
    pub fn new_with_config(arch: GpuArch, opts: CompileOptions) -> Self {
        Compiler {
            session: CompileSession::with_config(arch, opts),
        }
    }

    /// Creates a compiler with default options under a fusion policy.
    pub fn with_policy(arch: Arch, policy: FusionPolicy) -> Self {
        Compiler::new(arch, CompileOptions::for_policy(policy))
    }

    /// Target configuration.
    pub fn arch(&self) -> &GpuArch {
        self.session.arch()
    }

    /// The underlying session (shared cache, sink, worker control).
    pub fn session(&self) -> &CompileSession {
        &self.session
    }

    /// Compiles a graph into a [`CompiledProgram`].
    pub fn compile(&self, graph: &Graph) -> Result<CompiledProgram> {
        self.session.compile(graph)
    }
}
