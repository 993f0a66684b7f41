//! End-to-end inference engines as composition rules (paper §6.2).

use crate::handtuned;
use sf_gpu_sim::Arch;
use sf_ir::{Graph, OpKind};
use spacefusion::Result;
use spacefusion::{CompileOptions, CompileSession, CompiledProgram, FusionPolicy};

/// Per-kernel dispatch cost of eager-mode PyTorch, µs.
///
/// The compiled systems run with CUDA Graphs (paper §6.2, "with CUDA
/// Graphs enabled to reduce the kernel launching time"), so they pay the
/// bare ~5 µs launch; the Huggingface-on-PyTorch baseline dispatches each
/// op through the Python eager path, which costs substantially more.
pub const EAGER_DISPATCH_US: f64 = 15.0;

/// The compared systems of Fig. 14 / Tables 5–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Huggingface-on-PyTorch eager baseline: one kernel per operator.
    PyTorch,
    /// SpaceFusion (this work).
    SpaceFusion,
    /// NVIDIA TensorRT: hand-tuned library composition — fused attention
    /// and LayerNorm kernels, GEMM-epilogue fusion elsewhere.
    TensorRt,
    /// Kernl: Triton FlashAttention + Triton fused LayerNorm on top of
    /// eager PyTorch GEMMs.
    Kernl,
    /// BladeDISC (implements AStitch): fuses memory-intensive operators
    /// only.
    BladeDisc,
    /// NNFusion (implements Welder): tile-graph fusion, no intra-operator
    /// dependency transformation.
    NnFusion,
}

impl Engine {
    /// All engines in the paper's presentation order.
    pub fn all() -> [Engine; 6] {
        [
            Engine::PyTorch,
            Engine::SpaceFusion,
            Engine::TensorRt,
            Engine::Kernl,
            Engine::BladeDisc,
            Engine::NnFusion,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::PyTorch => "PyTorch",
            Engine::SpaceFusion => "SpaceFusion",
            Engine::TensorRt => "TensorRT",
            Engine::Kernl => "Kernl",
            Engine::BladeDisc => "BladeDISC",
            Engine::NnFusion => "NNFusion",
        }
    }

    /// Architecture support, mirroring the paper's absent bars:
    /// "NNFusion for Ampere and Hopper, and BladeDISC for Hopper are not
    /// fully supported".
    pub fn supports(&self, arch: Arch) -> bool {
        match self {
            Engine::NnFusion => arch == Arch::Volta,
            Engine::BladeDisc => arch != Arch::Hopper,
            _ => true,
        }
    }

    /// Compiles one subprogram under this engine's composition rules.
    pub fn compile(&self, arch: Arch, graph: &Graph) -> Result<CompiledProgram> {
        match self {
            Engine::PyTorch => {
                let mut cfg = arch.config();
                cfg.launch_overhead_us = EAGER_DISPATCH_US;
                let opts = CompileOptions {
                    policy: FusionPolicy::Unfused,
                    ..Default::default()
                };
                CompileSession::with_config(cfg, opts).compile(graph)
            }
            Engine::SpaceFusion => {
                CompileSession::with_policy(arch, FusionPolicy::SpaceFusion).compile(graph)
            }
            Engine::BladeDisc => {
                CompileSession::with_policy(arch, FusionPolicy::MiOnly).compile(graph)
            }
            Engine::NnFusion => {
                CompileSession::with_policy(arch, FusionPolicy::TileGraph).compile(graph)
            }
            Engine::TensorRt => {
                if is_attention(graph) {
                    // TensorRT ships a hand-fused multi-head attention
                    // kernel on every evaluated architecture.
                    handtuned::compile_fixed(arch, graph, 64, Some(64))
                } else if is_row_norm(graph) {
                    handtuned::pytorch_op_layernorm(arch, graph)
                } else {
                    CompileSession::with_policy(arch, FusionPolicy::EpilogueOnly).compile(graph)
                }
            }
            Engine::Kernl => {
                if is_attention(graph) {
                    handtuned::flash_attention_triton(arch, graph)
                } else if is_row_norm(graph) {
                    handtuned::triton_layernorm(arch, graph)
                } else {
                    CompileSession::with_policy(arch, FusionPolicy::Unfused).compile(graph)
                }
            }
        }
    }
}

/// Heuristic: an attention-style subgraph (≥ 2 GEMMs and ≥ 2 reductions).
pub fn is_attention(graph: &Graph) -> bool {
    let gemms = graph
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Gemm { .. }))
        .count();
    let reduces = graph
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Reduce { .. }))
        .count();
    gemms >= 2 && reduces >= 2
}

/// Heuristic: a row-normalization subgraph (no GEMMs, ≥ 1 reduction).
pub fn is_row_norm(graph: &Graph) -> bool {
    let gemms = graph
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Gemm { .. }))
        .count();
    let reduces = graph
        .ops()
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Reduce { .. }))
        .count();
    gemms == 0 && reduces >= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_models::subgraphs;

    #[test]
    fn support_matrix_matches_paper() {
        assert!(Engine::NnFusion.supports(Arch::Volta));
        assert!(!Engine::NnFusion.supports(Arch::Ampere));
        assert!(!Engine::NnFusion.supports(Arch::Hopper));
        assert!(Engine::BladeDisc.supports(Arch::Ampere));
        assert!(!Engine::BladeDisc.supports(Arch::Hopper));
        // Every engine supports at least one architecture.
        for e in Engine::all() {
            assert!(Arch::all().iter().any(|&a| e.supports(a)), "{}", e.name());
        }
    }

    #[test]
    fn pattern_detection() {
        assert!(is_attention(&subgraphs::mha(1, 1, 128, 64)));
        assert!(!is_attention(&subgraphs::layernorm(64, 128)));
        assert!(is_row_norm(&subgraphs::layernorm(64, 128)));
        assert!(is_row_norm(&subgraphs::rmsnorm(64, 128)));
        assert!(!is_row_norm(&subgraphs::mlp_stack(2, 64, 128)));
    }

    #[test]
    fn engines_compile_attention_correctly() {
        let g = subgraphs::mha(1, 1, 128, 32);
        let bindings = g.random_bindings(11);
        let expect = g.execute(&bindings).unwrap();
        for e in Engine::all() {
            let p = e.compile(Arch::Ampere, &g).unwrap();
            let got = p.execute(&bindings).unwrap();
            assert!(
                got[0].allclose(&expect[0], 1e-3),
                "{} produced wrong numerics",
                e.name()
            );
        }
    }

    #[test]
    fn pytorch_launches_most_kernels() {
        // PyTorch eager fuses the softmax chain into one framework op,
        // so MHA is gemm, scale, softmax, gemm = 4 kernels.
        let g = subgraphs::mha(1, 1, 256, 64);
        let py = Engine::PyTorch.compile(Arch::Ampere, &g).unwrap();
        let sf = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
        assert_eq!(py.kernels.len(), 4);
        assert_eq!(sf.kernels.len(), 1);
        // A structure without framework-level composites stays 1:1.
        let ln = subgraphs::layernorm(64, 128);
        let py_ln = Engine::PyTorch.compile(Arch::Ampere, &ln).unwrap();
        assert_eq!(py_ln.kernels.len(), ln.ops().len());
    }

    #[test]
    fn bladedisc_leaves_gemms_unfused() {
        let g = subgraphs::mha(1, 1, 256, 64);
        let p = Engine::BladeDisc.compile(Arch::Ampere, &g).unwrap();
        // Two standalone GEMM kernels plus MI groups.
        assert!(p.kernels.len() >= 3);
        for k in &p.kernels {
            let gemms = k
                .graph
                .ops()
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Gemm { .. }))
                .count();
            assert!(gemms <= 1, "BladeDISC must not fuse multiple GEMMs");
            if gemms == 1 {
                assert_eq!(k.graph.ops().len(), 1);
            }
        }
    }
}
