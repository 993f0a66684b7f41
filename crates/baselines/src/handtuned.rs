//! Manually-tuned library kernels as fixed-configuration compilations.
//!
//! The defining property of a hand-tuned library (paper §6.1) is that an
//! expert chose one dataflow and one set of block shapes per kernel; the
//! shapes are excellent on the workloads the expert tuned for and merely
//! adequate elsewhere. We reproduce that by running the same scheduler
//! with auto-tuning disabled and the expert's block sizes pinned.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use spacefusion::sched::SlicingOptions;
use spacefusion::Result;
use spacefusion::{CompileOptions, CompileSession, CompiledProgram, FusionPolicy};

/// Compiles `graph` as a single fused kernel with pinned block sizes.
///
/// `spatial` pins every spatially sliced dimension; `temporal` pins the
/// intra-block size (and enables temporal slicing).
pub fn compile_fixed(
    arch: Arch,
    graph: &Graph,
    spatial: usize,
    temporal: Option<usize>,
) -> Result<CompiledProgram> {
    let opts = CompileOptions {
        policy: FusionPolicy::SpaceFusion,
        autotune: false,
        slicing: SlicingOptions {
            enable_temporal: temporal.is_some(),
            enable_uta: true,
            fixed_spatial_block: Some(spatial),
            fixed_temporal_block: temporal,
            max_configs: 4,
            ..Default::default()
        },
        alpha: 0.25,
        ..Default::default()
    };
    CompileSession::new(arch, opts).compile(graph)
}

/// FlashAttention (v1) CUDA kernel: 64×64 tiles, online softmax.
///
/// Unsupported on Volta, as in the paper ("FlashAttention's CUDA
/// implementation lacks compatibility with Volta").
pub fn flash_attention_v1(arch: Arch, mha: &Graph) -> Option<Result<CompiledProgram>> {
    if arch == Arch::Volta {
        return None;
    }
    Some(compile_fixed(arch, mha, 64, Some(64)))
}

/// FlashAttention 2: larger key/value tiles (128) for fewer rescaling
/// steps and less re-read traffic, keeping the v1 query-block
/// parallelism.
///
/// Also SM80+ only.
pub fn flash_attention_v2(arch: Arch, mha: &Graph) -> Option<Result<CompiledProgram>> {
    if arch == Arch::Volta {
        return None;
    }
    Some(compile_fixed(arch, mha, 64, Some(128)))
}

/// The OpenAI-Triton port of FlashAttention: hand-tuned 64×64 blocks,
/// available on every architecture.
pub fn flash_attention_triton(arch: Arch, mha: &Graph) -> Result<CompiledProgram> {
    compile_fixed(arch, mha, 64, Some(64))
}

/// `torch.nn.functional.layer_norm`'s fused CUDA kernel: a generic
/// row-parallel kernel with 4-row blocks.
pub fn pytorch_op_layernorm(arch: Arch, ln: &Graph) -> Result<CompiledProgram> {
    compile_fixed(arch, ln, 4, None)
}

/// NVIDIA Apex fused LayerNorm: persistent one-row blocks tuned for
/// large hidden sizes.
pub fn apex_layernorm(arch: Arch, ln: &Graph) -> Result<CompiledProgram> {
    compile_fixed(arch, ln, 1, None)
}

/// The Triton tutorial LayerNorm: 16-row blocks (good mid-sizes, runs
/// out of shared memory head-room at very large rows).
pub fn triton_layernorm(arch: Arch, ln: &Graph) -> Result<CompiledProgram> {
    compile_fixed(arch, ln, 16, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_models::subgraphs;

    #[test]
    fn flash_attention_is_absent_on_volta() {
        let g = subgraphs::mha(1, 1, 256, 64);
        assert!(flash_attention_v1(Arch::Volta, &g).is_none());
        assert!(flash_attention_v2(Arch::Volta, &g).is_none());
        assert!(flash_attention_v1(Arch::Ampere, &g).is_some());
    }

    #[test]
    fn flash_attention_fuses_to_one_temporally_sliced_kernel() {
        let g = subgraphs::mha(1, 1, 2048, 64);
        let p = flash_attention_v1(Arch::Ampere, &g).unwrap().unwrap();
        assert_eq!(p.kernels.len(), 1);
        let s = &p.kernels[0].schedule;
        assert_eq!(s.spatial[0].1, 64);
        assert_eq!(s.temporal.as_ref().unwrap().block, 64);
    }

    #[test]
    fn flash_attention_v2_uses_larger_temporal_tiles() {
        let g = subgraphs::mha(1, 1, 2048, 64);
        let p = flash_attention_v2(Arch::Hopper, &g).unwrap().unwrap();
        assert_eq!(p.kernels[0].schedule.temporal.as_ref().unwrap().block, 128);
    }

    #[test]
    fn flash_attention_matches_reference_numerics() {
        let g = subgraphs::mha(1, 1, 512, 64);
        let p = flash_attention_triton(Arch::Ampere, &g).unwrap();
        let bindings = g.random_bindings(7);
        let expect = g.execute(&bindings).unwrap();
        let got = p.execute(&bindings).unwrap();
        assert!(got[0].allclose(&expect[0], 1e-3));
    }

    #[test]
    fn layernorm_flavours_fuse_and_match() {
        let g = subgraphs::layernorm(64, 256);
        let bindings = g.random_bindings(8);
        let expect = g.execute(&bindings).unwrap();
        for p in [
            pytorch_op_layernorm(Arch::Ampere, &g).unwrap(),
            apex_layernorm(Arch::Ampere, &g).unwrap(),
            triton_layernorm(Arch::Ampere, &g).unwrap(),
        ] {
            assert_eq!(p.kernels.len(), 1);
            let got = p.execute(&bindings).unwrap();
            assert!(got[0].allclose(&expect[0], 1e-3));
        }
    }

    #[test]
    fn fixed_configs_pin_block_sizes() {
        let g = subgraphs::layernorm(256, 512);
        let p = triton_layernorm(Arch::Ampere, &g).unwrap();
        assert_eq!(p.kernels[0].schedule.spatial[0].1, 16);
        let p = apex_layernorm(Arch::Ampere, &g).unwrap();
        assert_eq!(p.kernels[0].schedule.spatial[0].1, 1);
    }
}
