//! Compilation and numerics of the extension workloads: convolution via
//! im2col, column-direction BatchNorm, GLU, and the chained-reduction
//! NLL loss — structurally different corners than the paper's Fig. 10
//! suite.

use sf_baselines::Engine;
use sf_gpu_sim::Arch;
use sf_ir::ValueId;
use sf_models::extended;
use spacefusion::slicer::eligible_spatial_dims;
use spacefusion::smg::build_smg;
use spacefusion::{CompileSession, FusionPolicy};

fn check(g: &sf_ir::Graph, arch: Arch, seed: u64, tol: f32) -> spacefusion::CompiledProgram {
    let p = Engine::SpaceFusion.compile(arch, g).expect("compile");
    let b = g.random_bindings(seed);
    let expect = g.execute(&b).expect("reference");
    let got = p.execute(&b).expect("fused");
    for (x, y) in got.iter().zip(expect.iter()) {
        assert!(
            x.allclose(y, tol),
            "{} differs by {:?}",
            g.name(),
            x.max_abs_diff(y)
        );
    }
    p
}

#[test]
fn conv_im2col_segments_and_fuses_the_epilogue() {
    let g = extended::conv2d_im2col(2, 8, 3, 16, 32);
    let p = check(&g, Arch::Ampere, 1, 1e-2);
    // One fused gemm+bias+relu kernel; the reshape is a barrier, not a
    // kernel.
    assert_eq!(p.kernels.len(), 1);
    assert_eq!(p.kernels[0].graph.ops().len(), 3);
}

#[test]
fn conv_column_counts_match_im2col_contract() {
    let g = extended::conv2d_im2col(1, 4, 3, 8, 8);
    let im2col = g.shape(ValueId(0));
    assert_eq!(im2col.dims(), &[16, 72]); // 4·4 positions × 3·3·8 patch.
}

#[test]
fn batchnorm_slices_the_feature_dimension() {
    // Reductions run along dim 0, so the *feature* axis is the spatially
    // sliceable one — the mirror image of LayerNorm.
    let g = extended::batchnorm_inference(512, 256);
    let smg = build_smg(&g).unwrap();
    let dims = eligible_spatial_dims(&g, &smg);
    assert_eq!(dims.len(), 1);
    assert_eq!(smg.extent(dims[0]), 256, "feature dim is sliceable");
    let p = check(&g, Arch::Hopper, 2, 1e-2);
    assert_eq!(p.kernels.len(), 1, "BatchNorm fuses like LayerNorm");
}

#[test]
fn glu_fuses_two_gemms_elementwise() {
    let g = extended::glu(128, 256, 256);
    let p = check(&g, Arch::Ampere, 3, 5e-2);
    assert_eq!(p.kernels.len(), 1, "CI-only pattern fuses whole");
    // Both policies that cannot fuse across GEMMs split it.
    let blade = Engine::BladeDisc.compile(Arch::Ampere, &g).unwrap();
    assert!(blade.kernels.len() >= 3);
}

#[test]
fn nll_chained_reductions_compile_and_match() {
    let g = extended::log_softmax_nll(64, 512);
    let p = check(&g, Arch::Volta, 4, 1e-3);
    // The log(sum(exp(x - max))) chain defeats UTA (log is not a
    // multiplicative factor), so either the row fits on chip in one
    // kernel or the region partitions — both are correct; assert
    // whichever was chosen still used spatial slicing.
    for k in &p.kernels {
        assert!(k.schedule.grid() >= 1);
    }
}

#[test]
fn extended_workloads_profile_cleanly() {
    for g in [
        extended::conv2d_im2col(4, 16, 3, 32, 64),
        extended::batchnorm_inference(2048, 1024),
        extended::glu(1024, 512, 512),
        extended::log_softmax_nll(1024, 2048),
    ] {
        let fused = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
        let eager = Engine::PyTorch.compile(Arch::Ampere, &g).unwrap();
        let fr = fused.profile(1);
        let er = eager.profile(1);
        assert!(fr.time_us > 0.0);
        assert!(
            fr.stats.dram_total_bytes() <= er.stats.dram_total_bytes(),
            "{}: fusion must not add traffic",
            g.name()
        );
    }
}

#[test]
fn streaming_rewrite_composes_with_batchnorm() {
    // The Var = E[x²]−E[x]² rewrite fires on the column-direction
    // variance too.
    let g = extended::batchnorm_inference(1024, 64);
    let r = spacefusion::rewrite::streaming_variance(&g).expect("pattern");
    let b = g.random_bindings(5);
    let a = g.execute(&b).unwrap();
    let c = r.execute(&b).unwrap();
    assert!(a[0].allclose(&c[0], 1e-2));
    let program = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
        .compile(&r)
        .unwrap();
    let got = program.execute(&b).unwrap();
    assert!(got[0].allclose(&a[0], 1e-2));
}

#[test]
fn f16_storage_keeps_uta_error_small() {
    // Quantize attention inputs through half precision and check the
    // fused (UTA) kernel tracks the exact reference within f16 noise.
    let g = sf_models::subgraphs::mha(1, 1, 512, 64);
    let p = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
    let mut b = g.random_bindings(6);
    for t in b.values_mut() {
        *t = t.quantized();
    }
    let expect = g.execute(&b).unwrap();
    let got = p.execute(&b).unwrap();
    let diff = got[0].max_abs_diff(&expect[0]).unwrap();
    assert!(diff < 1e-3, "UTA under f16 inputs drifted by {diff}");
}
