//! Quickstart: build a tensor program, fuse it with SpaceFusion, verify
//! the numerics against the unfused reference, and inspect the simulated
//! performance.
//!
//! Run with: `cargo run --release --example quickstart`

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape};
use spacefusion::{CompileSession, FusionPolicy};

fn main() {
    // 1. Describe a LayerNorm subprogram as an operator dataflow graph —
    //    the nine-operator memory-intensive chain of the paper's
    //    Fig. 10(c). In eager PyTorch each of these primitives is its own
    //    kernel.
    let (m, n) = (2048usize, 2048usize);
    let mut g = Graph::new("layernorm", DType::F16);
    let x = g.input("x", Shape::new(vec![m, n]));
    let w = g.weight("w", Shape::new(vec![1, n]));
    let b = g.weight("b", Shape::new(vec![1, n]));
    let mean = g.reduce(ReduceOp::Mean, x, 1).unwrap();
    let centered = g.binary(BinaryOp::Sub, x, mean).unwrap();
    let sq = g.unary(UnaryOp::Sqr, centered).unwrap();
    let var = g.reduce(ReduceOp::Mean, sq, 1).unwrap();
    let veps = g.scalar(BinaryOp::Add, var, 1e-5).unwrap();
    let std = g.unary(UnaryOp::Sqrt, veps).unwrap();
    let norm = g.binary(BinaryOp::Div, centered, std).unwrap();
    let scaled = g.binary(BinaryOp::Mul, norm, w).unwrap();
    let y = g.binary(BinaryOp::Add, scaled, b).unwrap();
    g.mark_output(y);

    // 2. Compile for an A100 with full SpaceFusion.
    let compiler = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion);
    let fused = compiler.compile(&g).expect("compile");
    println!(
        "SpaceFusion fused {} operators into {} kernel(s)",
        g.ops().len(),
        fused.kernels.len()
    );
    let schedule = &fused.kernels[0].schedule;
    println!(
        "  schedule: {} rows per block, {} KiB shared memory per block",
        schedule.spatial[0].1,
        schedule.smem_per_block(&fused.kernels[0].graph) >> 10,
    );

    // 3. Verify numerics against the unfused reference execution.
    let bindings = g.random_bindings(42);
    let reference = g.execute(&bindings).expect("reference");
    let result = fused.execute(&bindings).expect("fused execute");
    let diff = result[0].max_abs_diff(&reference[0]).unwrap();
    println!("  max |fused - reference| = {diff:.2e}");
    assert!(diff < 1e-4, "fused kernel must match the reference");

    // 4. Compare simulated performance against the eager baseline
    //    (one kernel per primitive, intermediates in global memory).
    let unfused = CompileSession::with_policy(Arch::Ampere, FusionPolicy::Unfused)
        .compile(&g)
        .expect("unfused compile");
    let fr = fused.profile(1);
    let ur = unfused.profile(1);
    println!(
        "  fused:   {:>8.1} µs, {:>7.1} MiB DRAM traffic, 1 launch",
        fr.time_us,
        fr.stats.dram_total_bytes() as f64 / (1 << 20) as f64
    );
    println!(
        "  unfused: {:>8.1} µs, {:>7.1} MiB DRAM traffic, {} launches",
        ur.time_us,
        ur.stats.dram_total_bytes() as f64 / (1 << 20) as f64,
        ur.kernels.len()
    );
    println!("  speedup: {:.2}x", ur.time_us / fr.time_us);
}
