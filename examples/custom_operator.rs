//! Fusing a custom operator composition.
//!
//! SpaceFusion is not limited to the patterns it was evaluated on: any
//! composition of GEMMs, reductions, broadcasts and element-wise math can
//! be analyzed through the SMG. This example builds an attention variant
//! the library has no special case for — masked attention with a
//! temperature and a gated output — and shows that the scheduler still
//! finds a single-kernel fusion with a correct online-softmax derivation.
//!
//! Run with: `cargo run --release --example custom_operator`

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape};
use spacefusion::{CompileSession, FusionPolicy};

fn main() {
    let (m, l, d) = (256usize, 2048usize, 64usize);

    // A custom fused region: temperature-scaled masked attention whose
    // output is gated by a sigmoid of a second projection.
    let mut g = Graph::new("gated_masked_attention", DType::F16);
    let q = g.input("q", Shape::new(vec![m, d]));
    let k = g.input("k", Shape::new(vec![l, d]));
    let v = g.input("v", Shape::new(vec![l, d]));
    let mask = g.input("mask", Shape::new(vec![m, l])); // additive mask.
    let gate_w = g.weight("gate_w", Shape::new(vec![d, d]));

    let qk = g.gemm(q, k, true).unwrap();
    let scaled = g
        .scalar(BinaryOp::Mul, qk, 1.0 / (d as f32).sqrt())
        .unwrap();
    let tempered = g.scalar(BinaryOp::Div, scaled, 0.8).unwrap(); // temperature.
    let masked = g.binary(BinaryOp::Add, tempered, mask).unwrap();
    let mx = g.reduce(ReduceOp::Max, masked, 1).unwrap();
    let sub = g.binary(BinaryOp::Sub, masked, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, sub).unwrap();
    let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    let p = g.binary(BinaryOp::Div, e, s).unwrap();
    let ctx = g.gemm(p, v, false).unwrap();

    // Gate: sigmoid(q · Wg) ⊙ context.
    let gate = g.gemm(q, gate_w, false).unwrap();
    let gate = g.unary(UnaryOp::Sigmoid, gate).unwrap();
    let out = g.binary(BinaryOp::Mul, ctx, gate).unwrap();
    g.mark_output(out);

    println!(
        "custom region: {} operators, {} tensors",
        g.ops().len(),
        g.values().len()
    );

    // Compile and inspect.
    let compiler = CompileSession::with_policy(Arch::Hopper, FusionPolicy::SpaceFusion);
    let program = compiler.compile(&g).expect("compile");
    println!("compiled into {} kernel(s):", program.kernels.len());
    for kp in &program.kernels {
        println!(
            "  {:<36} ops={} grid={} smem={} KiB temporal={:?}",
            kp.name,
            kp.graph.ops().len(),
            kp.schedule.grid(),
            kp.schedule.smem_per_block(&kp.graph) >> 10,
            kp.schedule.temporal.as_ref().map(|t| t.block),
        );
    }

    // Verify against the reference execution.
    let bindings = g.random_bindings(123);
    let expect = g.execute(&bindings).expect("reference");
    let got = program.execute(&bindings).expect("fused");
    let diff = got[0].max_abs_diff(&expect[0]).unwrap();
    println!("max |fused − reference| = {diff:.2e}");
    assert!(diff < 1e-2, "fusion must preserve numerics");

    // And show the SMG for the curious (Graphviz DOT on stdout).
    if std::env::args().any(|a| a == "--dot") {
        let smg = spacefusion::smg::build_smg(&g).unwrap();
        println!("\n{}", smg.to_dot(&g));
    } else {
        println!("(pass --dot to print the Space-Mapping Graph in Graphviz format)");
    }
}
