//! Edge cases of the kernel interpreter and the compilation pipeline:
//! multi-output kernels, degenerate shapes, uneven tiles, deep chains,
//! and instance semantics.

use sf_baselines::Engine;
use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape, Tensor};
use spacefusion::{CompileSession, FusionPolicy};
use std::collections::HashMap;

fn verify(g: &Graph, arch: Arch, seed: u64, tol: f32) {
    let p = Engine::SpaceFusion.compile(arch, g).expect("compile");
    let b = g.random_bindings(seed);
    let expect = g.execute(&b).expect("reference");
    let got = p.execute(&b).expect("fused");
    assert_eq!(got.len(), expect.len());
    for (i, (x, y)) in got.iter().zip(expect.iter()).enumerate() {
        assert!(
            x.allclose(y, tol),
            "{} output {i} differs by {:?}",
            g.name(),
            x.max_abs_diff(y)
        );
    }
}

/// A fused kernel that materializes two outputs (the normalized value
/// and its row mean).
#[test]
fn multi_output_fused_kernel() {
    let mut g = Graph::new("two_outputs", DType::F32);
    let x = g.input("x", Shape::new(vec![48, 96]));
    let mean = g.reduce(ReduceOp::Mean, x, 1).unwrap();
    let c = g.binary(BinaryOp::Sub, x, mean).unwrap();
    let r = g.unary(UnaryOp::Relu, c).unwrap();
    g.mark_output(mean);
    g.mark_output(r);
    verify(&g, Arch::Ampere, 1, 1e-4);
}

/// Outputs read by later kernels *and* returned to the caller.
#[test]
fn shared_intermediate_across_kernels() {
    let mut g = Graph::new("shared", DType::F32);
    let x = g.input("x", Shape::new(vec![32, 64]));
    let w1 = g.weight("w1", Shape::new(vec![64, 64]));
    let w2 = g.weight("w2", Shape::new(vec![64, 64]));
    let h = g.gemm(x, w1, false).unwrap();
    let h = g.unary(UnaryOp::Relu, h).unwrap();
    let y = g.gemm(h, w2, false).unwrap();
    g.mark_output(h); // intermediate is also a program output.
    g.mark_output(y);
    for policy in [FusionPolicy::SpaceFusion, FusionPolicy::Unfused] {
        let p = CompileSession::with_policy(Arch::Ampere, policy)
            .compile(&g)
            .unwrap();
        let b = g.random_bindings(2);
        let expect = g.execute(&b).unwrap();
        let got = p.execute(&b).unwrap();
        assert!(got[0].allclose(&expect[0], 1e-3));
        assert!(got[1].allclose(&expect[1], 1e-3));
    }
}

/// Prime-sized extents never divide the block sizes.
#[test]
fn prime_extents_clamp_correctly() {
    let mut g = Graph::new("prime", DType::F32);
    let x = g.input("x", Shape::new(vec![97, 131]));
    let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
    let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, s).unwrap();
    let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    let d = g.binary(BinaryOp::Div, e, z).unwrap();
    g.mark_output(d);
    verify(&g, Arch::Volta, 3, 1e-5);
}

/// A single-element tensor is a legal (if silly) program.
#[test]
fn single_element_graph() {
    let mut g = Graph::new("tiny", DType::F32);
    let x = g.input("x", Shape::new(vec![1, 1]));
    let y = g.unary(UnaryOp::Tanh, x).unwrap();
    g.mark_output(y);
    verify(&g, Arch::Hopper, 4, 1e-6);
}

/// A single row and a single column exercise both degenerate axes.
#[test]
fn single_row_and_column() {
    for dims in [vec![1, 257], vec![257, 1]] {
        let mut g = Graph::new("thin", DType::F32);
        let x = g.input("x", Shape::new(dims.clone()));
        let a = g.unary(UnaryOp::Sqr, x).unwrap();
        let r = g
            .reduce(ReduceOp::Sum, a, if dims[1] > 1 { 1 } else { 0 })
            .unwrap();
        g.mark_output(r);
        verify(&g, Arch::Ampere, 5, 1e-3);
    }
}

/// A 24-operator element-wise/reduction chain stays a single kernel.
#[test]
fn deep_elementwise_chain_fuses_whole() {
    let mut g = Graph::new("deep", DType::F32);
    let x = g.input("x", Shape::new(vec![64, 64]));
    let mut cur = x;
    for i in 0..20 {
        cur = match i % 4 {
            0 => g.unary(UnaryOp::Tanh, cur).unwrap(),
            1 => g.scalar(BinaryOp::Mul, cur, 1.01).unwrap(),
            2 => g.binary(BinaryOp::Add, cur, x).unwrap(),
            _ => g.unary(UnaryOp::Sigmoid, cur).unwrap(),
        };
    }
    let mx = g.reduce(ReduceOp::Max, cur, 1).unwrap();
    let out = g.binary(BinaryOp::Sub, cur, mx).unwrap();
    g.mark_output(out);
    let p = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
    assert_eq!(p.kernels.len(), 1);
    verify(&g, Arch::Ampere, 6, 1e-4);
}

/// Instanced graphs execute per-instance semantics (the bindings are one
/// instance; the profiler scales the rest).
#[test]
fn instanced_graph_execution_is_per_instance() {
    let mut g = Graph::new("inst", DType::F32);
    g.instances = 16;
    let x = g.input("x", Shape::new(vec![8, 8]));
    let y = g.unary(UnaryOp::Relu, x).unwrap();
    g.mark_output(y);
    let p = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
    let mut b = HashMap::new();
    b.insert(
        "x".to_string(),
        Tensor::full(Shape::new(vec![8, 8]), DType::F32, -2.0),
    );
    let out = p.execute(&b).unwrap();
    assert!(out[0].data().iter().all(|&v| v == 0.0));
    // The profile covers 16 instances' worth of traffic.
    let r1 = {
        let mut g1 = Graph::new("inst1", DType::F32);
        let x1 = g1.input("x", Shape::new(vec![8, 8]));
        let y1 = g1.unary(UnaryOp::Relu, x1).unwrap();
        g1.mark_output(y1);
        Engine::SpaceFusion
            .compile(Arch::Ampere, &g1)
            .unwrap()
            .profile(1)
    };
    let r16 = p.profile(16);
    assert!(r16.stats.dram_total_bytes() >= 8 * r1.stats.dram_total_bytes());
}

/// Weight-only programs (no activation input) compile and run.
#[test]
fn weight_only_program() {
    let mut g = Graph::new("wonly", DType::F32);
    let w = g.weight("w", Shape::new(vec![32, 32]));
    let y = g.unary(UnaryOp::Gelu, w).unwrap();
    g.mark_output(y);
    verify(&g, Arch::Ampere, 7, 1e-4);
}

/// Broadcast-op graphs round-trip through compilation.
#[test]
fn explicit_broadcast_roundtrip() {
    let mut g = Graph::new("bcast", DType::F32);
    let x = g.input("x", Shape::new(vec![33, 1]));
    let b = g.broadcast(x, 1, 77).unwrap();
    let y = g.scalar(BinaryOp::Mul, b, 2.0).unwrap();
    g.mark_output(y);
    verify(&g, Arch::Volta, 8, 1e-6);
}

/// Column-direction softmax (reductions along dim 0) — the transpose of
/// everything else in the suite.
#[test]
fn column_softmax() {
    let mut g = Graph::new("col_softmax", DType::F32);
    let x = g.input("x", Shape::new(vec![200, 48]));
    let mx = g.reduce(ReduceOp::Max, x, 0).unwrap();
    let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, s).unwrap();
    let z = g.reduce(ReduceOp::Sum, e, 0).unwrap();
    let d = g.binary(BinaryOp::Div, e, z).unwrap();
    g.mark_output(d);
    verify(&g, Arch::Ampere, 9, 1e-5);
    // Columns sum to one.
    let p = Engine::SpaceFusion.compile(Arch::Ampere, &g).unwrap();
    let b = g.random_bindings(10);
    let out = p.execute(&b).unwrap();
    for j in 0..48 {
        let col: f32 = (0..200).map(|i| out[0].at(&[i, j])).sum();
        assert!((col - 1.0).abs() < 1e-4);
    }
}
