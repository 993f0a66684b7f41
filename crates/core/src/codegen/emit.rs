//! Pseudo-code emission for scheduled kernels.
//!
//! Renders a [`KernelProgram`] as the Triton-style pseudo-code of the
//! paper's Figs. 6 and 7 — the parallel block loop, staged loads, the
//! intra-block loop with running aggregations and update functions, the
//! post-loop epilogue and the stores. Intended for humans: debugging
//! schedules, documentation, and golden tests that pin down the shape of
//! generated code.

use super::plan::{sliced_agg, Step};
use super::program::KernelProgram;
use crate::sched::MemLevel;
use crate::slicer::{AggKind, FactorForm, UpdateFactor};
use sf_ir::{OpKind, ValueId};
use std::fmt::Write as _;

/// Renders the kernel as indented pseudo-code.
pub fn emit_pseudocode(kp: &KernelProgram) -> String {
    let g = &kp.graph;
    let s = &kp.schedule;
    let plan = kp.plan();
    let mut out = String::new();
    let name = |v: ValueId| g.value(v).name.as_str();

    let _ = writeln!(out, "// kernel {} — grid {} block(s)", kp.name, s.grid());
    let _ = writeln!(out, "parallel_for block in SMG_blocks {{");

    // Whole-block loads: staged into shared memory, or streamed.
    for gl in plan.globals.iter().filter(|gl| !gl.varying) {
        let v = name(gl.value);
        let _ = if gl.staged {
            writeln!(out, "    {v} = load_block({v})        // smem")
        } else {
            writeln!(out, "    {v} = stream({v})            // global")
        };
    }

    if let Some(tiles) = &plan.tiles {
        let _ = writeln!(
            out,
            "    // intra-block loop over dim {} in tiles of {}",
            s.smg.dims[tiles.dim.0].name, tiles.tile
        );
        if tiles.split.is_none() {
            let _ = writeln!(out, "    for intra_block in Block {{");
        } else {
            let _ = writeln!(
                out,
                "    // split-K: {} parallel partitions, each owning a contiguous tile range",
                tiles.partitions
            );
            let _ = writeln!(
                out,
                "    parallel_for p: for intra_block in partition(p) {{"
            );
        }
        for gl in plan.globals.iter().filter(|gl| gl.varying) {
            let v = name(gl.value);
            let _ = writeln!(out, "        {v} = load_tile({v})");
        }
        for step in &tiles.phase1 {
            match *step {
                Step::Op(oi) => {
                    let _ = writeln!(out, "        {}", op_line(kp, oi));
                }
                Step::Reduce { op, idx } => {
                    let target = name(g.ops()[op].output);
                    let _ = match sliced_agg(s, idx) {
                        Some(AggKind::Uta(factors)) => writeln!(
                            out,
                            "        {target} = aggr({target}_old * {}, {})  // UTA",
                            update_expr(kp, factors),
                            expr(kp, op)
                        ),
                        _ => writeln!(
                            out,
                            "        {target} = aggr({target}_old, {})",
                            expr(kp, op)
                        ),
                    };
                }
            }
        }
        let _ = writeln!(out, "    }}");

        if let Some(sp) = &tiles.split {
            for &v in &sp.parks {
                let _ = writeln!(
                    out,
                    "    park_partial({})   // one state per partition",
                    name(v)
                );
            }
            let _ = writeln!(
                out,
                "    // combine dispatch: fold {} partials in partition order",
                tiles.partitions
            );
            for &(op, spec) in &sp.folds {
                let target = name(g.ops()[op.0].output);
                let rescaled = if spec.rescale { ", rescaled" } else { "" };
                let _ = writeln!(
                    out,
                    "    {target} = combine_{}({target}[0..{}]{rescaled})",
                    spec.op.name(),
                    tiles.partitions
                );
            }
        }
    }

    for &oi in &plan.block_ops {
        let _ = writeln!(out, "    {}", op_line(kp, oi));
    }
    if let Some((_, p2)) = plan.phase2() {
        let _ = writeln!(out, "    for intra_block in Block {{  // phase 2");
        for &oi in &p2.ops {
            let _ = writeln!(out, "        {}", op_line(kp, oi));
        }
        for &o in &p2.tile_stores {
            let _ = writeln!(out, "        store_tile({})", name(o));
        }
        let _ = writeln!(out, "    }}");
    }
    for &o in &plan.block_stores {
        let _ = writeln!(out, "    store({})", name(o));
    }
    let _ = writeln!(out, "}}");
    out
}

/// `dst = op(args)` with the memory level as a comment.
fn op_line(kp: &KernelProgram, oi: usize) -> String {
    let g = &kp.graph;
    let op = &g.ops()[oi];
    let level = match kp.schedule.level(op.output) {
        MemLevel::Register => "reg",
        MemLevel::Shared => "smem",
        MemLevel::Global => "global",
    };
    format!(
        "{} = {}   // {}",
        g.value(op.output).name,
        expr(kp, oi),
        level
    )
}

/// The product of UTA update factors rescaling an old accumulator.
fn update_expr(kp: &KernelProgram, factors: &[UpdateFactor]) -> String {
    factors
        .iter()
        .map(|f| {
            let dep = &kp.graph.value(kp.graph.ops()[f.dep.0].output).name;
            match f.form {
                FactorForm::ExpNeg => format!("exp({dep}_old - {dep})"),
                FactorForm::Recip => format!("{dep}_old/{dep}"),
                FactorForm::Value => format!("{dep}/{dep}_old"),
            }
        })
        .collect::<Vec<_>>()
        .join(" * ")
}

fn expr(kp: &KernelProgram, oi: usize) -> String {
    let g = &kp.graph;
    let op = &g.ops()[oi];
    let a = |i: usize| g.value(op.inputs[i]).name.clone();
    match &op.kind {
        OpKind::Gemm { .. } => format!("gemm({}, {})", a(0), a(1)),
        OpKind::Unary(u) => format!("{}({})", u.name(), a(0)),
        OpKind::Binary(b) => format!("{}({}, {})", b.name(), a(0), a(1)),
        OpKind::Scalar { op: b, value } => format!("{}({}, {value})", b.name(), a(0)),
        OpKind::Reduce { op: r, dim } => format!("{}({}, dim={dim})", r.name(), a(0)),
        OpKind::Broadcast { dim, .. } => format!("broadcast({}, dim={dim})", a(0)),
        OpKind::LayoutBarrier => format!("reshape({})", a(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CompileSession, FusionPolicy};
    use sf_gpu_sim::Arch;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn mha(l: usize) -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        let q = g.input("Q", Shape::new(vec![256, 64]));
        let k = g.input("K", Shape::new(vec![l, 64]));
        let v = g.input("V", Shape::new(vec![l, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        g.rename_value(qk, "QK");
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        g.rename_value(mx, "Max");
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        g.rename_value(sub, "Sub");
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        g.rename_value(e, "Exp");
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        g.rename_value(s, "Sum");
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        g.rename_value(d, "Div");
        let out = g.gemm(d, v, false).unwrap();
        g.rename_value(out, "Out");
        g.mark_output(out);
        g
    }

    #[test]
    fn mha_pseudocode_matches_figure_7_structure() {
        let g = mha(8192);
        // Pin the paper's serial Fig. 7 rendering: split-K would
        // legitimately partition this deep-KV loop, which the split
        // pseudo-code test covers instead.
        let mut opts = crate::pipeline::CompileOptions::default();
        opts.slicing.enable_split = false;
        let p = CompileSession::new(Arch::Volta, opts).compile(&g).unwrap();
        let code = emit_pseudocode(&p.kernels[0]);
        // The paper's Fig. 7 structure: parallel blocks, an intra-block
        // loop, UTA update functions for Sum and Out.
        assert!(code.contains("parallel_for block"));
        assert!(code.contains("for intra_block in Block"));
        assert!(code.contains("Max = aggr(Max_old, max(QK"));
        assert!(code.contains("Sum = aggr(Sum_old * exp(Max_old - Max)"));
        assert!(code.contains("Out = aggr(Out_old * exp(Max_old - Max) * Sum_old/Sum"));
        assert!(code.contains("store(Out)"));
    }

    #[test]
    fn flat_kernel_pseudocode_has_no_loop() {
        let g = mha(64);
        let p = CompileSession::with_policy(Arch::Hopper, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let kp = &p.kernels[0];
        if kp.schedule.temporal.is_none() {
            let code = emit_pseudocode(kp);
            assert!(!code.contains("intra_block"));
            assert!(code.contains("gemm(Q, K)"));
        }
    }

    #[test]
    fn split_pseudocode_shows_partitions_and_combine_fold() {
        // Decode shape: one query row, deep KV — the tuner picks split-K.
        let mut g = Graph::new("decode", DType::F16);
        let q = g.input("Q", Shape::new(vec![1, 32]));
        let k = g.input("K", Shape::new(vec![1024, 32]));
        let v = g.input("V", Shape::new(vec![1024, 32]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        g.rename_value(mx, "Max");
        let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        g.rename_value(s, "Sum");
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.rename_value(out, "Out");
        g.mark_output(out);
        let p = CompileSession::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let kp = &p.kernels[0];
        let parts = kp
            .schedule
            .temporal
            .as_ref()
            .and_then(|t| t.split.as_ref())
            .map(|sp| sp.partitions)
            .expect("decode shape must split");
        let code = emit_pseudocode(kp);
        assert!(code.contains(&format!("split-K: {parts} parallel partitions")));
        assert!(code.contains("parallel_for p: for intra_block in partition(p)"));
        assert!(code.contains("park_partial(Max)"));
        // Simple max fold for the running max; rescaled adds for the
        // UTA sum and output (the FlashDecoding fixup).
        assert!(code.contains(&format!("Max = combine_max(Max[0..{parts}])")));
        assert!(code.contains(&format!("Sum = combine_add(Sum[0..{parts}], rescaled)")));
        assert!(code.contains(&format!("Out = combine_add(Out[0..{parts}], rescaled)")));
    }

    #[test]
    fn two_phase_pseudocode_shows_second_pass() {
        let mut g = Graph::new("softmax", DType::F16);
        let x = g.input("X", Shape::new(vec![64, 65536]));
        let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, z).unwrap();
        g.mark_output(d);
        let p = CompileSession::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&g)
            .unwrap();
        let kp = &p.kernels[0];
        assert!(kp
            .schedule
            .temporal
            .as_ref()
            .is_some_and(|t| t.plan.two_phase));
        let code = emit_pseudocode(kp);
        assert!(code.contains("phase 2"));
        assert!(code.contains("store_tile"));
    }
}
