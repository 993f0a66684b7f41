//! Algebraic graph rewrites that unlock additional slicing.
//!
//! The paper's temporal slicer gives up on dependency chains that
//! broadcast postposition cannot factor (§4.3, the △ cases). The
//! canonical example is the Fig. 10(c) LayerNorm: the variance
//! `mean((x − mean(x))²)` squares a broadcast difference, which has no
//! `core × factor` form, so LayerNorm is scheduled without temporal
//! slicing (whole rows on chip).
//!
//! This module implements the classic *algebraic aggregation* fix as a
//! source-level rewrite: `Var[x] = E[x²] − E[x]²`. After the rewrite the
//! two reductions are independent (both reduce raw streams of `x`), the
//! temporal slicer applies with Simple Aggregate, and LayerNorm becomes a
//! streaming two-phase kernel with an O(block) on-chip footprint — the
//! schedule production LayerNorm kernels actually use for very large
//! rows.
//!
//! The rewrite is an opt-in extension (`CompileOptions` leaves it off by
//! default so the reproduction matches the paper's Fig. 10(c) form); the
//! `repro --only ablation` run quantifies its effect.

use sf_ir::{Graph, GraphError, OpKind, ValueId};
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};

/// Rewrites `mean((x − mean(x))²)` chains into `E[x²] − E[x]²`.
///
/// Returns `None` when the graph contains no such pattern; otherwise the
/// rewritten graph (numerically equivalent up to float re-association).
pub fn streaming_variance(graph: &Graph) -> Option<Graph> {
    // Locate the pattern: mean1 = Mean(x, d); c = Sub(x, mean1);
    // sq = Sqr(c); var = Mean(sq, d).
    let ops = graph.ops();
    let mut target: Option<(usize, usize, usize, usize)> = None;
    for (i4, var_op) in ops.iter().enumerate() {
        let OpKind::Reduce {
            op: ReduceOp::Mean,
            dim,
        } = var_op.kind
        else {
            continue;
        };
        let Some(sq_op) = graph.producer(var_op.inputs[0]) else {
            continue;
        };
        if !matches!(sq_op.kind, OpKind::Unary(UnaryOp::Sqr)) {
            continue;
        }
        let Some(sub_op) = graph.producer(sq_op.inputs[0]) else {
            continue;
        };
        if !matches!(sub_op.kind, OpKind::Binary(BinaryOp::Sub)) {
            continue;
        }
        let Some(mean_op) = graph.producer(sub_op.inputs[1]) else {
            continue;
        };
        let OpKind::Reduce {
            op: ReduceOp::Mean,
            dim: d1,
        } = mean_op.kind
        else {
            continue;
        };
        if d1 != dim || mean_op.inputs[0] != sub_op.inputs[0] {
            continue;
        }
        let find = |needle: &sf_ir::OpNode| {
            ops.iter()
                .position(|o| std::ptr::eq(o, needle))
                .expect("op in graph")
        };
        target = Some((find(mean_op), find(sub_op), find(sq_op), i4));
        break;
    }
    let (i_mean, _i_sub, i_sq, i_var) = target?;

    // Rebuild the graph, replacing the sq/var pair with the streaming
    // form. The centered value (sub) is kept: phase-2 consumers still
    // use it.
    let mut out = Graph::new(format!("{}~streamvar", graph.name()), graph.dtype());
    out.instances = graph.instances;
    let mut map: Vec<Option<ValueId>> = vec![None; graph.values().len()];

    let import = |g: &mut Graph, map: &mut Vec<Option<ValueId>>, v: ValueId| -> ValueId {
        if let Some(id) = map[v.0] {
            return id;
        }
        let info = graph.value(v);
        let id = match info.kind {
            sf_ir::ValueKind::Weight => g.weight(info.name.clone(), info.shape),
            _ => g.input(info.name.clone(), info.shape),
        };
        map[v.0] = Some(id);
        id
    };

    let replay =
        |g: &mut Graph, kind: &OpKind, inputs: &[ValueId]| -> Result<ValueId, GraphError> {
            match kind {
                OpKind::Gemm { transpose_b } => g.gemm(inputs[0], inputs[1], *transpose_b),
                OpKind::Unary(u) => g.unary(*u, inputs[0]),
                OpKind::Binary(b) => g.binary(*b, inputs[0], inputs[1]),
                OpKind::Scalar { op, value } => g.scalar(*op, inputs[0], *value),
                OpKind::Reduce { op, dim } => g.reduce(*op, inputs[0], *dim),
                OpKind::Broadcast { dim, extent } => g.broadcast(inputs[0], *dim, *extent),
                OpKind::LayoutBarrier => unreachable!("fused regions have no barriers"),
            }
        };

    let dim = match ops[i_var].kind {
        OpKind::Reduce { dim, .. } => dim,
        _ => unreachable!(),
    };
    let x_src = ops[i_mean].inputs[0];

    for (oi, op) in ops.iter().enumerate() {
        if oi == i_sq {
            continue; // Sqr(centered) is replaced.
        }
        if oi == i_var {
            // var = mean(x²) − mean(x)².
            let x = map[x_src.0].expect("x imported by mean1");
            let sqx = out.unary(UnaryOp::Sqr, x).ok()?;
            let mean2 = out.reduce(ReduceOp::Mean, sqx, dim).ok()?;
            let m1 = map[ops[i_mean].output.0].expect("mean1 replayed");
            let m1sq = out.unary(UnaryOp::Sqr, m1).ok()?;
            let var = out.binary(BinaryOp::Sub, mean2, m1sq).ok()?;
            out.rename_value(var, graph.value(op.output).name.clone());
            map[op.output.0] = Some(var);
            continue;
        }
        let mut ins = Vec::with_capacity(op.inputs.len());
        for &raw in &op.inputs {
            let id = match map[raw.0] {
                Some(id) => id,
                None => import(&mut out, &mut map, raw),
            };
            ins.push(id);
        }
        let new_out = replay(&mut out, &op.kind, &ins).ok()?;
        out.rename_value(new_out, graph.value(op.output).name.clone());
        map[op.output.0] = Some(new_out);
    }

    for &o in graph.outputs() {
        let id = map[o.0]?;
        out.mark_output(id);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slicer::{pick_temporal_dim, plan_temporal, AggKind};
    use crate::smg::build_smg;
    use sf_tensor::{DType, Shape};

    fn layernorm(m: usize, n: usize) -> Graph {
        let mut g = Graph::new("ln", DType::F32);
        let x = g.input("x", Shape::new(vec![m, n]));
        let w = g.weight("w", Shape::new(vec![1, n]));
        let b = g.weight("b", Shape::new(vec![1, n]));
        let mean = g.reduce(ReduceOp::Mean, x, 1).unwrap();
        let c = g.binary(BinaryOp::Sub, x, mean).unwrap();
        let sq = g.unary(UnaryOp::Sqr, c).unwrap();
        let var = g.reduce(ReduceOp::Mean, sq, 1).unwrap();
        let veps = g.scalar(BinaryOp::Add, var, 1e-5).unwrap();
        let std = g.unary(UnaryOp::Sqrt, veps).unwrap();
        let norm = g.binary(BinaryOp::Div, c, std).unwrap();
        let sc = g.binary(BinaryOp::Mul, norm, w).unwrap();
        let y = g.binary(BinaryOp::Add, sc, b).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn rewrites_layernorm_variance() {
        let g = layernorm(16, 64);
        let r = streaming_variance(&g).expect("pattern found");
        // The rewritten graph is numerically equivalent.
        let bindings = g.random_bindings(3);
        let a = g.execute(&bindings).unwrap();
        let b = r.execute(&bindings).unwrap();
        assert!(a[0].allclose(&b[0], 1e-3));
    }

    #[test]
    fn rewrite_makes_layernorm_temporally_sliceable() {
        let g = layernorm(16, 256);
        // Before: the variance chain defeats broadcast postposition.
        let smg = build_smg(&g).unwrap();
        let n_dim = smg.value_axes[0][1];
        assert!(plan_temporal(&g, &smg, n_dim).is_err());

        // After: two independent means → Simple Aggregate, streaming.
        let r = streaming_variance(&g).unwrap();
        let smg2 = build_smg(&r).unwrap();
        let n2 = smg2.value_axes[0][1];
        let plan = plan_temporal(&r, &smg2, n2).expect("temporal plan");
        assert_eq!(plan.sliced.len(), 2);
        assert!(plan.sliced.iter().all(|s| s.agg == AggKind::Simple));
        assert!(plan.two_phase, "output spans the sliced dim");
        let m_dim = smg2.value_axes[0][0];
        assert_eq!(pick_temporal_dim(&r, &smg2, &[m_dim]), Some(n2));
    }

    #[test]
    fn rewritten_layernorm_compiles_and_matches() {
        use crate::compiler::{Compiler, FusionPolicy};
        use sf_gpu_sim::Arch;
        let g = layernorm(64, 512);
        let r = streaming_variance(&g).unwrap();
        let program = Compiler::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
            .compile(&r)
            .unwrap();
        assert_eq!(program.kernels.len(), 1);
        let bindings = g.random_bindings(9);
        let expect = g.execute(&bindings).unwrap();
        let got = program.execute(&bindings).unwrap();
        assert!(got[0].allclose(&expect[0], 1e-2));
    }

    #[test]
    fn no_pattern_returns_none() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 8]));
        let y = g.unary(UnaryOp::Relu, x).unwrap();
        g.mark_output(y);
        assert!(streaming_variance(&g).is_none());

        // A mean without the centered-square chain is also left alone.
        let mut g2 = Graph::new("t2", DType::F32);
        let x2 = g2.input("x", Shape::new(vec![4, 8]));
        let m = g2.reduce(ReduceOp::Mean, x2, 1).unwrap();
        g2.mark_output(m);
        assert!(streaming_variance(&g2).is_none());
    }

    #[test]
    fn rewrite_preserves_outputs_and_names() {
        let g = layernorm(8, 32);
        let r = streaming_variance(&g).unwrap();
        assert_eq!(r.outputs().len(), 1);
        // The output keeps its original name (cross-kernel binding key).
        let orig = g.value(g.outputs()[0]).name.clone();
        assert_eq!(r.value(r.outputs()[0]).name, orig);
    }
}
