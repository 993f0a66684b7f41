//! SMG partitioning (paper §5.2, Algorithm 2; §5.3 candidate schedules).
//!
//! When resource-aware slicing fails — the fusion is too aggressive for
//! the hardware budget, or no dimension is spatially sliceable — the SMG
//! is reorganized into *sub-SMGs* and split into a schedulable former
//! part `G_f` and a latter part `G_l` that re-enters scheduling. A
//! sub-SMG is either a single All-to-One iteration space with its
//! neighbouring data spaces (a GEMM or a reduction) or a maximal run of
//! non-All-to-One operators (element-wise chains, broadcasts). The
//! intermediate data space at the cut is duplicated: it becomes an output
//! of `G_f` and an input of `G_l`.

use crate::error::{Result, SfError};
use sf_ir::{Graph, OpKind, ValueId, ValueKind};

/// Groups the operators of `graph` into sub-SMG unit ranges
/// `[start, end)`.
///
/// Each GEMM or reduction (an All-to-One iteration space) forms its own
/// unit; consecutive non-All-to-One operators merge into one unit.
pub fn sub_smg_units(graph: &Graph) -> Vec<(usize, usize)> {
    let mut units: Vec<(usize, usize)> = Vec::new();
    let mut run_start: Option<usize> = None;
    for (i, op) in graph.ops().iter().enumerate() {
        let is_a2o = matches!(op.kind, OpKind::Gemm { .. } | OpKind::Reduce { .. });
        if is_a2o {
            if let Some(s) = run_start.take() {
                units.push((s, i));
            }
            units.push((i, i + 1));
        } else if run_start.is_none() {
            run_start = Some(i);
        }
    }
    if let Some(s) = run_start {
        units.push((s, graph.ops().len()));
    }
    units
}

/// Splits `graph` at operator index `cut`: the former graph gets ops
/// `[0, cut)`, the latter `[cut, len)`. Cut intermediates are duplicated
/// (outputs of the former, inputs of the latter) under their original
/// names, so multi-kernel execution can chain them through a shared
/// environment.
pub fn split_graph(graph: &Graph, cut: usize) -> Result<(Graph, Graph)> {
    if cut == 0 || cut >= graph.ops().len() {
        return Err(SfError::Unpartitionable(format!(
            "cut {cut} out of range for {} ops",
            graph.ops().len()
        )));
    }
    let former = extract_ops(graph, 0, cut, &format!("{}.f", graph.name()))?;
    let latter = extract_ops(
        graph,
        cut,
        graph.ops().len(),
        &format!("{}.l", graph.name()),
    )?;
    Ok((former, latter))
}

/// Extracts ops `[start, end)` into a standalone graph.
///
/// External operands become inputs/weights under their original names;
/// values consumed outside the range (or marked as graph outputs) become
/// outputs. Used by Algorithm 2 and by the policy-based fusion grouping.
pub fn extract_ops(graph: &Graph, start: usize, end: usize, name: &str) -> Result<Graph> {
    let mut sub = Graph::new(name, graph.dtype());
    sub.instances = graph.instances;
    let mut map: Vec<Option<ValueId>> = vec![None; graph.values().len()];

    for oi in start..end {
        let op = &graph.ops()[oi];
        let mut inputs = Vec::with_capacity(op.inputs.len());
        for &raw in &op.inputs {
            let id = match map[raw.0] {
                Some(id) => id,
                None => {
                    let info = graph.value(raw);
                    let id = match info.kind {
                        ValueKind::Weight => sub.weight(info.name.clone(), info.shape),
                        _ => sub.input(info.name.clone(), info.shape),
                    };
                    map[raw.0] = Some(id);
                    id
                }
            };
            inputs.push(id);
        }
        let out = replay(&mut sub, &op.kind, &inputs)?;
        // Keep the original name so cross-kernel bindings line up.
        sub.rename_value(out, graph.value(op.output).name.clone());
        map[op.output.0] = Some(out);
    }

    // Outputs: produced here and consumed outside, or graph outputs.
    for oi in start..end {
        let out = graph.ops()[oi].output;
        let consumed_outside = graph
            .consumers(out)
            .iter()
            .any(|c| c.0 < start || c.0 >= end);
        if consumed_outside || graph.outputs().contains(&out) {
            let id = map[out.0].ok_or(SfError::Unpartitionable("lost value".into()))?;
            sub.mark_output(id);
        }
    }
    Ok(sub)
}

fn replay(g: &mut Graph, kind: &OpKind, inputs: &[ValueId]) -> Result<ValueId> {
    let out = match kind {
        OpKind::Gemm { transpose_b } => g.gemm(inputs[0], inputs[1], *transpose_b)?,
        OpKind::Unary(u) => g.unary(*u, inputs[0])?,
        OpKind::Binary(b) => g.binary(*b, inputs[0], inputs[1])?,
        OpKind::Scalar { op, value } => g.scalar(*op, inputs[0], *value)?,
        OpKind::Reduce { op, dim } => g.reduce(*op, inputs[0], *dim)?,
        OpKind::Broadcast { dim, extent } => g.broadcast(inputs[0], *dim, *extent)?,
        OpKind::LayoutBarrier => {
            return Err(SfError::Unpartitionable(
                "layout barrier in fused region".into(),
            ))
        }
    };
    Ok(out)
}

/// A single round of Algorithm 2: iteratively peels the last sub-SMG off
/// `G_f` into `G_l` until `is_schedulable(G_f)` holds.
///
/// Returns `(G_f, G_l)`. Fails when even the first unit alone is not
/// schedulable.
pub fn partition_round(
    graph: &Graph,
    is_schedulable: &dyn Fn(&Graph) -> bool,
) -> Result<(Graph, Graph)> {
    let units = sub_smg_units(graph);
    if units.len() < 2 {
        return Err(SfError::Unpartitionable(format!(
            "graph '{}' has a single sub-SMG",
            graph.name()
        )));
    }
    // Try cuts from the largest former part downwards.
    for cut_unit in (1..units.len()).rev() {
        let cut = units[cut_unit].0;
        let (former, latter) = split_graph(graph, cut)?;
        if is_schedulable(&former) {
            return Ok((former, latter));
        }
    }
    Err(SfError::Unpartitionable(format!(
        "no prefix of graph '{}' is schedulable",
        graph.name()
    )))
}

/// §5.3: given a schedulable cut, also propose the variant that moves one
/// more trailing *non-All-to-One* unit from `G_f` to `G_l`. Returns the
/// alternative cut position if it exists.
pub fn alternative_cut(graph: &Graph, cut: usize) -> Option<usize> {
    let units = sub_smg_units(graph);
    let idx = units.iter().position(|&(s, _)| s == cut)?;
    if idx == 0 {
        return None;
    }
    let (prev_start, prev_end) = units[idx - 1];
    let prev_is_a2o = matches!(
        graph.ops()[prev_start].kind,
        OpKind::Gemm { .. } | OpKind::Reduce { .. }
    ) && prev_end - prev_start == 1;
    if prev_is_a2o || prev_start == 0 {
        None
    } else {
        Some(prev_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};
    use std::collections::HashMap;

    /// gemm → bias → relu → gemm → bias → relu (two MLP layers).
    fn mlp2() -> Graph {
        let mut g = Graph::new("mlp2", DType::F32);
        let x = g.input("x", Shape::new(vec![8, 16]));
        let w1 = g.weight("w1", Shape::new(vec![16, 16]));
        let b1 = g.weight("b1", Shape::new(vec![1, 16]));
        let w2 = g.weight("w2", Shape::new(vec![16, 16]));
        let b2 = g.weight("b2", Shape::new(vec![1, 16]));
        let h = g.gemm(x, w1, false).unwrap();
        let h = g.binary(BinaryOp::Add, h, b1).unwrap();
        let h = g.unary(UnaryOp::Relu, h).unwrap();
        let y = g.gemm(h, w2, false).unwrap();
        let y = g.binary(BinaryOp::Add, y, b2).unwrap();
        let y = g.unary(UnaryOp::Relu, y).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn units_alternate_a2o_and_elementwise() {
        let g = mlp2();
        let units = sub_smg_units(&g);
        // gemm | add+relu | gemm | add+relu.
        assert_eq!(units, vec![(0, 1), (1, 3), (3, 4), (4, 6)]);
    }

    #[test]
    fn units_merge_elementwise_runs() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 4]));
        let a = g.unary(UnaryOp::Exp, x).unwrap();
        let b = g.unary(UnaryOp::Relu, a).unwrap();
        let c = g.scalar(BinaryOp::Mul, b, 2.0).unwrap();
        g.mark_output(c);
        assert_eq!(sub_smg_units(&g), vec![(0, 3)]);
    }

    #[test]
    fn split_graphs_execute_equivalently() {
        let g = mlp2();
        let (f, l) = split_graph(&g, 3).unwrap();
        assert_eq!(f.ops().len(), 3);
        assert_eq!(l.ops().len(), 3);

        let bindings = g.random_bindings(9);
        let whole = g.execute(&bindings).unwrap();

        let mut env: HashMap<String, _> = bindings.clone();
        let f_out = f.execute(&env).unwrap();
        // The cut value keeps its original name.
        let cut_name = f
            .values()
            .iter()
            .find(|v| matches!(v.kind, ValueKind::Intermediate))
            .map(|_| f.value(*f.outputs().first().unwrap()).name.clone())
            .unwrap();
        env.insert(cut_name, f_out[0].clone());
        let l_out = l.execute(&env).unwrap();
        assert!(l_out[0].allclose(&whole[0], 1e-5));
    }

    #[test]
    fn split_rejects_degenerate_cuts() {
        let g = mlp2();
        assert!(split_graph(&g, 0).is_err());
        assert!(split_graph(&g, 6).is_err());
    }

    #[test]
    fn partition_round_finds_largest_schedulable_prefix() {
        let g = mlp2();
        // Schedulable iff at most 4 ops: expect the cut at unit (4,6),
        // i.e. G_f = first 4 ops.
        let (f, l) = partition_round(&g, &|g| g.ops().len() <= 4).unwrap();
        assert_eq!(f.ops().len(), 4);
        assert_eq!(l.ops().len(), 2);
    }

    #[test]
    fn partition_round_peels_until_schedulable() {
        let g = mlp2();
        let (f, l) = partition_round(&g, &|g| g.ops().len() <= 1).unwrap();
        assert_eq!(f.ops().len(), 1);
        assert_eq!(l.ops().len(), 5);
    }

    #[test]
    fn partition_round_fails_when_nothing_fits() {
        let g = mlp2();
        assert!(matches!(
            partition_round(&g, &|_| false),
            Err(SfError::Unpartitionable(_))
        ));
    }

    #[test]
    fn alternative_cut_moves_elementwise_unit() {
        let g = mlp2();
        // Cut at op 3 (second gemm): the previous unit (1,3) is
        // element-wise, so the §5.3 alternative moves it too: cut at 1.
        assert_eq!(alternative_cut(&g, 3), Some(1));
        // Cut at op 1: previous unit is the gemm (A2O) → no alternative.
        assert_eq!(alternative_cut(&g, 1), None);
    }

    #[test]
    fn reduce_ops_are_their_own_units() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 8]));
        let e = g.unary(UnaryOp::Exp, x).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        g.mark_output(d);
        assert_eq!(sub_smg_units(&g), vec![(0, 1), (1, 2), (2, 3)]);
    }
}
