//! Program segmentation (paper §5, program-preprocessing).
//!
//! SpaceFusion "segments the tensor program defined by a deep learning
//! model into smaller subprograms, primarily based on model layers and
//! unavoidable shape or layout transformations". Here, a [`Graph`] is
//! split at every [`OpKind::LayoutBarrier`]; each resulting segment is a
//! standalone graph whose cut values become inputs/outputs. Repetitive
//! segments are deduplicated by the caller via
//! [`crate::analysis::pattern_signature`] plus the shape key returned by
//! [`shape_key`].

use crate::graph::{Graph, GraphError, OpKind, ValueId, ValueKind};
use std::collections::HashMap;

/// Splits a graph into subprograms at layout barriers.
///
/// Each segment preserves operator order. Values crossing a segment
/// boundary become inputs of the later segment and outputs of the earlier
/// one. A graph without barriers yields a single segment equivalent to the
/// input.
pub fn segment(graph: &Graph) -> Result<Vec<Graph>, GraphError> {
    // Group op indices into runs separated by layout barriers.
    let mut runs: Vec<Vec<usize>> = vec![Vec::new()];
    for (i, op) in graph.ops().iter().enumerate() {
        if matches!(op.kind, OpKind::LayoutBarrier) {
            if !runs.last().expect("non-empty").is_empty() {
                runs.push(Vec::new());
            }
            // The barrier itself belongs to no segment: its effect is
            // captured by re-shaping the cut value.
            continue;
        }
        runs.last_mut().expect("non-empty").push(i);
    }
    runs.retain(|r| !r.is_empty());
    if runs.is_empty() {
        return Ok(Vec::new());
    }

    // Barrier rewiring: uses of a barrier output read the barrier input,
    // re-shaped. Track the mapping old-output -> (source value, new shape).
    let mut barrier_src: HashMap<ValueId, ValueId> = HashMap::new();
    for op in graph.ops() {
        if matches!(op.kind, OpKind::LayoutBarrier) {
            let mut src = op.inputs[0];
            // Collapse chained barriers.
            while let Some(&s) = barrier_src.get(&src) {
                src = s;
            }
            barrier_src.insert(op.output, src);
        }
    }

    let mut segments = Vec::with_capacity(runs.len());
    for (seg_idx, run) in runs.iter().enumerate() {
        let mut sub = Graph::new(format!("{}#{}", graph.name(), seg_idx), graph.dtype());
        sub.instances = graph.instances;
        let mut map: HashMap<ValueId, ValueId> = HashMap::new();
        let produced: Vec<ValueId> = run.iter().map(|&i| graph.ops()[i].output).collect();

        // Import an operand into the segment, creating an input if it is
        // produced outside the run.
        for &i in run {
            let op = &graph.ops()[i];
            let mut mapped_inputs = Vec::with_capacity(op.inputs.len());
            for &raw in &op.inputs {
                // Resolve through layout barriers, but keep the *barrier
                // output's* shape (the shape this segment observes).
                let observed_shape = *graph.shape(raw);
                let origin = *barrier_src.get(&raw).unwrap_or(&raw);
                let key = raw;
                let id = if let Some(&m) = map.get(&key) {
                    m
                } else if produced.contains(&origin) && !barrier_src.contains_key(&raw) {
                    // Produced earlier in this same run; map must exist.
                    *map.get(&origin).ok_or(GraphError::UnknownValue(origin))?
                } else {
                    let info = graph.value(origin);
                    let name = info.name.clone();
                    let new = match info.kind {
                        ValueKind::Weight => sub.weight(name, observed_shape),
                        _ => sub.input(name, observed_shape),
                    };
                    map.insert(key, new);
                    new
                };
                mapped_inputs.push(id);
            }
            let new_out = replay_op(&mut sub, &op.kind, &mapped_inputs)?;
            // Keep the original value name: executors bind tensors by
            // name, and post-barrier segments replay at shifted op
            // indices, so auto-generated names would drift.
            sub.rename_value(new_out, graph.value(op.output).name.clone());
            map.insert(op.output, new_out);
        }

        // Outputs: values produced in this run that are consumed outside it
        // (possibly via a barrier) or are graph outputs.
        for &out in &produced {
            let consumed_outside = graph
                .consumers(out)
                .iter()
                .any(|&cid| !run.contains(&cid.0))
                || graph
                    .ops()
                    .iter()
                    .any(|o| matches!(o.kind, OpKind::LayoutBarrier) && o.inputs[0] == out);
            if consumed_outside || graph.outputs().contains(&out) {
                let id = *map.get(&out).ok_or(GraphError::UnknownValue(out))?;
                sub.mark_output(id);
            }
        }
        segments.push(sub);
    }
    Ok(segments)
}

fn replay_op(g: &mut Graph, kind: &OpKind, inputs: &[ValueId]) -> Result<ValueId, GraphError> {
    match kind {
        OpKind::Gemm { transpose_b } => g.gemm(inputs[0], inputs[1], *transpose_b),
        OpKind::Unary(u) => g.unary(*u, inputs[0]),
        OpKind::Binary(b) => g.binary(*b, inputs[0], inputs[1]),
        OpKind::Scalar { op, value } => g.scalar(*op, inputs[0], *value),
        OpKind::Reduce { op, dim } => g.reduce(*op, inputs[0], *dim),
        OpKind::Broadcast { dim, extent } => g.broadcast(inputs[0], *dim, *extent),
        OpKind::LayoutBarrier => unreachable!("barriers are removed before replay"),
    }
}

/// A shape-sensitive key for segment deduplication.
///
/// Two segments with equal [`crate::analysis::pattern_signature`] *and*
/// equal `shape_key` compile to identical kernels, so SpaceFusion compiles
/// them once (paper: "Most of these subprograms are repetitive.
/// SpaceFusion compiles the repetitive ones only once.").
pub fn shape_key(graph: &Graph) -> String {
    use std::fmt::Write;
    let mut key = String::new();
    for op in graph.ops() {
        let _ = write!(key, "{}:", op.kind.name());
        for &i in &op.inputs {
            let _ = write!(key, "{},", graph.shape(i));
        }
        let _ = write!(key, "->{};", graph.shape(op.output));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    /// Two MLP-ish stages separated by a reshape barrier.
    fn barrier_graph() -> Graph {
        let mut g = Graph::new("two_stage", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 8]));
        let w1 = g.weight("w1", Shape::new(vec![8, 8]));
        let h = g.gemm(x, w1, false).unwrap();
        let h = g.unary(UnaryOp::Relu, h).unwrap();
        let r = g.layout_barrier(h, Shape::new(vec![8, 4])).unwrap();
        let w2 = g.weight("w2", Shape::new(vec![4, 4]));
        let y = g.gemm(r, w2, false).unwrap();
        g.mark_output(y);
        g
    }

    #[test]
    fn splits_at_barrier() {
        let g = barrier_graph();
        let segs = segment(&g).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].ops().len(), 2);
        assert_eq!(segs[1].ops().len(), 1);
        // The second segment sees the post-barrier shape.
        let in_shape = segs[1]
            .values()
            .iter()
            .find(|v| matches!(v.kind, ValueKind::Input))
            .map(|v| v.shape)
            .unwrap();
        assert_eq!(in_shape.dims(), &[8, 4]);
    }

    #[test]
    fn segments_execute_equivalently() {
        let g = barrier_graph();
        let segs = segment(&g).unwrap();
        let bindings = g.random_bindings(5);
        let full = g.execute(&bindings).unwrap();

        // Chain the segments by hand.
        let out0 = segs[0].execute(&bindings).unwrap();
        let mut b1 = bindings.clone();
        let seg1_input = segs[1]
            .values()
            .iter()
            .find(|v| matches!(v.kind, ValueKind::Input))
            .unwrap();
        b1.insert(
            seg1_input.name.clone(),
            out0[0].reshape(seg1_input.shape).unwrap(),
        );
        let out1 = segs[1].execute(&b1).unwrap();
        assert!(out1[0].allclose(&full[0], 1e-5));
    }

    #[test]
    fn no_barrier_yields_one_segment() {
        let mut g = Graph::new("plain", DType::F32);
        let x = g.input("x", Shape::new(vec![2, 4]));
        let m = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, x, m).unwrap();
        g.mark_output(s);
        let segs = segment(&g).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].ops().len(), 2);
    }

    #[test]
    fn shape_keys_match_for_identical_segments() {
        let g1 = barrier_graph();
        let g2 = barrier_graph();
        let s1 = segment(&g1).unwrap();
        let s2 = segment(&g2).unwrap();
        assert_eq!(shape_key(&s1[0]), shape_key(&s2[0]));
        assert_ne!(shape_key(&s1[0]), shape_key(&s1[1]));
    }

    #[test]
    fn empty_graph_has_no_segments() {
        let g = Graph::new("empty", DType::F32);
        assert!(segment(&g).unwrap().is_empty());
    }
}
