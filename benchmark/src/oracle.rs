//! The correctness oracle: compiled output against the independent
//! reference interpreter (`sf_ir::Graph::execute`), never against the
//! compiler itself.

use sf_ir::{Graph, OpKind};
use sf_tensor::compare::{compare_tensors, Tolerance};
use sf_tensor::Tensor;
use std::collections::HashMap;

/// Tolerance for fused-versus-reference output of `graph`, derived as
/// the differential fuzzer derives it: fusion re-associates every
/// reduction, so the budget is `Tolerance::for_reduction_extent` of the
/// largest reduced extent (a reduce's axis or a GEMM's inner dimension),
/// scaled by how many reducing ops feed an output (an f16 MLP stack
/// re-quantizes the error of each layer into the next). Element-wise
/// programs must agree to a few ULPs.
pub fn tolerance(graph: &Graph) -> Tolerance {
    let extents: Vec<usize> = graph
        .ops()
        .iter()
        .filter_map(|op| match &op.kind {
            OpKind::Reduce { dim, .. } => Some(graph.shape(op.inputs[0]).dims()[*dim]),
            OpKind::Gemm { .. } => Some(graph.shape(op.inputs[0]).dims()[1]),
            _ => None,
        })
        .collect();
    let Some(&extent) = extents.iter().max() else {
        return Tolerance::new(0.0, 4);
    };
    let base = Tolerance::for_reduction_extent(extent);
    let factor = extents.len().min(16) as u32;
    Tolerance::new(
        base.abs * factor as f32,
        base.ulps.saturating_mul(factor).min(1 << 20),
    )
}

/// Reference outputs of `graph` on `bindings`.
pub fn reference(
    name: &str,
    graph: &Graph,
    bindings: &HashMap<String, Tensor>,
) -> Result<Vec<Tensor>, String> {
    graph
        .execute(bindings)
        .map_err(|e| format!("{name}: reference interpreter failed: {e}"))
}

/// Checks `got` against the reference outputs under `tol`.
pub fn check(name: &str, got: &[Tensor], want: &[Tensor], tol: Tolerance) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{name}: {} outputs, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        compare_tensors(g, w, tol).map_err(|m| format!("{name}: output {i} off reference: {m}"))?;
    }
    Ok(())
}

/// Whether two output lists are identical bit for bit.
pub fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
