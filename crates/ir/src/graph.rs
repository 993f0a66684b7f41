//! The operator dataflow graph and its builder API.

use sf_tensor::ops::{self, BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape, Tensor};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a tensor value in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// Identifier of an operator node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Role of a value in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Activation input of the (sub)program, resident in global memory.
    Input,
    /// Model weight, resident in global memory.
    Weight,
    /// Intermediate value produced and consumed inside the program.
    Intermediate,
}

/// Metadata of a tensor value.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    /// Human-readable name (used in dumps and error messages).
    pub name: String,
    /// Static shape.
    pub shape: Shape,
    /// Storage precision.
    pub dtype: DType,
    /// Role of the value.
    pub kind: ValueKind,
}

/// Primitive operator kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `C[M,N] = A[M,K] · B` where `B` is `[N,K]` if `transpose_b`, else
    /// `[K,N]`. The canonical non-element-wise compute-intensive operator.
    Gemm {
        /// Whether the right operand is stored `[N,K]` (row-major keys).
        transpose_b: bool,
    },
    /// Element-wise unary operator.
    Unary(UnaryOp),
    /// Element-wise binary operator; the second operand may broadcast.
    Binary(BinaryOp),
    /// `x op scalar` element-wise.
    Scalar {
        /// Binary operator applied against the constant.
        op: BinaryOp,
        /// The constant.
        value: f32,
    },
    /// Reduction along `dim`, keeping the dimension with extent 1.
    Reduce {
        /// Aggregation kind.
        op: ReduceOp,
        /// Reduced dimension.
        dim: usize,
    },
    /// Explicit broadcast of a unit dimension to a larger extent.
    Broadcast {
        /// Broadcast dimension (must have extent 1 on the input).
        dim: usize,
        /// Target extent.
        extent: usize,
    },
    /// Layout barrier (reshape/transpose). Fusion never crosses these;
    /// [`crate::segment()`] splits programs here (paper §5,
    /// program-preprocessing).
    LayoutBarrier,
}

impl OpKind {
    /// Whether this operator is element-wise (One-to-One only).
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            OpKind::Unary(_) | OpKind::Scalar { .. } | OpKind::LayoutBarrier
        )
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            OpKind::Gemm { .. } => "gemm".into(),
            OpKind::Unary(u) => u.name().into(),
            OpKind::Binary(b) => b.name().into(),
            OpKind::Scalar { op, .. } => format!("{}_scalar", op.name()),
            OpKind::Reduce { op, dim } => format!("reduce_{}(d{dim})", op.name()),
            OpKind::Broadcast { dim, .. } => format!("broadcast(d{dim})"),
            OpKind::LayoutBarrier => "layout_barrier".into(),
        }
    }
}

/// An operator node: kind, operands, and the produced value.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// What the operator computes.
    pub kind: OpKind,
    /// Operand values, in order.
    pub inputs: Vec<ValueId>,
    /// Produced value.
    pub output: ValueId,
}

/// Errors produced while building or executing a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A referenced value does not exist.
    UnknownValue(ValueId),
    /// Operand shapes are incompatible for the operator.
    ShapeMismatch(String),
    /// Execution was missing a binding for an input value.
    MissingBinding(String),
    /// Underlying tensor-level failure.
    Tensor(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownValue(v) => write!(f, "unknown value id {}", v.0),
            GraphError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            GraphError::MissingBinding(n) => write!(f, "missing binding for input '{n}'"),
            GraphError::Tensor(m) => write!(f, "tensor error: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<sf_tensor::TensorError> for GraphError {
    fn from(e: sf_tensor::TensorError) -> Self {
        GraphError::Tensor(e.to_string())
    }
}

/// An operator dataflow graph over statically shaped tensor values.
///
/// Operators are stored in topological order (the builder only references
/// already-created values), which downstream passes rely on.
///
/// # Examples
///
/// ```
/// use sf_ir::Graph;
/// use sf_tensor::{DType, Shape};
/// use sf_tensor::ops::{BinaryOp, UnaryOp};
///
/// let mut g = Graph::new("mlp_layer", DType::F16);
/// let x = g.input("x", Shape::new(vec![64, 256]));
/// let w = g.weight("w", Shape::new(vec![256, 256]));
/// let h = g.gemm(x, w, true).unwrap();
/// let y = g.unary(UnaryOp::Relu, h).unwrap();
/// g.mark_output(y);
/// assert_eq!(g.ops().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    dtype: DType,
    values: Vec<ValueInfo>,
    ops: Vec<OpNode>,
    outputs: Vec<ValueId>,
    /// Dependency-free leading instances (batch × heads).
    pub instances: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>, dtype: DType) -> Self {
        Graph {
            name: name.into(),
            dtype,
            values: Vec::new(),
            ops: Vec::new(),
            outputs: Vec::new(),
            instances: 1,
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element precision of all values.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// All values.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// All operators in topological order.
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Metadata of one value.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.0]
    }

    /// Shape of one value.
    pub fn shape(&self, id: ValueId) -> &Shape {
        &self.values[id.0].shape
    }

    /// Adds an activation input.
    pub fn input(&mut self, name: impl Into<String>, shape: Shape) -> ValueId {
        self.add_value(name.into(), shape, ValueKind::Input)
    }

    /// Adds a weight.
    pub fn weight(&mut self, name: impl Into<String>, shape: Shape) -> ValueId {
        self.add_value(name.into(), shape, ValueKind::Weight)
    }

    /// Marks a value as a program output.
    pub fn mark_output(&mut self, id: ValueId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    fn add_value(&mut self, name: String, shape: Shape, kind: ValueKind) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(ValueInfo {
            name,
            shape,
            dtype: self.dtype,
            kind,
        });
        id
    }

    fn check(&self, id: ValueId) -> Result<(), GraphError> {
        if id.0 >= self.values.len() {
            return Err(GraphError::UnknownValue(id));
        }
        Ok(())
    }

    fn push_op(&mut self, kind: OpKind, inputs: Vec<ValueId>, out_shape: Shape) -> ValueId {
        let name = format!("{}_{}", kind.name(), self.ops.len());
        let out = self.add_value(name, out_shape, ValueKind::Intermediate);
        self.ops.push(OpNode {
            kind,
            inputs,
            output: out,
        });
        out
    }

    /// Adds a GEMM node. See [`OpKind::Gemm`] for the layout convention.
    pub fn gemm(
        &mut self,
        a: ValueId,
        b: ValueId,
        transpose_b: bool,
    ) -> Result<ValueId, GraphError> {
        self.check(a)?;
        self.check(b)?;
        let (sa, sb) = (*self.shape(a), *self.shape(b));
        if sa.rank() != 2 || sb.rank() != 2 {
            return Err(GraphError::ShapeMismatch(format!(
                "gemm requires rank-2 operands, got {sa} and {sb}"
            )));
        }
        let (m, k) = (sa.dims()[0], sa.dims()[1]);
        let (n, bk) = if transpose_b {
            (sb.dims()[0], sb.dims()[1])
        } else {
            (sb.dims()[1], sb.dims()[0])
        };
        if k != bk {
            return Err(GraphError::ShapeMismatch(format!(
                "gemm inner dims differ: {sa} · {sb} (transpose_b={transpose_b})"
            )));
        }
        Ok(self.push_op(
            OpKind::Gemm { transpose_b },
            vec![a, b],
            Shape::new(vec![m, n]),
        ))
    }

    /// Adds an element-wise unary node.
    pub fn unary(&mut self, op: UnaryOp, x: ValueId) -> Result<ValueId, GraphError> {
        self.check(x)?;
        let shape = *self.shape(x);
        Ok(self.push_op(OpKind::Unary(op), vec![x], shape))
    }

    /// Adds an element-wise binary node (second operand may broadcast).
    pub fn binary(&mut self, op: BinaryOp, a: ValueId, b: ValueId) -> Result<ValueId, GraphError> {
        self.check(a)?;
        self.check(b)?;
        let out = self
            .shape(a)
            .broadcast_with(self.shape(b))
            .map_err(|e| GraphError::ShapeMismatch(e.to_string()))?;
        Ok(self.push_op(OpKind::Binary(op), vec![a, b], out))
    }

    /// Adds an `x op constant` node.
    pub fn scalar(&mut self, op: BinaryOp, x: ValueId, value: f32) -> Result<ValueId, GraphError> {
        self.check(x)?;
        let shape = *self.shape(x);
        Ok(self.push_op(OpKind::Scalar { op, value }, vec![x], shape))
    }

    /// Adds a reduction along `dim` (kept with extent 1).
    pub fn reduce(&mut self, op: ReduceOp, x: ValueId, dim: usize) -> Result<ValueId, GraphError> {
        self.check(x)?;
        let shape = *self.shape(x);
        if dim >= shape.rank() {
            return Err(GraphError::ShapeMismatch(format!(
                "reduce dim {dim} out of range for {shape}"
            )));
        }
        let out = shape.with_dim(dim, 1)?;
        Ok(self.push_op(OpKind::Reduce { op, dim }, vec![x], out))
    }

    /// Adds an explicit broadcast of a unit dimension.
    pub fn broadcast(
        &mut self,
        x: ValueId,
        dim: usize,
        extent: usize,
    ) -> Result<ValueId, GraphError> {
        self.check(x)?;
        let shape = *self.shape(x);
        if dim >= shape.rank() || shape.dims()[dim] != 1 {
            return Err(GraphError::ShapeMismatch(format!(
                "broadcast requires unit dim {dim} on {shape}"
            )));
        }
        let out = shape.with_dim(dim, extent)?;
        Ok(self.push_op(OpKind::Broadcast { dim, extent }, vec![x], out))
    }

    /// Adds a layout barrier (reshape/transpose boundary).
    pub fn layout_barrier(&mut self, x: ValueId, new_shape: Shape) -> Result<ValueId, GraphError> {
        self.check(x)?;
        if new_shape.volume() != self.shape(x).volume() {
            return Err(GraphError::ShapeMismatch(format!(
                "layout barrier changes volume: {} -> {}",
                self.shape(x),
                new_shape
            )));
        }
        Ok(self.push_op(OpKind::LayoutBarrier, vec![x], new_shape))
    }

    /// Renames a value (used by graph splitting to keep the names of cut
    /// values stable across kernels).
    pub fn rename_value(&mut self, id: ValueId, name: impl Into<String>) {
        self.values[id.0].name = name.into();
    }

    /// Producer op of a value, if any (inputs/weights have none).
    pub fn producer(&self, id: ValueId) -> Option<&OpNode> {
        self.ops.iter().find(|op| op.output == id)
    }

    /// The op node behind an [`OpId`].
    pub fn op(&self, id: OpId) -> &OpNode {
        &self.ops[id.0]
    }

    /// Display name of a value — `v#` ids are meaningless in user-facing
    /// diagnostics, names are what the DSL/report shows.
    pub fn value_name(&self, id: ValueId) -> &str {
        &self.values[id.0].name
    }

    /// Ops that consume a value.
    pub fn consumers(&self, id: ValueId) -> Vec<OpId> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.inputs.contains(&id))
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// Executes the graph on the reference CPU operators.
    ///
    /// `bindings` maps input/weight names to tensors; intermediates are
    /// computed in topological order. Returns the tensors of the declared
    /// outputs, in declaration order.
    pub fn execute(&self, bindings: &HashMap<String, Tensor>) -> Result<Vec<Tensor>, GraphError> {
        let mut env: HashMap<ValueId, Tensor> = HashMap::new();
        for (i, v) in self.values.iter().enumerate() {
            if matches!(v.kind, ValueKind::Input | ValueKind::Weight) {
                let t = bindings
                    .get(&v.name)
                    .ok_or_else(|| GraphError::MissingBinding(v.name.clone()))?;
                if t.shape() != &v.shape {
                    return Err(GraphError::ShapeMismatch(format!(
                        "binding '{}' has shape {}, expected {}",
                        v.name,
                        t.shape(),
                        v.shape
                    )));
                }
                env.insert(ValueId(i), t.clone());
            }
        }
        for op in &self.ops {
            let get = |id: &ValueId| env.get(id).cloned().ok_or(GraphError::UnknownValue(*id));
            let out = match &op.kind {
                OpKind::Gemm { transpose_b } => {
                    ops::matmul(&get(&op.inputs[0])?, &get(&op.inputs[1])?, *transpose_b)?
                }
                OpKind::Unary(u) => ops::unary(*u, &get(&op.inputs[0])?),
                OpKind::Binary(b) => ops::binary(*b, &get(&op.inputs[0])?, &get(&op.inputs[1])?)?,
                OpKind::Scalar { op: b, value } => {
                    ops::binary_scalar(*b, &get(&op.inputs[0])?, *value)
                }
                OpKind::Reduce { op: r, dim } => ops::reduce(*r, &get(&op.inputs[0])?, *dim)?,
                OpKind::Broadcast { dim, extent } => {
                    ops::broadcast_to(&get(&op.inputs[0])?, *dim, *extent)?
                }
                OpKind::LayoutBarrier => get(&op.inputs[0])?.reshape(*self.shape(op.output))?,
            };
            env.insert(op.output, out);
        }
        self.outputs
            .iter()
            .map(|id| env.get(id).cloned().ok_or(GraphError::UnknownValue(*id)))
            .collect()
    }

    /// Structural validity check: every op references existing values
    /// created *before* its output (topological order), stored shapes
    /// match what the builder would re-infer, binding names are unique,
    /// and at least one output is marked on an existing value.
    ///
    /// The builder API cannot produce an invalid graph, but generated or
    /// deserialized graphs should be checked before compilation — the
    /// fuzzer runs this on every candidate so generator bugs are caught
    /// as `validate` failures instead of surfacing as compiler ones.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut names: Vec<&str> = Vec::new();
        for v in &self.values {
            if matches!(v.kind, ValueKind::Input | ValueKind::Weight) {
                if names.contains(&v.name.as_str()) {
                    return Err(GraphError::ShapeMismatch(format!(
                        "duplicate binding name '{}'",
                        v.name
                    )));
                }
                names.push(&v.name);
            }
        }
        for op in &self.ops {
            self.check(op.output)?;
            if self.values[op.output.0].kind != ValueKind::Intermediate {
                return Err(GraphError::ShapeMismatch(format!(
                    "op '{}' writes a non-intermediate value",
                    op.kind.name()
                )));
            }
            for input in &op.inputs {
                self.check(*input)?;
                if input.0 >= op.output.0 {
                    return Err(GraphError::ShapeMismatch(format!(
                        "op '{}' reads value {} created after its output {}",
                        op.kind.name(),
                        input.0,
                        op.output.0
                    )));
                }
            }
            let inferred = self.infer_shape(op)?;
            if &inferred != self.shape(op.output) {
                return Err(GraphError::ShapeMismatch(format!(
                    "op '{}' stores shape {}, re-inference gives {}",
                    op.kind.name(),
                    self.shape(op.output),
                    inferred
                )));
            }
        }
        if self.outputs.is_empty() {
            return Err(GraphError::ShapeMismatch("no outputs marked".into()));
        }
        for out in &self.outputs {
            self.check(*out)?;
        }
        Ok(())
    }

    fn infer_shape(&self, op: &OpNode) -> Result<Shape, GraphError> {
        let shape = |i: usize| self.shape(op.inputs[i]);
        Ok(match &op.kind {
            OpKind::Gemm { transpose_b } => {
                let (sa, sb) = (shape(0), shape(1));
                if sa.rank() != 2 || sb.rank() != 2 {
                    return Err(GraphError::ShapeMismatch(format!(
                        "gemm requires rank-2 operands, got {sa} and {sb}"
                    )));
                }
                let n = if *transpose_b {
                    sb.dims()[0]
                } else {
                    sb.dims()[1]
                };
                let bk = if *transpose_b {
                    sb.dims()[1]
                } else {
                    sb.dims()[0]
                };
                if sa.dims()[1] != bk {
                    return Err(GraphError::ShapeMismatch(format!(
                        "gemm inner dims differ: {sa} · {sb}"
                    )));
                }
                Shape::new(vec![sa.dims()[0], n])
            }
            OpKind::Unary(_) | OpKind::Scalar { .. } => *shape(0),
            OpKind::Binary(_) => shape(0)
                .broadcast_with(shape(1))
                .map_err(|e| GraphError::ShapeMismatch(e.to_string()))?,
            OpKind::Reduce { dim, .. } => shape(0).with_dim(*dim, 1)?,
            OpKind::Broadcast { dim, extent } => {
                if shape(0).dims().get(*dim) != Some(&1) {
                    return Err(GraphError::ShapeMismatch(format!(
                        "broadcast requires unit dim {dim} on {}",
                        shape(0)
                    )));
                }
                shape(0).with_dim(*dim, *extent)?
            }
            OpKind::LayoutBarrier => {
                let out = self.shape(op.output);
                if out.volume() != shape(0).volume() {
                    return Err(GraphError::ShapeMismatch(format!(
                        "layout barrier changes volume: {} -> {}",
                        shape(0),
                        out
                    )));
                }
                *out
            }
        })
    }

    /// Generates deterministic random bindings for all inputs and weights.
    pub fn random_bindings(&self, seed: u64) -> HashMap<String, Tensor> {
        let mut out = HashMap::new();
        let mut s = seed;
        for v in &self.values {
            if matches!(v.kind, ValueKind::Input | ValueKind::Weight) {
                out.insert(v.name.clone(), Tensor::random(v.shape, v.dtype, s));
                s = s.wrapping_add(1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_tensor::ops::composite;

    fn softmax_graph(m: usize, n: usize) -> Graph {
        let mut g = Graph::new("softmax", DType::F32);
        let x = g.input("x", Shape::new(vec![m, n]));
        let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let sub = g.binary(BinaryOp::Sub, x, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, sub).unwrap();
        let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, s).unwrap();
        g.mark_output(d);
        g
    }

    #[test]
    fn build_and_execute_softmax_matches_reference() {
        let g = softmax_graph(4, 16);
        let bindings = g.random_bindings(42);
        let out = g.execute(&bindings).unwrap();
        let expect = composite::softmax(&bindings["x"]).unwrap();
        assert!(out[0].allclose(&expect, 1e-6));
    }

    #[test]
    fn gemm_shape_inference_and_errors() {
        let mut g = Graph::new("t", DType::F32);
        let a = g.input("a", Shape::new(vec![4, 8]));
        let b = g.weight("b", Shape::new(vec![8, 6]));
        let c = g.gemm(a, b, false).unwrap();
        assert_eq!(g.shape(c).dims(), &[4, 6]);

        let bad = g.weight("bad", Shape::new(vec![7, 6]));
        assert!(g.gemm(a, bad, false).is_err());
    }

    #[test]
    fn gemm_transpose_b_shape() {
        let mut g = Graph::new("t", DType::F32);
        let q = g.input("q", Shape::new(vec![16, 64]));
        let k = g.input("k", Shape::new(vec![16, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        assert_eq!(g.shape(qk).dims(), &[16, 16]);
    }

    #[test]
    fn reduce_keeps_dim() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 8]));
        let r = g.reduce(ReduceOp::Sum, x, 1).unwrap();
        assert_eq!(g.shape(r).dims(), &[4, 1]);
        assert!(g.reduce(ReduceOp::Sum, x, 2).is_err());
    }

    #[test]
    fn broadcast_validation() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 1]));
        let b = g.broadcast(x, 1, 8).unwrap();
        assert_eq!(g.shape(b).dims(), &[4, 8]);
        assert!(g.broadcast(b, 1, 16).is_err());
    }

    #[test]
    fn producer_and_consumers() {
        let g = softmax_graph(2, 4);
        let exp_out = g.ops()[2].output;
        assert!(g.producer(exp_out).is_some());
        // exp output feeds both the sum reduction and the division.
        assert_eq!(g.consumers(exp_out).len(), 2);
        let x = ValueId(0);
        assert!(g.producer(x).is_none());
    }

    #[test]
    fn execute_reports_missing_binding() {
        let g = softmax_graph(2, 4);
        let err = g.execute(&HashMap::new());
        assert!(matches!(err, Err(GraphError::MissingBinding(_))));
    }

    #[test]
    fn execute_rejects_wrong_shape_binding() {
        let g = softmax_graph(2, 4);
        let mut b = HashMap::new();
        b.insert(
            "x".to_string(),
            Tensor::zeros(Shape::new(vec![3, 4]), DType::F32),
        );
        assert!(matches!(g.execute(&b), Err(GraphError::ShapeMismatch(_))));
    }

    #[test]
    fn layout_barrier_reshapes() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 6]));
        let y = g.layout_barrier(x, Shape::new(vec![8, 3])).unwrap();
        assert_eq!(g.shape(y).dims(), &[8, 3]);
        assert!(g.layout_barrier(x, Shape::new(vec![5, 5])).is_err());
        g.mark_output(y);
        let bindings = g.random_bindings(1);
        let out = g.execute(&bindings).unwrap();
        assert_eq!(out[0].data(), bindings["x"].data());
    }

    #[test]
    fn validate_accepts_builder_graphs() {
        softmax_graph(2, 4).validate().unwrap();
        let mut g = Graph::new("t", DType::F16);
        let x = g.input("x", Shape::new(vec![4, 8]));
        let w = g.weight("w", Shape::new(vec![8, 8]));
        let h = g.gemm(x, w, false).unwrap();
        let r = g.reduce(ReduceOp::Sum, h, 1).unwrap();
        let b = g.broadcast(r, 1, 8).unwrap();
        let y = g.binary(BinaryOp::Add, h, b).unwrap();
        g.mark_output(y);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_outputs() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![2, 2]));
        g.unary(UnaryOp::Relu, x).unwrap();
        assert!(matches!(g.validate(), Err(GraphError::ShapeMismatch(_))));
    }

    #[test]
    fn validate_rejects_duplicate_binding_names() {
        let mut g = Graph::new("t", DType::F32);
        g.input("x", Shape::new(vec![2, 2]));
        let x2 = g.input("x", Shape::new(vec![2, 2]));
        g.mark_output(x2);
        assert!(matches!(g.validate(), Err(GraphError::ShapeMismatch(_))));
    }

    #[test]
    fn validate_rejects_tampered_shapes() {
        let mut g = softmax_graph(2, 4);
        let last = g.values.len() - 1;
        g.values[last].shape = Shape::new(vec![3, 3]);
        assert!(matches!(g.validate(), Err(GraphError::ShapeMismatch(_))));
    }
}
