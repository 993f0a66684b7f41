//! The textual graph DSL: parser and printer.
//!
//! Lives next to the IR (rather than in the CLI crate) so every layer —
//! the `sfc` driver, the differential fuzzer's corpus files, and the
//! corpus replay tests — can read and write graphs without depending on
//! the command-line frontend.
//!
//! ```text
//! graph softmax f16
//! input x [1024, 2048]
//! m   = reduce_max x dim=1
//! s   = sub x m
//! e   = exp s
//! z   = reduce_sum e dim=1
//! out = div e z
//! output out
//! ```
//!
//! [`print_graph`] is the inverse of [`parse_graph`]: any graph renders
//! to DSL text that parses back to a structurally identical graph.

use crate::graph::{Graph, OpKind, ValueId, ValueKind};
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape, MAX_RANK};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error occurred on.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a graph from DSL source.
///
/// # Examples
///
/// ```
/// let src = "graph relu f32\ninput x [4, 4]\ny = relu x\noutput y\n";
/// let g = sf_ir::dsl::parse_graph(src).unwrap();
/// assert_eq!(g.ops().len(), 1);
/// ```
pub fn parse_graph(src: &str) -> Result<Graph, ParseError> {
    let mut graph: Option<Graph> = None;
    let mut names: HashMap<String, ValueId> = HashMap::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens[0] {
            "graph" => {
                if graph.is_some() {
                    return Err(err(line, "duplicate 'graph' header"));
                }
                let name = tokens.get(1).ok_or(err(line, "graph needs a name"))?;
                let dtype = match tokens.get(2).copied().unwrap_or("f16") {
                    "f16" => DType::F16,
                    "f32" => DType::F32,
                    other => return Err(err(line, format!("unknown dtype '{other}'"))),
                };
                graph = Some(Graph::new(name.to_string(), dtype));
            }
            "instances" => {
                let g = graph.as_mut().ok_or(err(line, "missing 'graph' header"))?;
                g.instances = tokens
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or(err(line, "instances needs a positive integer"))?;
            }
            "input" | "weight" => {
                let g = graph.as_mut().ok_or(err(line, "missing 'graph' header"))?;
                let name = tokens.get(1).ok_or(err(line, "missing tensor name"))?;
                let shape = parse_shape(&tokens[2..], line)?;
                let id = if tokens[0] == "input" {
                    g.input(name.to_string(), shape)
                } else {
                    g.weight(name.to_string(), shape)
                };
                names.insert(name.to_string(), id);
            }
            "output" => {
                let name = tokens.get(1).ok_or(err(line, "missing output name"))?;
                outputs.push((line, name.to_string()));
            }
            _ => {
                // An op definition: `name = op args...`.
                if tokens.len() < 3 || tokens[1] != "=" {
                    return Err(err(line, format!("cannot parse '{text}'")));
                }
                let g = graph.as_mut().ok_or(err(line, "missing 'graph' header"))?;
                let out_name = tokens[0];
                let id = parse_op(g, &names, &tokens[2..], line)?;
                g.rename_value(id, out_name);
                names.insert(out_name.to_string(), id);
            }
        }
    }

    let mut g = graph.ok_or(err(1, "missing 'graph' header"))?;
    if outputs.is_empty() {
        return Err(err(src.lines().count().max(1), "graph declares no outputs"));
    }
    for (line, name) in outputs {
        let id = *names
            .get(&name)
            .ok_or(err(line, format!("unknown output '{name}'")))?;
        g.mark_output(id);
    }
    Ok(g)
}

fn parse_shape(tokens: &[&str], line: usize) -> Result<Shape, ParseError> {
    let joined = tokens.join(" ");
    let inner = joined
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or(err(line, "shape must look like [rows, cols]"))?;
    let dims: Result<Vec<usize>, _> = inner
        .split(',')
        .map(|d| d.trim().parse::<usize>())
        .collect();
    let dims = dims.map_err(|_| err(line, "shape dimensions must be integers"))?;
    if dims.is_empty() {
        return Err(err(line, "shape needs at least one dimension"));
    }
    if dims.len() > MAX_RANK {
        let message = format!("rank {} exceeds the limit of {MAX_RANK}", dims.len());
        return Err(err(line, message));
    }
    Ok(Shape::new(dims))
}

fn lookup(
    names: &HashMap<String, ValueId>,
    token: &str,
    line: usize,
) -> Result<ValueId, ParseError> {
    names
        .get(token)
        .copied()
        .ok_or(err(line, format!("unknown value '{token}'")))
}

fn key_value(tokens: &[&str], key: &str, line: usize) -> Result<usize, ParseError> {
    for t in tokens {
        if let Some(v) = t.strip_prefix(&format!("{key}=")) {
            return v
                .parse()
                .map_err(|_| err(line, format!("{key} must be an integer")));
        }
    }
    Err(err(line, format!("missing {key}=N")))
}

fn unary_by_name(name: &str) -> Option<UnaryOp> {
    Some(match name {
        "exp" => UnaryOp::Exp,
        "neg" => UnaryOp::Neg,
        "sqrt" => UnaryOp::Sqrt,
        "sqr" => UnaryOp::Sqr,
        "recip" => UnaryOp::Recip,
        "relu" => UnaryOp::Relu,
        "gelu" => UnaryOp::Gelu,
        "tanh" => UnaryOp::Tanh,
        "sigmoid" => UnaryOp::Sigmoid,
        "silu" => UnaryOp::Silu,
        "log" => UnaryOp::Log,
        "abs" => UnaryOp::Abs,
        "id" => UnaryOp::Identity,
        _ => return None,
    })
}

fn binary_by_name(name: &str) -> Option<BinaryOp> {
    Some(match name {
        "add" => BinaryOp::Add,
        "sub" => BinaryOp::Sub,
        "mul" => BinaryOp::Mul,
        "div" => BinaryOp::Div,
        "max" => BinaryOp::Max,
        "min" => BinaryOp::Min,
        _ => return None,
    })
}

fn parse_op(
    g: &mut Graph,
    names: &HashMap<String, ValueId>,
    tokens: &[&str],
    line: usize,
) -> Result<ValueId, ParseError> {
    let op = tokens[0];
    let ir = |e: crate::graph::GraphError| err(line, e.to_string());
    if let Some(u) = unary_by_name(op) {
        let x = lookup(
            names,
            tokens.get(1).ok_or(err(line, "missing operand"))?,
            line,
        )?;
        return g.unary(u, x).map_err(ir);
    }
    if let Some(b) = binary_by_name(op) {
        let a = lookup(
            names,
            tokens.get(1).ok_or(err(line, "missing operand"))?,
            line,
        )?;
        let c = lookup(
            names,
            tokens.get(2).ok_or(err(line, "missing operand"))?,
            line,
        )?;
        return g.binary(b, a, c).map_err(ir);
    }
    if let Some(base) = op.strip_suffix("_scalar") {
        let b = binary_by_name(base).ok_or(err(line, format!("unknown scalar op '{op}'")))?;
        let x = lookup(
            names,
            tokens.get(1).ok_or(err(line, "missing operand"))?,
            line,
        )?;
        let value: f32 = tokens
            .get(2)
            .and_then(|t| t.parse().ok())
            .ok_or(err(line, "scalar op needs a numeric constant"))?;
        return g.scalar(b, x, value).map_err(ir);
    }
    if let Some(kind) = op.strip_prefix("reduce_") {
        let r = match kind {
            "sum" => ReduceOp::Sum,
            "max" => ReduceOp::Max,
            "mean" => ReduceOp::Mean,
            other => return Err(err(line, format!("unknown reduction '{other}'"))),
        };
        let x = lookup(
            names,
            tokens.get(1).ok_or(err(line, "missing operand"))?,
            line,
        )?;
        let dim = key_value(tokens, "dim", line)?;
        return g.reduce(r, x, dim).map_err(ir);
    }
    match op {
        "gemm" => {
            let a = lookup(
                names,
                tokens.get(1).ok_or(err(line, "missing operand"))?,
                line,
            )?;
            let b = lookup(
                names,
                tokens.get(2).ok_or(err(line, "missing operand"))?,
                line,
            )?;
            let t = tokens.contains(&"transpose_b");
            g.gemm(a, b, t).map_err(ir)
        }
        "broadcast" => {
            let x = lookup(
                names,
                tokens.get(1).ok_or(err(line, "missing operand"))?,
                line,
            )?;
            let dim = key_value(tokens, "dim", line)?;
            let extent = key_value(tokens, "extent", line)?;
            g.broadcast(x, dim, extent).map_err(ir)
        }
        "reshape" => {
            let x = lookup(
                names,
                tokens.get(1).ok_or(err(line, "missing operand"))?,
                line,
            )?;
            let shape = parse_shape(&tokens[2..], line)?;
            g.layout_barrier(x, shape).map_err(ir)
        }
        other => Err(err(line, format!("unknown operator '{other}'"))),
    }
}

/// Prints a graph in DSL form (round-trips through [`parse_graph`]).
pub fn print_graph(g: &Graph) -> String {
    let mut out = String::new();
    let dtype = match g.dtype() {
        DType::F16 => "f16",
        DType::F32 => "f32",
    };
    let _ = writeln!(out, "graph {} {dtype}", sanitize(g.name()));
    if g.instances != 1 {
        let _ = writeln!(out, "instances {}", g.instances);
    }
    for (vi, v) in g.values().iter().enumerate() {
        let kw = match v.kind {
            ValueKind::Input => "input",
            ValueKind::Weight => "weight",
            ValueKind::Intermediate => continue,
        };
        let _ = writeln!(
            out,
            "{kw} {} {}",
            sanitize(&v.name),
            shape_str(g, ValueId(vi))
        );
    }
    for op in g.ops() {
        let name = sanitize(&g.value(op.output).name);
        let a = |i: usize| sanitize(&g.value(op.inputs[i]).name);
        let line = match &op.kind {
            OpKind::Gemm { transpose_b } => {
                let t = if *transpose_b { " transpose_b" } else { "" };
                format!("{name} = gemm {} {}{t}", a(0), a(1))
            }
            OpKind::Unary(u) => format!("{name} = {} {}", u.name(), a(0)),
            OpKind::Binary(b) => format!("{name} = {} {} {}", b.name(), a(0), a(1)),
            OpKind::Scalar { op, value } => {
                format!("{name} = {}_scalar {} {value}", op.name(), a(0))
            }
            OpKind::Reduce { op, dim } => {
                format!("{name} = reduce_{} {} dim={dim}", op.name(), a(0))
            }
            OpKind::Broadcast { dim, extent } => {
                format!("{name} = broadcast {} dim={dim} extent={extent}", a(0))
            }
            OpKind::LayoutBarrier => {
                format!("{name} = reshape {} {}", a(0), shape_str(g, op.output))
            }
        };
        let _ = writeln!(out, "{line}");
    }
    for &o in g.outputs() {
        let _ = writeln!(out, "output {}", sanitize(&g.value(o).name));
    }
    out
}

fn shape_str(g: &Graph, v: ValueId) -> String {
    let dims: Vec<String> = g.shape(v).dims().iter().map(|d| d.to_string()).collect();
    format!("[{}]", dims.join(", "))
}

/// DSL identifiers cannot contain whitespace; auto-generated names are
/// already clean, but user names from other frontends may not be.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == '=' || c == '#' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOFTMAX: &str = "\
# row softmax
graph softmax f16
input x [64, 256]
m = reduce_max x dim=1
s = sub x m
e = exp s
z = reduce_sum e dim=1
out = div e z
output out
";

    #[test]
    fn parses_softmax() {
        let g = parse_graph(SOFTMAX).unwrap();
        assert_eq!(g.name(), "softmax");
        assert_eq!(g.ops().len(), 5);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.dtype(), DType::F16);
    }

    #[test]
    fn parsed_graph_executes() {
        let g = parse_graph(SOFTMAX).unwrap();
        let bindings = g.random_bindings(1);
        let out = g.execute(&bindings).unwrap();
        let row: f32 = (0..256).map(|j| out[0].at(&[0, j])).sum();
        assert!((row - 1.0).abs() < 1e-4);
    }

    #[test]
    fn parses_gemm_and_attributes() {
        let src = "\
graph attn f32
instances 8
input q [32, 64]
input k [128, 64]
qk = gemm q k transpose_b
sc = mul_scalar qk 0.125
output sc
";
        let g = parse_graph(src).unwrap();
        assert_eq!(g.instances, 8);
        assert_eq!(g.shape(g.outputs()[0]).dims(), &[32, 128]);
    }

    #[test]
    fn parses_broadcast_and_reshape() {
        let src = "\
graph t f32
input x [4, 1]
b = broadcast x dim=1 extent=8
r = reshape b [8, 4]
output r
";
        let g = parse_graph(src).unwrap();
        assert_eq!(g.shape(g.outputs()[0]).dims(), &[8, 4]);
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "graph t f32\ninput x [4, 4]\ny = frobnicate x\noutput y\n";
        let e = parse_graph(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_unknown_operands_and_outputs() {
        let e = parse_graph("graph t f32\ny = relu nope\noutput y\n").unwrap_err();
        assert!(e.message.contains("nope"));
        let e = parse_graph("graph t f32\ninput x [2, 2]\noutput missing\n").unwrap_err();
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn rejects_missing_header_and_outputs() {
        assert!(parse_graph("input x [2, 2]\n").is_err());
        assert!(parse_graph("graph t f32\ninput x [2, 2]\n").is_err());
    }

    #[test]
    fn rejects_bad_shapes_and_dtypes() {
        assert!(parse_graph("graph t f99\n").is_err());
        assert!(parse_graph("graph t f32\ninput x 4x4\noutput x\n").is_err());
        assert!(parse_graph("graph t f32\ninput x [a, b]\noutput x\n").is_err());
    }

    #[test]
    fn rank_above_the_limit_is_a_parse_error() {
        let ok = parse_graph("graph t f32\ninput x [1, 2, 3, 4]\noutput x\n").unwrap();
        assert_eq!(ok.shape(ValueId(0)).rank(), MAX_RANK);
        let e = parse_graph("graph t f32\ninput x [1, 2, 3, 4, 5]\noutput x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("rank 5 exceeds the limit of 4"), "{e}");
    }

    #[test]
    fn shape_errors_propagate_from_ir() {
        let src = "\
graph t f32
input a [4, 8]
input b [3, 8]
c = add a b
output c
";
        let e = parse_graph(src).unwrap_err();
        assert_eq!(e.line, 4);
    }

    fn mha() -> Graph {
        let mut g = Graph::new("mha", DType::F16);
        g.instances = 4;
        let q = g.input("q", Shape::new(vec![32, 64]));
        let k = g.input("k", Shape::new(vec![128, 64]));
        let v = g.input("v", Shape::new(vec![128, 64]));
        let qk = g.gemm(q, k, true).unwrap();
        let sc = g.scalar(BinaryOp::Mul, qk, 0.125).unwrap();
        let m = g.reduce(ReduceOp::Max, sc, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, sc, m).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, z).unwrap();
        let out = g.gemm(d, v, false).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = mha();
        let text = print_graph(&g);
        let g2 = parse_graph(&text).expect("round trip parses");
        assert_eq!(g2.ops().len(), g.ops().len());
        assert_eq!(g2.instances, g.instances);
        assert_eq!(g2.outputs().len(), 1);
        for (a, b) in g.ops().iter().zip(g2.ops()) {
            assert_eq!(a.kind.name(), b.kind.name());
        }
    }

    #[test]
    fn round_trip_preserves_numerics() {
        let g = mha();
        let g2 = parse_graph(&print_graph(&g)).unwrap();
        let bindings = g.random_bindings(5);
        let a = g.execute(&bindings).unwrap();
        let b = g2.execute(&bindings).unwrap();
        assert!(a[0].allclose(&b[0], 1e-6));
    }

    #[test]
    fn sanitizes_awkward_names() {
        assert_eq!(sanitize("a name=with #stuff"), "a_name_with__stuff");
    }

    #[test]
    fn prints_reshape_and_broadcast() {
        let mut g = Graph::new("t", DType::F32);
        let x = g.input("x", Shape::new(vec![4, 1]));
        let b = g.broadcast(x, 1, 8).unwrap();
        let r = g.layout_barrier(b, Shape::new(vec![8, 4])).unwrap();
        g.mark_output(r);
        let text = print_graph(&g);
        assert!(text.contains("broadcast x dim=1 extent=8"));
        assert!(text.contains("reshape"));
        let g2 = parse_graph(&text).unwrap();
        assert_eq!(g2.shape(g2.outputs()[0]).dims(), &[8, 4]);
    }
}
