//! CPU reference operators.
//!
//! These functions define the ground-truth semantics of every primitive
//! operator the compiler handles. The op-kind enums ([`UnaryOp`],
//! [`BinaryOp`], [`ReduceOp`]) are shared with the IR and with the kernel
//! interpreter so that a single scalar semantics exists in the codebase.

mod elementwise;
mod matmul;
mod reduce;

pub mod composite;
pub mod viewed;

pub use elementwise::{binary, binary_scalar, unary};
pub use matmul::matmul;
pub use reduce::{broadcast_to, reduce};

/// Element-wise unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `e^x`
    Exp,
    /// `-x`
    Neg,
    /// `sqrt(x)`
    Sqrt,
    /// `x * x`
    Sqr,
    /// `1 / x`
    Recip,
    /// `max(x, 0)`
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// `tanh(x)`
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// SiLU / swish: `x * sigmoid(x)`.
    Silu,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Abs,
    /// Identity (used for explicit copies in schedules).
    Identity,
}

impl UnaryOp {
    /// Scalar semantics of the operator.
    pub fn eval(self, x: f32) -> f32 {
        match self {
            UnaryOp::Exp => x.exp(),
            UnaryOp::Neg => -x,
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Sqr => x * x,
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Gelu => {
                // tanh approximation used by BERT/GPT implementations.
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Silu => x / (1.0 + (-x).exp()),
            UnaryOp::Log => x.ln(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Identity => x,
        }
    }

    /// Short lowercase name (used in IR dumps).
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Exp => "exp",
            UnaryOp::Neg => "neg",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Sqr => "sqr",
            UnaryOp::Recip => "recip",
            UnaryOp::Relu => "relu",
            UnaryOp::Gelu => "gelu",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Silu => "silu",
            UnaryOp::Log => "log",
            UnaryOp::Abs => "abs",
            UnaryOp::Identity => "id",
        }
    }
}

/// Element-wise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `max(a, b)`
    Max,
    /// `min(a, b)`
    Min,
}

impl BinaryOp {
    /// Scalar semantics of the operator.
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// Short lowercase name (used in IR dumps).
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Div => "div",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }
}

/// Reduction operators (the All-to-One sources of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Running sum; identity 0.
    Sum,
    /// Running maximum; identity −∞.
    Max,
    /// Arithmetic mean (sum divided by extent on finalization).
    Mean,
}

impl ReduceOp {
    /// Identity element of the aggregation.
    pub fn identity(self) -> f32 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        }
    }

    /// Combines an accumulator with a new value.
    pub fn combine(self, acc: f32, x: f32) -> f32 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => acc + x,
            ReduceOp::Max => acc.max(x),
        }
    }

    /// Finalizes an accumulator given the reduced extent.
    pub fn finalize(self, acc: f32, extent: usize) -> f32 {
        match self {
            ReduceOp::Sum | ReduceOp::Max => acc,
            ReduceOp::Mean => acc / extent as f32,
        }
    }

    /// Short lowercase name (used in IR dumps).
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Mean => "mean",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_semantics() {
        assert_eq!(UnaryOp::Relu.eval(-2.0), 0.0);
        assert_eq!(UnaryOp::Relu.eval(3.0), 3.0);
        assert!((UnaryOp::Exp.eval(0.0) - 1.0).abs() < 1e-6);
        assert_eq!(UnaryOp::Neg.eval(2.0), -2.0);
        assert_eq!(UnaryOp::Sqr.eval(3.0), 9.0);
        assert!((UnaryOp::Sigmoid.eval(0.0) - 0.5).abs() < 1e-6);
        assert!((UnaryOp::Silu.eval(0.0)).abs() < 1e-6);
        assert_eq!(UnaryOp::Identity.eval(1.5), 1.5);
        assert!((UnaryOp::Log.eval(std::f32::consts::E) - 1.0).abs() < 1e-6);
        assert_eq!(UnaryOp::Abs.eval(-3.0), 3.0);
    }

    #[test]
    fn gelu_is_monotone_near_origin() {
        let g = |x: f32| UnaryOp::Gelu.eval(x);
        assert!(g(-1.0) < g(0.0));
        assert!(g(0.0) < g(1.0));
        assert!((g(0.0)).abs() < 1e-6);
    }

    #[test]
    fn binary_semantics() {
        assert_eq!(BinaryOp::Add.eval(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.eval(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.eval(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Div.eval(3.0, 2.0), 1.5);
        assert_eq!(BinaryOp::Max.eval(2.0, 3.0), 3.0);
        assert_eq!(BinaryOp::Min.eval(2.0, 3.0), 2.0);
    }

    #[test]
    fn reduce_semantics() {
        assert_eq!(ReduceOp::Sum.identity(), 0.0);
        assert_eq!(ReduceOp::Max.identity(), f32::NEG_INFINITY);
        assert_eq!(ReduceOp::Sum.combine(1.0, 2.0), 3.0);
        assert_eq!(ReduceOp::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Mean.finalize(10.0, 4), 2.5);
        assert_eq!(ReduceOp::Sum.finalize(10.0, 4), 10.0);
    }
}
