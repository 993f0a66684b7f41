//! View-based operator kernels with scratch-buffer reuse.
//!
//! These are the same reference semantics as the plain `&Tensor`
//! operators in this module's siblings — in fact the plain operators
//! delegate here — but they accept zero-copy [`TensorView`] operands and
//! draw their output buffers from a [`ScratchPool`], so the kernel
//! interpreter can evaluate a block tile without cloning inputs or
//! allocating outputs.
//!
//! Floating-point evaluation order is identical to the historical dense
//! implementations (row-major element order, `i/j/k` GEMM loop nest),
//! which keeps pooled, viewed, and dense execution bit-identical.
//!
//! Strided and broadcast operands are walked by the row-run traversal
//! of [`crate::view`] — an odometer over the outer axes, one slice loop
//! per run of the innermost axis — so no kernel decodes an index per
//! element. Contiguous operands take stride-1 fast paths: slice-to-slice
//! loops for element-wise ops, an order-preserving 4-wide unrolled inner
//! loop for reductions and dot products, and a cache-friendly `i/k/j`
//! loop for the untransposed GEMM. Every path performs the *same*
//! floating-point operations in the *same* order (unrolling only
//! batches loop control, never reassociates), so which path runs is
//! unobservable in the results — the engine's
//! bit-identical-at-every-thread-count invariant does not depend on
//! contiguity being deterministic, though it is.

use super::{BinaryOp, ReduceOp, UnaryOp};
use crate::error::{Result, TensorError};
use crate::inline::InlineVec;
use crate::scratch::ScratchPool;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::view::{for_each_run, map_run, split_inner, TensorView};

/// `match $op` with one arm per listed variant, each evaluating `$body`
/// with the constant `$k` set to that variant. With the operator a
/// constant, `eval` folds to its one expression and a closure calling it
/// captures nothing, so every loop in `$body` is compiled per operator
/// with no dispatch inside it (a dispatch per element is what keeps such
/// a loop from vectorising).
macro_rules! per_variant {
    ($op:expr, $ty:ident [$($v:ident)*], |$k:ident| $body:expr) => {
        match $op { $($ty::$v => { const $k: $ty = $ty::$v; $body })* }
    };
}

macro_rules! per_binary_op {
    ($op:expr, |$k:ident| $body:expr) => {
        per_variant!($op, BinaryOp [Add Sub Mul Div Max Min], |$k| $body)
    };
}

/// A pooled tensor of `x`'s shape with `out[i] = f(x[i])`.
fn map_view(x: &TensorView, pool: &mut ScratchPool, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = pool.take_for_overwrite(x.volume());
    x.map_into(&mut out, f);
    Tensor::from_data(*x.shape(), x.dtype(), out).expect("a map preserves volume")
}

/// Applies a unary operator element-wise.
pub fn unary(op: UnaryOp, x: &TensorView, pool: &mut ScratchPool) -> Tensor {
    per_variant!(
        op,
        UnaryOp [Exp Neg Sqrt Sqr Recip Relu Gelu Tanh Sigmoid Silu Log Abs Identity],
        |OP| map_view(x, pool, |v| OP.eval(v))
    )
}

/// Applies `op(x, scalar)` element-wise.
pub fn binary_scalar(op: BinaryOp, x: &TensorView, scalar: f32, pool: &mut ScratchPool) -> Tensor {
    per_binary_op!(op, |OP| map_view(x, pool, |v| OP.eval(v, scalar)))
}

/// Applies a binary operator element-wise with limited broadcasting
/// (either operand may have extent 1 where the other is larger; ranks
/// must match).
pub fn binary(
    op: BinaryOp,
    a: &TensorView,
    b: &TensorView,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    per_binary_op!(op, |OP| zip_views(a, b, pool, |x, y| OP.eval(x, y)))
}

/// `out = f(a, b)` under broadcasting, for one concrete `f`.
fn zip_views(
    a: &TensorView,
    b: &TensorView,
    pool: &mut ScratchPool,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    let out_shape = a.shape().broadcast_with(b.shape())?;
    let mut data = pool.take_for_overwrite(out_shape.volume());
    let zip_rows = |row: &mut [f32], xs: &[f32], ys: &[f32]| {
        for ((slot, &x), &y) in row.iter_mut().zip(xs).zip(ys) {
            *slot = f(x, y);
        }
    };

    // Fast path: same shape, both contiguous — one zip loop, no index
    // arithmetic. Element-wise, so per-element order is unchanged.
    if a.dims() == b.dims() {
        if let (Some(xs), Some(ys)) = (a.as_slice(), b.as_slice()) {
            zip_rows(&mut data, xs, ys);
            return Ok(Tensor::from_data(out_shape, a.dtype(), data).expect("volume matches"));
        }
    }

    let a_strides = masked_strides(a, &out_shape);
    let b_strides = masked_strides(b, &out_shape);
    let (outer, n, sa) = split_inner(out_shape.dims(), &a_strides);
    let sb = b_strides.last().copied().unwrap_or(0);
    let (ad, bd) = (a.data(), b.data());
    if !data.is_empty() {
        let mut rows = data.chunks_exact_mut(n);
        for_each_run(outer, [&a_strides, &b_strides], |[ao, bo]| {
            let row = rows.next().expect("one output row per run");
            // The inner loop by operand stride: dense against dense, or
            // one side broadcast (the `x - rowmax`, `e / rowsum` and
            // bias-add patterns) through `map_run`'s slice loops.
            match (sa, sb) {
                (1, 1) => zip_rows(row, &ad[ao..ao + n], &bd[bo..bo + n]),
                (_, 0) => {
                    let y = bd[bo];
                    map_run(row, ad, ao, sa, |x| f(x, y));
                }
                (0, _) => {
                    let x = ad[ao];
                    map_run(row, bd, bo, sb, |y| f(x, y));
                }
                _ => {
                    for (i, slot) in row.iter_mut().enumerate() {
                        *slot = f(ad[ao + i * sa], bd[bo + i * sb]);
                    }
                }
            }
        });
    }
    Ok(Tensor::from_data(out_shape, a.dtype(), data).expect("volume matches"))
}

/// `acc[i] = op(acc[i], b[i])` in place: [`binary`] for a result of
/// `acc`'s shape (`b` may have extent 1 where `acc` is larger), with no
/// output buffer.
pub fn binary_in_place(op: BinaryOp, acc: &mut Tensor, b: &TensorView) -> Result<()> {
    per_binary_op!(op, |OP| fold_in_place(
        acc,
        b,
        b,
        |y, _| y,
        |x, y| OP.eval(x, y)
    ))
}

/// `acc[i] = f(acc[i], g(a[i], b[i]))` in place, with `a` and `b` (one
/// shape) broadcast to `acc`'s (extent 1 where it is larger). `g` runs
/// once per run of the innermost axis when the pair is broadcast along
/// it — once per row for a per-row rescale factor.
pub fn fold_in_place(
    acc: &mut Tensor,
    a: &TensorView,
    b: &TensorView,
    g: impl Fn(f32, f32) -> f32,
    f: impl Fn(f32, f32) -> f32,
) -> Result<()> {
    let shape = *acc.shape();
    if !shape.broadcasts_from(a.shape()) || a.dims() != b.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "in-place fold",
            lhs: shape,
            rhs: *a.shape(),
        });
    }
    let data = acc.data_mut();
    if a.dims() == shape.dims() {
        if let (Some(ys), Some(zs)) = (a.as_slice(), b.as_slice()) {
            for ((x, &y), &z) in data.iter_mut().zip(ys).zip(zs) {
                *x = f(*x, g(y, z));
            }
            return Ok(());
        }
    }
    let a_strides = masked_strides(a, &shape);
    let b_strides = masked_strides(b, &shape);
    let (outer, n, sa) = split_inner(shape.dims(), &a_strides);
    let sb = b_strides.last().copied().unwrap_or(0);
    let (ad, bd) = (a.data(), b.data());
    if data.is_empty() {
        return Ok(());
    }
    let mut rows = data.chunks_exact_mut(n);
    for_each_run(outer, [&a_strides, &b_strides], |[ao, bo]| {
        let row = rows.next().expect("one accumulator row per run");
        if (sa, sb) == (0, 0) {
            let y = g(ad[ao], bd[bo]);
            for x in row {
                *x = f(*x, y);
            }
        } else {
            for (i, x) in row.iter_mut().enumerate() {
                *x = f(*x, g(ad[ao + i * sa], bd[bo + i * sb]));
            }
        }
    });
    Ok(())
}

/// Reduces along dimension `dim`, keeping it with extent 1.
pub fn reduce(op: ReduceOp, x: &TensorView, dim: usize, pool: &mut ScratchPool) -> Result<Tensor> {
    let rank = x.rank();
    if dim >= rank {
        return Err(TensorError::DimOutOfRange { dim, rank });
    }
    let extent = x.shape().dim(dim)?;
    let out_shape = x.shape().with_dim(dim, 1)?;
    let in_strides = x.strides();
    let xd = x.data();

    let stride1 = in_strides[dim] == 1;
    let mut out = pool.take_for_overwrite(out_shape.volume());
    let mut slots = out.iter_mut();
    // One call per output element, in row-major order, with the offset
    // of its first input; then walk the reduced dimension.
    for_each_run(out_shape.dims(), [in_strides], |[base]| {
        let mut acc = op.identity();
        if stride1 {
            // Stride-1 fast path: fold over the contiguous run, 4-wide
            // unrolled. The combine chain is sequential left-to-right —
            // identical order to the strided loop below, so the result
            // is bit-identical.
            let run = &xd[base..base + extent];
            let mut chunks = run.chunks_exact(4);
            for c in &mut chunks {
                acc = op.combine(acc, c[0]);
                acc = op.combine(acc, c[1]);
                acc = op.combine(acc, c[2]);
                acc = op.combine(acc, c[3]);
            }
            for &v in chunks.remainder() {
                acc = op.combine(acc, v);
            }
        } else {
            for r in 0..extent {
                acc = op.combine(acc, xd[base + r * in_strides[dim]]);
            }
        }
        *slots.next().expect("one output element per run") = op.finalize(acc, extent);
    });
    Tensor::from_data(out_shape, x.dtype(), out)
}

/// Broadcasts a view with extent 1 in `dim` to extent `extent`.
pub fn broadcast_to(
    x: &TensorView,
    dim: usize,
    extent: usize,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let rank = x.rank();
    if dim >= rank {
        return Err(TensorError::DimOutOfRange { dim, rank });
    }
    if x.shape().dim(dim)? != 1 {
        return Err(TensorError::InvalidShape(format!(
            "broadcast_to requires extent 1 in dim {dim}, got shape {}",
            x.shape()
        )));
    }
    // The same storage with stride 0 along `dim`.
    let mut strides: InlineVec<usize> = x.strides().iter().copied().collect();
    strides[dim] = 0;
    let wide = TensorView::new(
        x.data(),
        x.shape().with_dim(dim, extent)?,
        strides,
        x.dtype(),
    );
    Ok(map_view(&wide, pool, |v| v))
}

/// 2-D matrix multiplication `C[M,N] = A · B` over views.
///
/// When `transpose_b` is false, `B` has shape `[K, N]`; when true, `B`
/// has shape `[N, K]`.
pub fn matmul(
    a: &TensorView,
    b: &TensorView,
    transpose_b: bool,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul(rank)",
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    }
    let (m, k) = (a.shape().dim(0)?, a.shape().dim(1)?);
    let (n, bk) = if transpose_b {
        (b.shape().dim(0)?, b.shape().dim(1)?)
    } else {
        (b.shape().dim(1)?, b.shape().dim(0)?)
    };
    if k != bk {
        return Err(TensorError::ShapeMismatch {
            op: "matmul(inner)",
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    }

    let (as0, as1) = (a.strides()[0], a.strides()[1]);
    let (bs0, bs1) = (b.strides()[0], b.strides()[1]);
    let ad = a.data();
    let bd = b.data();
    let row_dot = transpose_b && as1 == 1 && bs1 == 1 && k > 0;
    let ikj = !row_dot && !transpose_b && bs1 == 1 && n > 0;
    // Only the `i/k/j` nest accumulates into its output; the other two
    // assign every element.
    let mut out = if ikj {
        pool.take(m * n)
    } else {
        pool.take_for_overwrite(m * n)
    };
    if row_dot {
        // Row-dot fast path: both operand rows are stride-1 slices, so
        // each output is a bounds-check-free dot product, 4-wide
        // unrolled with a single sequential accumulator (same add order
        // as the generic loop).
        for i in 0..m {
            let arow = &ad[i * as0..i * as0 + k];
            for j in 0..n {
                let brow = &bd[j * bs0..j * bs0 + k];
                let mut acc = 0.0f32;
                let mut ac = arow.chunks_exact(4);
                let mut bc = brow.chunks_exact(4);
                for (ca, cb) in (&mut ac).zip(&mut bc) {
                    acc += ca[0] * cb[0];
                    acc += ca[1] * cb[1];
                    acc += ca[2] * cb[2];
                    acc += ca[3] * cb[3];
                }
                for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
    } else if ikj {
        // `i/k/j` fast path: walk B by stride-1 rows, accumulating into
        // the (zero-initialized) output row. For a fixed (i, j) the
        // additions still happen in ascending-k order starting from
        // zero — exactly the generic loop's order — so results are
        // bit-identical while B is now read cache-friendly.
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let av = ad[i * as0 + kk * as1];
                let brow = &bd[kk * bs0..kk * bs0 + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    } else {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let bv = if transpose_b {
                        bd[j * bs0 + kk * bs1]
                    } else {
                        bd[kk * bs0 + j * bs1]
                    };
                    acc += ad[i * as0 + kk * as1] * bv;
                }
                out[i * n + j] = acc;
            }
        }
    }
    Tensor::from_data([m, n].as_slice().into(), a.dtype(), out)
}

/// Strides of `v` viewed in `out` shape: broadcast dims get stride 0.
fn masked_strides(v: &TensorView, out: &Shape) -> InlineVec<usize> {
    v.dims()
        .iter()
        .zip(out.dims().iter())
        .zip(v.strides())
        .map(|((&td, &od), &s)| if td == od { s } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn t(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_data(Shape::new(dims), DType::F32, data).unwrap()
    }

    #[test]
    fn strided_operands_match_materialized() {
        let x = t(vec![4, 4], (0..16).map(|i| i as f32).collect());
        let v = x.slice(&[(1, 3), (1, 4)]).unwrap();
        let dense = v.to_tensor();
        let mut pool = ScratchPool::new();

        assert_eq!(
            unary(UnaryOp::Sqr, &v, &mut pool),
            unary(UnaryOp::Sqr, &dense.view(), &mut pool)
        );
        assert_eq!(
            reduce(ReduceOp::Sum, &v, 1, &mut pool).unwrap(),
            reduce(ReduceOp::Sum, &dense.view(), 1, &mut pool).unwrap()
        );
        let col = x.slice(&[(1, 3), (0, 1)]).unwrap();
        assert_eq!(
            binary(BinaryOp::Sub, &v, &col, &mut pool).unwrap(),
            binary(
                BinaryOp::Sub,
                &dense.view(),
                &col.to_tensor().view(),
                &mut pool
            )
            .unwrap()
        );
    }

    #[test]
    fn strided_matmul_matches_dense() {
        let x = t(vec![3, 4], (0..12).map(|i| i as f32).collect());
        let y = t(vec![4, 4], (0..16).map(|i| (i as f32) * 0.5).collect());
        let a = x.slice(&[(0, 3), (1, 4)]).unwrap();
        let b = y.slice(&[(0, 3), (1, 4)]).unwrap();
        let mut pool = ScratchPool::new();
        let c = matmul(&a, &b, false, &mut pool).unwrap();
        let c_dense = matmul(
            &a.to_tensor().view(),
            &b.to_tensor().view(),
            false,
            &mut pool,
        )
        .unwrap();
        assert_eq!(c, c_dense);
        // transpose_b path as well
        let ct = matmul(&a, &b, true, &mut pool).unwrap();
        let ct_dense = matmul(
            &a.to_tensor().view(),
            &b.to_tensor().view(),
            true,
            &mut pool,
        )
        .unwrap();
        assert_eq!(ct, ct_dense);
    }

    #[test]
    fn pooled_results_are_bit_identical_to_fresh() {
        let x = Tensor::random(Shape::new(vec![8, 8]), DType::F32, 11);
        let mut pool = ScratchPool::new();
        let mut fresh = ScratchPool::disabled();
        // Warm the pool so the second round reuses buffers.
        let w = unary(UnaryOp::Gelu, &x.view(), &mut pool);
        pool.recycle_tensor(w);
        let pooled = unary(UnaryOp::Gelu, &x.view(), &mut pool);
        let direct = unary(UnaryOp::Gelu, &x.view(), &mut fresh);
        assert!(pool.hits() > 0);
        assert_eq!(pooled, direct);
    }
}
