//! Matrix-multiplication reference operators.

use super::viewed;
use crate::error::Result;
use crate::scratch::ScratchPool;
use crate::tensor::Tensor;

/// 2-D matrix multiplication `C[M,N] = A · B`.
///
/// When `transpose_b` is false, `B` has shape `[K, N]`; when true, `B` has
/// shape `[N, K]` (the layout used by the paper's `QK = GEMM(Query, Key)`
/// where both operands are `[rows, K]`).
pub fn matmul(a: &Tensor, b: &Tensor, transpose_b: bool) -> Result<Tensor> {
    viewed::matmul(
        &a.view(),
        &b.view(),
        transpose_b,
        &mut ScratchPool::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, Shape};

    fn t(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_data(Shape::new(dims), DType::F32, data).unwrap()
    }

    #[test]
    fn matmul_basic() {
        let a = t(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b, false).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transpose_b_matches_manual_transpose() {
        let a = Tensor::random(Shape::new(vec![4, 5]), DType::F32, 1);
        let b = Tensor::random(Shape::new(vec![3, 5]), DType::F32, 2);
        // Transpose b by hand into [5,3].
        let mut bt = Tensor::zeros(Shape::new(vec![5, 3]), DType::F32);
        for i in 0..3 {
            for j in 0..5 {
                bt.set(&[j, i], b.at(&[i, j]));
            }
        }
        let c1 = matmul(&a, &b, true).unwrap();
        let c2 = matmul(&a, &bt, false).unwrap();
        assert!(c1.allclose(&c2, 1e-5));
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = t(vec![2, 3], vec![0.0; 6]);
        let b = t(vec![4, 2], vec![0.0; 8]);
        assert!(matmul(&a, &b, false).is_err());
    }
}
