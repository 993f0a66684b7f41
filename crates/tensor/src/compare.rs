//! Principled floating-point tensor comparison.
//!
//! Differential testing needs a sharper notion of "close" than a flat
//! absolute tolerance: fused kernels re-associate reductions (UTA /
//! online softmax), so large-magnitude values drift by a few *units in
//! the last place* while near-zero values suffer absolute cancellation
//! error. The [`Tolerance`] comparator therefore accepts an element
//! pair when **either** bound holds:
//!
//! * the ULP distance (number of representable `f32` values between
//!   them) is at most `ulps` — a relative criterion that scales with
//!   magnitude, or
//! * the absolute difference is at most `abs` — the floor that keeps
//!   catastrophic-cancellation noise around zero from tripping the ULP
//!   test (where a tiny absolute error spans millions of ULPs).
//!
//! Two NaNs compare equal (the reference and the candidate agreeing on
//! "undefined" is agreement); a NaN against a number never does.
//! Opposite-sign infinities are maximally distant.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::fmt;

/// Combined ULP / absolute tolerance for element-wise comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute-difference floor (applies near zero).
    pub abs: f32,
    /// Maximum units-in-the-last-place distance (relative criterion).
    pub ulps: u32,
}

impl Tolerance {
    /// Exact comparison: 0 ULPs, no absolute floor. Accepts only
    /// identical values (`-0.0 == +0.0` and NaN ≡ NaN included).
    pub fn exact() -> Self {
        Tolerance { abs: 0.0, ulps: 0 }
    }

    /// A combined tolerance: `abs` floor or `ulps` relative distance.
    pub fn new(abs: f32, ulps: u32) -> Self {
        Tolerance { abs, ulps }
    }

    /// Default tolerance for fused-vs-reference diffs of f32 pipelines
    /// with re-associated reductions of extent ≤ `extent`: the error of
    /// a length-`n` reordered sum is O(n·ε·|terms|), i.e. ~`n` ULPs of
    /// headroom plus a cancellation floor that grows with √n.
    pub fn for_reduction_extent(extent: usize) -> Self {
        let n = extent.max(1) as f32;
        Tolerance {
            abs: 1e-5 * n.sqrt(),
            ulps: 64 * (extent.max(1) as u32).next_power_of_two(),
        }
    }

    /// Whether a single element pair is within tolerance.
    pub fn accepts(&self, a: f32, b: f32) -> bool {
        if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return false;
        }
        (a - b).abs() <= self.abs || ulp_distance(a, b) <= self.ulps as u64
    }
}

/// Number of representable `f32` values between `a` and `b`.
///
/// Uses the standard monotonic mapping of IEEE-754 bit patterns onto a
/// signed line, so the distance is well-defined across zero (e.g.
/// `-0.0` and `+0.0` are 1 apart, tiny opposite-sign values are close).
/// NaN against anything (including NaN) is `u64::MAX`; use
/// [`Tolerance::accepts`] for NaN-aware comparison.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn ordered(x: f32) -> i64 {
        // Mirror negative values below zero so the integer order
        // matches the float order: +0.0 ↦ 0, -0.0 ↦ -1, and magnitude
        // grows away from zero on both sides.
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7FFF_FFFF) as i64) - 1
        } else {
            bits as i64
        }
    }
    ordered(a).abs_diff(ordered(b))
}

/// Where and how two tensors differ.
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The shapes are incomparable.
    Shape {
        /// Left-hand shape.
        got: Shape,
        /// Right-hand shape.
        want: Shape,
    },
    /// An element pair exceeded the tolerance.
    Element {
        /// Flat (row-major) index of the worst offending element.
        index: usize,
        /// Left-hand value.
        got: f32,
        /// Right-hand value.
        want: f32,
        /// Absolute difference.
        abs_diff: f32,
        /// ULP distance (`u64::MAX` when a NaN is involved).
        ulps: u64,
        /// How many elements exceeded the tolerance in total.
        failed: usize,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Shape { got, want } => {
                write!(f, "shape mismatch: {got} vs {want}")
            }
            Mismatch::Element {
                index,
                got,
                want,
                abs_diff,
                ulps,
                failed,
            } => write!(
                f,
                "{failed} element(s) out of tolerance; worst at [{index}]: \
                 {got:e} vs {want:e} (|Δ| = {abs_diff:.3e}, {ulps} ulps)"
            ),
        }
    }
}

/// Compares two tensors element-wise under a [`Tolerance`].
///
/// Returns the worst mismatch (largest ULP distance, ties broken by
/// absolute difference) when any element fails.
pub fn compare_tensors(a: &Tensor, b: &Tensor, tol: Tolerance) -> Result<(), Mismatch> {
    if a.shape() != b.shape() {
        return Err(Mismatch::Shape {
            got: *a.shape(),
            want: *b.shape(),
        });
    }
    let mut worst: Option<Mismatch> = None;
    let mut failed = 0usize;
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        if tol.accepts(x, y) {
            continue;
        }
        failed += 1;
        let cand = Mismatch::Element {
            index: i,
            got: x,
            want: y,
            abs_diff: (x - y).abs(),
            ulps: ulp_distance(x, y),
            failed: 0,
        };
        let replace = match (&worst, &cand) {
            (None, _) => true,
            (
                Some(Mismatch::Element {
                    ulps: wu,
                    abs_diff: wa,
                    ..
                }),
                Mismatch::Element {
                    ulps: cu,
                    abs_diff: ca,
                    ..
                },
            ) => cu > wu || (cu == wu && ca > wa),
            _ => false,
        };
        if replace {
            worst = Some(cand);
        }
    }
    match worst {
        None => Ok(()),
        Some(Mismatch::Element {
            index,
            got,
            want,
            abs_diff,
            ulps,
            ..
        }) => Err(Mismatch::Element {
            index,
            got,
            want,
            abs_diff,
            ulps,
            failed,
        }),
        Some(m) => Err(m),
    }
}

/// Asserts two tensors are within tolerance, panicking with a labelled,
/// detailed report otherwise. The shared assertion for compiler
/// correctness tests and the differential fuzzer.
///
/// # Panics
///
/// When shapes differ or any element pair exceeds `tol`.
pub fn assert_tensors_close(label: &str, got: &Tensor, want: &Tensor, tol: Tolerance) {
    if let Err(m) = compare_tensors(got, want, tol) {
        panic!(
            "{label}: tensors differ: {m} (tolerance: abs {:.1e}, {} ulps)",
            tol.abs, tol.ulps
        );
    }
}

/// Asserts two tensors are *bit-identical* (every element has the same
/// `f32` bit pattern — `-0.0` vs `+0.0` and differing NaN payloads
/// fail). The determinism contract of the parallel execution engine.
///
/// # Panics
///
/// When shapes differ or any element pair has different bits.
pub fn assert_tensors_bitwise(label: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{label}: shape mismatch: {} vs {}",
        got.shape(),
        want.shape()
    );
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: bitwise divergence at [{i}]: {x:e} ({:#010x}) vs {y:e} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;

    fn t(data: Vec<f32>) -> Tensor {
        let n = data.len();
        Tensor::from_data(Shape::new(vec![n]), DType::F32, data).unwrap()
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(-0.0, 0.0), 1);
        // Crossing zero spans both subnormal ranges: ~2^24 ULPs.
        assert!(ulp_distance(f32::MIN_POSITIVE, -f32::MIN_POSITIVE) > (1 << 24));
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(f32::INFINITY, f32::INFINITY), 0);
        // 2·0x7F80_0000 + 1: every finite float sits between them.
        assert_eq!(
            ulp_distance(f32::INFINITY, f32::NEG_INFINITY),
            4_278_190_081
        );
    }

    #[test]
    fn ulp_distance_is_symmetric_and_monotone() {
        let vals = [-3.5f32, -1.0, -1e-20, 0.0, 1e-20, 1.0, 3.5, 1e20];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(ulp_distance(a, b), ulp_distance(b, a));
            }
        }
        // Distance grows as values separate.
        assert!(ulp_distance(1.0, 1.1) < ulp_distance(1.0, 2.0));
    }

    #[test]
    fn tolerance_accepts_relative_drift_on_large_values() {
        let tol = Tolerance::new(1e-6, 8);
        let a = 1e6f32;
        let b = f32::from_bits(a.to_bits() + 5);
        // |Δ| far exceeds the abs floor, but 5 ulps is within budget.
        assert!((a - b).abs() > 1e-6);
        assert!(tol.accepts(a, b));
        assert!(!tol.accepts(a, f32::from_bits(a.to_bits() + 50)));
    }

    #[test]
    fn tolerance_abs_floor_covers_cancellation_near_zero() {
        let tol = Tolerance::new(1e-6, 4);
        // 1e-7 absolute error around zero is millions of ulps.
        assert!(ulp_distance(0.0, 1e-7) > 1_000_000);
        assert!(tol.accepts(0.0, 1e-7));
        assert!(!tol.accepts(0.0, 1e-5));
    }

    #[test]
    fn nan_semantics() {
        let tol = Tolerance::exact();
        assert!(tol.accepts(f32::NAN, f32::NAN));
        assert!(!tol.accepts(f32::NAN, 0.0));
        assert!(!tol.accepts(0.0, f32::NAN));
        assert!(tol.accepts(f32::INFINITY, f32::INFINITY));
        assert!(!tol.accepts(f32::INFINITY, f32::MAX));
    }

    #[test]
    fn exact_tolerance_spans_signed_zero() {
        assert!(
            Tolerance::exact().accepts(-0.0, 0.0),
            "distance 1 but equal"
        );
    }

    #[test]
    fn compare_reports_worst_element_and_count() {
        let a = t(vec![1.0, 2.0, 3.0, 0.0]);
        let b = t(vec![1.0, 2.5, 3.001, 0.0]);
        let err = compare_tensors(&a, &b, Tolerance::new(1e-6, 4)).unwrap_err();
        match err {
            Mismatch::Element { index, failed, .. } => {
                assert_eq!(index, 1, "2.0 vs 2.5 is the worst offender");
                assert_eq!(failed, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compare_rejects_shape_mismatch() {
        let a = t(vec![1.0, 2.0]);
        let b = t(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            compare_tensors(&a, &b, Tolerance::exact()),
            Err(Mismatch::Shape { .. })
        ));
    }

    #[test]
    fn assert_close_passes_within_tolerance() {
        let a = t(vec![1.0, 2.0]);
        let mut b = a.clone();
        b.data_mut()[1] = 2.0 + 1e-7;
        assert_tensors_close("test", &a, &b, Tolerance::new(1e-6, 4));
        assert_tensors_bitwise("test", &a, &a.clone());
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_close_panics_with_label() {
        let a = t(vec![1.0]);
        let b = t(vec![2.0]);
        assert_tensors_close("test", &a, &b, Tolerance::exact());
    }

    #[test]
    #[should_panic(expected = "bitwise divergence")]
    fn assert_bitwise_rejects_signed_zero() {
        assert_tensors_bitwise("test", &t(vec![0.0]), &t(vec![-0.0]));
    }

    #[test]
    fn reduction_extent_tolerance_scales() {
        let small = Tolerance::for_reduction_extent(16);
        let large = Tolerance::for_reduction_extent(4096);
        assert!(large.abs > small.abs);
        assert!(large.ulps > small.ulps);
    }
}
