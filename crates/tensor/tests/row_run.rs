//! Independent check of the row-run kernels.
//!
//! `unary`, `binary`, `binary_scalar`, `broadcast_to`,
//! `TensorView::to_tensor` and `TensorViewMut::copy_from_dense` all walk
//! strided views through one shared traversal, and the reference
//! interpreter (`sf_ir::Graph::execute`) delegates to the same kernels —
//! so comparing fused against reference execution cannot catch a bug in
//! them. This test can: it evaluates every result element by element
//! through `TensorView::at` with its own index arithmetic, sharing no
//! code with the traversal, over seeded views of rank 0–4 with nested
//! slices, extent-1 and broadcast axes in every position, zero-volume
//! views and the short last tile of a non-divisor tiling. Payloads
//! include ±inf, NaN, ±0 and denormals, and results are compared by
//! bit pattern, so where a NaN or an infinity lands is pinned too.

use sf_tensor::ops::{viewed, BinaryOp, UnaryOp};
use sf_tensor::rng::XorShiftRng;
use sf_tensor::{DType, ScratchPool, Shape, Tensor, TensorView, TensorViewMut};

const SEEDS: u64 = 600;

const SPECIALS: [f32; 10] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    0.0,
    -0.0,
    f32::MIN_POSITIVE / 4.0, // denormal
    -f32::MIN_POSITIVE / 64.0,
    f32::MAX,
    1.0,
    -3.5,
];

/// A tensor whose payload mixes ordinary values with the specials.
fn payload(dims: &[usize], rng: &mut XorShiftRng) -> Tensor {
    let volume: usize = dims.iter().product();
    let data = (0..volume)
        .map(|_| {
            if rng.below(4) == 0 {
                SPECIALS[rng.below(SPECIALS.len() as u64) as usize]
            } else {
                rng.uniform(-8.0, 8.0)
            }
        })
        .collect();
    Tensor::from_data(Shape::new(dims.to_vec()), DType::F32, data).unwrap()
}

/// A random `[start, end)` of an axis of extent `e`: the whole axis, a
/// strict sub-range, one element, nothing, or the short last tile of a
/// tiling whose block does not divide `e`.
fn sub_range(e: usize, rng: &mut XorShiftRng) -> (usize, usize) {
    match rng.below(6) {
        0 => (0, e),
        2 if e > 0 => {
            let s = rng.below(e as u64) as usize;
            (s, s + 1)
        }
        1 | 3 if e > 1 => {
            let s = rng.below(e as u64) as usize;
            (s, s + 1 + rng.below((e - s) as u64) as usize)
        }
        4 if e > 2 => {
            // Blocks of `b` with `e % b != 0`: the last tile is clamped.
            let b = (2..e).find(|&b| !e.is_multiple_of(b)).unwrap_or(e);
            ((e / b) * b, e)
        }
        5 if rng.below(8) == 0 => {
            let s = rng.below(e as u64 + 1) as usize;
            (s, s)
        }
        _ => (0, e),
    }
}

/// The ranges of a random slice of `dims`, and the sliced extents.
fn sub_ranges(dims: &[usize], rng: &mut XorShiftRng) -> (Vec<(usize, usize)>, Vec<usize>) {
    let ranges: Vec<_> = dims.iter().map(|&e| sub_range(e, rng)).collect();
    let extents = ranges.iter().map(|&(s, t)| t - s).collect();
    (ranges, extents)
}

fn random_dims(rng: &mut XorShiftRng) -> Vec<usize> {
    let rank = rng.below(5) as usize;
    (0..rank)
        .map(|_| [1, 2, 3, 4, 5, 6, 7, 9][rng.below(8) as usize])
        .collect()
}

/// A twice-sliced view of `base`.
fn nested_view<'a>(base: &'a Tensor, rng: &mut XorShiftRng) -> TensorView<'a> {
    let (outer, extents) = sub_ranges(base.shape().dims(), rng);
    let (inner, _) = sub_ranges(&extents, rng);
    base.slice(&outer).unwrap().slice(&inner).unwrap()
}

/// Every index of `dims` in row-major order (the test's own odometer).
fn indices(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut all = vec![Vec::new()];
    for &d in dims {
        all = all
            .into_iter()
            .flat_map(|prefix| {
                (0..d).map(move |i| {
                    let mut index = prefix.clone();
                    index.push(i);
                    index
                })
            })
            .collect();
    }
    all
}

/// Element-by-element evaluation over `dims`.
fn naive(dims: &[usize], f: impl Fn(&[usize]) -> f32) -> Vec<f32> {
    indices(dims).iter().map(|index| f(index)).collect()
}

/// `index` as seen by an operand of extents `dims` (extent 1 broadcasts).
fn clamp_index(index: &[usize], dims: &[usize]) -> Vec<usize> {
    index
        .iter()
        .zip(dims)
        .map(|(&i, &d)| if d == 1 { 0 } else { i })
        .collect()
}

/// Bit-exact comparison. With `arithmetic`, a NaN matches any NaN: the
/// placement is pinned, the payload an FPU picks for `NaN op NaN` is
/// not.
fn assert_same_bits(
    what: &str,
    seed: u64,
    got: &Tensor,
    dims: &[usize],
    want: &[f32],
    arithmetic: bool,
) {
    assert_eq!(got.shape().dims(), dims, "{what} seed {seed}: shape");
    assert_eq!(got.data().len(), want.len(), "{what} seed {seed}: volume");
    for (i, (&g, &w)) in got.data().iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (arithmetic && g.is_nan() && w.is_nan());
        assert!(
            same,
            "{what} seed {seed} element {i} of {dims:?}: got {g:?} ({:#x}), want {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

const UNARY: [UnaryOp; 6] = [
    UnaryOp::Exp,
    UnaryOp::Neg,
    UnaryOp::Sqrt,
    UnaryOp::Recip,
    UnaryOp::Relu,
    UnaryOp::Identity,
];
const BINARY: [BinaryOp; 6] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Max,
    BinaryOp::Min,
];

#[test]
fn single_operand_kernels_match_indexed_evaluation() {
    let mut pool = ScratchPool::new();
    let mut strided = 0;
    for seed in 0..SEEDS {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let base = payload(&random_dims(&mut rng), &mut rng);
        let x = nested_view(&base, &mut rng);
        let dims = x.dims().to_vec();
        strided += usize::from(!x.is_contiguous());

        let want = naive(&dims, |i| x.at(i));
        assert_same_bits("to_tensor", seed, &x.to_tensor(), &dims, &want, false);

        let op = UNARY[rng.below(UNARY.len() as u64) as usize];
        let want = naive(&dims, |i| op.eval(x.at(i)));
        let got = viewed::unary(op, &x, &mut pool);
        assert_same_bits(op.name(), seed, &got, &dims, &want, true);
        pool.recycle_tensor(got);

        let op = BINARY[rng.below(BINARY.len() as u64) as usize];
        let scalar = SPECIALS[rng.below(SPECIALS.len() as u64) as usize];
        let want = naive(&dims, |i| op.eval(x.at(i), scalar));
        let got = viewed::binary_scalar(op, &x, scalar, &mut pool);
        assert_same_bits("binary_scalar", seed, &got, &dims, &want, true);
        pool.recycle_tensor(got);

        // Broadcast along every extent-1 axis in turn.
        for axis in (0..dims.len()).filter(|&a| dims[a] == 1) {
            let extent = rng.below(5) as usize;
            let mut out_dims = dims.clone();
            out_dims[axis] = extent;
            let want = naive(&out_dims, |i| x.at(&clamp_index(i, &dims)));
            let got = viewed::broadcast_to(&x, axis, extent, &mut pool).unwrap();
            assert_same_bits("broadcast_to", seed, &got, &out_dims, &want, false);
            pool.recycle_tensor(got);
        }
    }
    // Rank 0 and 1 views are always dense; of the rest about a third
    // end up strided.
    assert!(strided * 8 > SEEDS as usize, "only {strided} strided views");
}

#[test]
fn binary_matches_indexed_evaluation_under_broadcast_and_strides() {
    let mut pool = ScratchPool::new();
    let mut broadcasts = 0;
    for seed in 0..SEEDS {
        let mut rng = XorShiftRng::seed_from_u64(0xB1A2 ^ seed);
        // The output extents; each operand keeps or collapses each axis.
        let out_dims = random_dims(&mut rng);
        let operand_dims = |rng: &mut XorShiftRng| -> Vec<usize> {
            out_dims
                .iter()
                .map(|&d| if rng.below(3) == 0 { 1 } else { d })
                .collect()
        };
        let (a_dims, b_dims) = (operand_dims(&mut rng), operand_dims(&mut rng));
        let want_dims: Vec<usize> = a_dims
            .iter()
            .zip(&b_dims)
            .map(|(&a, &b)| if a == 1 { b } else { a })
            .collect();
        broadcasts += usize::from(a_dims != b_dims);

        // Each operand is a window of a larger tensor, so its strides
        // are not those of its own shape.
        let window = |dims: &[usize], rng: &mut XorShiftRng| {
            let pads: Vec<(usize, usize)> = dims
                .iter()
                .map(|_| (rng.below(3) as usize, rng.below(3) as usize))
                .collect();
            let base_dims: Vec<usize> = dims
                .iter()
                .zip(&pads)
                .map(|(&d, &(l, r))| l + d + r)
                .collect();
            let ranges: Vec<(usize, usize)> = dims
                .iter()
                .zip(&pads)
                .map(|(&d, &(l, _))| (l, l + d))
                .collect();
            (payload(&base_dims, rng), ranges)
        };
        let (a_base, a_ranges) = window(&a_dims, &mut rng);
        let (b_base, b_ranges) = window(&b_dims, &mut rng);
        let a = a_base.slice(&a_ranges).unwrap();
        let b = b_base.slice(&b_ranges).unwrap();

        for op in BINARY {
            let want = naive(&want_dims, |i| {
                op.eval(
                    a.at(&clamp_index(i, &a_dims)),
                    b.at(&clamp_index(i, &b_dims)),
                )
            });
            let got = viewed::binary(op, &a, &b, &mut pool).unwrap();
            assert_same_bits(op.name(), seed, &got, &want_dims, &want, true);
            pool.recycle_tensor(got);
        }
    }
    assert!(
        broadcasts * 3 > SEEDS as usize,
        "only {broadcasts} broadcast cases"
    );
}

#[test]
fn copy_from_dense_writes_exactly_its_region() {
    for seed in 0..SEEDS {
        let mut rng = XorShiftRng::seed_from_u64(0xC0B1 ^ seed);
        let mut base = payload(&random_dims(&mut rng), &mut rng);
        let base_dims = base.shape().dims().to_vec();
        let (ranges, region_dims) = sub_ranges(&base_dims, &mut rng);
        let src = payload(&region_dims, &mut rng);

        // Expected: the region's elements replaced, everything else kept.
        let mut want = base.clone();
        for index in indices(&region_dims) {
            let at: Vec<usize> = index
                .iter()
                .zip(&ranges)
                .map(|(&i, &(s, _))| s + i)
                .collect();
            want.set(&at, src.at(&index));
        }

        let strides = base.shape().strides();
        let offset: usize = ranges
            .iter()
            .zip(strides.iter())
            .map(|(&(s, _), &st)| s * st)
            .sum();
        let len = base.data().len();
        // An empty region may start one past the end; it writes nothing.
        let offset = offset.min(len);
        let data = base.data_mut().as_mut_ptr();
        // SAFETY: `ranges` lie within `base`, so every element the
        // region's extents and the base strides address from `offset` is
        // inside the buffer, and `base` is not touched while the view
        // lives.
        let mut region = unsafe {
            TensorViewMut::from_raw_parts(
                data.add(offset),
                len - offset,
                Shape::new(region_dims.clone()),
                &strides,
            )
        };
        region.copy_from_dense(src.data()).unwrap();
        drop(region);

        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&base),
            bits(&want),
            "seed {seed}: {base_dims:?} region {ranges:?}"
        );
    }
}
