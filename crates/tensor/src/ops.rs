//! Elementwise and broadcast arithmetic on tensors.
//!
//! Binary operations require either identical shapes or the restricted
//! suffix broadcast described in [`crate::shape::Shape::broadcasts_from`]
//! (the only broadcast the NN stack needs: a `[C]` bias over `[N, C]`
//! activations).

use crate::tensor::Tensor;

macro_rules! elementwise_binop {
    ($name:ident, $name_inplace:ident, $assign:tt, $doc:literal) => {
        #[doc = $doc]
        ///
        /// # Panics
        /// Panics when the shapes are neither equal nor suffix-broadcastable.
        pub fn $name(a: &Tensor, b: &Tensor) -> Tensor {
            let mut out = a.clone();
            $name_inplace(&mut out, b);
            out
        }

        #[doc = $doc]
        #[doc = " In place on `a`."]
        pub fn $name_inplace(a: &mut Tensor, b: &Tensor) {
            if a.shape() == b.shape() {
                for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
                    *x $assign *y;
                }
            } else {
                assert!(
                    a.shape().broadcasts_from(b.shape()),
                    "shape mismatch: {} vs {}",
                    a.shape(),
                    b.shape()
                );
                let n = b.len();
                for chunk in a.data_mut().chunks_mut(n) {
                    for (x, y) in chunk.iter_mut().zip(b.data()) {
                        *x $assign *y;
                    }
                }
            }
        }
    };
}

elementwise_binop!(add, add_inplace, +=, "Elementwise addition `a + b`.");
elementwise_binop!(sub, sub_inplace, -=, "Elementwise subtraction `a - b`.");
elementwise_binop!(mul, mul_inplace, *=, "Elementwise (Hadamard) product `a * b`.");
elementwise_binop!(div, div_inplace, /=, "Elementwise division `a / b`.");

/// Scales every element by `s`, returning a new tensor.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// Scales every element by `s` in place.
pub fn scale_inplace(a: &mut Tensor, s: f32) {
    for x in a.data_mut() {
        *x *= s;
    }
}

/// `a += s * b` (axpy), the workhorse of SGD updates and model blending.
///
/// # Panics
/// Panics when shapes differ.
pub fn axpy(a: &mut Tensor, s: f32, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "axpy shape mismatch");
    for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
        *x += s * *y;
    }
}

/// Convex blend `alpha * a + (1 - alpha) * b` — the on-device model
/// aggregation primitive (paper Eq. 9 with similarity-derived weights).
///
/// # Panics
/// Panics when shapes differ.
pub fn lerp(a: &Tensor, b: &Tensor, alpha: f32) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "lerp shape mismatch");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| alpha * x + (1.0 - alpha) * y)
        .collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// Inner product of two equal-shaped tensors, flattened.
///
/// # Panics
/// Panics when shapes differ.
pub fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "dot shape mismatch");
    dot_slices(a.data(), b.data())
}

/// Inner product of two equal-length slices.
#[inline(always)]
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Four accumulators let the compiler keep independent FMA chains in
    // flight; float addition is not associative so this changes rounding,
    // which is acceptable for ML workloads. `chunks_exact` (rather than
    // indexing with a computed offset) is what lets LLVM drop the bounds
    // checks and emit one packed multiply-add per chunk — the arithmetic
    // order per accumulator lane is exactly the indexed loop's.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for (av, bv) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        acc[0] += av[0] * bv[0];
        acc[1] += av[1] * bv[1];
        acc[2] += av[2] * bv[2];
        acc[3] += av[3] * bv[3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// The pre-overhaul [`dot_slices`] body, kept verbatim so the preserved
/// reference kernels (the bitwise oracles and the benchmark's "before"
/// side) keep the seed's performance as well as its arithmetic: computed-
/// offset indexing keeps this version scalar, which is exactly how the
/// original train path ran.
#[inline]
pub fn dot_slices_reference(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0f32;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// `T` inner products sharing the left operand, each bitwise-identical
/// to a separate [`dot_slices`] call.
///
/// A single `dot_slices` is latency-bound: its four accumulator chains
/// serialise on float-add latency for short vectors. Interleaving `T`
/// independent dots (4·T chains in flight) makes the reduction
/// throughput-bound while leaving every per-output accumulation order
/// untouched — the dense forward's kernel for blocks of fewer than four
/// rows, and the pattern the tiled conv and dense kernels widen.
#[inline(always)]
pub fn dot_slices_many<const T: usize>(a: &[f32], rows: [&[f32]; T]) -> [f32; T] {
    let len = a.len();
    // Pre-chunking every row (instead of slicing `[j..j + 4]` inside the
    // loop) removes the per-iteration bounds checks that otherwise keep
    // the body scalar; each accumulator quad then compiles to one packed
    // multiply-add with the indexed loop's exact arithmetic order.
    let (ac, atail) = a.as_chunks::<4>();
    let rc: [&[[f32; 4]]; T] = std::array::from_fn(|t| rows[t][..len].as_chunks::<4>().0);
    let mut acc = [[0.0f32; 4]; T];
    for (i, av) in ac.iter().enumerate() {
        for t in 0..T {
            let rv = &rc[t][i];
            acc[t][0] += av[0] * rv[0];
            acc[t][1] += av[1] * rv[1];
            acc[t][2] += av[2] * rv[2];
            acc[t][3] += av[3] * rv[3];
        }
    }
    let mut out = [0.0f32; T];
    for t in 0..T {
        let mut tail = 0.0f32;
        for (j, &av) in atail.iter().enumerate() {
            tail += av * rows[t][ac.len() * 4 + j];
        }
        out[t] = acc[t][0] + acc[t][1] + acc[t][2] + acc[t][3] + tail;
    }
    out
}

/// Fused single-pass `(dot(a, b), ‖a‖², ‖b‖²)` over two equal-length
/// slices.
///
/// Uses the same four-accumulator chunking as [`dot_slices`] for each of
/// the three sums, so the result is bit-identical to three separate
/// `dot_slices` calls while reading both slices only once — the kernel
/// behind cosine similarity on whole-model parameter vectors.
#[inline]
pub fn dot3_slices(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    let mut ab = [0.0f32; 4];
    let mut aa = [0.0f32; 4];
    let mut bb = [0.0f32; 4];
    let chunks = a.len() / 4;
    for (av, bv) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        for k in 0..4 {
            let (x, y) = (av[k], bv[k]);
            ab[k] += x * y;
            aa[k] += x * x;
            bb[k] += y * y;
        }
    }
    let (mut ab_t, mut aa_t, mut bb_t) = (0.0f32, 0.0f32, 0.0f32);
    for j in chunks * 4..a.len() {
        let (x, y) = (a[j], b[j]);
        ab_t += x * y;
        aa_t += x * x;
        bb_t += y * y;
    }
    (
        ab[0] + ab[1] + ab[2] + ab[3] + ab_t,
        aa[0] + aa[1] + aa[2] + aa[3] + aa_t,
        bb[0] + bb[1] + bb[2] + bb[3] + bb_t,
    )
}

/// Cosine similarity between two equal-shaped tensors, in `[-1, 1]`.
///
/// Returns 0.0 when either operand has zero norm (the convention used by
/// the similarity utility: a fresh all-zero model carries no information).
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "cosine shape mismatch");
    cosine_similarity_slices(a.data(), b.data())
}

/// Cosine similarity between two equal-length slices (one fused pass via
/// [`dot3_slices`]).
pub fn cosine_similarity_slices(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (ab, aa, bb) = dot3_slices(a, b);
    combine_cosine(ab, aa, bb)
}

/// Combines a dot product and two squared norms into a clamped cosine,
/// with the zero-norm → 0.0 convention. Exposed so callers holding
/// *cached* norms (flat parameter views) can skip the norm passes.
#[inline]
pub fn combine_cosine(ab: f32, aa: f32, bb: f32) -> f32 {
    if aa <= 0.0 || bb <= 0.0 {
        return 0.0;
    }
    (ab / (aa.sqrt() * bb.sqrt())).clamp(-1.0, 1.0)
}

/// Weighted mean of several equal-shaped tensors — the FedAvg primitive.
///
/// Weights are normalised internally, so callers can pass raw sample
/// counts.
///
/// # Panics
/// Panics when `tensors` is empty, lengths differ, weights are not all
/// finite and non-negative, or the weight sum is zero.
pub fn weighted_mean(tensors: &[&Tensor], weights: &[f32]) -> Tensor {
    assert!(!tensors.is_empty(), "weighted_mean of no tensors");
    assert_eq!(
        tensors.len(),
        weights.len(),
        "weights/tensors length mismatch"
    );
    let total: f32 = weights.iter().sum();
    assert!(
        total > 0.0 && weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be non-negative with positive sum, got {weights:?}"
    );
    let mut out = Tensor::zeros(tensors[0].shape().clone());
    for (t, &w) in tensors.iter().zip(weights) {
        assert_eq!(
            t.shape(),
            tensors[0].shape(),
            "weighted_mean shape mismatch"
        );
        axpy(&mut out, w / total, t);
    }
    out
}

/// Squared L2 distance between two equal-shaped tensors.
pub fn squared_distance(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "distance shape mismatch");
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec([v.len()], v.to_vec())
    }

    #[test]
    fn add_sub_mul_div() {
        let a = t(&[1., 2., 3.]);
        let b = t(&[4., 5., 6.]);
        assert_eq!(add(&a, &b).data(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).data(), &[3., 3., 3.]);
        assert_eq!(mul(&a, &b).data(), &[4., 10., 18.]);
        assert_eq!(div(&b, &a).data(), &[4., 2.5, 2.]);
    }

    #[test]
    fn suffix_broadcast_add() {
        let mut m = Tensor::from_vec([2, 3], vec![0., 0., 0., 10., 10., 10.]);
        let bias = t(&[1., 2., 3.]);
        add_inplace(&mut m, &bias);
        assert_eq!(m.data(), &[1., 2., 3., 11., 12., 13.]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn incompatible_shapes_panic() {
        add(&t(&[1., 2.]), &t(&[1., 2., 3.]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1., 1.]);
        axpy(&mut a, 2.0, &t(&[3., 4.]));
        assert_eq!(a.data(), &[7., 9.]);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = t(&[0., 10.]);
        let b = t(&[10., 0.]);
        assert_eq!(lerp(&a, &b, 1.0).data(), a.data());
        assert_eq!(lerp(&a, &b, 0.0).data(), b.data());
        assert_eq!(lerp(&a, &b, 0.5).data(), &[5., 5.]);
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (36 - i) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_slices(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn dot3_matches_three_separate_dots_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 37, 128] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.71).cos()).collect();
            let (ab, aa, bb) = dot3_slices(&a, &b);
            assert_eq!(ab.to_bits(), dot_slices(&a, &b).to_bits(), "n={n}");
            assert_eq!(aa.to_bits(), dot_slices(&a, &a).to_bits(), "n={n}");
            assert_eq!(bb.to_bits(), dot_slices(&b, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn combine_cosine_handles_zero_norms() {
        assert_eq!(combine_cosine(1.0, 0.0, 2.0), 0.0);
        assert_eq!(combine_cosine(1.0, 2.0, 0.0), 0.0);
        assert_eq!(combine_cosine(5.0, 4.0, 4.0), 1.0); // clamped
    }

    #[test]
    fn cosine_basic_cases() {
        let a = t(&[1., 0.]);
        assert!((cosine_similarity(&a, &t(&[1., 0.])) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&a, &t(&[0., 1.]))).abs() < 1e-6);
        assert!((cosine_similarity(&a, &t(&[-1., 0.])) + 1.0).abs() < 1e-6);
        // Zero vector convention.
        assert_eq!(cosine_similarity(&a, &t(&[0., 0.])), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = t(&[3., -1., 2.]);
        let b = t(&[1., 4., 0.5]);
        let c = scale(&b, 17.0);
        assert!((cosine_similarity(&a, &b) - cosine_similarity(&a, &c)).abs() < 1e-6);
    }

    #[test]
    fn weighted_mean_normalises_weights() {
        let a = t(&[0., 0.]);
        let b = t(&[10., 20.]);
        let m = weighted_mean(&[&a, &b], &[3.0, 1.0]);
        assert_eq!(m.data(), &[2.5, 5.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_mean_rejects_zero_weights() {
        let a = t(&[1.]);
        weighted_mean(&[&a], &[0.0]);
    }

    #[test]
    fn squared_distance_symmetric() {
        let a = t(&[1., 2.]);
        let b = t(&[4., 6.]);
        assert_eq!(squared_distance(&a, &b), 25.0);
        assert_eq!(squared_distance(&b, &a), 25.0);
        assert_eq!(squared_distance(&a, &a), 0.0);
    }
}
