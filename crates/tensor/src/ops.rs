//! Inner products and cosine similarity over `f32` slices — the
//! reductions behind model similarity (paper Eq. 8) and the parameter
//! norms the round caches.

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = [1., 0.];
        assert!((cosine_similarity_slices(&a, &[1., 0.]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity_slices(&a, &[0., 1.])).abs() < 1e-6);
        assert!((cosine_similarity_slices(&a, &[-1., 0.]) + 1.0).abs() < 1e-6);
        // Zero vector convention.
        assert_eq!(cosine_similarity_slices(&a, &[0., 0.]), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = [3., -1., 2.];
        let b = [1., 4., 0.5];
        let c = b.map(|x| x * 17.0);
        let (ab, ac) = (
            cosine_similarity_slices(&a, &b),
            cosine_similarity_slices(&a, &c),
        );
        assert!((ab - ac).abs() < 1e-6);
    }
}
