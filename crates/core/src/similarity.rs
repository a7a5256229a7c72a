//! The similarity utility metric (paper Eq. 8).
//!
//! `U(a, b) = max(cos(a, b), 0)` over flattened parameter vectors. The
//! clipping at zero "avoid\[s\] blind aggregation introducing noise": a
//! model pointing away from the reference contributes nothing rather
//! than a negative weight.

use middle_tensor::ops::{combine_cosine, cosine_similarity_slices, dot_slices};

/// Similarity utility between two parameter vectors (Eq. 8).
pub fn similarity_utility(a: &[f32], b: &[f32]) -> f32 {
    cosine_similarity_slices(a, b).max(0.0)
}

/// Raw (unclipped) cosine similarity — kept for the clipping ablation.
pub fn raw_cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_similarity_slices(a, b)
}

/// [`similarity_utility`] with caller-supplied squared norms, skipping the
/// two norm passes. Bitwise identical to the uncached version whenever the
/// cached norms were themselves produced by `dot_slices(v, v)`.
pub fn similarity_utility_cached(a: &[f32], a_norm_sq: f32, b: &[f32], b_norm_sq: f32) -> f32 {
    raw_cosine_cached(a, a_norm_sq, b, b_norm_sq).max(0.0)
}

/// [`raw_cosine`] with caller-supplied squared norms (one dot pass).
pub fn raw_cosine_cached(a: &[f32], a_norm_sq: f32, b: &[f32], b_norm_sq: f32) -> f32 {
    combine_cosine(dot_slices(a, b), a_norm_sq, b_norm_sq)
}

/// On-device aggregation weight pair derived from the utility (Eq. 9):
/// the new initial model is `edge_w * w_n + local_w * w_m` with
/// `edge_w = 1/(1+U)` and `local_w = U/(1+U)`.
///
/// `U ∈ [0, 1]` implies `edge_w ∈ [1/2, 1]`: the edge model always
/// dominates, as the paper requires.
pub fn aggregation_weights(utility: f32) -> (f32, f32) {
    debug_assert!((0.0..=1.0).contains(&utility), "utility must be clipped");
    let edge_w = 1.0 / (1.0 + utility);
    (edge_w, 1.0 - edge_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clips_negative_cosine_to_zero() {
        let a = [1.0f32, 0.0];
        let b = [-1.0f32, 0.0];
        assert_eq!(similarity_utility(&a, &b), 0.0);
        assert_eq!(raw_cosine(&a, &b), -1.0);
    }

    #[test]
    fn identical_vectors_have_unit_utility() {
        let a = [0.3f32, -0.7, 2.0];
        assert!((similarity_utility(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn orthogonal_vectors_have_zero_utility() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        assert!(similarity_utility(&a, &b).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_convention() {
        let a = [0.0f32, 0.0];
        let b = [1.0f32, 2.0];
        assert_eq!(similarity_utility(&a, &b), 0.0);
    }

    #[test]
    fn weights_form_convex_pair_dominated_by_edge() {
        for u in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let (edge_w, local_w) = aggregation_weights(u);
            assert!((edge_w + local_w - 1.0).abs() < 1e-6);
            assert!(edge_w >= 0.5, "edge model must dominate (U={u})");
            assert!(local_w >= 0.0);
        }
    }

    #[test]
    fn weights_at_extremes_match_eq9() {
        // U = 0: pure edge model. U = 1: equal blend.
        let (e0, l0) = aggregation_weights(0.0);
        assert_eq!((e0, l0), (1.0, 0.0));
        let (e1, l1) = aggregation_weights(1.0);
        assert!((e1 - 0.5).abs() < 1e-6 && (l1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cached_norm_variants_are_bitwise_identical() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.31 - 4.0).collect();
        let b: Vec<f32> = (0..37).map(|i| ((i * i) as f32).sin()).collect();
        let (aa, bb) = (dot_slices(&a, &a), dot_slices(&b, &b));
        assert_eq!(
            similarity_utility(&a, &b).to_bits(),
            similarity_utility_cached(&a, aa, &b, bb).to_bits()
        );
        assert_eq!(
            raw_cosine(&a, &b).to_bits(),
            raw_cosine_cached(&a, aa, &b, bb).to_bits()
        );
    }
}
