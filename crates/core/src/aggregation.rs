//! On-device model aggregation (paper §4.2, Eq. 9, plus baselines) and
//! the edge/cloud FedAvg aggregations (Eqs. 6–7).
//!
//! Each aggregation exists in two forms: the original allocating
//! functions returning fresh models (kept as the numerical oracle and
//! used by the reference step), and `_into` variants built on the
//! in-place primitives in [`middle_nn::params`] that write directly into
//! an existing model. The `_into` forms are element-for-element
//! identical to their references: same weight normalisation, same
//! accumulation order.

use crate::algorithms::OnDevicePolicy;
use crate::device::Device;
use crate::similarity::{
    aggregation_weights, raw_cosine, raw_cosine_cached, similarity_utility,
    similarity_utility_cached,
};
use middle_nn::params::{
    axpy, axpy2, blend, blend_into, flatten, flatten_into, unflatten, weighted_average, zero_params,
};
use middle_nn::Sequential;

/// Computes the new initial local model `ŵ_m^t` for a device that just
/// moved into an edge (Algorithm 1, line 5).
///
/// * `edge_model` — the downloaded current edge model `w_n^t`;
/// * `local_model` — the carried model `w_m^t` inherited from the
///   previous edge.
pub fn on_device_init(
    policy: OnDevicePolicy,
    edge_model: &Sequential,
    local_model: &Sequential,
) -> Sequential {
    match policy {
        OnDevicePolicy::EdgeModel => edge_model.clone(),
        OnDevicePolicy::KeepLocal => local_model.clone(),
        OnDevicePolicy::Average => blend(edge_model, local_model, 0.5),
        OnDevicePolicy::FixedAlpha { alpha } => {
            assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
            blend(edge_model, local_model, alpha)
        }
        OnDevicePolicy::SimilarityWeighted => {
            let u = similarity_utility(&flatten(local_model), &flatten(edge_model));
            let (edge_w, _local_w) = aggregation_weights(u);
            blend(edge_model, local_model, edge_w)
        }
        OnDevicePolicy::UnclippedSimilarity => {
            // Ablation: use the raw cosine in the Eq. 9 weights. The raw
            // value can be negative; we clamp at −0.5 so the 1/(1+c)
            // weight stays bounded, which still permits the noisy
            // extrapolation the clipping of Eq. 8 is designed to prevent.
            let c = raw_cosine(&flatten(local_model), &flatten(edge_model)).max(-0.5);
            let edge_w = (1.0 / (1.0 + c)).min(2.0);
            let local_w = 1.0 - edge_w;
            let fe = flatten(edge_model);
            let fl = flatten(local_model);
            let mixed: Vec<f32> = fe
                .iter()
                .zip(&fl)
                .map(|(&e, &l)| edge_w * e + local_w * l)
                .collect();
            let mut out = edge_model.clone();
            middle_nn::params::unflatten(&mut out, &mixed);
            out
        }
    }
}

/// In-place form of [`on_device_init`]: rewrites the device's carried
/// model into `ŵ_m^t` directly, reading the device's and the edge's
/// parameter planes and cached norms for the similarity, so no
/// per-device flatten or model allocation happens.
///
/// A blend (every policy but `KeepLocal` and `EdgeModel`, whose load
/// sets the norm it copies) leaves the device without a cached norm: in
/// the simulation step each initialised device immediately trains, and
/// training recomputes it. Callers that need the norm before a train
/// must call [`Device::refresh_flat`] themselves.
pub fn on_device_init_into(
    policy: OnDevicePolicy,
    device: &mut Device,
    edge_model: &Sequential,
    edge_flat: &[f32],
    edge_norm_sq: f32,
) {
    match policy {
        OnDevicePolicy::EdgeModel => device.load_flat(edge_flat, edge_norm_sq),
        OnDevicePolicy::KeepLocal => {}
        OnDevicePolicy::Average => {
            blend_into(&mut device.model, edge_model, 0.5);
            device.invalidate_flat();
        }
        OnDevicePolicy::FixedAlpha { alpha } => {
            assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
            blend_into(&mut device.model, edge_model, alpha);
            device.invalidate_flat();
        }
        OnDevicePolicy::SimilarityWeighted => {
            let u = similarity_utility_cached(
                device.flat(),
                device.flat_norm_sq(),
                edge_flat,
                edge_norm_sq,
            );
            let (edge_w, _local_w) = aggregation_weights(u);
            blend_into(&mut device.model, edge_model, edge_w);
            device.invalidate_flat();
        }
        OnDevicePolicy::UnclippedSimilarity => {
            // Ablation: use the raw cosine in the Eq. 9 weights. The raw
            // value can be negative; we clamp at −0.5 so the 1/(1+c)
            // weight stays bounded, which still permits the noisy
            // extrapolation the clipping of Eq. 8 is designed to prevent.
            let c = raw_cosine_cached(
                device.flat(),
                device.flat_norm_sq(),
                edge_flat,
                edge_norm_sq,
            )
            .max(-0.5);
            let edge_w = (1.0 / (1.0 + c)).min(2.0);
            let local_w = 1.0 - edge_w;
            let edge = edge_model.params();
            for (dv, &ev) in device.model.params_mut().iter_mut().zip(edge) {
                *dv = edge_w * ev + local_w * *dv;
            }
            device.invalidate_flat();
        }
    }
}

/// Edge aggregation (Eq. 6): FedAvg of uploaded local models, weighted by
/// per-device sample counts `d_m`.
pub fn edge_aggregate(models: &[&Sequential], sample_counts: &[usize]) -> Sequential {
    let weights: Vec<f32> = sample_counts.iter().map(|&d| d as f32).collect();
    weighted_average(models, &weights)
}

/// Cloud aggregation (Eq. 7): FedAvg of edge models weighted by the
/// participating-sample totals `d̂_n` accumulated over the sync window.
/// Edges whose window saw no participation get weight zero unless all
/// are zero, in which case a plain average is used.
///
/// Window totals are `f64`: they accumulate `usize` sample counts over
/// a whole sync window, and an `f32` accumulator silently loses integer
/// precision past 2^24 participating samples. The weights are
/// normalised in `f64` and cast to `f32` only at the final
/// per-model-weight boundary, the same boundary [`cloud_aggregate_into`]
/// casts at, so the two stay bit-identical.
pub fn cloud_aggregate(edge_models: &[&Sequential], window_samples: &[f64]) -> Sequential {
    assert_eq!(edge_models.len(), window_samples.len(), "weights mismatch");
    assert!(!edge_models.is_empty(), "cloud aggregation needs edges");
    let total: f64 = window_samples.iter().sum();
    assert!(
        total >= 0.0 && window_samples.iter().all(|w| w.is_finite() && *w >= 0.0),
        "window samples must be non-negative finite values"
    );
    let norm: Vec<f32> = if total > 0.0 {
        window_samples.iter().map(|&w| (w / total) as f32).collect()
    } else {
        // Mirror the `_into` uniform path bitwise: the total is the same
        // iterated f64 sum of ones.
        let uniform_total: f64 = window_samples.iter().map(|_| 1.0f64).sum();
        window_samples
            .iter()
            .map(|_| (1.0 / uniform_total) as f32)
            .collect()
    };
    // Accumulate exactly like `weighted_average`, but with the weights
    // already normalised (normalising again in f32 would diverge from
    // the f64-normalised hot path).
    let d = edge_models[0].param_count();
    let mut acc = vec![0.0f32; d];
    let mut buf = Vec::with_capacity(d);
    for (m, &s) in edge_models.iter().zip(&norm) {
        flatten_into(m, &mut buf);
        assert_eq!(buf.len(), d, "model architecture mismatch");
        for (a, &x) in acc.iter_mut().zip(&buf) {
            *a += s * x;
        }
    }
    let mut out = edge_models[0].clone();
    unflatten(&mut out, &acc);
    out
}

/// In-place form of [`edge_aggregate`] over `(model, sample_count)`
/// pairs; `dst` is overwritten with the weighted average. The clonable
/// iterator is walked twice (weight total, then accumulation), exactly
/// mirroring the reference's normalisation and per-model order.
pub fn edge_aggregate_into<'a, I>(dst: &mut Sequential, parts: I)
where
    I: Iterator<Item = (&'a Sequential, usize)> + Clone,
{
    let total: f32 = parts.clone().map(|(_, d)| d as f32).sum();
    assert!(total > 0.0, "edge aggregation needs samples");
    accumulate_pairs(dst, parts.map(|(m, d)| (m, d as f32 / total)));
}

/// `dst ← Σ wᵢ · mᵢ` with pairwise-fused accumulation: the per-element
/// add order is exactly the sequential [`axpy`] order (so results stay
/// bit-identical to the allocating references), but models are consumed
/// two at a time through [`axpy2`] to halve the traffic over `dst`.
fn accumulate_pairs<'a, I>(dst: &mut Sequential, mut scaled: I)
where
    I: Iterator<Item = (&'a Sequential, f32)>,
{
    zero_params(dst);
    loop {
        match (scaled.next(), scaled.next()) {
            (Some((m0, w0)), Some((m1, w1))) => axpy2(dst, w0, m0, w1, m1),
            (Some((m0, w0)), None) => {
                axpy(dst, w0, m0);
                break;
            }
            (None, _) => break,
        }
    }
}

/// In-place form of [`cloud_aggregate`] over `(model, window_samples)`
/// pairs, with the same uniform fallback when every window is empty.
/// Window weights accumulate and normalise in `f64` (see
/// [`cloud_aggregate`]); the cast to `f32` happens only on the final
/// normalised per-model weight.
pub fn cloud_aggregate_into<'a, I>(dst: &mut Sequential, parts: I)
where
    I: Iterator<Item = (&'a Sequential, f64)> + Clone,
{
    let total: f64 = parts.clone().map(|(_, w)| w).sum();
    if total > 0.0 {
        accumulate_pairs(dst, parts.map(|(m, w)| (m, (w / total) as f32)));
    } else {
        // Mirror the reference's uniform path bitwise: the total is the
        // same iterated f64 sum of ones.
        let uniform_total: f64 = parts.clone().map(|_| 1.0f64).sum();
        assert!(uniform_total > 0.0, "cloud aggregation needs edges");
        accumulate_pairs(dst, parts.map(|(m, _)| (m, (1.0 / uniform_total) as f32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_nn::layers::Dense;
    use middle_nn::params::unflatten;
    use middle_tensor::random::rng;

    fn model_with(vals: f32) -> Sequential {
        let mut m = Sequential::new().push(Dense::new(3, 2, &mut rng(1)));
        let d = m.param_count();
        unflatten(&mut m, &vec![vals; d]);
        m
    }

    fn model_from(vals: &[f32]) -> Sequential {
        let mut m = Sequential::new().push(Dense::new(3, 2, &mut rng(1)));
        unflatten(&mut m, vals);
        m
    }

    #[test]
    fn edge_model_policy_ignores_local() {
        let e = model_with(1.0);
        let l = model_with(9.0);
        let init = on_device_init(OnDevicePolicy::EdgeModel, &e, &l);
        assert_eq!(flatten(&init), flatten(&e));
    }

    #[test]
    fn keep_local_policy_ignores_edge() {
        let e = model_with(1.0);
        let l = model_with(9.0);
        let init = on_device_init(OnDevicePolicy::KeepLocal, &e, &l);
        assert_eq!(flatten(&init), flatten(&l));
    }

    #[test]
    fn average_policy_is_midpoint() {
        let e = model_with(2.0);
        let l = model_with(4.0);
        let init = on_device_init(OnDevicePolicy::Average, &e, &l);
        assert!(flatten(&init).iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn similarity_weighted_identical_models_is_equal_blend() {
        // U(w, w) = 1 ⇒ weights (1/2, 1/2) ⇒ result equals both inputs.
        let e = model_with(3.0);
        let init = on_device_init(OnDevicePolicy::SimilarityWeighted, &e, &e);
        assert!(flatten(&init)
            .iter()
            .zip(flatten(&e))
            .all(|(&a, b)| (a - b).abs() < 1e-6));
    }

    #[test]
    fn similarity_weighted_opposed_models_is_pure_edge() {
        // cos = −1 ⇒ U = 0 ⇒ edge weight 1.
        let e = model_with(2.0);
        let l = model_with(-2.0);
        let init = on_device_init(OnDevicePolicy::SimilarityWeighted, &e, &l);
        assert_eq!(flatten(&init), flatten(&e));
    }

    #[test]
    fn similarity_weighted_edge_always_dominates() {
        let d = model_with(0.0).param_count();
        let e = model_from(&(0..d).map(|i| (i as f32 * 0.7).sin()).collect::<Vec<_>>());
        let l = model_from(&(0..d).map(|i| (i as f32 * 0.3).cos()).collect::<Vec<_>>());
        let init = on_device_init(OnDevicePolicy::SimilarityWeighted, &e, &l);
        // ŵ − w_m must be closer to zero through the edge side: verify
        // the blend coefficient by solving one coordinate.
        let (fe, fl, fi) = (flatten(&e), flatten(&l), flatten(&init));
        let mut alpha_est = None;
        for i in 0..d {
            let denom = fe[i] - fl[i];
            if denom.abs() > 1e-3 {
                alpha_est = Some((fi[i] - fl[i]) / denom);
                break;
            }
        }
        let alpha = alpha_est.expect("some coordinate differs");
        assert!((0.5 - 1e-4..=1.0 + 1e-4).contains(&alpha), "alpha {alpha}");
    }

    #[test]
    fn fixed_alpha_matches_blend_semantics() {
        let e = model_with(10.0);
        let l = model_with(0.0);
        let init = on_device_init(OnDevicePolicy::FixedAlpha { alpha: 0.3 }, &e, &l);
        assert!(flatten(&init).iter().all(|&v| (v - 3.0).abs() < 1e-5));
    }

    #[test]
    fn unclipped_can_extrapolate_past_edge_model() {
        // Anti-aligned local model ⇒ raw cosine < 0 ⇒ edge weight > 1.
        let e = model_with(1.0);
        let l = model_with(-1.0);
        let init = on_device_init(OnDevicePolicy::UnclippedSimilarity, &e, &l);
        // cos = −1 clamped to −0.5 ⇒ edge_w = 2, local_w = −1 ⇒ value 3.
        assert!(flatten(&init).iter().all(|&v| (v - 3.0).abs() < 1e-5));
    }

    fn mk_device_with(id: usize, flat_vals: &[f32]) -> Device {
        use middle_data::synthetic::{SyntheticSource, Task};
        let src = SyntheticSource::new(Task::Mnist, 3);
        let data = src.generate_balanced(10, id as u64);
        let mut m = middle_nn::zoo::logistic(&Task::Mnist.spec(), &mut rng(id as u64));
        unflatten(&mut m, flat_vals);
        Device::new(id, data, m, 50 + id as u64)
    }

    #[test]
    fn in_place_on_device_init_matches_reference_bitwise() {
        use middle_data::synthetic::Task;
        use middle_tensor::ops::dot_slices;
        let spec = Task::Mnist.spec();
        let mut edge = middle_nn::zoo::logistic(&spec, &mut rng(70));
        let d = edge.param_count();
        let edge_vals: Vec<f32> = (0..d).map(|i| ((i * 13 + 1) as f32).sin()).collect();
        unflatten(&mut edge, &edge_vals);
        let edge_flat = flatten(&edge);
        let edge_norm = dot_slices(&edge_flat, &edge_flat);
        let local_vals: Vec<f32> = (0..d).map(|i| ((i * 7 + 3) as f32).cos()).collect();
        for policy in [
            OnDevicePolicy::EdgeModel,
            OnDevicePolicy::KeepLocal,
            OnDevicePolicy::Average,
            OnDevicePolicy::FixedAlpha { alpha: 0.3 },
            OnDevicePolicy::SimilarityWeighted,
            OnDevicePolicy::UnclippedSimilarity,
        ] {
            let mut device = mk_device_with(0, &local_vals);
            let reference = on_device_init(policy, &edge, &device.model);
            on_device_init_into(policy, &mut device, &edge, &edge_flat, edge_norm);
            let (fr, fd) = (flatten(&reference), flatten(&device.model));
            for (i, (x, y)) in fr.iter().zip(&fd).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{policy:?} param {i}");
            }
        }
    }

    #[test]
    fn in_place_edge_and_cloud_aggregates_match_reference_bitwise() {
        let a = model_with(0.5);
        let b = model_with(-3.0);
        let c = model_with(7.25);
        let refs = [&a, &b, &c];

        let reference = edge_aggregate(&refs, &[30, 10, 5]);
        let mut dst = model_with(99.0);
        edge_aggregate_into(&mut dst, refs.iter().copied().zip([30usize, 10, 5]));
        assert_eq!(flatten(&reference), flatten(&dst));

        let reference = cloud_aggregate(&refs, &[4.0, 0.0, 12.0]);
        let mut dst = model_with(99.0);
        cloud_aggregate_into(&mut dst, refs.iter().copied().zip([4.0f64, 0.0, 12.0]));
        assert_eq!(flatten(&reference), flatten(&dst));

        // Uniform fallback when no window saw participation.
        let reference = cloud_aggregate(&refs, &[0.0, 0.0, 0.0]);
        let mut dst = model_with(99.0);
        cloud_aggregate_into(&mut dst, refs.iter().copied().zip([0.0f64, 0.0, 0.0]));
        assert_eq!(flatten(&reference), flatten(&dst));
    }

    #[test]
    fn cloud_window_weights_survive_past_f32_integer_precision() {
        // An f32 window counter freezes at 2^24: adding a typical
        // per-step sample total no longer changes it, so an edge's later
        // participation would be silently erased from its d̂_n weight.
        let frozen = (1u64 << 24) as f32;
        assert_eq!(frozen + 1.0, frozen, "f32 freeze premise");
        // The f64 window path keeps accumulating and normalises exactly.
        let a = model_with(0.0);
        let b = model_with(8.0);
        let big = (1u64 << 24) as f64;
        let windows = [big, 3.0 * big + 1_048_576.0];
        let agg = cloud_aggregate(&[&a, &b], &windows);
        let expected = 8.0 * ((windows[1] / (windows[0] + windows[1])) as f32);
        assert!(flatten(&agg).iter().all(|&v| (v - expected).abs() < 1e-5));
        // The extra 2^20 samples must show up in the weight (0.75 would
        // mean they were lost).
        assert!(expected / 8.0 > 0.753);
    }

    #[test]
    fn edge_aggregate_weights_by_samples() {
        let a = model_with(0.0);
        let b = model_with(10.0);
        let agg = edge_aggregate(&[&a, &b], &[30, 10]);
        assert!(flatten(&agg).iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn cloud_aggregate_falls_back_to_uniform() {
        let a = model_with(0.0);
        let b = model_with(4.0);
        let agg = cloud_aggregate(&[&a, &b], &[0.0, 0.0]);
        assert!(flatten(&agg).iter().all(|&v| (v - 2.0).abs() < 1e-6));
        let weighted = cloud_aggregate(&[&a, &b], &[1.0, 3.0]);
        assert!(flatten(&weighted).iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }
}
