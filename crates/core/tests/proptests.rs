//! Property-based tests of the MIDDLE core invariants.

use middle_core::aggregation::on_device_init;
use middle_core::similarity::{aggregation_weights, similarity_utility};
use middle_core::theory::{BoundParams, QuadraticProblem};
use middle_core::{
    Algorithm, OnDevicePolicy, SimCheckpoint, SimConfig, SimError, SimulationBuilder, StepMode,
};
use middle_data::Task;
use middle_nn::layers::Dense;
use middle_nn::params::{flatten, unflatten};
use middle_nn::Sequential;
use middle_tensor::random::rng;
use proptest::prelude::*;

fn model_from(vals: &[f32]) -> Sequential {
    let mut m = Sequential::new().push(Dense::new(3, 2, &mut rng(1)));
    assert_eq!(m.param_count(), vals.len());
    unflatten(&mut m, vals);
    m
}

fn vals() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-5.0f32..5.0, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 8: the similarity utility is always in [0, 1].
    #[test]
    fn utility_is_clipped_to_unit_interval(a in vals(), b in vals()) {
        let u = similarity_utility(&a, &b);
        prop_assert!((0.0..=1.0).contains(&u), "utility {}", u);
    }

    /// Eq. 9: the aggregation weights are a convex pair with the edge
    /// side never below 1/2.
    #[test]
    fn weights_always_dominated_by_edge(u in 0.0f32..=1.0) {
        let (e, l) = aggregation_weights(u);
        prop_assert!((e + l - 1.0).abs() < 1e-6);
        prop_assert!(e >= 0.5 && l >= 0.0);
    }

    /// The Eq. 9 blend is coordinatewise between its two inputs.
    #[test]
    fn similarity_blend_is_between_inputs(a in vals(), b in vals()) {
        let edge = model_from(&a);
        let local = model_from(&b);
        let init = on_device_init(OnDevicePolicy::SimilarityWeighted, &edge, &local);
        for ((&e, &l), &i) in a.iter().zip(&b).zip(&flatten(&init)) {
            let (lo, hi) = if e < l { (e, l) } else { (l, e) };
            prop_assert!(i >= lo - 1e-4 && i <= hi + 1e-4);
        }
    }

    /// FixedAlpha at the endpoints recovers the pure inputs.
    #[test]
    fn fixed_alpha_endpoints(a in vals(), b in vals()) {
        let edge = model_from(&a);
        let local = model_from(&b);
        let all_edge = on_device_init(OnDevicePolicy::FixedAlpha { alpha: 1.0 }, &edge, &local);
        let all_local = on_device_init(OnDevicePolicy::FixedAlpha { alpha: 0.0 }, &edge, &local);
        prop_assert_eq!(flatten(&all_edge), a);
        prop_assert_eq!(flatten(&all_local), b);
    }

    /// Theorem 1 bound: monotone decreasing in t and in P.
    #[test]
    fn bound_monotone(
        beta in 1.0f32..10.0,
        mu_frac in 0.05f32..1.0,
        alpha in 0.05f32..0.95,
        p in 0.05f32..1.0,
        i in 1usize..20,
    ) {
        let params = BoundParams {
            beta,
            mu: beta * mu_frac,
            b: 1.0,
            g2: 4.0,
            local_steps: i,
            alpha,
            p,
            initial_gap: 1.0,
        };
        prop_assert!(params.validate().is_ok());
        prop_assert!(params.bound(10) >= params.bound(1000) - 1e-6);
        let mut hi = params;
        hi.p = (p + 0.4).min(1.0);
        if hi.p > p {
            prop_assert!(hi.bound(100) <= params.bound(100) + 1e-6);
        }
        prop_assert!(params.mobility_derivative() < 0.0);
    }

    /// The quadratic optimum has zero weighted gradient and is a global
    /// minimiser (gap >= 0 everywhere else).
    #[test]
    fn quadratic_optimum_is_global_min(
        c1 in -3.0f32..3.0, c2 in -3.0f32..3.0,
        a1 in 0.2f32..3.0, a2 in 0.2f32..3.0,
        probe in -5.0f32..5.0,
    ) {
        let q = QuadraticProblem::new(
            vec![a1, a2],
            vec![vec![c1], vec![c2]],
            vec![1.0, 1.0],
        );
        let w = q.optimum();
        let f_opt = q.global_loss(&w);
        prop_assert!(q.global_loss(&[probe]) >= f_opt - 1e-4);
    }
}

/// A tiny dense simulation two ticks in, and its checkpoint text
/// (built once for all cases).
fn tiny_checkpoint() -> &'static (SimConfig, String) {
    static CHECKPOINT: std::sync::OnceLock<(SimConfig, String)> = std::sync::OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.steps = 4;
        let mut sim = SimulationBuilder::new(cfg.clone()).build().unwrap();
        sim.tick(StepMode::Fast);
        sim.tick(StepMode::Fast);
        (cfg, sim.checkpoint().to_json())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Damage inside a checkpoint's packed planes never panics and never
    /// resumes a different run quietly: a foreign byte or a cut through
    /// a value fails `from_json`; a cut of whole values parses, and
    /// `restore` rejects it with a typed mismatch (count ≠ layout).
    #[test]
    fn damaged_checkpoint_planes_fail_typed(
        which in 0usize..1000,
        at in 0usize..100_000,
        with in 0x20u8..0x7f,
        cut in 1usize..40,
    ) {
        let (cfg, json) = tiny_checkpoint();
        // Every `"values":"<hex>"` plane of the document: cloud, edges,
        // devices.
        let planes: Vec<(usize, usize)> = json
            .match_indices("\"values\":\"")
            .map(|(i, key)| {
                let start = i + key.len();
                (start, start + json[start..].find('"').unwrap())
            })
            .collect();
        prop_assert!(planes.len() >= 3);
        let (start, end) = planes[which % planes.len()];
        prop_assert!(end - start >= 8 * 40, "the plane holds a real model");

        let mut damaged = json.clone().into_bytes();
        damaged[start + at % (end - start)] = with;
        let damaged = String::from_utf8(damaged).unwrap();
        let is_hex = matches!(with, b'0'..=b'9' | b'a'..=b'f');
        prop_assert_eq!(SimCheckpoint::from_json(&damaged).is_ok(), is_hex);

        let short = format!("{}{}", &json[..end - cut], &json[end..]);
        match SimCheckpoint::from_json(&short) {
            Err(_) => prop_assert!(cut % 8 != 0),
            Ok(ck) => {
                prop_assert!(cut % 8 == 0);
                let mut sim = SimulationBuilder::new(cfg.clone()).build().unwrap();
                prop_assert!(matches!(
                    sim.restore(&ck),
                    Err(SimError::CheckpointMismatch { .. })
                ));
            }
        }
    }
}
