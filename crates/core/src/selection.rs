//! In-edge device selection (paper §4.3, Eqs. 10–12, plus baselines).
//!
//! The hot path is allocation-free and serial: one pass over the
//! candidates draws each tie-break key and reads each score into a
//! caller-owned [`SelectionScratch`], and the top-k cut uses an O(n)
//! partial partition instead of a full sort. Scoring is not parallel
//! here because in the simulation a score is a lookup — cached per
//! device ([`crate::device::Device::cloud_score`]) and per broadcast
//! version ([`crate::population::Population::version_scores`]); the
//! fused identity-based kernel behind those caches
//! ([`update_similarity`], over the cached flat views) runs in the
//! training job and in the step's refresh pre-pass, which is where the
//! parallelism lives. The `*_reference` functions keep the original
//! allocating implementations, rescoring from scratch, as crate-private
//! oracles: `Simulation::check_invariants` holds the caches to the
//! reference scorer, and the simulation's kernel-pair harness holds
//! each selection of a hostile round to the full-sort selection.

use crate::algorithms::SelectionPolicy;
use crate::device::Device;
use crate::similarity::similarity_utility;
use middle_nn::params::flatten;
use middle_tensor::ops::{combine_cosine, dot_slices};
use rand::rngs::StdRng;
use rand::Rng;

/// Reusable buffers for [`select_devices_scored`]; create once and pass
/// to every call so steady-state selection performs no heap allocation.
#[derive(Default)]
pub struct SelectionScratch {
    scored: Vec<(f32, u32, usize)>,
}

impl SelectionScratch {
    /// Creates an empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Candidate score functions for [`select_devices_scored`] (and its
/// full-sort oracle): each takes a device id and returns the policy
/// score. The simulation supplies closures that read the score caches —
/// a resident device's own, a virtualized stub's per-version one. Score
/// functions consume no randomness; each is called once per candidate,
/// in candidate order.
pub struct CandidateScorers<'a> {
    /// The MIDDLE update-similarity score `U(w_c, Δw_m)` for device `m`.
    pub similarity: &'a (dyn Fn(usize) -> f32 + Sync),
    /// The Oort statistical utility for device `m` (`+inf` when the
    /// device has never trained).
    pub oort: &'a (dyn Fn(usize) -> f32 + Sync),
    /// The loss-ranked cluster of device `m`, supplied by a
    /// cluster-carrying [`crate::algorithms::AlgorithmPolicy`] when the
    /// policy is [`SelectionPolicy::ClusterGuided`]. `None` collapses
    /// every candidate into one cluster, degrading cluster-guided
    /// selection to a plain Oort-utility top-k.
    pub cluster: Option<&'a (dyn Fn(usize) -> u32 + Sync)>,
}

/// Selects up to `k` devices from `candidates` under `policy`; the
/// winners land in `out` (cleared first), the scores in `scratch`.
///
/// When fewer than `k` candidates are present, all of them are selected —
/// the edge trains with whatever it has (devices can cluster on one edge
/// under high mobility).
pub fn select_devices_scored(
    policy: SelectionPolicy,
    k: usize,
    candidates: &[usize],
    scorers: &CandidateScorers<'_>,
    rng: &mut StdRng,
    scratch: &mut SelectionScratch,
    out: &mut Vec<usize>,
) {
    assert!(k > 0, "K must be positive");
    out.clear();
    if candidates.len() <= k {
        out.extend_from_slice(candidates);
        return;
    }
    if matches!(policy, SelectionPolicy::Random) {
        sample_without_replacement_into(candidates, k, rng, out);
        return;
    }
    // Tie-break keys are drawn in candidate order so the rng stream
    // matches the reference implementation exactly (score functions
    // consume no randomness).
    let score = |m: usize| match policy {
        SelectionPolicy::Random => unreachable!("handled above"),
        SelectionPolicy::LeastSimilarUpdate => -(scorers.similarity)(m),
        SelectionPolicy::MostSimilarUpdate => (scorers.similarity)(m),
        // Never-trained devices get +inf utility: Oort-style
        // exploration of fresh clients, required here because moved
        // devices have no history at the new edge. Cluster-guided
        // selection ranks by the same utility within each cluster.
        SelectionPolicy::OortUtility | SelectionPolicy::ClusterGuided { .. } => (scorers.oort)(m),
    };
    let scored = &mut scratch.scored;
    scored.clear();
    scored.extend(candidates.iter().map(|&m| (score(m), rng.gen::<u32>(), m)));
    if matches!(policy, SelectionPolicy::ClusterGuided { .. }) {
        cluster_round_robin_into(scored, scorers.cluster, k, out);
    } else {
        top_k_into(scored, k, out);
    }
}

/// The MIDDLE selection criterion `U(w_c, Δw_m)` with `Δw_m = w_m − w_c`
/// (Eqs. 10–11): how aligned the device's accumulated update is with the
/// current cloud model.
///
/// Fused, allocation-free form: instead of materialising `Δw_m`, the
/// three quadratic forms of the cosine are recovered from one streaming
/// dot product and the cached squared norms via
/// `dot(c, l−c) = dot(c,l) − ‖c‖²` and
/// `‖l−c‖² = ‖l‖² − 2·dot(c,l) + ‖c‖²`.
/// The subtraction can catastrophically cancel when `l ≈ c`, so the
/// squared delta norm is clamped at zero; exact ties (`l == c` bitwise,
/// i.e. freshly synced devices) still evaluate to exactly 0 utility, the
/// same as the reference path.
pub fn update_similarity(device: &Device, cloud_flat: &[f32], cloud_norm_sq: f32) -> f32 {
    update_similarity_flat(
        device.flat(),
        device.flat_norm_sq(),
        cloud_flat,
        cloud_norm_sq,
    )
}

/// [`update_similarity`] on raw flat parameters: the population plane
/// scores stubs straight off their shared version flats through this
/// entry point, bitwise-identically to a materialised device whose
/// cached flat holds the same values.
pub fn update_similarity_flat(
    local: &[f32],
    local_norm_sq: f32,
    cloud_flat: &[f32],
    cloud_norm_sq: f32,
) -> f32 {
    assert_eq!(local.len(), cloud_flat.len(), "architecture mismatch");
    let cl = dot_slices(cloud_flat, local);
    let dot_c_delta = cl - cloud_norm_sq;
    let delta_norm_sq = (local_norm_sq - 2.0 * cl + cloud_norm_sq).max(0.0);
    combine_cosine(dot_c_delta, cloud_norm_sq, delta_norm_sq).max(0.0)
}

/// Original allocating form of [`update_similarity`] (flatten + explicit
/// `Δw` vector) — the numerical oracle for the fused kernel.
pub(crate) fn update_similarity_reference(device: &Device, cloud_flat: &[f32]) -> f32 {
    update_similarity_reference_flat(&flatten(&device.model), cloud_flat)
}

/// [`update_similarity_reference`] on raw flat parameters (the oracle
/// counterpart of [`update_similarity_flat`]).
pub(crate) fn update_similarity_reference_flat(local: &[f32], cloud_flat: &[f32]) -> f32 {
    assert_eq!(local.len(), cloud_flat.len(), "architecture mismatch");
    let delta: Vec<f32> = local.iter().zip(cloud_flat).map(|(l, c)| l - c).collect();
    similarity_utility(cloud_flat, &delta)
}

/// How far [`update_similarity_flat`] may round away from its oracle on
/// the same parameters. The fused kernel reads `dot(c, Δ)` and `‖Δ‖²`
/// off differences of dot products of magnitude `S = ‖c‖² + ‖l‖²`, so
/// the cosine `dot(c, Δ) / (‖c‖·‖Δ‖)` inherits a rounding of order
/// `ε·S` over `‖c‖·‖Δ‖` and over `‖Δ‖²`. The dots share their
/// summation order, so their errors largely cancel: the factor 16 sits
/// well above what hostile rounds produce (the kernel-pair harness runs
/// this check after every tick). Exact ties (`Δ = 0`) score exactly 0
/// on both paths.
pub(crate) fn update_similarity_tolerance(local: &[f32], cloud_flat: &[f32]) -> f32 {
    let delta: Vec<f32> = local.iter().zip(cloud_flat).map(|(l, c)| l - c).collect();
    let (cc, ll, dd) = (
        dot_slices(cloud_flat, cloud_flat),
        dot_slices(local, local),
        dot_slices(&delta, &delta),
    );
    if dd == 0.0 {
        return 0.0;
    }
    16.0 * f32::EPSILON * (cc + ll) * (1.0 / (cc.sqrt() * dd.sqrt()) + 1.0 / dd)
}

/// Original full-sort selection — the oracle for
/// [`select_devices_scored`], consuming the rng stream identically.
#[cfg(test)]
pub(crate) fn select_devices_reference_scored(
    policy: SelectionPolicy,
    k: usize,
    candidates: &[usize],
    scorers: &CandidateScorers<'_>,
    rng: &mut StdRng,
) -> Vec<usize> {
    assert!(k > 0, "K must be positive");
    if candidates.len() <= k {
        return candidates.to_vec();
    }
    let top_k_by = |score: &dyn Fn(usize) -> f32, rng: &mut StdRng| -> Vec<usize> {
        let mut scored: Vec<(f32, u32, usize)> = candidates
            .iter()
            .map(|&m| (score(m), rng.gen::<u32>(), m))
            .collect();
        // Descending score, random key on ties; NaN sorts last.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, _, m)| m).collect()
    };
    match policy {
        SelectionPolicy::Random => {
            let mut out = Vec::new();
            sample_without_replacement_into(candidates, k, rng, &mut out);
            out
        }
        SelectionPolicy::LeastSimilarUpdate => top_k_by(&|m| -(scorers.similarity)(m), rng),
        SelectionPolicy::MostSimilarUpdate => top_k_by(&|m| (scorers.similarity)(m), rng),
        SelectionPolicy::OortUtility => top_k_by(&|m| (scorers.oort)(m), rng),
        SelectionPolicy::ClusterGuided { .. } => {
            // Same serial key draws as `top_k_by`, then the *shared*
            // round-robin cut — the fast path calls the identical
            // function, so fast == reference holds by construction.
            let mut scored: Vec<(f32, u32, usize)> = candidates
                .iter()
                .map(|&m| ((scorers.oort)(m), rng.gen::<u32>(), m))
                .collect();
            let mut out = Vec::new();
            cluster_round_robin_into(&mut scored, scorers.cluster, k, &mut out);
            out
        }
    }
}

/// Top-`k` cut over pre-scored candidates in O(n): partition with
/// `select_nth_unstable_by`, then order only the winning prefix.
///
/// Ties are broken *randomly* via the pre-drawn `u32` keys: exact ties
/// are common (e.g. every freshly-synced device has `Δw = 0` and hence
/// utility 0), and a deterministic id tie-break would starve high-id
/// devices of participation. The candidate index is a final tie-break so
/// the (vanishingly rare) equal-key case stays deterministic and matches
/// the reference's stable sort over ascending candidate lists.
fn top_k_into(scored: &mut [(f32, u32, usize)], k: usize, out: &mut Vec<usize>) {
    debug_assert!(k < scored.len(), "caller handles the select-all case");
    let cmp = |a: &(f32, u32, usize), b: &(f32, u32, usize)| {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    };
    scored.select_nth_unstable_by(k - 1, cmp);
    let winners = &mut scored[..k];
    winners.sort_unstable_by(cmp);
    out.extend(winners.iter().map(|&(_, _, m)| m));
}

/// FedLECC-style cluster-guided cut ([`SelectionPolicy::ClusterGuided`]):
/// rank every candidate by (score desc, key, id) — the same total order
/// as [`top_k_into`] — then take each cluster's best remaining candidate
/// round-robin (ascending cluster id) until `k` are selected, so every
/// loss stratum stays represented even when one cluster dominates the
/// raw top-k.
///
/// Shared verbatim by the fast and reference selection paths: both draw
/// tie-break keys serially in candidate order and then call this, so the
/// two are identical by construction. Allocates (it is not on the
/// MIDDLE hot path).
fn cluster_round_robin_into(
    scored: &mut [(f32, u32, usize)],
    cluster: Option<&(dyn Fn(usize) -> u32 + Sync)>,
    k: usize,
    out: &mut Vec<usize>,
) {
    debug_assert!(k < scored.len(), "caller handles the select-all case");
    let cmp = |a: &(f32, u32, usize), b: &(f32, u32, usize)| {
        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    };
    scored.sort_unstable_by(cmp);
    let single = |_: usize| 0u32;
    let cluster: &(dyn Fn(usize) -> u32 + Sync) = match cluster {
        Some(c) => c,
        None => &single,
    };
    // Bucket candidates by cluster id (ascending), preserving the score
    // order within each bucket.
    let mut buckets: Vec<(u32, Vec<usize>)> = Vec::new();
    for &(_, _, m) in scored.iter() {
        let c = cluster(m);
        match buckets.binary_search_by_key(&c, |b| b.0) {
            Ok(i) => buckets[i].1.push(m),
            Err(i) => buckets.insert(i, (c, vec![m])),
        }
    }
    let mut cursors = vec![0usize; buckets.len()];
    while out.len() < k {
        let before = out.len();
        for (i, (_, members)) in buckets.iter().enumerate() {
            if out.len() == k {
                break;
            }
            if cursors[i] < members.len() {
                out.push(members[cursors[i]]);
                cursors[i] += 1;
            }
        }
        debug_assert!(out.len() > before, "ran out of candidates before k");
        if out.len() == before {
            break;
        }
    }
}

/// Uniform sample of `k` distinct items (partial Fisher–Yates) appended
/// to `out`.
fn sample_without_replacement_into(
    items: &[usize],
    k: usize,
    rng: &mut StdRng,
    out: &mut Vec<usize>,
) {
    out.extend_from_slice(items);
    for i in 0..k {
        let j = rng.gen_range(i..out.len());
        out.swap(i, j);
    }
    out.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_data::synthetic::{SyntheticSource, Task};
    use middle_nn::params::unflatten;
    use middle_nn::zoo;
    use middle_tensor::random::rng;

    fn mk_devices(n: usize) -> Vec<Device> {
        let src = SyntheticSource::new(Task::Mnist, 3);
        (0..n)
            .map(|id| {
                let data = src.generate_balanced(10, id as u64);
                let model = zoo::logistic(&Task::Mnist.spec(), &mut rng(id as u64));
                Device::new(id, data, model, 100 + id as u64)
            })
            .collect()
    }

    fn set_params(device: &mut Device, flat: &[f32]) {
        unflatten(&mut device.model, flat);
        device.refresh_flat();
    }

    /// Selection over a dense device slice, scored the way the round
    /// scores it: each device's Oort utility and its update similarity
    /// against `cloud` — fused, into one scratch the selector reuses, or
    /// for the `oracle` the reference scorer into the full-sort
    /// selection.
    fn selector<'a>(
        devices: &'a [Device],
        cloud: &'a [f32],
        oracle: bool,
    ) -> impl FnMut(SelectionPolicy, usize, &[usize], &mut StdRng) -> Vec<usize> + 'a {
        let norm = dot_slices(cloud, cloud);
        let mut scratch = SelectionScratch::new();
        move |policy: SelectionPolicy, k: usize, candidates: &[usize], rng: &mut StdRng| {
            let fused = |m: usize| update_similarity(&devices[m], cloud, norm);
            let reference = |m: usize| update_similarity_reference(&devices[m], cloud);
            let similarity: &(dyn Fn(usize) -> f32 + Sync) =
                if oracle { &reference } else { &fused };
            let oort = |m: usize| devices[m].oort_utility.unwrap_or(f32::INFINITY);
            let scorers = CandidateScorers {
                similarity,
                oort: &oort,
                cluster: None,
            };
            if oracle {
                return select_devices_reference_scored(policy, k, candidates, &scorers, rng);
            }
            let mut out = Vec::new();
            select_devices_scored(policy, k, candidates, &scorers, rng, &mut scratch, &mut out);
            out
        }
    }

    #[test]
    fn fewer_candidates_than_k_selects_all() {
        let devices = mk_devices(3);
        let cloud = flatten(&devices[0].model);
        let mut pick = selector(&devices, &cloud, false);
        assert_eq!(
            pick(SelectionPolicy::Random, 5, &[0, 2], &mut rng(1)),
            [0, 2]
        );
    }

    #[test]
    fn random_selection_is_distinct_and_sized() {
        let devices = mk_devices(10);
        let cloud = flatten(&devices[0].model);
        let cands: Vec<usize> = (0..10).collect();
        let mut sel =
            selector(&devices, &cloud, false)(SelectionPolicy::Random, 4, &cands, &mut rng(2));
        assert_eq!(sel.len(), 4);
        sel.sort_unstable();
        sel.dedup();
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn oort_prefers_untrained_then_high_utility() {
        let mut devices = mk_devices(4);
        devices[0].oort_utility = Some(1.0);
        devices[1].oort_utility = Some(5.0);
        devices[2].oort_utility = None; // fresh: infinite utility
        devices[3].oort_utility = Some(3.0);
        let cloud = flatten(&devices[0].model);
        let mut pick = selector(&devices, &cloud, false);
        let sel = pick(SelectionPolicy::OortUtility, 2, &[0, 1, 2, 3], &mut rng(3));
        assert_eq!(sel, [2, 1]);
    }

    #[test]
    fn cluster_guided_takes_each_clusters_best_round_robin() {
        // Utilities rank cluster 0 (devices 0–2) strictly above
        // cluster 1 (devices 3–5); a plain top-k would be all of
        // cluster 0 plus one, the round-robin must alternate.
        let util = [9.0f32, 8.0, 7.0, 1.0, 2.0, 3.0];
        let similarity = |_: usize| 0.0f32;
        let oort = move |m: usize| util[m];
        let cluster = |m: usize| u32::from(m >= 3);
        let scorers = CandidateScorers {
            similarity: &similarity,
            oort: &oort,
            cluster: Some(&cluster),
        };
        let cands: Vec<usize> = (0..6).collect();
        let mut scratch = SelectionScratch::new();
        let mut out = Vec::new();
        select_devices_scored(
            SelectionPolicy::ClusterGuided { clusters: 2 },
            4,
            &cands,
            &scorers,
            &mut rng(3),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, vec![0, 5, 1, 4]);
    }

    #[test]
    fn cluster_guided_fast_matches_reference() {
        let util = [4.0f32, 4.0, 4.0, 2.0, 2.0, 9.0, 1.0, 0.5];
        let similarity = |_: usize| 0.0f32;
        let oort = move |m: usize| util[m];
        let cluster = |m: usize| (m % 3) as u32;
        let scorers = CandidateScorers {
            similarity: &similarity,
            oort: &oort,
            cluster: Some(&cluster),
        };
        let cands: Vec<usize> = (0..8).collect();
        for k in [1, 3, 5, 7] {
            let mut scratch = SelectionScratch::new();
            let mut fast = Vec::new();
            select_devices_scored(
                SelectionPolicy::ClusterGuided { clusters: 3 },
                k,
                &cands,
                &scorers,
                &mut rng(17),
                &mut scratch,
                &mut fast,
            );
            let slow = select_devices_reference_scored(
                SelectionPolicy::ClusterGuided { clusters: 3 },
                k,
                &cands,
                &scorers,
                &mut rng(17),
            );
            assert_eq!(fast, slow, "k={k}");
            assert_eq!(fast.len(), k);
        }
    }

    #[test]
    fn least_similar_picks_low_alignment_devices() {
        let mut devices = mk_devices(3);
        let d = devices[0].model.param_count();
        // Cloud = all ones. Device 0 aligned with cloud (Δ ∝ +cloud),
        // device 1 orthogonal-ish, device 2 anti-aligned (Δ ∝ −cloud,
        // clipped to 0 utility).
        let cloud = vec![1.0f32; d];
        let w0 = vec![2.0f32; d]; // Δ = +1 ⇒ U = 1
        let mut w1 = vec![1.0f32; d];
        for (i, v) in w1.iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.5 } else { -0.5 }; // Δ alternating ⇒ U ≈ 0
        }
        let w2 = vec![0.0f32; d]; // Δ = −1 ⇒ clipped U = 0
        set_params(&mut devices[0], &w0);
        set_params(&mut devices[1], &w1);
        set_params(&mut devices[2], &w2);

        let mut pick = selector(&devices, &cloud, false);
        let sel = pick(
            SelectionPolicy::LeastSimilarUpdate,
            2,
            &[0, 1, 2],
            &mut rng(4),
        );
        // Device 0 (perfectly aligned) must NOT be selected.
        assert!(!sel.contains(&0), "selected {sel:?}");
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn most_similar_is_the_mirror_image() {
        let mut devices = mk_devices(2);
        let d = devices[0].model.param_count();
        let cloud = vec![1.0f32; d];
        set_params(&mut devices[0], &vec![2.0; d]); // aligned
        set_params(&mut devices[1], &vec![0.0; d]); // anti-aligned
        let mut pick = selector(&devices, &cloud, false);
        let least = pick(SelectionPolicy::LeastSimilarUpdate, 1, &[0, 1], &mut rng(5));
        let most = pick(SelectionPolicy::MostSimilarUpdate, 1, &[0, 1], &mut rng(5));
        assert_eq!((least, most), (vec![1], vec![0]));
    }

    #[test]
    fn update_similarity_is_clipped() {
        let mut devices = mk_devices(1);
        let d = devices[0].model.param_count();
        let cloud = vec![1.0f32; d];
        set_params(&mut devices[0], &vec![0.0; d]); // Δ = −cloud
        let norm = dot_slices(&cloud, &cloud);
        assert_eq!(update_similarity(&devices[0], &cloud, norm), 0.0);
        assert_eq!(update_similarity_reference(&devices[0], &cloud), 0.0);
    }

    #[test]
    fn fused_update_similarity_tracks_reference() {
        let mut devices = mk_devices(5);
        let d = devices[0].model.param_count();
        // Independent pseudo-random cloud vector: deltas are far from
        // zero, keeping the identity-based form well conditioned.
        let cloud: Vec<f32> = (0..d).map(|i| ((i * 31 + 7) as f32).sin()).collect();
        let norm = dot_slices(&cloud, &cloud);
        for dev in &devices {
            let fused = update_similarity(dev, &cloud, norm);
            let naive = update_similarity_reference(dev, &cloud);
            assert!((fused - naive).abs() <= 1e-5, "{fused} vs {naive}");
        }
        // Exact tie: a freshly synced device scores exactly zero on both
        // paths (the identity form cancels to ±0 exactly).
        set_params(&mut devices[0], &cloud);
        let norm0 = devices[0].flat_norm_sq();
        assert_eq!(update_similarity(&devices[0], &cloud, norm0), 0.0);
        assert_eq!(update_similarity_reference(&devices[0], &cloud), 0.0);
    }

    #[test]
    fn fast_selection_matches_reference_for_all_policies() {
        let mut devices = mk_devices(12);
        devices[3].oort_utility = Some(2.5);
        devices[7].oort_utility = Some(0.25);
        let cloud = flatten(&devices[0].model);
        let cands: Vec<usize> = (0..12).collect();
        let (mut fast, mut oracle) = (
            selector(&devices, &cloud, false),
            selector(&devices, &cloud, true),
        );
        for policy in [
            SelectionPolicy::Random,
            SelectionPolicy::LeastSimilarUpdate,
            SelectionPolicy::MostSimilarUpdate,
            SelectionPolicy::OortUtility,
        ] {
            for k in [1, 4, 11] {
                let (a, b) = (&mut rng(9), &mut rng(9));
                assert_eq!(fast(policy, k, &cands, a), oracle(policy, k, &cands, b));
                assert_eq!(a.state(), b.state(), "{policy:?} k={k}");
            }
        }
    }

    #[test]
    fn selection_is_deterministic_given_the_same_rng_stream() {
        let devices = mk_devices(6);
        let cloud = flatten(&devices[0].model);
        let cands: Vec<usize> = (0..6).collect();
        let mut pick = selector(&devices, &cloud, false);
        let a = pick(SelectionPolicy::LeastSimilarUpdate, 3, &cands, &mut rng(1));
        let b = pick(SelectionPolicy::LeastSimilarUpdate, 3, &cands, &mut rng(1));
        assert_eq!(a, b, "same seed, same selection");
    }

    #[test]
    fn exact_ties_are_broken_randomly_not_by_id() {
        // All devices identical (same model) ⇒ all scores tie; over many
        // draws every device must get selected sometimes.
        let devices = mk_devices(1);
        let base = devices.into_iter().next().unwrap();
        let devices: Vec<Device> = (0..8)
            .map(|id| Device::new(id, base.data().clone(), base.model.clone(), 7))
            .collect();
        let cloud = flatten(&devices[0].model);
        let cands: Vec<usize> = (0..8).collect();
        let mut seen = vec![false; 8];
        let (mut r, mut pick) = (rng(5), selector(&devices, &cloud, false));
        for _ in 0..40 {
            for m in pick(SelectionPolicy::LeastSimilarUpdate, 2, &cands, &mut r) {
                seen[m] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "tie-break starved a device: {seen:?}"
        );
    }

    #[test]
    fn reusing_scratch_keeps_results_stable() {
        let devices = mk_devices(9);
        let cloud = flatten(&devices[0].model);
        let cands: Vec<usize> = (0..9).collect();
        // One selector, one scratch, three rounds.
        let mut pick = selector(&devices, &cloud, false);
        let first = pick(SelectionPolicy::MostSimilarUpdate, 3, &cands, &mut rng(11));
        for _ in 0..2 {
            let again = pick(SelectionPolicy::MostSimilarUpdate, 3, &cands, &mut rng(11));
            assert_eq!(again, first);
        }
    }
}
