//! Property-test battery gating the compression plane (DESIGN.md §11):
//! the operator-level contracts (error bounds, unbiasedness, top-K
//! ordering, bitwise conservation, lossless round-trips, the payload
//! formula) and the kernel oracle battery: `compress_delta` against the
//! sequential reference it replaced, and a batch against its jobs
//! compressed one by one. The plane inside a run — the byte ledger on
//! clean and hostile lossy runs, resumes with live error-feedback
//! residuals, no checkpoint block while inert — is held by the
//! differential matrix (`matrix.rs`).

use middle_core::compress::{
    apply_sparse_delta, compress_delta, compressed_payload_bytes, keep_count, CompressJob,
    CompressionPlane, Sender,
};
use middle_core::{CompressionConfig, RoundingMode};
use middle_tensor::random::rng;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

// The sequential compressor the batch kernels replaced — the crate's
// own `#[cfg(test)]` oracle — included by path so this battery holds
// the public kernel to it.
#[path = "../src/compress/reference.rs"]
mod reference;

fn compress(
    delta: &[f64],
    bits: u32,
    k: usize,
    mode: RoundingMode,
    seed: u64,
) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
    let mut r = rng(seed);
    let (mut kept, mut sent, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    compress_delta(
        delta,
        bits,
        k,
        mode,
        &mut r,
        &mut kept,
        &mut sent,
        &mut residual,
    );
    (kept, sent, residual)
}

/// The quantization grid step for the kept coordinates of `delta`.
fn grid_step(delta: &[f64], kept: &[u32], bits: u32) -> f64 {
    let vals: Vec<f64> = kept.iter().map(|&i| delta[i as usize]).collect();
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let levels = 1u64 << bits;
    (hi - lo) / (levels - 1) as f64
}

fn deltas(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nearest rounding lands each transmitted value within `step / 2`
    /// of the true delta; stochastic rounding within `step`. The
    /// exact-value fallback only tightens the bound (error 0).
    #[test]
    fn round_trip_error_is_bounded_by_the_grid_step(
        delta in deltas(40),
        bits in 1u32..9,
        seed in 0u64..1000,
    ) {
        for (mode, factor) in [(RoundingMode::Nearest, 0.5), (RoundingMode::Stochastic, 1.0)] {
            let (kept, sent, _) = compress(&delta, bits, delta.len(), mode, seed);
            let step = grid_step(&delta, &kept, bits);
            let bound = factor * step * (1.0 + 1e-12) + f64::EPSILON;
            for (&i, &t) in kept.iter().zip(&sent) {
                let err = (t - delta[i as usize]).abs();
                prop_assert!(
                    err <= bound,
                    "mode {mode:?}: |{t} - {}| = {err} > {bound}",
                    delta[i as usize]
                );
            }
        }
    }

    /// Top-K keeps exactly the `k` largest-magnitude coordinates: no
    /// dropped coordinate may exceed any kept one in magnitude, the
    /// indices come back ascending, and exactly `k` survive.
    #[test]
    fn top_k_keeps_the_largest_magnitudes(
        delta in deltas(30),
        k in 1usize..30,
    ) {
        let (kept, sent, _) = compress(&delta, 32, k, RoundingMode::Nearest, 0);
        prop_assert_eq!(kept.len(), k.min(delta.len()));
        prop_assert_eq!(sent.len(), kept.len());
        prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "indices not ascending");
        let min_kept = kept
            .iter()
            .map(|&i| delta[i as usize].abs())
            .fold(f64::INFINITY, f64::min);
        for (i, &v) in delta.iter().enumerate() {
            if !kept.contains(&(i as u32)) {
                prop_assert!(
                    v.abs() <= min_kept,
                    "dropped |{v}| > smallest kept |{min_kept}|"
                );
            }
        }
    }

    /// The conservation contract: for every coordinate the transmitted
    /// value plus the residual reconstructs the delta *bitwise* in f64
    /// (dropped coordinates carry their whole delta in the residual).
    #[test]
    fn transmitted_plus_residual_reconstructs_delta_bitwise(
        delta in deltas(25),
        bits in 1u32..33,
        k in 1usize..25,
        seed in 0u64..1000,
    ) {
        let mode = if seed % 2 == 0 { RoundingMode::Stochastic } else { RoundingMode::Nearest };
        let (kept, sent, residual) = compress(&delta, bits, k, mode, seed);
        prop_assert_eq!(residual.len(), delta.len());
        let mut sent_dense = vec![0.0f64; delta.len()];
        for (&i, &t) in kept.iter().zip(&sent) {
            sent_dense[i as usize] = t;
        }
        for i in 0..delta.len() {
            let recon = sent_dense[i] + residual[i];
            prop_assert!(
                recon.to_bits() == delta[i].to_bits(),
                "coordinate {i}: {} + {} != {}",
                sent_dense[i], residual[i], delta[i]
            );
        }
    }

    /// Full-width, full-density settings round-trip bitwise: the
    /// transmitted values equal the delta and applying them to a zero
    /// reference reproduces the delta's f32 cast exactly.
    #[test]
    fn lossless_settings_round_trip_bitwise(delta in deltas(20), seed in 0u64..100) {
        let (kept, sent, residual) =
            compress(&delta, 32, delta.len(), RoundingMode::Stochastic, seed);
        prop_assert_eq!(kept.len(), delta.len());
        for ((&i, &t), &v) in kept.iter().zip(&sent).zip(&delta) {
            prop_assert_eq!(t.to_bits(), v.to_bits());
            prop_assert_eq!((t + residual[i as usize]).to_bits(), v.to_bits());
        }
        let reference = vec![0.0f32; delta.len()];
        let mut out = Vec::new();
        apply_sparse_delta(&reference, &kept, &sent, &mut out);
        for (o, &v) in out.iter().zip(&delta) {
            prop_assert_eq!(o.to_bits(), (v as f32).to_bits());
        }
    }

    /// The analytic payload formula is monotone in `k` and `bits` away
    /// from the dense corner (where the index stream and header drop
    /// out), hits exactly `4 · d` at the corner, and `keep_count` stays
    /// within `1..=d`.
    #[test]
    fn payload_formula_is_monotone_and_dense_at_the_corner(
        d in 1usize..10_000,
        k in 1usize..10_000,
        bits in 2u32..32,
        frac in 0.0001f64..1.0,
    ) {
        let k = k.min(d);
        let p = compressed_payload_bytes(d, k, bits);
        // Monotone in bits below full width (same k, same index bits).
        prop_assert!(p >= compressed_payload_bytes(d, k, bits - 1));
        // Monotone in k while the index stream is present.
        if k > 1 && k < d {
            prop_assert!(p >= compressed_payload_bytes(d, k - 1, bits));
        }
        prop_assert_eq!(compressed_payload_bytes(d, d, 32), 4 * d as u64);
        let keep = keep_count(d, frac);
        prop_assert!((1..=d).contains(&keep), "keep_count {keep} outside 1..={d}");
        prop_assert_eq!(keep_count(d, 1.0), d);
    }
}

/// QSGD stochastic rounding is unbiased: a value sitting 30% of the way
/// between two grid points rounds up with probability 0.30, so the
/// empirical mean of the transmitted value converges to the true value.
#[test]
fn stochastic_rounding_is_unbiased() {
    // bits = 1 over [0, 1] gives a two-point grid with step 1, so the
    // middle coordinate (0.25) transmits as 1.0 w.p. 0.25 and 0.0 w.p.
    // 0.75. The value must be dyadic so that `t + r` is exact for both
    // grid points — otherwise the conservation fallback transmits the
    // exact value and the distribution collapses.
    let delta = [0.0, 1.0, 0.25];
    let mut r = rng(42);
    let (mut kept, mut sent, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let trials = 20_000;
    let mut sum = 0.0f64;
    for _ in 0..trials {
        compress_delta(
            &delta,
            1,
            3,
            RoundingMode::Stochastic,
            &mut r,
            &mut kept,
            &mut sent,
            &mut residual,
        );
        sum += sent[2];
    }
    let mean = sum / f64::from(trials);
    // 5 sigma of a Bernoulli(0.25) mean over 20k trials is ~0.015.
    assert!(
        (mean - 0.25).abs() < 0.02,
        "empirical mean {mean} too far from 0.25"
    );
}

// ---- kernel oracle battery --------------------------------------------

/// Everything `compress_delta` produces, as bits.
type Outputs = (Vec<u32>, Vec<u64>, Vec<u64>, [u64; 4]);

fn run_kernel(delta: &[f64], bits: u32, k: usize, mode: RoundingMode, oracle: bool) -> Outputs {
    let mut r = rng(17);
    let (mut kept, mut sent, mut residual) = (vec![9], vec![9.0], vec![9.0]);
    let kernel = if oracle {
        reference::compress_delta_reference
    } else {
        compress_delta
    };
    kernel(
        delta,
        bits,
        k,
        mode,
        &mut r,
        &mut kept,
        &mut sent,
        &mut residual,
    );
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (kept, to_bits(&sent), to_bits(&residual), r.state())
}

/// Magnitudes the total order must rank exactly: both zeros, NaNs of
/// both signs and two payloads, infinities, the subnormal range and its
/// edge, and repeated finite magnitudes of both signs (ties).
const SPECIALS: [f64; 18] = [
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -5e-324,
    1e-310,
    -1e-310,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    0.25,
    -0.25,
    0.25,
    1.0,
    -1.0,
    f64::MAX,
];

/// A delta of length `d` in one of several shapes, from `r`.
fn hostile_delta(d: usize, shape: usize, r: &mut StdRng) -> Vec<f64> {
    let payload_nan = f64::from_bits(0x7ff0_0000_0000_0001);
    (0..d)
        .map(|i| match shape {
            // Specials, ties and plain values mixed.
            0 => match r.gen_range(0..3) {
                0 => SPECIALS[r.gen_range(0..SPECIALS.len())],
                1 => [0.5, -0.5, 1e-300, payload_nan][r.gen_range(0..4)],
                _ => r.gen::<f64>() * 2.0 - 1.0,
            },
            // Plain values.
            1 => (r.gen::<f64>() - 0.5) * 0.02,
            // Every coordinate tied.
            2 => -0.125,
            // Only zeros of both signs.
            3 => [0.0, -0.0][i % 2],
            // Large values on exactly the coordinates a strided sample
            // reads: the threshold guess gathers too few.
            4 => {
                if i % (d / 512).max(1) == 0 {
                    1e3 + i as f64
                } else {
                    1e-3 * i as f64
                }
            }
            // Magnitudes rising with the index.
            _ => i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 },
        })
        .collect()
}

/// `compress_delta` equals the sequential reference — kept indices,
/// transmitted values, residual bits and the RNG afterwards — on hostile
/// deltas at every `k` edge, widths {1, 8, 31, 32} and both roundings.
#[test]
fn compress_delta_matches_the_sequential_reference() {
    let mut r = rng(2023);
    let mut cases = 0;
    for d in [1, 2, 3, 7, 64, 65, 700, 1500, 6570] {
        for shape in 0..6 {
            let delta = hostile_delta(d, shape, &mut r);
            let mut ks = vec![1, d.saturating_sub(1).max(1), d, d + 3, 0];
            ks.push(r.gen_range(1..=d));
            ks.push(keep_count(d, 0.1));
            for &k in &ks {
                for bits in [1, 8, 31, 32] {
                    for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
                        let fast = run_kernel(&delta, bits, k, mode, false);
                        let oracle = run_kernel(&delta, bits, k, mode, true);
                        assert_eq!(
                            fast, oracle,
                            "d {d}, shape {shape}, k {k}, bits {bits}, {mode:?}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 9 * 6 * 7 * 4 * 2);
}

/// One round of uploads to compress: `(sender, new, reference, received)`.
type Round = Vec<(Sender, Vec<f32>, Vec<f32>, bool)>;

/// Mixed jobs over a few devices and edges: plain uploads, a lost one
/// (no payload), an unchanged model (a zero delta: no draws until a
/// residual builds up) and one with an infinite coordinate (a
/// non-finite range: no draws).
fn mixed_round(d: usize, r: &mut StdRng) -> Round {
    let model = |r: &mut StdRng| (0..d).map(|_| r.gen::<f32>() - 0.5).collect::<Vec<f32>>();
    let base = model(r);
    let mut jobs: Round = Vec::new();
    for m in 0..4 {
        jobs.push((Sender::Device(m), model(r), base.clone(), m != 2));
    }
    jobs.push((Sender::Device(4), base.clone(), base.clone(), true));
    let mut inf = model(r);
    inf[d / 3] = f32::INFINITY;
    jobs.push((Sender::Device(5), inf, base.clone(), true));
    for n in 0..2 {
        jobs.push((Sender::Edge(n), model(r), base.clone(), n == 0));
    }
    jobs
}

/// Compresses `round` on `plane` — as one batch, or one job per call —
/// and returns the payloads as bits (empty for lost uploads).
fn compress_round(plane: &mut CompressionPlane, round: &Round, one_by_one: bool) -> Vec<Vec<u32>> {
    let mut payloads = vec![Vec::new(); round.len()];
    let mut jobs: Vec<CompressJob> = (round.iter().zip(&mut payloads))
        .map(
            |((sender, new, reference, received), payload)| CompressJob {
                sender: *sender,
                new,
                reference,
                payload: received.then_some(payload),
            },
        )
        .collect();
    if one_by_one {
        for job in jobs.chunks_mut(1) {
            plane.compress_batch(job);
        }
    } else {
        plane.compress_batch(&mut jobs);
    }
    drop(jobs);
    (payloads.iter())
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A batch equals its jobs compressed one after another — payloads,
/// residuals and the stream position — over mixed jobs whose draw
/// counts differ (zero-draw jobs among them, so each job's offset into
/// the batch's uniforms matters), for three rounds so residuals feed
/// back, under every rounding × width setting.
#[test]
fn batch_equals_its_jobs_one_by_one() {
    let d = 700;
    for mode in [RoundingMode::Stochastic, RoundingMode::Nearest] {
        for (bits, top_frac) in [(8, 0.1), (1, 0.5), (4, 1.0), (32, 0.3)] {
            let cfg = CompressionConfig {
                enabled: true,
                quantize_bits: bits,
                top_frac,
                rounding: mode,
            };
            let what = format!("{cfg:?}");
            let mut batch = CompressionPlane::new(cfg.clone(), 6, 2, d, 5);
            let mut single = CompressionPlane::new(cfg, 6, 2, d, 5);
            let mut r = rng(99);
            for round in 0..3 {
                let jobs = mixed_round(d, &mut r);
                assert_eq!(
                    compress_round(&mut batch, &jobs, false),
                    compress_round(&mut single, &jobs, true),
                    "{what}, round {round}: payloads"
                );
                assert_eq!(
                    serde_json::to_string(&batch.state_checkpoint()).unwrap(),
                    serde_json::to_string(&single.state_checkpoint()).unwrap(),
                    "{what}, round {round}: residuals and RNG"
                );
            }
        }
    }
}
