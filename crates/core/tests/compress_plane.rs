//! Property-test battery gating the compression plane (DESIGN.md §11):
//! the operator-level contracts (error bounds, unbiasedness, top-K
//! ordering, bitwise conservation, lossless round-trips), the
//! byte-accurate accounting reconciliation against the analytic payload
//! formula, and mid-run checkpoint/resume with live error-feedback
//! residuals.

use middle_core::compress::{
    apply_sparse_delta, compress_delta, compressed_payload_bytes, keep_count,
};
use middle_core::{
    Algorithm, CompressionConfig, DelayModel, DropoutModel, RoundingMode, SimConfig, Simulation,
    SimulationBuilder, StepMode,
};
use middle_data::Task as DataTask;
use middle_nn::params::flatten;
use middle_tensor::random::rng;
use proptest::prelude::*;

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

fn lossy_config() -> SimConfig {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 16;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 4;
    cfg.compression = CompressionConfig {
        enabled: true,
        quantize_bits: 8,
        top_frac: 0.25,
        ..CompressionConfig::default()
    };
    cfg
}

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

/// Asserts the byte ledger's reconciliation identity: every uplink
/// transfer (including retransmissions and stale arrivals) was charged
/// exactly the analytic compressed payload, every downlink exactly the
/// dense payload.
fn assert_reconciled(sim: &Simulation) {
    let cfg = sim.config();
    let d = flatten(sim.cloud_model()).len();
    let payload = compressed_payload_bytes(
        d,
        keep_count(d, cfg.compression.top_frac),
        cfg.compression.quantize_bits,
    );
    let dense = 4 * d as u64;
    assert!(
        payload * 4 <= dense,
        "grid cell does not reach 4x: {payload} vs {dense}"
    );
    let comm = sim.comm_stats();
    assert_eq!(comm.device_to_edge_bytes, comm.device_to_edge * payload);
    assert_eq!(comm.edge_to_cloud_bytes, comm.edge_to_cloud * payload);
    assert_eq!(comm.edge_to_device_bytes, comm.edge_to_device * dense);
    assert_eq!(comm.cloud_to_edge_bytes, comm.cloud_to_edge * dense);
    assert_eq!(comm.cloud_to_device_bytes, comm.cloud_to_device * dense);
    assert_eq!(
        comm.payload_total_bytes(),
        (comm.device_to_edge + comm.edge_to_cloud) * payload
            + (comm.edge_to_device + comm.cloud_to_edge + comm.cloud_to_device) * dense
    );
}

/// Clean lossy run: every transfer class reconciles against the
/// analytic formula and the uplink really shrinks ≥ 4×.
#[test]
fn byte_accounting_reconciles_on_a_clean_lossy_run() {
    let mut sim = built(lossy_config());
    for _ in 0..16 {
        sim.tick(StepMode::Fast);
    }
    assert!(sim.comm_stats().device_to_edge > 0);
    assert!(sim.comm_stats().edge_to_cloud > 0);
    assert_reconciled(&sim);
}

/// Faulted lossy run: retransmissions are charged per attempt at the
/// compressed size, deadline-missed uploads at their recorded payload
/// when the stale merge lands, and masked WAN syncs per up edge — the
/// reconciliation identity must still hold exactly.
#[test]
fn byte_accounting_reconciles_under_faults() {
    let mut cfg = lossy_config();
    cfg.faults.dropout = DropoutModel::Iid { p: 0.2 };
    cfg.faults.straggler_delay = DelayModel::Uniform {
        min_s: 0.0,
        max_s: 2.0,
    };
    cfg.faults.deadline_s = 1.5;
    cfg.faults.upload_loss = 0.2;
    cfg.faults.upload_retries = 2;
    cfg.faults.wan_outage = 0.3;
    let mut sim = built(cfg);
    for _ in 0..16 {
        sim.tick(StepMode::Fast);
    }
    let comm = *sim.comm_stats();
    assert!(
        comm.upload_retransmissions > 0 || comm.stale_uploads > 0 || comm.lost_uploads > 0,
        "fault preset produced no fault events; weaken the test"
    );
    assert_reconciled(&sim);
}

/// Mid-run checkpoint/resume with live error-feedback residuals: the
/// snapshot (serialised through JSON like the sweep engine does) must
/// carry nonzero residuals and the compression RNG, and the resumed run
/// must finish bitwise identical to the uninterrupted one.
#[test]
fn checkpoint_resume_with_nonzero_residuals_is_bitwise_identical() {
    let cfg = lossy_config();
    let mut full = built(cfg.clone());
    let mut half = built(cfg.clone());
    while !full.is_finished() {
        full.tick(middle_core::StepMode::Fast);
    }
    for _ in 0..8 {
        half.tick(middle_core::StepMode::Fast);
    }
    let ck = half.checkpoint();
    let state = ck
        .compression
        .as_ref()
        .expect("lossy plane checkpoints its state");
    assert!(
        state
            .device_residuals
            .iter()
            .any(|r| r.iter().any(|&v| v != 0.0)),
        "no live device residual at step 8"
    );
    let json = ck.to_json();
    let ck2 = middle_core::SimCheckpoint::from_json(&json).expect("round-trips");
    assert_eq!(ck.compression, ck2.compression);

    let mut resumed = built(cfg);
    resumed.restore(&ck2).expect("restore succeeds");
    while !resumed.is_finished() {
        resumed.tick(middle_core::StepMode::Fast);
    }
    assert_eq!(
        flatten(full.cloud_model())
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        flatten(resumed.cloud_model())
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    for (a, b) in full.devices().iter().zip(resumed.devices()) {
        assert_eq!(
            flatten(&a.model)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            flatten(&b.model)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "device {} diverged after resume",
            a.id
        );
    }
    assert_eq!(full.comm_stats(), resumed.comm_stats());
    assert_eq!(full.syncs(), resumed.syncs());
    let (fa, fl, _) = full.evaluate(&full.virtual_global());
    let (ra, rl, _) = resumed.evaluate(&resumed.virtual_global());
    assert_eq!(fa.to_bits(), ra.to_bits());
    assert_eq!(fl.to_bits(), rl.to_bits());
}

/// An inert plane stays out of checkpoints entirely, so pre-compression
/// snapshots (no `compression` field) keep deserialising.
#[test]
fn inert_plane_checkpoints_no_compression_state() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 4;
    let mut sim = built(cfg);
    sim.tick(StepMode::Fast);
    let ck = sim.checkpoint();
    assert!(ck.compression.is_none());
    let json = ck.to_json();
    let ck2 = middle_core::SimCheckpoint::from_json(&json).expect("round-trips");
    assert!(ck2.compression.is_none());
}
