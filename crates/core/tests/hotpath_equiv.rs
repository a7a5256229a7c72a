//! Gates for the zero-copy hot path: the fused dot and in-place
//! aggregation kernels are bit-identical to the allocating originals,
//! and the round's trajectories keep the FNV fingerprints pinned before
//! each plane (faults, compression) and each retired round-level oracle
//! existed.

use middle_core::aggregation::{
    cloud_aggregate, cloud_aggregate_into, edge_aggregate, edge_aggregate_into,
};
use middle_core::{Algorithm, SelectionPolicy, SimConfig, Simulation, SimulationBuilder, StepMode};
use middle_data::Task as DataTask;
use middle_nn::params::{flatten, unflatten, weighted_average, weighted_average_into};
use middle_nn::Sequential;
use middle_tensor::ops::{dot3_slices, dot_slices};
use middle_tensor::random::rng;
use proptest::prelude::*;

mod common;
use common::{bits, device_planes, fnv, fnv_params, trajectory_fnv};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

fn model_from(vals: &[f32]) -> Sequential {
    let mut m = Sequential::new().push(middle_nn::layers::Dense::new(3, 2, &mut rng(1)));
    assert_eq!(m.param_count(), vals.len());
    unflatten(&mut m, vals);
    m
}

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused three-way dot product agrees bitwise with three
    /// separate accumulations (same chunked summation order).
    #[test]
    fn dot3_is_bitwise_three_dots(a in vals(67), b in vals(67)) {
        let (ab, aa, bb) = dot3_slices(&a, &b);
        prop_assert_eq!(ab.to_bits(), dot_slices(&a, &b).to_bits());
        prop_assert_eq!(aa.to_bits(), dot_slices(&a, &a).to_bits());
        prop_assert_eq!(bb.to_bits(), dot_slices(&b, &b).to_bits());
    }

    /// In-place weighted averaging is bit-identical to the allocating
    /// reference for arbitrary positive weights.
    #[test]
    fn weighted_average_into_matches_reference(
        v1 in vals(8), v2 in vals(8), v3 in vals(8),
        w in prop::collection::vec(0.1f32..20.0, 3),
    ) {
        let (m1, m2, m3) = (model_from(&v1), model_from(&v2), model_from(&v3));
        let models = [&m1, &m2, &m3];
        let reference = weighted_average(&models, &w);
        let mut dst = model_from(&[0.0; 8]);
        weighted_average_into(&mut dst, &models, &w);
        let (fr, fd) = (flatten(&reference), flatten(&dst));
        for (x, y) in fr.iter().zip(&fd) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn in_place_aggregates_match_references_bitwise() {
    let vs: Vec<Vec<f32>> = (0..4)
        .map(|j| {
            (0..8)
                .map(|i| ((i * 3 + j * 7) as f32 * 0.21).sin())
                .collect()
        })
        .collect();
    let models: Vec<Sequential> = vs.iter().map(|v| model_from(v)).collect();
    let refs: Vec<&Sequential> = models.iter().collect();

    let counts = [12usize, 40, 7, 21];
    let reference = edge_aggregate(&refs, &counts);
    let mut dst = model_from(&[9.0; 8]);
    edge_aggregate_into(&mut dst, refs.iter().copied().zip(counts.iter().copied()));
    assert_eq!(flatten(&reference), flatten(&dst));

    for windows in [[5.0f64, 0.0, 2.5, 30.0], [0.0, 0.0, 0.0, 0.0]] {
        let reference = cloud_aggregate(&refs, &windows);
        let mut dst = model_from(&[9.0; 8]);
        cloud_aggregate_into(&mut dst, refs.iter().copied().zip(windows.iter().copied()));
        assert_eq!(flatten(&reference), flatten(&dst));
    }
}

/// Round-level traces that once ran against the reference step, each
/// pinned by the fingerprint of its trajectory ([`trajectory_fnv`]),
/// captured at the last commit that still had the reference step — where
/// the fast and reference runs of every one of them agreed. The kernels
/// themselves meet their oracles in `middle_core::sim`'s kernel-pair
/// harness.
#[test]
fn former_reference_traces_keep_their_fingerprints() {
    use middle_core::{DelayModel, DropoutModel, OnDevicePolicy};
    let trace = |algorithm: Algorithm, steps: usize, cloud_interval: usize| {
        let mut cfg = SimConfig::tiny(DataTask::Mnist, algorithm);
        cfg.steps = steps;
        cfg.cloud_interval = cloud_interval;
        cfg
    };
    // Half the devices sit out each step: the availability draws.
    let mut availability = trace(Algorithm::middle(), 16, 4);
    availability.availability = 0.5;
    // Moved devices keep their model and download nothing.
    let keep_local = Algorithm::custom(
        "KeepLocal",
        SelectionPolicy::Random,
        OnDevicePolicy::KeepLocal,
    );
    let keep_local = trace(keep_local, 12, 4);
    // Oort selection over edge-model downloads.
    let oort = trace(Algorithm::oort(), 12, 3);
    let mut lossy = trace(Algorithm::middle(), 20, 4);
    lossy.compression.enabled = true;
    lossy.compression.quantize_bits = 6;
    lossy.compression.top_frac = 0.3;
    // Lossy compression with every failure model on at once.
    let mut hostile = trace(Algorithm::middle(), 20, 4);
    hostile.compression.enabled = true;
    hostile.compression.quantize_bits = 4;
    hostile.compression.top_frac = 0.25;
    hostile.faults.dropout = DropoutModel::Iid { p: 0.2 };
    hostile.faults.straggler_delay = DelayModel::Uniform {
        min_s: 0.0,
        max_s: 2.0,
    };
    hostile.faults.deadline_s = 1.5;
    hostile.faults.upload_loss = 0.15;
    hostile.faults.upload_retries = 2;
    hostile.faults.wan_outage = 0.3;
    for (name, cfg, pin) in [
        ("availability 0.5", availability, 0xc25c739326cfe9b1),
        ("KeepLocal", keep_local, 0xc72c2815a5d60045),
        ("Oort", oort, 0x9046c92c5764228d),
        ("lossy", lossy, 0xd99bde3a3418774f),
        ("lossy, every fault", hostile, 0x18f2065ae87f044f),
    ] {
        let mut sim = built(cfg);
        let record = sim.run();
        assert_eq!(
            trajectory_fnv(&sim, &record),
            pin,
            "{name} trajectory moved"
        );
    }
}

/// The fault-plane no-op gate: with `FaultConfig::default()` (every
/// failure model off) a 20-step MIDDLE run must stay bitwise identical
/// to the pre-fault-plane implementation. The fingerprints below were
/// captured on commit a927eae (the last commit before the fault plane
/// landed) with exactly this FNV-1a-over-parameter-bits scheme; the
/// fault plane draws from its own RNG stream (`derive_seed(seed, 9)`)
/// and a disabled plane draws nothing, so these must never move unless
/// the simulation semantics deliberately change.
///
/// The floats hashed here come from deterministic seeded arithmetic on
/// x86_64 linux (container and CI alike); a different libm/platform
/// could legitimately shift `acc/loss` bits, in which case re-pin from
/// the pre-fault-plane commit on that platform.
#[test]
fn default_fault_config_is_bitwise_identical_to_pre_fault_plane_main() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 2;
    assert_eq!(cfg.faults, middle_core::FaultConfig::default());
    let mut sim = built(cfg);
    for _ in 0..20 {
        sim.tick(StepMode::Fast);
    }

    assert_eq!(fnv_params(&flatten(sim.cloud_model())), 0x75a18b3f9d2c2c47);
    let mut devices_fnv = 0xcbf29ce484222325u64;
    for plane in device_planes(&sim) {
        fnv(&mut devices_fnv, &fnv_params(&plane).to_le_bytes());
    }
    assert_eq!(devices_fnv, 0x94105ab3ced3cd05);
    let mut edges_fnv = 0xcbf29ce484222325u64;
    for e in sim.edges() {
        fnv(
            &mut edges_fnv,
            &fnv_params(&flatten(&e.model)).to_le_bytes(),
        );
    }
    assert_eq!(edges_fnv, 0xa901b57d25ac7acd);

    let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
    assert_eq!(acc.to_bits(), 0x3e19999a);
    assert_eq!(loss.to_bits(), 0x4018f3e4);

    let comm = sim.comm_stats();
    assert_eq!(
        (
            comm.edge_to_device,
            comm.device_to_edge,
            comm.edge_to_cloud,
            comm.cloud_to_edge,
            comm.cloud_to_device,
        ),
        (79, 79, 10, 10, 40)
    );
    assert_eq!(comm.upload_retransmissions, 0);
    assert_eq!(comm.lost_uploads, 0);
    assert_eq!(comm.stale_uploads, 0);
    assert_eq!(sim.syncs(), 5);
    assert_eq!(sim.active_steps(), 20);
}

/// The compression no-op gate: with `CompressionConfig::default()`
/// (plane off) a 20-step MIDDLE run must stay bitwise identical to the
/// pre-compression-plane implementation — same fingerprints as the
/// fault-plane gate above (captured on commit a927eae; the compression
/// plane owns RNG stream `derive_seed(seed, 10)` and an inert plane
/// draws nothing). On top of the parameter/accuracy fingerprints this
/// pins the new byte ledger: with dense payloads every per-tier byte
/// counter must equal its transfer count times `4 · param_count`.
#[test]
fn default_compression_config_is_bitwise_identical_to_pre_compression_main() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 2;
    assert_eq!(cfg.compression, middle_core::CompressionConfig::default());
    assert!(!cfg.compression.enabled);
    let mut sim = built(cfg);
    for _ in 0..20 {
        sim.tick(StepMode::Fast);
    }

    assert_eq!(fnv_params(&flatten(sim.cloud_model())), 0x75a18b3f9d2c2c47);
    let mut devices_fnv = 0xcbf29ce484222325u64;
    for plane in device_planes(&sim) {
        fnv(&mut devices_fnv, &fnv_params(&plane).to_le_bytes());
    }
    assert_eq!(devices_fnv, 0x94105ab3ced3cd05);
    let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
    assert_eq!(acc.to_bits(), 0x3e19999a);
    assert_eq!(loss.to_bits(), 0x4018f3e4);

    let dense = 4 * flatten(sim.cloud_model()).len() as u64;
    let comm = *sim.comm_stats();
    assert_eq!(
        (
            comm.edge_to_device,
            comm.device_to_edge,
            comm.edge_to_cloud,
            comm.cloud_to_edge,
            comm.cloud_to_device,
        ),
        (79, 79, 10, 10, 40)
    );
    assert_eq!(comm.edge_to_device_bytes, 79 * dense);
    assert_eq!(comm.device_to_edge_bytes, 79 * dense);
    assert_eq!(comm.edge_to_cloud_bytes, 10 * dense);
    assert_eq!(comm.cloud_to_edge_bytes, 10 * dense);
    assert_eq!(comm.cloud_to_device_bytes, 40 * dense);
    assert_eq!(comm.payload_total_bytes(), (79 + 79 + 10 + 10 + 40) * dense);
    assert_eq!(sim.syncs(), 5);

    let record = sim.finish();
    assert_eq!(record.param_count, dense / 4);
}

/// Enabling the plane at a lossless setting (`bits ≥ 32`, `top_frac =
/// 1.0`) short-circuits it entirely, so the run must be bitwise
/// identical to compression-off — including the byte ledger.
#[test]
fn lossless_compression_run_is_bitwise_identical_to_off() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 12;
    cfg.cloud_interval = 4;
    let mut off = built(cfg.clone());
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 32;
    cfg.compression.top_frac = 1.0;
    assert!(!cfg.compression.lossy_active());
    let mut lossless = built(cfg.clone());
    for _ in 0..cfg.steps {
        off.tick(StepMode::Fast);
        lossless.tick(StepMode::Fast);
    }
    assert_eq!(
        bits(&flatten(off.cloud_model())),
        bits(&flatten(lossless.cloud_model()))
    );
    for (a, b) in device_planes(&off).zip(device_planes(&lossless)) {
        assert_eq!(bits(&a), bits(&b));
    }
    for (a, b) in off.edges().iter().zip(lossless.edges()) {
        assert_eq!(bits(&flatten(&a.model)), bits(&flatten(&b.model)));
    }
    assert_eq!(off.comm_stats(), lossless.comm_stats());
}
