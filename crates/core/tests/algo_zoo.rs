//! Per-algorithm gates for the policy API: every member of
//! [`Algorithm::zoo`] keeps its pinned trajectory under every fault
//! model, not just the happy path, and stateful algorithms (FedFly's
//! in-flight set) survive a mid-migration checkpoint→resume round trip
//! through JSON without perturbing a single bit.
//!
//! MIDDLE itself has a stronger gate than anything here: the pinned FNV
//! fingerprints in `tests/hotpath_equiv.rs` prove the trait-routed
//! default reproduces the pre-policy-API trajectory exactly.

use middle_core::{
    Algorithm, AlgorithmState, DelayModel, DropoutModel, FaultConfig, SimCheckpoint, SimConfig,
    Simulation, SimulationBuilder, StepMode,
};
use middle_data::Task;

mod common;
use common::trajectory_fnv;

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

fn zoo_config(algorithm: Algorithm, faults: FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, algorithm);
    cfg.steps = 8;
    cfg.cloud_interval = 3;
    cfg.eval_interval = 4;
    cfg.faults = faults;
    cfg
}

/// Everything-on regime: sticky Markov dropout, exponential stragglers
/// against a deadline, lossy uploads with retry, WAN outages — the same
/// shape as the `sweeps algos` preset's hostile regime.
fn hostile() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.1,
            p_recover: 0.3,
        },
        straggler_delay: DelayModel::Exponential { mean_s: 0.6 },
        deadline_s: 1.0,
        upload_loss: 0.2,
        upload_retries: 2,
        wan_outage: 0.2,
    }
}

/// Covers the remaining stochastic models: i.i.d. dropout and the
/// heavy-tailed Pareto delay.
fn heavy_tail() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Iid { p: 0.2 },
        straggler_delay: DelayModel::Pareto {
            scale_s: 0.3,
            shape: 1.5,
        },
        deadline_s: 1.0,
        upload_loss: 0.3,
        upload_retries: 1,
        wan_outage: 0.3,
    }
}

/// Bounded-uniform delay, the one delay model the other regimes skip.
fn uniform_delay() -> FaultConfig {
    FaultConfig {
        straggler_delay: DelayModel::Uniform {
            min_s: 0.2,
            max_s: 1.5,
        },
        deadline_s: 1.0,
        ..FaultConfig::default()
    }
}

/// Every zoo member under every fault regime, pinned by the fingerprint
/// of its trajectory ([`trajectory_fnv`]), captured at the last commit
/// that still had the round-level reference step — where each one's
/// fast and reference runs agreed. The kernels behind them (FedLECC's
/// cluster-guided selection and FedFly's hand-off included) meet their
/// oracles in `middle_core::sim`'s kernel-pair harness.
#[test]
fn zoo_trajectories_keep_their_fingerprints() {
    let pins: [(&str, FaultConfig, [u64; 9]); 4] = [
        (
            "clean",
            FaultConfig::default(),
            [
                0x4c1cde4cd7689300,
                0x71b912d3c422fd31,
                0x18f8d4f9e52a5817,
                0x76c2b0944caf9385,
                0xcf3217c867901834,
                0x0486aafb684d3905,
                0x881119c4348015d6,
                0xc1e7fbb65379c676,
                0xb58542341da00b49,
            ],
        ),
        (
            "hostile",
            hostile(),
            [
                0x9732e06b3f8728a5,
                0xfc39ca901cffd266,
                0xb8b5aadbb1858ef9,
                0xb336c101450a8366,
                0xd9ddd268ee57cb85,
                0x1dc5d24b327c7de1,
                0x24ed00436ce4c09e,
                0x55668564f8246587,
                0xa58ee4b00996a80f,
            ],
        ),
        (
            "heavy_tail",
            heavy_tail(),
            [
                0xf20ef3e7fb8b9ded,
                0x5e8d03f942a24ee4,
                0x9b7d7c347f48cb1d,
                0x7e53f057060449cd,
                0xf97cb00a4838a9e5,
                0x71beb697fd32ff1e,
                0xae07da134ced8845,
                0x25659a7d181721d7,
                0x8387e1246bda099b,
            ],
        ),
        (
            "uniform_delay",
            uniform_delay(),
            [
                0x6647dae417489028,
                0xad1eb2df0dfc9465,
                0x2ecd5190a304b561,
                0xade5d5598a40cb9a,
                0x5c7a03283c01ede7,
                0xff7f6c9c8c72d462,
                0x66b7c80ba2add6b8,
                0x99cca0ac31d7f4de,
                0x22d3290c5e51aca0,
            ],
        ),
    ];
    for (regime, faults, fingerprints) in pins {
        for (algorithm, pin) in Algorithm::zoo().into_iter().zip(fingerprints) {
            let name = format!("{}/{regime}", algorithm.name);
            let mut sim = built(zoo_config(algorithm, faults));
            let record = sim.run();
            assert_eq!(
                trajectory_fnv(&sim, &record),
                pin,
                "{name} trajectory moved"
            );
        }
    }
}

// ------------------------------------------- stateful checkpointing

#[test]
fn fedfly_mid_migration_checkpoint_resumes_bitwise_through_json() {
    // cloud_interval 4 with the checkpoint at step 3: no cloud sync has
    // landed yet, so the in-flight set taken at checkpoint time is
    // guaranteed non-trivial — the resume must carry live migrations.
    let mut cfg = zoo_config(Algorithm::fedfly(), hostile());
    cfg.cloud_interval = 4;

    let mut straight = built(cfg.clone());
    let reference = straight.run();

    let mut first = built(cfg.clone());
    for _ in 0..3 {
        first.tick(StepMode::Fast);
    }
    let ck = first.checkpoint();
    let state = ck
        .algorithm
        .as_ref()
        .expect("FedFly checkpoints its in-flight set");
    assert!(
        state.in_flight.iter().any(|&b| b),
        "checkpoint taken with no update in flight; the gate would prove nothing"
    );
    let json = ck.to_json();
    drop(first);

    let ck = SimCheckpoint::from_json(&json).expect("checkpoint parses");
    let mut second = built(cfg);
    second.restore(&ck).expect("checkpoint applies");
    assert_eq!(second.next_step(), 3);
    let resumed = second.run();

    assert_eq!(reference.points.len(), resumed.points.len());
    for (a, b) in reference.points.iter().zip(&resumed.points) {
        assert_eq!(a.step, b.step);
        assert_eq!(a.global_accuracy.to_bits(), b.global_accuracy.to_bits());
        assert_eq!(a.global_loss.to_bits(), b.global_loss.to_bits());
    }
    assert_eq!(reference.comm, resumed.comm);
    assert_eq!(reference.syncs, resumed.syncs);
    assert_eq!(reference.active_steps, resumed.active_steps);
}

#[test]
fn restore_rejects_a_stateless_checkpoint_into_a_stateful_algorithm() {
    let cfg = zoo_config(Algorithm::fedfly(), FaultConfig::default());
    let mut sim = built(cfg.clone());
    for _ in 0..2 {
        sim.tick(StepMode::Fast);
    }
    let mut ck = sim.checkpoint();
    ck.algorithm = None; // what a pre-policy-API writer would have produced
    let mut fresh = built(cfg);
    let before = fresh.checkpoint().to_json();
    let err = fresh
        .restore(&ck)
        .expect_err("missing state must be rejected");
    assert!(err.to_string().contains("checkpoint has none"), "{err}");
    assert_eq!(
        fresh.checkpoint().to_json(),
        before,
        "a rejected restore must leave the target untouched"
    );
}

#[test]
fn restore_rejects_foreign_algorithm_state_into_a_stateless_algorithm() {
    let cfg = zoo_config(Algorithm::middle(), FaultConfig::default());
    let num_devices = cfg.num_devices;
    let mut sim = built(cfg.clone());
    sim.tick(StepMode::Fast);
    let mut ck = sim.checkpoint();
    ck.algorithm = Some(AlgorithmState {
        in_flight: vec![false; num_devices],
        clusters: Vec::new(),
    });
    let mut fresh = built(cfg);
    let before = fresh.checkpoint().to_json();
    let err = fresh
        .restore(&ck)
        .expect_err("foreign state must be rejected");
    assert!(err.to_string().contains("stateless"), "{err}");
    assert_eq!(
        fresh.checkpoint().to_json(),
        before,
        "a rejected restore must leave the target untouched"
    );
}
