//! Per-algorithm tier-1 gates for the policy API: every member of
//! [`Algorithm::zoo`] must keep the zero-copy hot path bitwise
//! identical to the allocating reference path — under every fault
//! model, not just the happy path — and stateful algorithms (FedFly's
//! in-flight set) must survive a mid-migration checkpoint→resume round
//! trip through JSON without perturbing a single bit.
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
use common::sim_bits as bits;

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

/// Runs paired simulations — one on the fused hot path, one on the
/// allocating reference path — and demands bitwise-identical state
/// after every step plus an identical communication ledger at the end.
fn fast_matches_reference(label: &str, cfg: SimConfig) {
    let steps = cfg.steps;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg);
    for t in 0..steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
        assert_eq!(
            bits(&fast),
            bits(&slow),
            "{label}: fast and reference state diverged at step {t}"
        );
    }
    assert_eq!(
        fast.comm_stats(),
        slow.comm_stats(),
        "{label}: comm ledger diverged"
    );
    assert_eq!(fast.syncs(), slow.syncs(), "{label}: sync count diverged");
    assert_eq!(
        fast.active_steps(),
        slow.active_steps(),
        "{label}: active-step count diverged"
    );
}

fn gate_zoo(regime: &str, faults: FaultConfig) {
    for algorithm in Algorithm::zoo() {
        let label = format!("{}/{regime}", algorithm.name);
        fast_matches_reference(&label, zoo_config(algorithm, faults));
    }
}

#[test]
fn zoo_fast_matches_reference_clean() {
    gate_zoo("clean", FaultConfig::default());
}

#[test]
fn zoo_fast_matches_reference_hostile() {
    gate_zoo("hostile", hostile());
}

#[test]
fn zoo_fast_matches_reference_heavy_tail() {
    gate_zoo("heavy_tail", heavy_tail());
}

#[test]
fn zoo_fast_matches_reference_uniform_delay() {
    gate_zoo("uniform_delay", uniform_delay());
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
