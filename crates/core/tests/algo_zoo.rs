//! The policy API's checkpoint contract: a stateful algorithm's state
//! (FedFly's in-flight set) must be in the checkpoint it restores from,
//! and a stateless one refuses foreign state — each rejection before
//! the first write. Every zoo member's trajectories, FedFly's
//! mid-migration resume among them, are cells of the differential
//! matrix (`matrix.rs`).

use middle_core::{Algorithm, AlgorithmState, SimConfig, StepMode};
use middle_data::Task;

mod common;
use common::{assert_rejected, built, shape, tick_n};

#[test]
fn restore_rejects_a_stateless_checkpoint_into_a_stateful_algorithm() {
    let cfg = SimConfig {
        algorithm: Algorithm::fedfly(),
        ..shape(Task::Mnist, 8, 3, 4)
    };
    let mut sim = built(cfg.clone());
    tick_n(&mut sim, 2);
    let mut ck = sim.checkpoint();
    ck.algorithm = None; // what a pre-policy-API writer would have produced
    assert_rejected(&mut built(cfg), &ck, "checkpoint has none");
}

#[test]
fn restore_rejects_foreign_algorithm_state_into_a_stateless_algorithm() {
    let cfg = shape(Task::Mnist, 8, 3, 4);
    let num_devices = cfg.num_devices;
    let mut sim = built(cfg.clone());
    sim.tick(StepMode::Fast);
    let mut ck = sim.checkpoint();
    ck.algorithm = Some(AlgorithmState {
        in_flight: vec![false; num_devices],
        clusters: Vec::new(),
    });
    assert_rejected(&mut built(cfg), &ck, "stateless");
}
