//! The training workspace belongs to the thread, not the device: one
//! scratch serves whatever device, simulation, architecture and
//! optimizer its thread trains next. This gate holds it to "size from
//! the input, assume nothing": simulations ticked in lockstep with each
//! other must equal their separate runs bit for bit. (The same rule per
//! device, against the scratch-free oracle, is a unit test of
//! `middle_core::device`.)

use middle_core::{Algorithm, SimConfig, Simulation, StepMode};
use middle_data::Task;
use middle_nn::OptimizerKind;

mod common;
use common::{assert_same_run, built, finished};

#[test]
fn interleaved_simulations_match_their_separate_runs() {
    // mnist and emnist share cnn2's depth and parameter *count* but not
    // its last layer's size, under the same (cached, reset) optimizer
    // kind; cifar10 is a deeper cnn3 on three channels; speech is an MLP.
    let momentum = OptimizerKind::Momentum {
        lr: 0.02,
        momentum: 0.9,
    };
    let configs: Vec<SimConfig> = [
        (Task::Mnist, momentum),
        (Task::Emnist, momentum),
        (Task::Cifar10, OptimizerKind::Sgd { lr: 0.05 }),
        (Task::Speech, OptimizerKind::Adam { lr: 0.003 }),
    ]
    .into_iter()
    .map(|(task, optimizer)| {
        let mut cfg = SimConfig::tiny(task, Algorithm::middle());
        cfg.optimizer = optimizer;
        cfg.steps = 6;
        cfg
    })
    .collect();

    let mut sims: Vec<Simulation> = configs.iter().cloned().map(built).collect();
    for _ in 0..configs[0].steps {
        for sim in &mut sims {
            sim.tick(StepMode::Fast);
        }
    }

    for (cfg, mut interleaved) in configs.into_iter().zip(sims) {
        let task = cfg.task.name();
        let record = interleaved.finish();
        assert_same_run(&(interleaved, record), &finished(cfg), task);
    }
}
