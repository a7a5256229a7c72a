//! The training workspace belongs to the thread, not the device: one
//! scratch serves whatever device, simulation, architecture and
//! optimizer its thread trains next. This gate holds it to "size from
//! the input, assume nothing": simulations ticked in lockstep with each
//! other must equal their separate runs bit for bit. (The same rule per
//! device, against the scratch-free oracle, is a unit test of
//! `middle_core::device`.)

use middle_core::{Algorithm, SimConfig, Simulation, SimulationBuilder, StepMode};
use middle_data::Task;
use middle_nn::OptimizerKind;

mod common;
use common::{assert_records_equal, sim_bits};

fn built(cfg: &SimConfig) -> Simulation {
    SimulationBuilder::new(cfg.clone())
        .build()
        .expect("valid config")
}

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

    let mut sims: Vec<Simulation> = configs.iter().map(built).collect();
    for _ in 0..configs[0].steps {
        for sim in &mut sims {
            sim.tick(StepMode::Fast);
        }
    }

    for (cfg, interleaved) in configs.iter().zip(&mut sims) {
        let mut alone = built(cfg);
        let separate = alone.run();
        assert_records_equal(&interleaved.finish(), &separate);
        assert_eq!(
            sim_bits(interleaved),
            sim_bits(&alone),
            "{} parameters diverged",
            cfg.task.name()
        );
    }
}
