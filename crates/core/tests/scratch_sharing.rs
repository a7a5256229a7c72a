//! The training workspace belongs to the thread, not the device: one
//! scratch serves whatever device, simulation, architecture and
//! optimizer its thread trains next. These gates hold it to "size from
//! the input, assume nothing": interleaved use must equal the
//! scratch-free reference path bit for bit.

use middle_core::{Algorithm, Device, SimConfig, Simulation, SimulationBuilder, StepMode};
use middle_data::synthetic::SyntheticSource;
use middle_data::Task;
use middle_nn::{zoo, OptimizerKind};
use middle_tensor::random::rng;

mod common;
use common::{assert_records_equal, bits, sim_bits};

fn built(cfg: &SimConfig) -> Simulation {
    SimulationBuilder::new(cfg.clone())
        .build()
        .expect("valid config")
}

#[test]
fn interleaved_simulations_match_their_separate_reference_runs() {
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
        let reference = alone.run_with(StepMode::Reference);
        assert_records_equal(&interleaved.finish(), &reference);
        assert_eq!(
            sim_bits(interleaved),
            sim_bits(&alone),
            "{} parameters diverged",
            cfg.task.name()
        );
    }
}

#[test]
fn scratch_follows_each_device_sample_count_and_model() {
    // Same thread, no region: every `local_train` below reuses the one
    // scratch, whose Oort-eval workspace must grow from 6 rows to 40 and
    // serve 12 afterwards, and whose optimizer meets a same-shaped-but-
    // for-the-last-layer model, then an MLP, then a single layer.
    let optimizer = OptimizerKind::Adam { lr: 0.01 };
    let device = |task: Task, id: usize, samples: usize, logistic: bool| {
        let data = SyntheticSource::new(task, 3).generate_balanced(samples, id as u64);
        let spec = task.spec();
        let model = if logistic {
            zoo::logistic(&spec, &mut rng(id as u64))
        } else {
            zoo::model_for_task(task.name(), &spec, &mut rng(id as u64))
        };
        Device::new(id, data, model, 40 + id as u64)
    };
    for (id, (task, samples, logistic)) in [
        (Task::Mnist, 6, false),
        (Task::Mnist, 40, false),
        (Task::Emnist, 12, false),
        (Task::Speech, 9, false),
        (Task::Mnist, 25, true),
    ]
    .into_iter()
    .enumerate()
    {
        let mut fast = device(task, id, samples, logistic);
        let mut reference = device(task, id, samples, logistic);
        let loss = fast.local_train(3, 4, &optimizer, id);
        let loss_ref = reference.local_train_reference(3, 4, &optimizer, id);
        assert_eq!(loss.to_bits(), loss_ref.to_bits(), "device {id} loss");
        assert_eq!(bits(fast.flat()), bits(reference.flat()), "device {id}");
        assert_eq!(
            fast.oort_utility.map(f32::to_bits),
            reference.oort_utility.map(f32::to_bits),
            "device {id} utility"
        );
    }
}
