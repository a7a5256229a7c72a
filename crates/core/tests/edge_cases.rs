//! Failure-injection and boundary tests for the simulation loop: empty
//! edges under extreme mobility clustering, K larger than the candidate
//! pool, degenerate single-edge / single-device setups, never-syncing
//! clouds, and pathological model states.

use middle_core::aggregation::{cloud_aggregate, on_device_init};
use middle_core::{
    Algorithm, CommStats, DropoutModel, MobilitySource, OnDevicePolicy, SimConfig, SimError,
    Simulation, SimulationBuilder,
};
use middle_data::Task;
use middle_mobility::Trace;
use middle_nn::params::{flatten, unflatten};

mod common;
use common::{built, tick_n};

fn tiny(algorithm: Algorithm) -> SimConfig {
    SimConfig::tiny(Task::Mnist, algorithm)
}

fn built_with_trace(cfg: SimConfig, trace: Trace) -> Simulation {
    SimulationBuilder::new(cfg)
        .with_trace(trace)
        .build()
        .expect("valid trace")
}

#[test]
fn edges_with_no_candidates_are_skipped() {
    // All devices pinned to edge 0: edge 1 must survive every step with
    // its model unchanged until the sync broadcast.
    let mut cfg = tiny(Algorithm::middle());
    cfg.num_devices = 6;
    cfg.num_edges = 2;
    cfg.steps = 3;
    cfg.cloud_interval = 10; // no sync within the horizon
    let trace = Trace::new(2, vec![vec![0; 6]; 3]);
    let mut sim = built_with_trace(cfg, trace);
    let edge1_before = flatten(&sim.edges()[1].model);
    tick_n(&mut sim, 3);
    assert_eq!(flatten(&sim.edges()[1].model), edge1_before);
    assert_ne!(flatten(&sim.edges()[0].model), edge1_before);
}

#[test]
fn k_larger_than_any_edge_population_still_trains() {
    let mut cfg = tiny(Algorithm::oort());
    cfg.num_devices = 4;
    cfg.num_edges = 2;
    // K equal to the whole population still exceeds every per-edge
    // candidate set (~2 devices each); larger K now fails validation.
    cfg.devices_per_edge = 4;
    cfg.steps = 2;
    let record = built(cfg).run();
    assert!(record.final_accuracy().is_finite());
}

#[test]
fn single_edge_degenerates_to_vanilla_fl() {
    // One edge = classical cloud-device FL; mobility is a no-op.
    let mut cfg = tiny(Algorithm::middle());
    cfg.num_edges = 1;
    cfg.num_devices = 6;
    cfg.steps = 4;
    let sim = built(cfg);
    assert_eq!(sim.trace().empirical_mobility(), 0.0);
}

#[test]
fn single_device_per_edge_works() {
    let mut cfg = tiny(Algorithm::fedmes());
    cfg.num_devices = 2;
    cfg.num_edges = 2;
    cfg.devices_per_edge = 1;
    cfg.steps = 3;
    let record = built(cfg).run();
    assert!(record.final_accuracy().is_finite());
}

#[test]
fn never_syncing_cloud_keeps_initial_cloud_model() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.cloud_interval = 1000;
    cfg.steps = 4;
    let mut sim = built(cfg);
    let cloud0 = flatten(sim.cloud_model());
    tick_n(&mut sim, 4);
    assert_eq!(flatten(sim.cloud_model()), cloud0);
    // But the virtual global has moved.
    assert_ne!(flatten(&sim.virtual_global()), cloud0);
}

#[test]
fn sync_every_step_is_valid() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.cloud_interval = 1;
    cfg.steps = 3;
    let record = built(cfg).run();
    assert!(record.final_accuracy().is_finite());
}

#[test]
fn full_mobility_probability_one() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.mobility = MobilitySource::MarkovHop { p: 1.0 };
    cfg.steps = 5;
    let sim = built(cfg);
    assert!(sim.trace().empirical_mobility() > 0.9);
}

#[test]
fn zero_mobility_never_triggers_on_device_aggregation() {
    // With P = 0, MIDDLE must behave identically to HierFAVG given the
    // same seed and a selection policy that doesn't depend on history.
    let mk = |on_device| {
        let mut cfg = tiny(Algorithm::custom(
            "x",
            middle_core::SelectionPolicy::Random,
            on_device,
        ));
        cfg.mobility = MobilitySource::MarkovHop { p: 0.0 };
        cfg.steps = 4;
        built(cfg).run()
    };
    let blended = mk(OnDevicePolicy::SimilarityWeighted);
    let general = mk(OnDevicePolicy::EdgeModel);
    let acc = |r: &middle_core::RunRecord| {
        r.points
            .iter()
            .map(|p| p.global_accuracy)
            .collect::<Vec<_>>()
    };
    assert_eq!(acc(&blended), acc(&general));
}

#[test]
fn on_device_init_handles_zero_models() {
    // An all-zero carried model must not produce NaNs anywhere.
    let spec = Task::Mnist.spec();
    let edge = middle_nn::zoo::logistic(&spec, &mut middle_tensor::random::rng(1));
    let mut zero = edge.clone();
    let d = zero.param_count();
    unflatten(&mut zero, &vec![0.0; d]);
    for policy in [
        OnDevicePolicy::SimilarityWeighted,
        OnDevicePolicy::UnclippedSimilarity,
        OnDevicePolicy::Average,
        OnDevicePolicy::FixedAlpha { alpha: 0.5 },
    ] {
        let init = on_device_init(policy, &edge, &zero);
        assert!(
            flatten(&init).iter().all(|v| v.is_finite()),
            "{policy:?} produced non-finite values"
        );
    }
}

#[test]
fn cloud_aggregate_single_edge_is_identity() {
    let spec = Task::Mnist.spec();
    let m = middle_nn::zoo::logistic(&spec, &mut middle_tensor::random::rng(2));
    let agg = cloud_aggregate(&[&m], &[7.0]);
    assert_eq!(flatten(&agg), flatten(&m));
}

#[test]
fn trace_exactly_as_long_as_horizon_is_accepted() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.steps = 5;
    cfg.num_devices = 8;
    cfg.num_edges = 2;
    let trace = Trace::new(2, vec![vec![0, 1, 0, 1, 0, 1, 0, 1]; 5]);
    let record = built_with_trace(cfg, trace).run();
    assert!(record.final_accuracy().is_finite());
}

#[test]
fn too_short_trace_is_rejected() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.steps = 9;
    cfg.num_devices = 8;
    cfg.num_edges = 2;
    let trace = Trace::new(2, vec![vec![0; 8]; 3]);
    let err = match SimulationBuilder::new(cfg).with_trace(trace).build() {
        Ok(_) => panic!("short trace must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::TraceMismatch { .. }));
    assert!(err
        .to_string()
        .contains("shorter than the configured horizon"));
}

#[test]
fn extreme_class_imbalance_on_speech_task() {
    // The hardest stand-in task with single-class devices and tiny data.
    let mut cfg = SimConfig::tiny(Task::Speech, Algorithm::greedy());
    cfg.scheme = middle_data::Scheme::SingleClass;
    cfg.steps = 3;
    let record = built(cfg).run();
    assert!(record.final_accuracy().is_finite());
}

#[test]
fn comm_stats_accumulate_per_step_and_sync() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.num_devices = 8;
    cfg.num_edges = 2;
    cfg.devices_per_edge = 2;
    cfg.cloud_interval = 2;
    cfg.steps = 4;
    let mut sim = built(cfg);
    tick_n(&mut sim, 4);
    let c = sim.comm_stats();
    // Downloads == uploads (every selected device does both).
    assert_eq!(c.edge_to_device, c.device_to_edge);
    assert!(c.edge_to_device > 0);
    // 2 syncs × 2 edges each way; 2 syncs × 8 devices broadcast.
    assert_eq!(sim.syncs(), 2);
    assert_eq!(c.edge_to_cloud, 4);
    assert_eq!(c.cloud_to_edge, 4);
    assert_eq!(c.cloud_to_device, 16);
}

#[test]
fn larger_tc_reduces_wan_traffic() {
    let run = |tc: usize| {
        let mut cfg = tiny(Algorithm::oort());
        cfg.cloud_interval = tc;
        cfg.steps = 8;
        built(cfg).run()
    };
    let frequent = run(2);
    let rare = run(8);
    let wan = |c: &CommStats| c.edge_to_cloud + c.cloud_to_edge + c.edge_to_edge;
    assert!(wan(&frequent.comm) > wan(&rare.comm));
    assert_eq!(rare.syncs, 1);
}

#[test]
fn zero_availability_blocks_all_training() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.faults.dropout = DropoutModel::Iid { p: 1.0 };
    cfg.steps = 3;
    let mut sim = built(cfg);
    let before = flatten(&sim.edges()[0].model);
    tick_n(&mut sim, 3);
    assert_eq!(flatten(&sim.edges()[0].model), before);
    assert_eq!(*sim.comm_stats(), CommStats::default());
}

#[test]
fn partial_availability_still_converges_run() {
    let mut cfg = tiny(Algorithm::middle());
    cfg.faults.dropout = DropoutModel::Iid { p: 0.5 };
    cfg.steps = 6;
    let record = built(cfg).run();
    assert!(record.final_accuracy().is_finite());
    assert!(record.comm.device_to_edge > 0);
}

/// A sync fires while one edge has an empty cohort (every device pinned
/// elsewhere): the policy hooks that wrap aggregation and sync must
/// tolerate edges that never aggregated this round, and the broadcast
/// must still retarget the idle edge. Exercised across the zoo's
/// hook-bearing policies, stateful FedFly included.
#[test]
fn empty_cohort_edge_at_sync_survives_policy_hooks() {
    for algorithm in [Algorithm::middle(), Algorithm::fedfly(), Algorithm::oort()] {
        let name = algorithm.name.clone();
        let mut cfg = tiny(algorithm);
        cfg.num_devices = 6;
        cfg.num_edges = 2;
        cfg.steps = 4;
        cfg.cloud_interval = 2; // syncs at steps 2 and 4
        let trace = Trace::new(2, vec![vec![0; 6]; 4]);
        let mut sim = built_with_trace(cfg, trace);
        let edge1_before = flatten(&sim.edges()[1].model);
        tick_n(&mut sim, 4);
        assert!(sim.syncs() >= 1, "{name}: no sync fired");
        assert_ne!(
            flatten(&sim.edges()[1].model),
            edge1_before,
            "{name}: sync broadcast never reached the empty-cohort edge"
        );
        let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
        assert!(
            acc.is_finite() && loss.is_finite(),
            "{name}: NaN after sync"
        );
    }
}

/// The fully-degenerate corner: *no* device anywhere trains (every
/// device down every step) yet the sync cadence still fires. Every cohort is
/// empty at sync time; the run and its policy hooks must complete with
/// finite metrics for a stateful policy too.
#[test]
fn all_cohorts_empty_at_sync_time_completes() {
    for algorithm in [Algorithm::middle(), Algorithm::fedfly()] {
        let name = algorithm.name.clone();
        let mut cfg = tiny(algorithm);
        cfg.faults.dropout = DropoutModel::Iid { p: 1.0 };
        cfg.steps = 4;
        cfg.cloud_interval = 2;
        let record = built(cfg).run();
        assert_eq!(record.active_steps, 0, "{name}: nothing should train");
        assert!(
            record.final_accuracy().is_finite(),
            "{name}: metrics corrupted by empty-cohort syncs"
        );
    }
}
