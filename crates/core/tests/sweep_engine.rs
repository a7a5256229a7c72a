//! Gates for the Result-based construction path and the sweep engine:
//! typed builder errors, checkpoint→resume bitwise equivalence (with
//! and without the fault plane), sweep determinism across thread
//! counts, cache-hit/cold-build bitwise identity, and killed-then-
//! resumed sweeps reproducing the uninterrupted report.

use middle_core::{
    run_sweep, Algorithm, DelayModel, DropoutModel, FaultConfig, RunRecord, ScenarioGrid,
    SimCheckpoint, SimConfig, SimError, SimulationBuilder, StepMode, SweepOptions,
};
use middle_data::Task;
use middle_mobility::Trace;
use std::path::PathBuf;

mod common;
use common::sim_bits;

fn tiny() -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 6;
    cfg.eval_interval = 2;
    cfg.cloud_interval = 3;
    cfg
}

fn faulty() -> SimConfig {
    let mut cfg = tiny();
    cfg.faults = FaultConfig {
        dropout: DropoutModel::Iid { p: 0.2 },
        straggler_delay: DelayModel::Exponential { mean_s: 0.6 },
        deadline_s: 1.0,
        upload_loss: 0.3,
        upload_retries: 1,
        wan_outage: 0.3,
    };
    cfg
}

/// Fresh per-test scratch directory under the system tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("middle_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------- errors

#[test]
fn builder_rejects_k_larger_than_the_device_population() {
    let mut cfg = tiny();
    cfg.devices_per_edge = cfg.num_devices + 1;
    let err = match SimulationBuilder::new(cfg).build() {
        Ok(_) => panic!("oversized K must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::InvalidConfig { .. }));
    assert!(err.to_string().contains("exceeds num_devices"), "{err}");
}

#[test]
fn builder_rejects_an_empty_trace() {
    // `Trace::new` itself refuses zero steps, so the emptiest
    // constructible trace carries no devices — the builder must turn
    // that into a typed mismatch, not a panic.
    let cfg = tiny();
    let empty = Trace::new(cfg.num_edges, vec![Vec::new()]);
    let err = match SimulationBuilder::new(cfg).with_trace(empty).build() {
        Ok(_) => panic!("empty trace must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::TraceMismatch { .. }));
    assert!(err.to_string().contains("device count"), "{err}");
}

#[test]
fn builder_rejects_zero_edges() {
    let mut cfg = tiny();
    cfg.num_edges = 0;
    let err = match SimulationBuilder::new(cfg).build() {
        Ok(_) => panic!("zero edges must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::InvalidConfig { .. }));
    assert!(err.to_string().contains("num_edges"), "{err}");
}

// ---------------------------------------------- checkpoint/resume bitwise

fn resume_matches_straight_run(cfg: SimConfig) {
    // Straight run.
    let mut straight = SimulationBuilder::new(cfg.clone()).build().unwrap();
    let reference = straight.run();

    // Interrupted run: stop mid-horizon, serialise, restore into a
    // *fresh* simulation (JSON round trip, as a killed process would),
    // finish there.
    let mut first = SimulationBuilder::new(cfg.clone()).build().unwrap();
    for _ in 0..3 {
        first.tick(StepMode::Fast);
    }
    let json = first.checkpoint().to_json();
    drop(first);

    let ck = SimCheckpoint::from_json(&json).expect("checkpoint parses");
    let mut second = SimulationBuilder::new(cfg).build().unwrap();
    second.restore(&ck).expect("checkpoint applies");
    assert_eq!(second.next_step(), 3);
    let resumed = second.run();

    // Bitwise identity on every evaluation point and the final state.
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

/// The JSON writer as it was while every number went through a `String`
/// of its own (`format!`, then a scan for a decimal point): the byte-level
/// reference for what `to_json` writes straight into its output.
fn write_json_reference(v: &serde::Value, out: &mut String) {
    use serde::Value;
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if !f.is_finite() => out.push_str("null"),
        Value::Float(f) => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => out.push_str(&serde_json::to_string(s).unwrap()),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_reference(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(k).unwrap());
                out.push(':');
                write_json_reference(val, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn checkpoint_json_is_byte_equal_to_the_reference_writer() {
    use serde::Serialize;
    let mut sim = SimulationBuilder::new(faulty()).build().unwrap();
    for _ in 0..3 {
        sim.tick(StepMode::Fast);
    }
    let ck = sim.checkpoint();
    let mut expected = String::new();
    write_json_reference(&ck.to_value(), &mut expected);
    let json = ck.to_json();
    assert!(json.len() > 10_000, "a real checkpoint, not a stub");
    assert!(json == expected, "checkpoint JSON bytes changed");
}

#[test]
fn checkpoint_resume_is_bitwise_identical() {
    resume_matches_straight_run(tiny());
}

#[test]
fn checkpoint_resume_is_bitwise_identical_with_faults_enabled() {
    // Faults exercise the extra persisted state: fault RNG, per-device
    // down states, and the pending stale-upload queue.
    resume_matches_straight_run(faulty());
}

#[test]
fn checkpoint_restores_full_model_state_mid_run() {
    let cfg = tiny();
    let mut a = SimulationBuilder::new(cfg.clone()).build().unwrap();
    for _ in 0..4 {
        a.tick(StepMode::Fast);
    }
    let ck = a.checkpoint();

    let mut b = SimulationBuilder::new(cfg).build().unwrap();
    b.restore(&ck).unwrap();
    assert_eq!(sim_bits(&a), sim_bits(&b));

    // And both advance identically from there.
    a.tick(StepMode::Fast);
    b.tick(StepMode::Fast);
    assert_eq!(sim_bits(&a), sim_bits(&b));
}

#[test]
fn checkpoint_restore_over_live_scratch_is_bitwise_identical() {
    // Restoring into a simulation whose devices carry warm training
    // scratch (grown workspaces, cached optimizers, dirty batch buffers
    // from a *different* trajectory) must behave exactly like restoring
    // into a fresh build: the scratch holds no semantic state, so it is
    // deliberately absent from checkpoints.
    let cfg = tiny();
    let mut a = SimulationBuilder::new(cfg.clone()).build().unwrap();
    for _ in 0..3 {
        a.tick(StepMode::Fast);
    }
    let ck = a.checkpoint();

    let mut fresh = SimulationBuilder::new(cfg.clone()).build().unwrap();
    fresh.restore(&ck).unwrap();

    let mut live = SimulationBuilder::new(cfg).build().unwrap();
    for _ in 0..5 {
        live.tick(StepMode::Fast);
    }
    live.restore(&ck).unwrap();

    assert_eq!(sim_bits(&fresh), sim_bits(&live));
    for _ in 0..3 {
        fresh.tick(StepMode::Fast);
        live.tick(StepMode::Fast);
        assert_eq!(sim_bits(&fresh), sim_bits(&live));
    }
}

#[test]
fn checkpoint_rejects_a_different_config() {
    let mut a = SimulationBuilder::new(tiny()).build().unwrap();
    a.tick(StepMode::Fast);
    let ck = a.checkpoint();

    let mut other = tiny();
    other.seed = 99;
    let mut b = SimulationBuilder::new(other).build().unwrap();
    let err = b.restore(&ck).unwrap_err();
    assert!(matches!(err, SimError::CheckpointMismatch { .. }));
}

/// A sample window that is NaN, infinite or negative would weight the
/// next Eq. 7 sync with garbage, and a wall-clock total like that would
/// poison the record: `restore` rejects either before its first write,
/// so the target still runs the fresh trajectory.
#[test]
fn checkpoint_rejects_corrupt_windows_and_clock_untouched() {
    let mut a = SimulationBuilder::new(tiny()).build().unwrap();
    for _ in 0..2 {
        a.tick(StepMode::Fast);
    }
    let mut nan = a.checkpoint();
    nan.edges[1].window_samples = f64::NAN;
    let mut negative = a.checkpoint();
    negative.edges[0].window_samples = -5.0;
    let negative = SimCheckpoint::from_json(&negative.to_json()).expect("a number still parses");
    let mut clock = a.checkpoint();
    clock.elapsed_seconds = -1.0;

    let fresh = SimulationBuilder::new(tiny()).build().unwrap().run();
    for ck in [nan, negative, clock] {
        let mut target = SimulationBuilder::new(tiny()).build().unwrap();
        let err = target.restore(&ck).unwrap_err();
        assert!(matches!(err, SimError::CheckpointMismatch { .. }), "{err}");
        let record = target.run();
        let points = |r: &RunRecord| -> Vec<(u32, u32)> {
            (r.points.iter())
                .map(|p| (p.global_accuracy.to_bits(), p.global_loss.to_bits()))
                .collect()
        };
        assert_eq!(points(&record), points(&fresh), "{err}");
        assert_eq!(record.comm, fresh.comm, "{err}");
    }
}

// ------------------------------------------------------ sweep determinism

fn grid() -> ScenarioGrid {
    ScenarioGrid::new(tiny())
        .with_selection_sizes([2usize, 3])
        .with_seeds([7u64, 8])
}

#[test]
fn sweep_results_are_independent_of_thread_count() {
    let one = run_sweep(
        &grid(),
        &SweepOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let four = run_sweep(
        &grid(),
        &SweepOptions {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(one.complete && four.complete);
    assert_eq!(one.deterministic_json(), four.deterministic_json());
}

#[test]
fn cache_hit_builds_bitwise_identical_to_cold_builds() {
    let cfg = tiny();
    let cache = middle_core::InputCache::new();
    // Warm the cache with a config differing only in run-only fields.
    let mut warm = cfg.clone();
    warm.devices_per_edge = 3;
    let _ = SimulationBuilder::new(warm)
        .with_shared_inputs(std::sync::Arc::clone(&cache))
        .build()
        .unwrap();
    assert_eq!(cache.misses(), 1);

    let mut cached = SimulationBuilder::new(cfg.clone())
        .with_shared_inputs(cache.clone())
        .build()
        .unwrap();
    assert_eq!(cache.hits(), 1, "second build must hit the cache");
    let mut cold = SimulationBuilder::new(cfg).build().unwrap();

    assert_eq!(sim_bits(&cached), sim_bits(&cold));
    let a = cached.run();
    let b = cold.run();
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.global_accuracy.to_bits(), pb.global_accuracy.to_bits());
    }
    assert_eq!(a.comm, b.comm);
}

// --------------------------------------------------- killed-then-resumed

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_report() {
    let dir = scratch("resume");

    // The uninterrupted reference (no persistence).
    let reference = run_sweep(&grid(), &SweepOptions::default()).unwrap();

    // "Kill" after two scenarios: the limit stops the first invocation
    // early, exactly like a process death after two completions.
    let partial = run_sweep(
        &grid(),
        &SweepOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            limit: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.scenarios.len(), 2);
    assert!(dir.join("sweep_state.json").exists());

    // Second invocation picks up the ledger and finishes the rest.
    let resumed = run_sweep(
        &grid(),
        &SweepOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(
        resumed.deterministic_json(),
        reference.deterministic_json(),
        "resumed sweep must reproduce the uninterrupted report bitwise"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_scenario_checkpoints_resume_bitwise_too() {
    // Force mid-run snapshots every step, interrupt a faulty scenario
    // mid-flight by restoring its snapshot into a fresh run, and check
    // the sweep machinery end-to-end with the fault plane on.
    let dir = scratch("midrun");
    let grid = ScenarioGrid::new(faulty()).with_seeds([7u64, 8]);
    let reference = run_sweep(&grid, &SweepOptions::default()).unwrap();

    let partial = run_sweep(
        &grid,
        &SweepOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            limit: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(partial.scenarios.len(), 1);

    let resumed = run_sweep(
        &grid,
        &SweepOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.deterministic_json(), reference.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_that_fails_mid_restore_is_discarded_whole() {
    // A snapshot with the right version, digest and shape passes every
    // presence check; only its last version plane, one value short of
    // the model, does not fit, deep inside the population decode. The
    // sweep must not tick any part of it (cloud, edges and the other
    // devices from step 3): it runs the scenario cold and reports what
    // an undisturbed sweep does.
    let dir = scratch("franken");
    std::fs::create_dir_all(&dir).unwrap();
    let reference = run_sweep(&grid(), &SweepOptions::default()).unwrap();

    let first = grid().scenarios().unwrap().remove(0);
    let mut sim = SimulationBuilder::new(first.config.clone())
        .build()
        .unwrap();
    for _ in 0..3 {
        sim.tick(StepMode::Fast);
    }
    let mut ck = sim.checkpoint();
    ck.population.versions.last_mut().unwrap().flat.0.pop();
    let mut fresh = SimulationBuilder::new(first.config).build().unwrap();
    assert!(matches!(
        fresh.restore(&ck),
        Err(SimError::CheckpointMismatch { .. })
    ));
    std::fs::write(dir.join("scenario_0.ckpt.json"), ck.to_json()).unwrap();

    let report = run_sweep(
        &grid(),
        &SweepOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.complete);
    assert_eq!(report.deterministic_json(), reference.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}
