//! Gates for the Result-based construction path and the sweep engine:
//! typed builder errors, checkpoint bytes and restores, sweep
//! determinism across thread counts, cache-hit/cold-build bitwise
//! identity (one population shared across a mobility axis), and
//! killed-then-resumed sweeps reproducing the
//! uninterrupted report. A run resumed at a sweep snapshot's cut, with
//! and without the fault plane, is a cell of the differential matrix
//! (`matrix.rs`).

use middle_core::{
    run_sweep, MobilitySource, ScenarioGrid, SimCheckpoint, SimError, SimulationBuilder, StepMode,
    SweepOptions,
};
use middle_mobility::Trace;

mod common;
use common::{
    assert_records_equal, assert_rejected, assert_same_run, built, faulty, finished, run_to_end,
    scratch_dir, sim_bits, sweep_shape, tick_n,
};

// ---------------------------------------------------------------- errors

#[test]
fn builder_rejects_k_larger_than_the_device_population() {
    let mut cfg = sweep_shape();
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
    let cfg = sweep_shape();
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
    let mut cfg = sweep_shape();
    cfg.num_edges = 0;
    let err = match SimulationBuilder::new(cfg).build() {
        Ok(_) => panic!("zero edges must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::InvalidConfig { .. }));
    assert!(err.to_string().contains("num_edges"), "{err}");
}

// ---------------------------------------------- checkpoint/resume bitwise

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
    let mut cfg = sweep_shape();
    cfg.faults = faulty();
    let mut sim = built(cfg);
    tick_n(&mut sim, 3);
    let ck = sim.checkpoint();
    let mut expected = String::new();
    write_json_reference(&ck.to_value(), &mut expected);
    let json = ck.to_json();
    assert!(json.len() > 10_000, "a real checkpoint, not a stub");
    assert!(json == expected, "checkpoint JSON bytes changed");
}

#[test]
fn checkpoint_restore_over_live_scratch_is_bitwise_identical() {
    // Restoring into a simulation whose devices carry warm training
    // scratch (grown workspaces, cached optimizers, dirty batch buffers
    // from a *different* trajectory) must behave exactly like restoring
    // into a fresh build: the scratch holds no semantic state, so it is
    // deliberately absent from checkpoints.
    let cfg = sweep_shape();
    let mut a = built(cfg.clone());
    tick_n(&mut a, 3);
    let ck = a.checkpoint();

    let mut fresh = built(cfg.clone());
    fresh.restore(&ck).unwrap();

    let mut live = built(cfg);
    tick_n(&mut live, 5);
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
    let mut a = built(sweep_shape());
    a.tick(StepMode::Fast);
    let ck = a.checkpoint();

    let mut other = sweep_shape();
    other.seed = 99;
    assert_rejected(&mut built(other), &ck, "config");
}

/// A sample window that is NaN, infinite or negative would weight the
/// next Eq. 7 sync with garbage, and a wall-clock total like that would
/// poison the record: `restore` rejects either before its first write,
/// so the target still runs the fresh trajectory.
#[test]
fn checkpoint_rejects_corrupt_windows_and_clock_untouched() {
    let mut a = built(sweep_shape());
    tick_n(&mut a, 2);
    let mut nan = a.checkpoint();
    nan.edges[1].window_samples = f64::NAN;
    let mut negative = a.checkpoint();
    negative.edges[0].window_samples = -5.0;
    let negative = SimCheckpoint::from_json(&negative.to_json()).expect("a number still parses");
    let mut clock = a.checkpoint();
    clock.elapsed_seconds = -1.0;

    let fresh = finished(sweep_shape());
    for (what, ck) in [
        ("NaN window", nan),
        ("negative window", negative),
        ("clock", clock),
    ] {
        let mut target = built(sweep_shape());
        assert_rejected(&mut target, &ck, "");
        assert_same_run(&fresh, &run_to_end(target), what);
    }
}

// ------------------------------------------------------ sweep determinism

fn grid() -> ScenarioGrid {
    ScenarioGrid::new(sweep_shape())
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
    let cfg = sweep_shape();
    let cache = middle_core::InputCache::new();
    // Warm the cache with a config differing in run-only fields and in
    // every placement field: it shares the population, not the
    // placement.
    let mut warm = cfg.clone();
    warm.devices_per_edge = 3;
    warm.mobility = MobilitySource::MarkovHop { p: 0.9 };
    warm.num_edges += 1;
    warm.steps += 2;
    let _ = SimulationBuilder::new(warm)
        .with_shared_inputs(std::sync::Arc::clone(&cache))
        .build()
        .unwrap();
    assert_eq!(cache.misses(), 1);

    let cached = SimulationBuilder::new(cfg.clone())
        .with_shared_inputs(cache.clone())
        .build()
        .unwrap();
    assert_eq!(cache.hits(), 1, "second build must hit the cache");
    let cold = built(cfg);
    assert_eq!(sim_bits(&cached), sim_bits(&cold));
    assert_same_run(&run_to_end(cached), &run_to_end(cold), "cache hit");
}

#[test]
fn a_mobility_axis_builds_one_population_per_seed() {
    let seeds = [7u64, 8];
    let grid = ScenarioGrid::new(sweep_shape())
        .with_mobility_ps([0.1, 0.5, 0.9])
        .with_seeds(seeds);
    let shared = run_sweep(&grid, &SweepOptions::default()).unwrap();
    assert!(shared.complete);
    assert_eq!(shared.cache_misses, seeds.len() as u64);
    assert_eq!(shared.cache_hits, 4);
    let one = SweepOptions {
        threads: 1,
        ..Default::default()
    };
    let serial = run_sweep(&grid, &one).unwrap();
    assert_eq!(serial.cache_misses, seeds.len() as u64);
    assert_eq!(shared.deterministic_json(), serial.deterministic_json());
    // And every scenario is what a build without the cache runs.
    for (done, scenario) in shared.scenarios.iter().zip(grid.scenarios().unwrap()) {
        let (_, cold) = finished(scenario.config);
        assert_records_equal(&done.record, &cold, &done.label);
    }
}

// --------------------------------------------------- killed-then-resumed

#[test]
fn interrupted_sweep_resumes_to_the_uninterrupted_report() {
    let dir = scratch_dir("resume");

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
    let dir = scratch_dir("midrun");
    let mut cfg = sweep_shape();
    cfg.faults = faulty();
    let grid = ScenarioGrid::new(cfg).with_seeds([7u64, 8]);
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
    let dir = scratch_dir("franken");
    std::fs::create_dir_all(&dir).unwrap();
    let reference = run_sweep(&grid(), &SweepOptions::default()).unwrap();

    let first = grid().scenarios().unwrap().remove(0);
    let mut sim = built(first.config.clone());
    tick_n(&mut sim, 3);
    let mut ck = sim.checkpoint();
    ck.population.versions.last_mut().unwrap().flat.0.pop();
    let mut fresh = built(first.config);
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
