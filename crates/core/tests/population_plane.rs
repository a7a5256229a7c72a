//! The population plane's own contract (stubs of broadcast versions, a
//! replica only while a device trains): its checkpoint block, a table
//! of exactly the live planes, residency bounded by the active set,
//! version ids reused across syncs, hostile blocks rejected before any
//! write, pooled replicas unreachable, and snapshots in older shapes
//! that still resume. Its pinned trajectories and the derived-state
//! invariants after every tick are cells of the differential matrix
//! (`matrix.rs`).

use middle_core::checkpoint::{
    DeviceSlotCheckpoint, PopulationCheckpoint, RngStateCheckpoint, VersionCheckpoint,
};
use middle_core::{Algorithm, Device, DeviceRef, SimCheckpoint, SimConfig, Simulation, StepMode};
use middle_data::Task;
use middle_nn::params::flatten;
use middle_nn::serialize::Packed;

mod common;
use common::{
    assert_rejected, assert_same_run, bits, broadcasts, built, demoted_senders_in_flight, finished,
    in_flight_broadcasts, resumed, run_to_end, tick_n, Cell,
};

/// A MIDDLE run runs no Oort pass, so its snapshot carries no utility;
/// one written when every participant ran the pass — each trained
/// device carrying a utility — restores and finishes on the same
/// trajectory, since nothing under MIDDLE reads it.
#[test]
fn snapshot_with_oort_utilities_resumes_bitwise() {
    // 24 devices over 2 edges: at most K*E*T_c = 16 can be resident, so
    // live stubs are guaranteed at the cut, two steps past a sync.
    let cfg = SimConfig {
        num_devices: 24,
        ..broadcasts()
    };
    let straight = finished(cfg.clone());
    let mut first = built(cfg.clone());
    tick_n(&mut first, 10);
    let mut ck = first.checkpoint();
    let resident = |s: &DeviceSlotCheckpoint| matches!(s, DeviceSlotCheckpoint::Resident { .. });
    let slots = &ck.population.devices;
    assert!(slots.iter().any(resident) && !slots.iter().all(resident));

    // A slot's Oort utility, and whether its device ever trained.
    fn utility(slot: &mut DeviceSlotCheckpoint) -> (&mut Option<f32>, bool) {
        match slot {
            DeviceSlotCheckpoint::Resident { device } => (
                &mut device.oort_utility,
                device.last_participation.is_some(),
            ),
            DeviceSlotCheckpoint::Stub {
                oort_utility,
                last_participation,
                ..
            } => (oort_utility, last_participation.is_some()),
        }
    }
    let slots = &mut ck.population.devices;
    assert!(
        slots.iter_mut().all(|s| utility(s).0.is_none()),
        "a MIDDLE snapshot carries none"
    );
    // The shape a run wrote when every participant ran the Oort pass: a
    // utility on every trained device (stand-in values; none is read).
    for (m, slot) in slots.iter_mut().enumerate() {
        if let (utility, true) = utility(slot) {
            *utility = Some(0.5 + m as f32);
        }
    }
    assert!(slots.iter_mut().any(|s| utility(s).0.is_some()));
    let ck = SimCheckpoint::from_json(&ck.to_json()).expect("round trip");
    assert_same_run(&straight, &resumed(&cfg, &ck), "Oort utilities");
}

/// Event-driven × real latencies: a broadcast demotes senders whose
/// uploads are still in flight. Their replicas go to the pool and must
/// be unreachable from then on — `get` refuses a stub — on every tick.
#[test]
fn pooled_replicas_of_senders_in_flight_are_unreachable() {
    let mut sim = built(in_flight_broadcasts());
    let mut demoted_in_flight = 0;
    while !sim.is_finished() {
        sim.tick(StepMode::Fast);
        for m in demoted_senders_in_flight(&sim) {
            demoted_in_flight += 1;
            let get = std::panic::AssertUnwindSafe(|| sim.population().get(m).id);
            assert!(std::panic::catch_unwind(get).is_err(), "stub {m} reachable");
        }
    }
    assert!(
        demoted_in_flight > 0,
        "no in-flight sender was ever demoted"
    );
}

/// A checkpoint writes the one population block, a version table plus
/// a slot per device. Stripping the block is rejected: a document
/// without it does not parse, and an emptied one does not restore.
#[test]
fn checkpoint_population_block_is_required() {
    let cfg = broadcasts();
    let mut sim = built(cfg.clone());
    tick_n(&mut sim, 5);
    let ck = sim.checkpoint();
    assert_eq!(ck.population.devices.len(), cfg.num_devices);
    assert!(!ck.population.versions.is_empty());

    let json = ck.to_json();
    let unnamed = json.replacen("\"population\":", "\"unnamed\":", 1);
    assert_ne!(unnamed, json);
    let err = SimCheckpoint::from_json(&unnamed).expect_err("must not parse");
    assert!(err.contains("population"), "{err}");

    let mut emptied = ck;
    emptied.population.versions.clear();
    emptied.population.devices.clear();
    assert_rejected(&mut built(cfg), &emptied, "population");
}

/// Right after a full broadcast every device is a stub of the cloud's
/// plane, so the checkpoint's table holds exactly that one plane and no
/// replica. Two simulations built and ticked alike write byte-identical
/// documents (but for the wall clock) after every step.
#[test]
fn checkpoint_after_a_full_broadcast_holds_one_plane() {
    let cfg = broadcasts();
    let mut sim = built(cfg.clone());
    let mut twin = built(cfg);
    let mut after_sync = 0;
    while !sim.is_finished() {
        let (syncs, step) = (sim.syncs(), sim.next_step());
        sim.tick(StepMode::Fast);
        twin.tick(StepMode::Fast);
        // Everything but the host's wall clock.
        let document = |sim: &Simulation| {
            let mut ck = sim.checkpoint();
            ck.elapsed_seconds = 0.0;
            (ck.to_json(), ck)
        };
        let (json, ck) = document(&sim);
        assert!(json == document(&twin).0, "step {step}: documents differ");
        if sim.syncs() > syncs {
            assert_eq!(ck.population.versions.len(), 1, "step {step}");
            let cloud = bits(&flatten(sim.cloud_model()));
            assert_eq!(bits(&ck.population.versions[0].flat), cloud);
            let version = ck.population.versions[0].id;
            assert!(ck.population.devices.iter().all(|slot| matches!(
                slot,
                DeviceSlotCheckpoint::Stub { version: v, .. } if *v == version
            )));
            after_sync += 1;
        }
    }
    assert!(after_sync >= 4, "{after_sync} syncs");
}

/// Residency stays bounded by the active set: at most K·E new replicas
/// per step between broadcasts, and a full broadcast demotes everyone.
/// With 64 devices this run must never materialise more than half of
/// them, and ends (on a sync step) with zero residents.
#[test]
fn residency_bounded_by_active_set() {
    let cfg = SimConfig {
        num_devices: 64,
        num_edges: 4,
        devices_per_edge: 2,
        ..broadcasts()
    };
    let cap = cfg.devices_per_edge * cfg.num_edges * cfg.cloud_interval;
    let (sim, _) = Cell::new("64 devices", cfg).run();
    let population = sim.population();
    let peak = population.peak_resident();
    assert!(peak <= cap, "peak {peak} exceeds K*E*interval {cap}");
    assert!(peak < population.len());
    assert_eq!(
        population.resident_count(),
        0,
        "final sync step must demote every replica"
    );
}

/// The version id each stub carries (`None` for residents), from the
/// checkpoint — the only place ids are visible per device.
fn stub_versions(sim: &Simulation) -> Vec<Option<u32>> {
    sim.checkpoint()
        .population
        .devices
        .iter()
        .map(|slot| match slot {
            DeviceSlotCheckpoint::Stub { version, .. } => Some(*version),
            DeviceSlotCheckpoint::Resident { .. } => None,
        })
        .collect()
}

/// A broadcast reuses the lowest tombstoned version id, so the table
/// stays as small as the most versions ever live at once (plus the one
/// being born) however many syncs a run makes — it used to grow by a
/// slot per sync. WAN outages keep several versions live at a time, so
/// ids are reused out of order. And because the id a broadcast takes
/// depends on the live set alone, a run resumed from a checkpoint (whose
/// table is rebuilt from live ids only) hands out the same ids as the
/// uninterrupted one.
#[test]
fn version_table_reuses_tombstoned_ids_across_200_syncs() {
    let mut cfg = SimConfig::tiny(Task::Speech, Algorithm::middle());
    cfg.num_devices = 24;
    cfg.local_steps = 1;
    cfg.cloud_interval = 1;
    cfg.steps = 200;
    cfg.eval_interval = 100;
    cfg.faults.wan_outage = 0.4;

    // The live count and the table's length, tombstones included:
    // `version_scores` writes one score per slot.
    let table = |sim: &Simulation| {
        let p = sim.population();
        let mut scores = Vec::new();
        p.version_scores(&flatten(sim.cloud_model()), 1.0, &mut scores);
        (p.live_versions().count(), scores.len())
    };
    let mut sim = built(cfg.clone());
    let (mut most_live, mut json) = (1, None);
    for t in 0..cfg.steps {
        sim.tick(StepMode::Fast);
        let (live, len) = table(&sim);
        most_live = most_live.max(live);
        assert!(len <= most_live + 1, "step {t}: {len} slots, {live} live");
        if sim.next_step() == 77 {
            assert!(live < len, "cut with a tombstone in the table");
            json = Some(sim.checkpoint().to_json());
        }
    }
    assert!(sim.syncs() >= 150, "{} syncs", sim.syncs());
    assert!(most_live >= 3, "outages never kept versions alive together");
    let straight = run_to_end(sim);

    let ck = SimCheckpoint::from_json(&json.expect("cut")).expect("round trip");
    let second = resumed(&cfg, &ck);
    assert_same_run(&straight, &second, "cut with a tombstone");
    assert_eq!(stub_versions(&straight.0), stub_versions(&second.0));
}

/// A hostile checkpoint is rejected with `CheckpointMismatch` before the
/// first write — a version table or stub that does not fit, algorithm
/// state of the wrong size — and the target then finishes bitwise equal
/// to a fresh run.
#[test]
fn hostile_population_checkpoint_is_rejected_before_any_write() {
    let cfg = SimConfig {
        algorithm: Algorithm::fedfly(),
        num_devices: 24,
        ..broadcasts()
    };

    let mut donor = built(cfg.clone());
    tick_n(&mut donor, 6);
    let ck = donor.checkpoint();
    let pck = &ck.population;
    let stub = (pck.devices.iter())
        .position(|s| matches!(s, DeviceSlotCheckpoint::Stub { .. }))
        .expect("a stub at the cut");
    let free_id = (pck.versions.iter().map(|v| v.id).max()).expect("a live version") + 1;
    let edit = |f: &dyn Fn(&mut SimCheckpoint)| {
        let mut bad = ck.clone();
        f(&mut bad);
        bad
    };
    fn versions(bad: &mut SimCheckpoint) -> &mut Vec<VersionCheckpoint> {
        &mut bad.population.versions
    }
    let cases = [
        (
            "truncated version flat",
            edit(&|bad| {
                let v = &mut versions(bad)[0];
                v.flat = Packed(v.flat[..10].to_vec());
            }),
        ),
        (
            "stub of a missing version",
            edit(&|bad| {
                let slot = &mut bad.population.devices[stub];
                if let DeviceSlotCheckpoint::Stub { version, .. } = slot {
                    *version = free_id;
                }
            }),
        ),
        (
            "duplicate version id",
            edit(&|bad| {
                let copy = versions(bad)[0].clone();
                versions(bad).push(copy);
            }),
        ),
        (
            "version id past the device count",
            edit(&|bad| {
                let mut copy = versions(bad)[0].clone();
                copy.id = cfg.num_devices as u32 + 1;
                versions(bad).push(copy);
            }),
        ),
        (
            "algorithm state of the wrong size",
            edit(&|bad| {
                bad.algorithm.as_mut().unwrap().in_flight.pop();
            }),
        ),
        // Last: at the parent of the check this one sized the table at
        // `id + 1` slots and aborted on the allocation.
        (
            "version id near u32::MAX",
            edit(&|bad| versions(bad)[0].id = u32::MAX - 1),
        ),
    ];

    // What every rejected target must finish as: one untouched run (a
    // run is a pure function of its config).
    let fresh = finished(cfg.clone());
    for (what, bad) in cases {
        let bad = SimCheckpoint::from_json(&bad.to_json()).expect("checkpoint parses");
        let mut target = built(cfg.clone());
        assert_rejected(&mut target, &bad, "");
        assert_same_run(&fresh, &run_to_end(target), what);
    }
}

/// Rewrites `ck`, a checkpoint of `sim`, in the shape a population that
/// held a full replica per device wrote: every device a stub that
/// carries its RNG state, each resident replica's plane a version of its
/// own (appended after the live ones), a never-trained device's stream
/// the seeded one it would derive.
fn as_replica_per_device_format(sim: &Simulation, ck: &mut SimCheckpoint) {
    let PopulationCheckpoint { versions, devices } = &mut ck.population;
    let mut next_id = versions.iter().map(|v| v.id + 1).max().unwrap_or(0);
    for (m, slot) in devices.iter_mut().enumerate() {
        match slot {
            DeviceSlotCheckpoint::Resident { device } => {
                let DeviceRef::Resident(dev) = sim.population().view(m) else {
                    panic!("device {m} is written resident but is a stub");
                };
                versions.push(VersionCheckpoint {
                    id: next_id,
                    flat: Packed(dev.flat().to_vec()),
                    norm_sq: dev.flat_norm_sq(),
                });
                *slot = DeviceSlotCheckpoint::Stub {
                    version: next_id,
                    oort_utility: device.oort_utility,
                    last_participation: device.last_participation,
                    rng: Some(device.rng.clone()),
                };
                next_id += 1;
            }
            DeviceSlotCheckpoint::Stub {
                rng: rng @ None, ..
            } => {
                let (data, model) = (sim.test_set().clone(), sim.cloud_model().clone());
                let virgin = Device::new(m, data, model, sim.config().seed);
                *rng = Some(RngStateCheckpoint::capture(virgin.rng_ref()));
            }
            DeviceSlotCheckpoint::Stub { .. } => {}
        }
    }
}

/// Snapshots written with a replica per device still resume: a
/// mid-interval checkpoint rewritten in that shape
/// ([`as_replica_per_device_format`]) restores — with no resident
/// replica, a version per trained plane — and the run finishes bitwise
/// equal to an uninterrupted one, lockstep and event-driven with uploads
/// in flight. Sweep snapshots on disk from before the single
/// representation rely on this.
#[test]
fn replica_per_device_snapshot_resumes_bitwise() {
    let lockstep = SimConfig {
        num_devices: 24,
        ..broadcasts()
    };
    for (cfg, cut) in [(lockstep, 6), (in_flight_broadcasts(), 5)] {
        let straight = finished(cfg.clone());
        let mut first = built(cfg.clone());
        tick_n(&mut first, cut);
        assert!(
            first.population().resident_count() > 0,
            "no replica at the cut"
        );
        let mut ck = first.checkpoint();
        as_replica_per_device_format(&first, &mut ck);
        assert!(ck
            .population
            .devices
            .iter()
            .all(|slot| matches!(slot, DeviceSlotCheckpoint::Stub { rng: Some(_), .. })));
        let ck = SimCheckpoint::from_json(&ck.to_json()).expect("round trip");
        let mut second = built(cfg);
        second
            .restore(&ck)
            .expect("a replica-per-device snapshot restores");
        assert_eq!(second.population().resident_count(), 0);
        second.check_invariants();
        assert_same_run(
            &straight,
            &run_to_end(second),
            "replica-per-device snapshot",
        );
    }
}
