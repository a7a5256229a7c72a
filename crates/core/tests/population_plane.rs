//! Gates for the population plane (stubs of broadcast versions, a
//! replica only while a device trains, streaming traces): runs keep the
//! trajectories pinned when every device still had a replica of its own
//! — every evaluation point, the full communication ledger and the
//! parameters of every device — under every fault model, with
//! compression on and under the event engine with real in-flight
//! latencies; checkpoints resume bitwise, those written when every
//! device had a replica among them;
//! the plane's derived state agrees with itself after every tick; and
//! the number of resident replicas stays bounded by the active set, not
//! the population.

use middle_core::checkpoint::{
    DeviceSlotCheckpoint, PopulationCheckpoint, RngStateCheckpoint, VersionCheckpoint,
};
use middle_core::{
    Algorithm, DelayModel, Device, DeviceRef, DropoutModel, ExecutionMode, LatencyModel,
    SimCheckpoint, SimConfig, SimError, Simulation, SimulationBuilder, StepMode,
};
use middle_data::Task;
use middle_nn::params::flatten;
use middle_nn::serialize::Packed;

mod common;
use common::{assert_records_equal, bits, device_plane, fnv, sim_bits, trajectory_fnv};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

/// 20 steps with an intermediate cloud sync cadence, so runs cross
/// several broadcast generations and end on a sync step (every stub
/// retargeted at least four times).
fn base_config() -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 4;
    cfg
}

/// Runs `cfg` to completion and demands its fingerprint — every model
/// in the system and the record ([`trajectory_fnv`]), then the simulated
/// clock — be `pin`. Every pin was captured on a run that held a full
/// replica per device, so the stubs must stand in for those replicas
/// bit for bit.
fn assert_pinned(cfg: SimConfig, pin: u64) {
    let mut sim = built(cfg);
    let record = sim.run();
    let mut h = trajectory_fnv(&sim, &record);
    fnv(
        &mut h,
        &record.event_seconds.map_or(0, f64::to_bits).to_le_bytes(),
    );
    assert_eq!(h, pin, "trajectory fingerprint {h:#018x}");
}

/// Clean run.
#[test]
fn trajectory_pinned_clean() {
    assert_pinned(base_config(), 0x0ec009083d5eafd4);
}

/// Bursty Markov dropout exercises empty cohorts and the availability
/// RNG draw order over index-built candidate lists.
#[test]
fn trajectory_pinned_under_dropout() {
    let mut cfg = base_config();
    cfg.faults.dropout = DropoutModel::Markov {
        p_fail: 0.3,
        p_recover: 0.5,
    };
    assert_pinned(cfg, 0x006543bc75512964);
}

/// Stragglers + deadline misses + upload loss exercise the stale-merge
/// queue and the retry ledger against resident participants.
#[test]
fn trajectory_pinned_under_stragglers_and_loss() {
    let mut cfg = base_config();
    cfg.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    cfg.faults.deadline_s = 1.2;
    cfg.faults.upload_loss = 0.2;
    cfg.faults.upload_retries = 2;
    assert_pinned(cfg, 0xa8b1ee3fe34d7aed);
}

/// WAN outages exercise the partial broadcast: only devices at reached
/// edges retarget to the new version, the rest keep the old one (which
/// must stay live in the version table).
#[test]
fn trajectory_pinned_under_wan_outage() {
    let mut cfg = base_config();
    cfg.faults.wan_outage = 0.5;
    assert_pinned(cfg, 0x6474335b7ffad5b6);
}

/// Lossy compression exercises the error-feedback residual path, whose
/// per-device residual state indexes by device id, not residency.
#[test]
fn trajectory_pinned_with_compression() {
    let mut cfg = base_config();
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    assert_pinned(cfg, 0x65ba9203a4162392);
}

/// The event engine with real latencies: exponential stragglers ride
/// the heap as in-flight uploads (20 % of them lost and retried), and
/// with a sync every other round a cloud broadcast lands while uploads
/// are still in flight — it demotes their senders to stubs, so nothing
/// downstream of the send may read the replica.
fn async_config() -> SimConfig {
    let mut cfg = base_config();
    cfg.cloud_interval = 2;
    cfg.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    cfg.faults.upload_loss = 0.2;
    cfg.faults.upload_retries = 2;
    cfg.timeline.mode = ExecutionMode::EventDriven;
    cfg.timeline.latency = LatencyModel::Faults;
    cfg
}

/// Whether some device's upload is in flight while the device itself is
/// a stub — a broadcast demoted the sender after it sent.
fn has_demoted_sender_in_flight(sim: &Simulation) -> bool {
    let ck = sim.checkpoint();
    let tck = ck.timeline.as_ref().expect("event-driven checkpoint");
    tck.in_flight.iter().enumerate().any(|(m, snapshot)| {
        snapshot.is_some() && matches!(sim.population().view(m), DeviceRef::Stub(_))
    })
}

/// The event engine with real latencies, plain and through the lossy
/// compression plane (whose in-flight payloads are send-time
/// reconstructions). That the hostile regime actually occurs on this
/// config is asserted by the checkpoint test below, which cuts the run
/// at its first occurrence.
#[test]
fn trajectory_pinned_event_driven_with_real_latencies() {
    assert_pinned(async_config(), 0xabc815bd4c02dde2);
    let mut lossy = async_config();
    lossy.compression.enabled = true;
    lossy.compression.quantize_bits = 8;
    lossy.compression.top_frac = 0.5;
    assert_pinned(lossy, 0x6a0846f7328e0ad5);
}

/// Kill the async run at a tick where a demoted sender's upload is
/// still in flight, round-trip the checkpoint through JSON, and the
/// resumed run must finish bitwise-identical to the uninterrupted one.
#[test]
fn async_checkpoint_resumes_bitwise_mid_heap() {
    let cfg = async_config();
    let mut straight = built(cfg.clone());
    let reference = straight.run();

    let mut first = built(cfg.clone());
    while !has_demoted_sender_in_flight(&first) {
        assert!(
            !first.is_finished(),
            "no broadcast ever demoted an in-flight sender"
        );
        first.tick(StepMode::Fast);
    }
    let json = first.checkpoint().to_json();
    drop(first);

    let ck = SimCheckpoint::from_json(&json).expect("round trip");
    let mut second = built(cfg);
    second.restore(&ck).expect("restore");
    let resumed = second.run();

    assert_records_equal(&reference, &resumed);
    assert_eq!(reference.event_seconds, resumed.event_seconds);
    assert_eq!(sim_bits(&straight), sim_bits(&second));
}

/// A mid-run checkpoint (live stubs, multiple live versions, resident
/// participants) restores into a fresh simulation and finishes
/// bitwise-identically to the uninterrupted run. A MIDDLE run runs no
/// Oort pass, so its snapshot carries no utility; one written when every
/// participant ran the pass — each trained device carrying a utility —
/// restores and finishes on the same trajectory, since nothing under
/// MIDDLE reads it.
#[test]
fn checkpoint_resumes_bitwise_mid_run() {
    // 24 devices over 2 edges: at most K*E*T_c = 16 can be resident, so
    // live stubs are guaranteed at the checkpoint cut.
    let mut cfg = base_config();
    cfg.num_devices = 24;

    let mut uninterrupted = built(cfg.clone());
    for _ in 0..cfg.steps {
        uninterrupted.tick(StepMode::Fast);
    }

    // Stop two steps past a sync: most devices are stubs of the last
    // broadcast, the last two cohorts are resident replicas.
    let mut first_half = built(cfg.clone());
    for _ in 0..10 {
        first_half.tick(StepMode::Fast);
    }
    assert!(first_half.population().resident_count() > 0);
    let ck = first_half.checkpoint();
    let pck = &ck.population;
    assert!(pck
        .devices
        .iter()
        .any(|s| matches!(s, DeviceSlotCheckpoint::Resident { .. })));
    assert!(pck
        .devices
        .iter()
        .any(|s| matches!(s, DeviceSlotCheckpoint::Stub { .. })));

    let utilities = |ck: &SimCheckpoint| -> usize {
        (ck.population.devices.iter())
            .filter(|slot| match slot {
                DeviceSlotCheckpoint::Resident { device } => device.oort_utility.is_some(),
                DeviceSlotCheckpoint::Stub { oort_utility, .. } => oort_utility.is_some(),
            })
            .count()
    };
    assert_eq!(utilities(&ck), 0, "a MIDDLE snapshot carries no utility");
    // The shape a run wrote when every participant ran the Oort pass: a
    // utility on every trained device (stand-in values; none is read).
    let mut with_utilities = ck.clone();
    for (m, slot) in with_utilities.population.devices.iter_mut().enumerate() {
        let (utility, trained) = match slot {
            DeviceSlotCheckpoint::Resident { device } => {
                (&mut device.oort_utility, device.last_participation)
            }
            DeviceSlotCheckpoint::Stub {
                oort_utility,
                last_participation,
                ..
            } => (oort_utility, *last_participation),
        };
        if trained.is_some() {
            *utility = Some(0.5 + m as f32);
        }
    }
    assert!(utilities(&with_utilities) > 0);

    for ck in [ck, with_utilities] {
        // Round-trip through JSON so float formatting is part of the gate.
        let ck = middle_core::SimCheckpoint::from_json(&ck.to_json()).expect("round trip");
        let mut resumed = built(cfg.clone());
        resumed.restore(&ck).expect("restore");
        for _ in 10..cfg.steps {
            resumed.tick(StepMode::Fast);
        }

        assert_eq!(
            bits(&flatten(uninterrupted.cloud_model())),
            bits(&flatten(resumed.cloud_model()))
        );
        for (a, b) in uninterrupted.edges().iter().zip(resumed.edges()) {
            assert_eq!(bits(&flatten(&a.model)), bits(&flatten(&b.model)));
            assert_eq!(a.window_samples.to_bits(), b.window_samples.to_bits());
        }
        for m in 0..cfg.num_devices {
            assert_eq!(
                bits(&device_plane(&uninterrupted, m)),
                bits(&device_plane(&resumed, m)),
                "device {m}"
            );
        }
        assert_eq!(uninterrupted.comm_stats(), resumed.comm_stats());
        assert_eq!(uninterrupted.syncs(), resumed.syncs());
        assert_eq!(uninterrupted.active_steps(), resumed.active_steps());
    }
}

/// A checkpoint writes the one population block, a version table plus
/// a slot per device. Stripping the block is rejected: a document
/// without it does not parse, and an emptied one does not restore.
#[test]
fn checkpoint_population_block_is_required() {
    let cfg = base_config();
    let mut sim = built(cfg.clone());
    for _ in 0..5 {
        sim.tick(StepMode::Fast);
    }
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
    let err = built(cfg).restore(&emptied).expect_err("must reject");
    assert!(err.to_string().contains("population"), "{err}");
}

/// Right after a full broadcast every device is a stub of the cloud's
/// plane, so the checkpoint's table holds exactly that one plane and no
/// replica. Two simulations built and ticked alike write byte-identical
/// documents (but for the wall clock) after every step.
#[test]
fn checkpoint_after_a_full_broadcast_holds_one_plane() {
    let cfg = base_config();
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
    let mut cfg = base_config();
    cfg.num_devices = 64;
    cfg.num_edges = 4;
    cfg.devices_per_edge = 2;
    let mut sim = built(cfg.clone());
    for _ in 0..cfg.steps {
        sim.tick(StepMode::Fast);
    }
    let cap = cfg.devices_per_edge * cfg.num_edges * cfg.cloud_interval;
    assert!(
        sim.population().peak_resident() <= cap,
        "peak {} exceeds K*E*interval {}",
        sim.population().peak_resident(),
        cap
    );
    assert!(sim.population().peak_resident() < cfg.num_devices);
    assert_eq!(
        sim.population().resident_count(),
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

    let table = |sim: &Simulation| {
        let p = sim.population();
        (p.live_versions().count(), p.version_table_len())
    };
    let mut straight = built(cfg.clone());
    let mut first = built(cfg.clone());
    let (mut most_live, mut json) = (1, None);
    for t in 0..cfg.steps {
        straight.tick(StepMode::Fast);
        let (live, len) = table(&straight);
        most_live = most_live.max(live);
        assert!(len <= most_live + 1, "step {t}: {len} slots, {live} live");
        if t < 77 {
            first.tick(StepMode::Fast);
        } else if json.is_none() {
            assert!(
                table(&first).0 < table(&first).1,
                "cut with a tombstone in the table"
            );
            json = Some(first.checkpoint().to_json());
        }
    }
    assert!(straight.syncs() >= 150, "{} syncs", straight.syncs());
    assert!(most_live >= 3, "outages never kept versions alive together");
    let reference = straight.finish();

    let ck = SimCheckpoint::from_json(&json.expect("cut")).expect("round trip");
    let mut second = built(cfg);
    second.restore(&ck).expect("restore");
    let resumed = second.run();
    assert_records_equal(&reference, &resumed);
    assert_eq!(sim_bits(&straight), sim_bits(&second));
    assert_eq!(stub_versions(&straight), stub_versions(&second));
}

/// Ticks `cfg` to the end, checking after every tick that the
/// plane's derived state — slot table, residents list, version counts,
/// replica pool, cached selection scores — agrees with what it is
/// derived from. `each_tick` sees the simulation after every check.
fn assert_invariants_hold(cfg: SimConfig, mut each_tick: impl FnMut(&Simulation)) {
    let mut sim = built(cfg);
    sim.check_invariants();
    while !sim.is_finished() {
        sim.tick(StepMode::Fast);
        sim.check_invariants();
        each_tick(&sim);
    }
    assert!(sim.syncs() >= 4, "the run must cross several broadcasts");
}

/// Full broadcasts: every sync demotes the whole working set into the
/// pool and the next window draws it back out.
#[test]
fn invariants_hold_under_full_broadcasts() {
    let mut pooled = false;
    assert_invariants_hold(base_config(), |sim| {
        let p = sim.population();
        pooled |= p.fresh_replicas() > p.resident_count();
        assert!(p.fresh_replicas() <= p.peak_resident());
    });
    assert!(pooled, "no replica ever waited in the pool");
}

/// Masked broadcasts: residents under a down edge survive the sync, so
/// the cloud epoch changes under their cached scores, and several
/// versions are live at once.
#[test]
fn invariants_hold_under_wan_outage() {
    let mut cfg = base_config();
    cfg.faults.wan_outage = 0.5;
    let mut survivors = false;
    assert_invariants_hold(cfg.clone(), |sim| {
        let synced_now = sim.next_step().is_multiple_of(cfg.cloud_interval);
        survivors |= synced_now && sim.population().resident_count() > 0;
    });
    assert!(survivors, "no resident ever outlived a masked sync");
}

/// The lossy compression plane syncs through its own broadcast path.
#[test]
fn invariants_hold_with_compression() {
    let mut cfg = base_config();
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    assert_invariants_hold(cfg, |_| {});
}

/// Event-driven × real latencies: a broadcast demotes senders
/// whose uploads are still in flight. Their replicas go to the pool and
/// must be unreachable from then on — `get` refuses a stub.
#[test]
fn invariants_hold_event_driven_and_pooled_replicas_are_unreachable() {
    let mut demoted_in_flight = 0;
    assert_invariants_hold(async_config(), |sim| {
        let ck = sim.checkpoint();
        let tck = ck.timeline.as_ref().expect("event-driven checkpoint");
        for (m, _) in tck
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
        {
            if matches!(sim.population().view(m), DeviceRef::Stub(_)) {
                demoted_in_flight += 1;
                let get = std::panic::AssertUnwindSafe(|| sim.population().get(m).id);
                assert!(std::panic::catch_unwind(get).is_err(), "stub {m} reachable");
            }
        }
    });
    assert!(
        demoted_in_flight > 0,
        "no in-flight sender was ever demoted"
    );
}

/// One step can draw both pooled and fresh replicas: a masked broadcast
/// demotes only part of the working set, so the next steps materialise
/// more stubs than the pool holds — the pool runs dry mid-step, the rest
/// are built fresh, and the participant region finishes both. Moved
/// devices blend (Eq. 9) from their version, stationary ones take the
/// edge model; the plane's invariants hold after every tick and the run
/// keeps its pinned trajectory.
#[test]
fn pooled_and_fresh_replicas_in_one_step_keep_the_pinned_trajectory() {
    let mut cfg = base_config();
    cfg.num_devices = 48;
    cfg.num_edges = 4;
    cfg.devices_per_edge = 3;
    cfg.cloud_interval = 2;
    cfg.faults.wan_outage = 0.5;
    let (mut before, mut mixed) = ((0, 0), 0);
    assert_invariants_hold(cfg.clone(), |sim| {
        let p = sim.population();
        let (fresh, resident) = (p.fresh_replicas(), p.resident_count());
        // Replicas are allocated only while the pool is empty, so a step
        // that found some pooled and still allocated drained the pool.
        let pooled = before.0 - before.1;
        if pooled > 0 && fresh > before.0 {
            mixed += 1;
        }
        before = (fresh, resident);
    });
    assert!(mixed > 0, "no step drew pooled and fresh replicas together");
    assert_pinned(cfg, 0x95d3028079d4cb3b);
}

/// A hostile checkpoint is rejected with `CheckpointMismatch` before the
/// first write — a version table or stub that does not fit, algorithm
/// state of the wrong size — and the target then finishes bitwise equal
/// to a fresh run.
#[test]
fn hostile_population_checkpoint_is_rejected_before_any_write() {
    let mut cfg = base_config();
    cfg.algorithm = Algorithm::fedfly();
    cfg.num_devices = 24;

    let mut donor = built(cfg.clone());
    for _ in 0..6 {
        donor.tick(StepMode::Fast);
    }
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
    let mut fresh = built(cfg.clone());
    let (reference, reference_bits) = (fresh.run(), sim_bits(&fresh));
    for (what, bad) in cases {
        let bad = SimCheckpoint::from_json(&bad.to_json()).expect("checkpoint parses");
        let mut target = built(cfg.clone());
        let err = target.restore(&bad).expect_err(what);
        assert!(
            matches!(err, SimError::CheckpointMismatch { .. }),
            "{what}: {err}"
        );
        let record = target.run();
        assert_records_equal(&reference, &record);
        assert_eq!(reference_bits, sim_bits(&target), "{what}");
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
    let mut lockstep = base_config();
    lockstep.num_devices = 24;
    for (cfg, cut) in [(lockstep, 6), (async_config(), 5)] {
        let mut straight = built(cfg.clone());
        let reference = straight.run();

        let mut first = built(cfg.clone());
        for _ in 0..cut {
            first.tick(StepMode::Fast);
        }
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
        let resumed = second.run();

        assert_records_equal(&reference, &resumed);
        assert_eq!(reference.event_seconds, resumed.event_seconds);
        assert_eq!(sim_bits(&straight), sim_bits(&second));
    }
}
