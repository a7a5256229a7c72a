//! Equivalence gates for the lazy population plane: a lazy-mode
//! simulation (stubs + version table + streaming trace) must reproduce
//! the dense simulation bit for bit — every evaluation point, the full
//! communication ledger, and the effective parameters of every device,
//! under every fault model, with compression on and under the event
//! engine with real in-flight latencies — while keeping the number of
//! resident replicas bounded by the active set, not the population.

use middle_core::checkpoint::DeviceSlotCheckpoint;
use middle_core::{
    Algorithm, DelayModel, DeviceRef, DropoutModel, ExecutionMode, LatencyModel, Population,
    PopulationMode, RunRecord, SimCheckpoint, SimConfig, Simulation, SimulationBuilder, StepMode,
};
use middle_data::Task;
use middle_nn::params::flatten;

mod common;
use common::{assert_records_equal, bits};

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

fn lazy(mut cfg: SimConfig) -> SimConfig {
    cfg.population = PopulationMode::Lazy;
    cfg
}

/// The parameters device `m` would train from if selected next step:
/// its replica's flat when resident, its version slot's flat when
/// virtualized. In dense mode this is just the device's flat.
fn effective_device_bits(sim: &Simulation, m: usize) -> Vec<u32> {
    match sim.population().view(m) {
        DeviceRef::Resident(dev) => bits(dev.flat()),
        DeviceRef::Stub(v) => bits(sim.population().version_flat(v)),
    }
}

/// The bits of every model in the system: cloud, edges, then each
/// device's effective parameters.
fn model_bits(sim: &Simulation) -> Vec<Vec<u32>> {
    let mut models = vec![bits(&flatten(sim.cloud_model()))];
    models.extend(sim.edges().iter().map(|e| bits(&flatten(&e.model))));
    models.extend((0..sim.population().len()).map(|m| effective_device_bits(sim, m)));
    models
}

/// Runs `cfg` to completion and fingerprints everything the plane must
/// preserve: the run record's points/ledger/counters plus the bits of
/// every model in the system.
fn fingerprint(cfg: &SimConfig, mode: StepMode) -> (RunRecord, Vec<Vec<u32>>) {
    let mut sim = built(cfg.clone());
    let record = sim.run_with(mode);
    let models = model_bits(&sim);
    (record, models)
}

fn assert_modes_equivalent(cfg: SimConfig, mode: StepMode) {
    let (dense_record, dense_models) = fingerprint(&cfg, mode);
    let (lazy_record, lazy_models) = fingerprint(&lazy(cfg), mode);
    assert_records_equal(&dense_record, &lazy_record);
    assert_eq!(dense_record.event_seconds, lazy_record.event_seconds);
    assert_eq!(dense_models, lazy_models);
}

/// Clean run: lazy == dense bitwise in the fast path.
#[test]
fn lazy_matches_dense_clean() {
    assert_modes_equivalent(base_config(), StepMode::Fast);
}

/// Clean run: lazy == dense bitwise in the reference path too (the
/// reference broadcast keeps its clone-based oracle only when dense).
#[test]
fn lazy_matches_dense_clean_reference() {
    assert_modes_equivalent(base_config(), StepMode::Reference);
}

/// Bursty Markov dropout exercises empty cohorts and the availability
/// RNG draw order over index-built candidate lists.
#[test]
fn lazy_matches_dense_under_dropout() {
    let mut cfg = base_config();
    cfg.faults.dropout = DropoutModel::Markov {
        p_fail: 0.3,
        p_recover: 0.5,
    };
    assert_modes_equivalent(cfg, StepMode::Fast);
}

/// Stragglers + deadline misses + upload loss exercise the stale-merge
/// queue and the retry ledger against resident participants.
#[test]
fn lazy_matches_dense_under_stragglers_and_loss() {
    let mut cfg = base_config();
    cfg.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    cfg.faults.deadline_s = 1.2;
    cfg.faults.upload_loss = 0.2;
    cfg.faults.upload_retries = 2;
    assert_modes_equivalent(cfg, StepMode::Fast);
}

/// WAN outages exercise the partial broadcast: only devices at reached
/// edges retarget to the new version, the rest keep the old one (which
/// must stay live in the version table).
#[test]
fn lazy_matches_dense_under_wan_outage() {
    let mut cfg = base_config();
    cfg.faults.wan_outage = 0.5;
    assert_modes_equivalent(cfg, StepMode::Fast);
    let mut ref_cfg = base_config();
    ref_cfg.faults.wan_outage = 0.5;
    assert_modes_equivalent(ref_cfg, StepMode::Reference);
}

/// Lossy compression exercises the error-feedback residual path, whose
/// per-device residual state indexes by device id, not residency.
#[test]
fn lazy_matches_dense_with_compression() {
    let mut cfg = base_config();
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    assert_modes_equivalent(cfg, StepMode::Fast);
}

/// The event engine with real latencies: exponential stragglers ride
/// the heap as in-flight uploads (20 % of them lost and retried), and
/// with a sync every other round a cloud broadcast lands while uploads
/// are still in flight — in lazy mode it demotes their senders to
/// stubs, so nothing downstream of the send may read the replica.
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

/// Lazy == dense bitwise under the event engine with real latencies,
/// plain and through the lossy compression plane (whose in-flight
/// payloads are send-time reconstructions). That the hostile regime
/// actually occurs on this config is asserted by the checkpoint test
/// below, which cuts the run at its first occurrence.
#[test]
fn lazy_matches_dense_event_driven_with_real_latencies() {
    assert_modes_equivalent(async_config(), StepMode::Fast);
    assert_modes_equivalent(async_config(), StepMode::Reference);
    let mut lossy = async_config();
    lossy.compression.enabled = true;
    lossy.compression.quantize_bits = 8;
    lossy.compression.top_frac = 0.5;
    assert_modes_equivalent(lossy, StepMode::Fast);
}

/// Kill the lazy async run at a tick where a demoted sender's upload is
/// still in flight, round-trip the checkpoint through JSON, and the
/// resumed run must finish bitwise-identical to the uninterrupted one.
#[test]
fn lazy_async_checkpoint_resumes_bitwise_mid_heap() {
    let cfg = lazy(async_config());
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
    assert_eq!(model_bits(&straight), model_bits(&second));
}

/// A mid-run lazy checkpoint (live stubs, multiple live versions,
/// resident participants) restores into a fresh lazy simulation and
/// finishes bitwise-identically to the uninterrupted run.
#[test]
fn lazy_checkpoint_resumes_bitwise_mid_run() {
    // 24 devices over 2 edges: at most K*E*T_c = 16 can be resident, so
    // live stubs are guaranteed at the checkpoint cut.
    let mut cfg = lazy(base_config());
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
    let pck = ck.population.as_ref().expect("lazy checkpoint block");
    assert!(ck.devices.is_empty());
    assert!(pck
        .devices
        .iter()
        .any(|s| matches!(s, DeviceSlotCheckpoint::Resident { .. })));
    assert!(pck
        .devices
        .iter()
        .any(|s| matches!(s, DeviceSlotCheckpoint::Stub { .. })));

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
            effective_device_bits(&uninterrupted, m),
            effective_device_bits(&resumed, m),
            "device {m}"
        );
    }
    assert_eq!(uninterrupted.comm_stats(), resumed.comm_stats());
    assert_eq!(uninterrupted.syncs(), resumed.syncs());
    assert_eq!(uninterrupted.active_steps(), resumed.active_steps());
}

/// A dense checkpoint carries no population block (its serialisation
/// stays byte-identical to pre-plane checkpoints), and restoring a
/// checkpoint without one into a lazy simulation is rejected.
#[test]
fn checkpoint_population_block_matches_mode() {
    let dense_cfg = base_config();
    let mut dense = built(dense_cfg.clone());
    for _ in 0..5 {
        dense.tick(StepMode::Fast);
    }
    let dense_ck = dense.checkpoint();
    assert!(dense_ck.population.is_none());
    assert_eq!(dense_ck.devices.len(), dense_cfg.num_devices);

    let mut stripped = built(lazy(base_config())).checkpoint();
    stripped.population = None;
    let mut lazy_sim = built(lazy(base_config()));
    let err = lazy_sim.restore(&stripped).expect_err("must reject");
    assert!(err.to_string().contains("population"), "{err}");
}

/// Residency stays bounded by the active set: at most K·E new replicas
/// per step between broadcasts, and a full broadcast demotes everyone.
/// With 64 devices this run must never materialise more than half of
/// them, and ends (on a sync step) with zero residents.
#[test]
fn lazy_residency_bounded_by_active_set() {
    let mut cfg = lazy(base_config());
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
    let ck = sim.checkpoint();
    let pck = ck.population.as_ref().expect("lazy checkpoint block");
    pck.devices
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
    let mut cfg = lazy(SimConfig::tiny(Task::Speech, Algorithm::middle()));
    cfg.num_devices = 24;
    cfg.local_steps = 1;
    cfg.cloud_interval = 1;
    cfg.steps = 200;
    cfg.eval_interval = 100;
    cfg.faults.wan_outage = 0.4;

    let table = |sim: &Simulation| match sim.population() {
        Population::Lazy(p) => (p.live_versions().count(), p.version_table_len()),
        Population::Dense(_) => unreachable!("lazy config"),
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
    assert_eq!(model_bits(&straight), model_bits(&second));
    assert_eq!(stub_versions(&straight), stub_versions(&second));
}

/// Ticks a lazy `cfg` to the end, checking after every tick that the
/// plane's derived state — slot table, residents list, version counts,
/// replica pool, cached selection scores — agrees with what it is
/// derived from. `each_tick` sees the simulation after every check.
fn assert_invariants_hold(cfg: SimConfig, mut each_tick: impl FnMut(&Simulation)) {
    let mut sim = built(lazy(cfg));
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

/// Lazy × event-driven × real latencies: a broadcast demotes senders
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
