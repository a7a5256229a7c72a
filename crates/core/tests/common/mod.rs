//! The differential matrix's harness (DESIGN §6, "Differential
//! matrix") and the fingerprint helpers every suite shares.
//!
//! A [`Cell`] is one configuration of the round — a shape crossed with a
//! fault regime, a compression setting, an algorithm and an execution
//! mode, all drawn from the vocabulary below — plus what holds it: an
//! optional pin, cut and zero-delay twin. [`Cell::run`] ticks it once
//! to the end and checks it four ways: the population plane's invariants
//! after every tick, the ledger identities at the end ([`assert_ledger`]),
//! the pin, and — from the checkpoint taken at the cut inside that same
//! run — a resumed run that must equal it; a twin must equal it too. The
//! full table is `crates/core/tests/matrix.rs`; root
//! `tests/integration.rs` includes this file by path and runs tier-1's
//! slice of it. One FNV-1a scheme and one record comparison serve every
//! suite, so a re-pin only ever happens in one place.
#![allow(dead_code)]

use middle_core::compress::{compressed_payload_bytes, keep_count};
use middle_core::{
    run_sweep, Algorithm, CompressionConfig, DelayModel, DeviceRef, DropoutModel, ExecutionMode,
    FaultConfig, FleetOptions, LatencyModel, RunRecord, ScenarioGrid, SimCheckpoint, SimConfig,
    SimError, Simulation, SimulationBuilder, StepMode, SweepOptions, TimelineConfig,
};
use middle_data::Task;
use middle_nn::layers::Dense;
use middle_nn::params::{flatten, unflatten};
use middle_nn::Sequential;
use middle_tensor::random::rng;
use std::path::PathBuf;

/// Feeds `bytes` into a running FNV-1a hash.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over the little-endian bit patterns of a flat parameter
/// vector — the scheme behind every pinned fingerprint in the suite.
pub fn fnv_params(flat: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in flat {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// A one-layer model (Dense 3 → 2, eight parameters) holding `vals`.
pub fn model_from(vals: &[f32]) -> Sequential {
    let mut m = Sequential::new().push(Dense::new(3, 2, &mut rng(1)));
    assert_eq!(m.param_count(), vals.len());
    unflatten(&mut m, vals);
    m
}

/// A fresh scratch directory for `tag` under the system tmpdir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("middle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bit patterns of a float slice, for exact (NaN-proof) comparison.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every device's parameters in id order, read through the population's
/// view: a materialised replica's model, or the plane of the broadcast
/// version an idle device's stub carries.
pub fn device_planes(sim: &Simulation) -> impl Iterator<Item = Vec<f32>> + '_ {
    let population = sim.population();
    (0..population.len()).map(move |m| match population.view(m) {
        DeviceRef::Resident(dev) => flatten(&dev.model),
        DeviceRef::Stub(v) => population.version_flat(v).to_vec(),
    })
}

/// Whole-simulation fingerprint: cloud, then every edge, then every
/// device's parameters ([`device_planes`]), in id order.
pub fn sim_bits(sim: &Simulation) -> Vec<u32> {
    let mut out = bits(&flatten(sim.cloud_model()));
    for e in sim.edges() {
        out.extend(bits(&flatten(&e.model)));
    }
    for plane in device_planes(sim) {
        out.extend(bits(&plane));
    }
    out
}

/// One FNV-1a fingerprint of a finished run: every model in the
/// system ([`sim_bits`]) and everything its record determines —
/// evaluation points, the communication ledger, sync and activity
/// counts. The pin a trajectory keeps once nothing is left to compare it
/// against.
pub fn trajectory_fnv(sim: &Simulation, record: &RunRecord) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in sim_bits(sim) {
        fnv(&mut h, &b.to_le_bytes());
    }
    for p in &record.points {
        fnv(&mut h, &(p.step as u64).to_le_bytes());
        fnv(&mut h, &p.global_accuracy.to_bits().to_le_bytes());
        fnv(&mut h, &p.global_loss.to_bits().to_le_bytes());
    }
    let counts = format!("{:?} {} {}", record.comm, record.syncs, record.active_steps);
    fnv(&mut h, counts.as_bytes());
    h
}

/// Demands two run records agree bit for bit on everything the
/// simulation determines: evaluation points, the communication ledger,
/// sync/activity counters, mobility, and the parameter count. Host
/// timing (`wall_seconds`, `telemetry`) and the simulated clock
/// (`event_seconds`, which legitimately differs between lockstep and
/// event-driven runs) are excluded.
pub fn assert_records_equal(a: &RunRecord, b: &RunRecord, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: eval point count");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        let step = pa.step;
        assert_eq!(step, pb.step, "{what}: eval steps");
        assert_eq!(
            (pa.global_accuracy.to_bits(), pa.global_loss.to_bits()),
            (pb.global_accuracy.to_bits(), pb.global_loss.to_bits()),
            "{what}: global accuracy and loss at step {step}"
        );
        assert_eq!(
            bits(&pa.edge_accuracy),
            bits(&pb.edge_accuracy),
            "{what}: edge accuracy at step {step}"
        );
    }
    assert_eq!(a.comm, b.comm, "{what}: communication ledger");
    assert_eq!(
        (a.syncs, a.active_steps, a.param_count),
        (b.syncs, b.active_steps, b.param_count),
        "{what}: syncs, active steps, parameter count"
    );
    assert_eq!(
        a.empirical_mobility.to_bits(),
        b.empirical_mobility.to_bits(),
        "{what}: mobility"
    );
}

/// A finished run: the simulation and the record it ended with.
pub type Finished = (Simulation, RunRecord);

/// Builds `cfg`, which must be valid.
pub fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

/// Runs `sim` to the end from wherever it stands.
pub fn run_to_end(mut sim: Simulation) -> Finished {
    let record = sim.run();
    (sim, record)
}

/// Builds `cfg` and runs it to the end.
pub fn finished(cfg: SimConfig) -> Finished {
    run_to_end(built(cfg))
}

/// Ticks `sim` on by `steps` steps.
pub fn tick_n(sim: &mut Simulation, steps: usize) {
    for _ in 0..steps {
        sim.tick(StepMode::Fast);
    }
}

/// Restores `ck` into a fresh build of `cfg` and finishes the run there.
pub fn resumed(cfg: &SimConfig, ck: &SimCheckpoint) -> Finished {
    let mut sim = built(cfg.clone());
    sim.restore(ck).expect("checkpoint restores");
    run_to_end(sim)
}

/// `ck` must not restore into `target`: a `CheckpointMismatch` whose
/// message holds `needle`, and a target left as it was.
pub fn assert_rejected(target: &mut Simulation, ck: &SimCheckpoint, needle: &str) {
    let before = target.checkpoint().to_json();
    match target.restore(ck) {
        Err(err @ SimError::CheckpointMismatch { .. }) if err.to_string().contains(needle) => {}
        other => panic!("{needle}: restore gave {other:?}"),
    }
    let after = target.checkpoint().to_json();
    assert!(
        after == before,
        "{needle}: a rejected restore changed the target"
    );
}

/// Two finished runs are one trajectory: equal records
/// ([`assert_records_equal`]), simulated clocks and models
/// ([`sim_bits`]).
pub fn assert_same_run(a: &Finished, b: &Finished, what: &str) {
    assert_records_equal(&a.1, &b.1, what);
    assert_eq!(
        a.1.event_seconds.map(f64::to_bits),
        b.1.event_seconds.map(f64::to_bits),
        "{what}: simulated clock"
    );
    assert!(sim_bits(&a.0) == sim_bits(&b.0), "{what}: parameters");
}

// ---- the vocabulary --------------------------------------------------

/// The shape of a run: `SimConfig::tiny` (2 edges, 8 devices, K = 2,
/// MIDDLE, lockstep, every plane off) at a horizon, sync cadence and
/// evaluation cadence.
pub fn shape(task: Task, steps: usize, cloud_interval: usize, eval_interval: usize) -> SimConfig {
    SimConfig {
        steps,
        cloud_interval,
        eval_interval,
        ..SimConfig::tiny(task, Algorithm::middle())
    }
}

/// 20 MNIST steps with a sync every fourth, so a run crosses several
/// broadcast generations and ends on a sync step.
pub fn broadcasts() -> SimConfig {
    shape(Task::Mnist, 20, 4, 4)
}

/// [`broadcasts`] under the event engine with real latencies:
/// exponential stragglers ride the heap as in-flight uploads (20 % of
/// them lost and retried), and with a sync every other round a broadcast
/// lands while uploads are in flight and demotes their senders to stubs.
pub fn in_flight_broadcasts() -> SimConfig {
    let mut cfg = SimConfig {
        cloud_interval: 2,
        timeline: real_latencies(),
        ..broadcasts()
    };
    cfg.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    cfg.faults.upload_loss = 0.2;
    cfg.faults.upload_retries = 2;
    cfg
}

/// [`broadcasts`] with [`stragglers`] as real latencies: uploads land
/// after their round.
pub fn async_stragglers() -> SimConfig {
    SimConfig {
        faults: stragglers(),
        timeline: real_latencies(),
        ..broadcasts()
    }
}

/// A sweep snapshot's shape: six MNIST steps, a sync every third.
pub fn sweep_shape() -> SimConfig {
    shape(Task::Mnist, 6, 3, 2)
}

/// The fleet suites' grid: six Speech steps at two sync periods and two
/// seeds — four scenarios, enough for leases to move between workers.
/// The protocol does not depend on what a scenario trains, so the grid
/// trains the Speech MLP, not a CNN: tier-1 runs it too.
pub fn fleet_grid() -> ScenarioGrid {
    ScenarioGrid::new(shape(Task::Speech, 6, 3, 2))
        .with_sync_periods([2usize, 3])
        .with_seeds([7u64, 8])
}

/// Fleet options whose leases expire the moment they are written, so a
/// killed worker's lease is reclaimable at once (and is never renewed).
/// With concurrent live workers they also reclaim each other's leases
/// and duplicate work — benign, since every writer has its own tmp file
/// and first-wins dedup keeps the report bitwise; only per-worker
/// `completed` counts inflate.
pub fn fleet_opts() -> FleetOptions {
    FleetOptions {
        lease_ms: 0,
        checkpoint_every: 2,
        ..FleetOptions::default()
    }
}

/// [`fleet_grid`] run single-process: the report every fleet over it
/// must match byte for byte.
pub fn fleet_reference() -> String {
    run_sweep(&fleet_grid(), &SweepOptions::default())
        .unwrap()
        .deterministic_json()
}

/// Bursty Markov dropout: empty cohorts, availability-draw ordering.
pub fn dropout() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.3,
            p_recover: 0.5,
        },
        ..FaultConfig::default()
    }
}

/// Exponential stragglers against a deadline plus lossy retried
/// uploads: stale merges and the retry ledger.
pub fn stragglers() -> FaultConfig {
    FaultConfig {
        straggler_delay: DelayModel::Exponential { mean_s: 1.0 },
        deadline_s: 1.2,
        upload_loss: 0.2,
        upload_retries: 2,
        ..FaultConfig::default()
    }
}

/// Per-edge WAN outages at rate `p`: masked syncs, partial broadcasts.
pub fn wan(p: f64) -> FaultConfig {
    FaultConfig {
        wan_outage: p,
        ..FaultConfig::default()
    }
}

/// Every failure model at once: sticky Markov dropout, exponential
/// stragglers against a deadline, lossy uploads with retry, WAN outages
/// — the shape of the `algos` preset's hostile regime.
pub fn hostile() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.1,
            p_recover: 0.3,
        },
        straggler_delay: DelayModel::Exponential { mean_s: 0.6 },
        deadline_s: 1.0,
        upload_loss: 0.2,
        upload_retries: 2,
        wan_outage: 0.2,
    }
}

/// I.i.d. dropout, exponential stragglers against a deadline, lossy
/// uploads with one retry and WAN outages: the sweep suite's faulty
/// regime.
pub fn faulty() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Iid { p: 0.2 },
        straggler_delay: DelayModel::Exponential { mean_s: 0.6 },
        deadline_s: 1.0,
        upload_loss: 0.3,
        upload_retries: 1,
        wan_outage: 0.3,
    }
}

/// Lossy compression at `quantize_bits` and `top_frac`, with error
/// feedback.
pub fn lossy(quantize_bits: u32, top_frac: f64) -> CompressionConfig {
    CompressionConfig {
        enabled: true,
        quantize_bits,
        top_frac,
        ..CompressionConfig::default()
    }
}

/// The event engine with real latencies: the fault plane's straggler
/// delays become in-flight upload times.
pub fn real_latencies() -> TimelineConfig {
    TimelineConfig {
        mode: ExecutionMode::EventDriven,
        latency: LatencyModel::Faults,
        ..TimelineConfig::default()
    }
}

// ---- cut predicates ----------------------------------------------------

/// The devices whose upload is in flight while they are stubs: a
/// broadcast demoted each after it sent (event-driven × real latencies).
pub fn demoted_senders_in_flight(sim: &Simulation) -> Vec<usize> {
    let ck = sim.checkpoint();
    let timeline = ck.timeline.expect("event-driven checkpoint");
    (timeline.in_flight.iter().enumerate())
        .filter(|(m, snapshot)| {
            snapshot.is_some() && matches!(sim.population().view(*m), DeviceRef::Stub(_))
        })
        .map(|(m, _)| m)
        .collect()
}

/// Some device carries a nonzero error-feedback residual.
pub fn live_residuals(sim: &Simulation) -> bool {
    let ck = sim.checkpoint();
    let state = ck.compression.expect("a lossy plane checkpoints its state");
    (state.device_residuals.iter()).any(|r| r.iter().any(|&v| v != 0.0))
}

/// A deadline miss waits in the stale-upload queue.
pub fn stale_upload_pending(sim: &Simulation) -> bool {
    !sim.fault_plane().pending().is_empty()
}

/// FedFly has some device's update in flight (a migration pending).
pub fn migration_in_flight(sim: &Simulation) -> bool {
    let ck = sim.checkpoint();
    let state = ck.algorithm.expect("FedFly checkpoints its in-flight set");
    state.in_flight.contains(&true)
}

// ---- the cell ----------------------------------------------------------

/// What a finished cell's run is held to beyond its relations.
#[derive(Debug, Clone, Copy)]
pub enum Pin {
    /// Nothing: the cell's checks are relational only.
    None,
    /// [`trajectory_fnv`].
    Trajectory(u64),
    /// [`trajectory_fnv`], then the simulated clock folded in (the
    /// population plane's scheme: `0` under lockstep).
    WithClock(u64),
}

type CutPredicate = Box<dyn FnMut(&Simulation) -> bool>;

/// One cell of the differential matrix.
pub struct Cell {
    name: String,
    cfg: SimConfig,
    pin: Pin,
    cut: Option<(&'static str, CutPredicate)>,
    zero_delay_twin: bool,
}

impl Cell {
    pub fn new(name: impl Into<String>, cfg: SimConfig) -> Cell {
        Cell {
            name: name.into(),
            cfg,
            pin: Pin::None,
            cut: None,
            zero_delay_twin: false,
        }
    }

    pub fn pin(self, pin: Pin) -> Cell {
        Cell { pin, ..self }
    }

    /// Checkpoints the run after the first tick that leaves `when` true
    /// and the run unfinished; the resume leg restores that JSON. A run
    /// that never gets there fails the cell: the leg would prove nothing.
    /// `when` sees every tick, those after the cut too, so it may also
    /// assert what must hold after each of them.
    pub fn cut(self, what: &'static str, when: impl FnMut(&Simulation) -> bool + 'static) -> Cell {
        Cell {
            cut: Some((what, Box::new(when))),
            ..self
        }
    }

    /// [`Cell::cut`] once `step` steps have run.
    pub fn cut_at(self, step: usize) -> Cell {
        self.cut("a fixed step", move |sim| sim.next_step() == step)
    }

    /// The zero-delay event engine's run of the same config must equal
    /// this lockstep cell's, and its clock read the last round's
    /// boundary.
    pub fn zero_delay_twin(self) -> Cell {
        Cell {
            zero_delay_twin: true,
            ..self
        }
    }

    /// Runs the cell once and checks it (module docs); returns the
    /// straight run for whatever else its test asserts.
    pub fn run(self) -> Finished {
        let Cell {
            name,
            cfg,
            pin,
            mut cut,
            zero_delay_twin,
        } = self;
        let mut sim = built(cfg.clone());
        let mut cut_json = None;
        sim.check_invariants();
        while !sim.is_finished() {
            sim.tick(StepMode::Fast);
            sim.check_invariants();
            if let Some((_, when)) = cut.as_mut() {
                if when(&sim) && cut_json.is_none() && !sim.is_finished() {
                    cut_json = Some((sim.checkpoint().to_json(), sim_bits(&sim)));
                }
            }
        }
        let record = sim.finish();
        assert_ledger(&sim, &record, &name);
        let mut fingerprint = trajectory_fnv(&sim, &record);
        if let Pin::WithClock(_) = pin {
            let clock = record.event_seconds.map_or(0, f64::to_bits);
            fnv(&mut fingerprint, &clock.to_le_bytes());
        }
        if let Pin::Trajectory(pin) | Pin::WithClock(pin) = pin {
            assert_eq!(fingerprint, pin, "{name}: trajectory {fingerprint:#018x}");
        }
        let straight = (sim, record);

        if let Some((what, _)) = cut {
            let (json, at_cut) = cut_json.unwrap_or_else(|| {
                panic!("{name}: never reached its cut ({what}); the resume leg would prove nothing")
            });
            let ck = SimCheckpoint::from_json(&json).expect("own checkpoint parses");
            let planes = (ck.compression.is_some(), ck.timeline.is_some());
            let live = (cfg.compression.lossy_active(), cfg.timeline.event_mode());
            assert_eq!(planes, live, "{name}: compression and timeline blocks");
            let what = format!("{name}, resumed at step {} ({what})", ck.next_step);
            let mut sim = built(cfg.clone());
            sim.restore(&ck).expect("own checkpoint restores");
            assert!(sim_bits(&sim) == at_cut, "{what}: the restored models");
            assert_same_run(&straight, &run_to_end(sim), &what);
        }

        if zero_delay_twin {
            assert!(!cfg.timeline.event_mode(), "{name}: a lockstep cell");
            let boundary = (cfg.steps - 1) as f64 * cfg.timeline.step_duration;
            let timeline = TimelineConfig::event_driven_zero_delay();
            let mut event = finished(SimConfig { timeline, ..cfg });
            let clock = event.1.event_seconds.take();
            assert_eq!(clock, Some(boundary), "{name}: the zero-delay twin's clock");
            assert_same_run(&straight, &event, &format!("{name}, zero-delay twin"));
        }
        straight
    }
}

/// The ledger identities every finished run keeps.
///
/// * Bytes: each uplink (device → edge, edge → cloud) is charged the
///   plane's payload — the analytic compressed size when the plane is
///   lossy, dense `4d` otherwise — and every other transfer dense `4d`.
/// * The last evaluation point is the final step; an event-driven clock
///   reads at least the last round's boundary.
/// * With telemetry on, the report carries the final ledger: its
///   uploads, downloads, retransmissions, lost uploads, stale merges,
///   syncs and active steps are the ledger's, copied at every step
///   close. The counts only the recorder keeps must then agree with it.
///   In lockstep, every selected upload is charged when it lands — on
///   time, or as the stale merge one step after a deadline miss — so
///   `device_to_edge = selected − deadline misses + retransmissions +
///   stale merges`, and the misses not yet merged are the queue. Under
///   the round cadence, every scheduled sync accounts each edge as an
///   upload or an outage.
pub fn assert_ledger(sim: &Simulation, record: &RunRecord, what: &str) {
    let (cfg, c) = (sim.config(), &record.comm);
    let d = flatten(sim.cloud_model()).len();
    assert_eq!(record.param_count, d as u64, "{what}: parameter count");
    let (dense, plane) = (4 * d as u64, &cfg.compression);
    let uplink = if plane.lossy_active() {
        compressed_payload_bytes(d, keep_count(d, plane.top_frac), plane.quantize_bits)
    } else {
        dense
    };
    let shrinks = uplink < dense || !plane.lossy_active();
    assert!(shrinks, "{what}: a lossy payload of {uplink} bytes");
    let charged = [
        c.device_to_edge_bytes,
        c.edge_to_cloud_bytes,
        c.edge_to_device_bytes,
        c.cloud_to_edge_bytes,
        c.cloud_to_device_bytes,
        c.edge_to_edge_bytes,
    ];
    let owed = [
        c.device_to_edge * uplink,
        c.edge_to_cloud * uplink,
        c.edge_to_device * dense,
        c.cloud_to_edge * dense,
        c.cloud_to_device * dense,
        c.edge_to_edge * dense,
    ];
    assert_eq!(
        charged, owed,
        "{what}: bytes of d→e, e→c, e→d, c→e, c→d, e→e"
    );
    let last = record.points.last().map(|p| p.step);
    assert_eq!(last, Some(cfg.steps), "{what}: the final evaluation");
    if let Some(clock) = record.event_seconds {
        let boundary = (cfg.steps - 1) as f64 * cfg.timeline.step_duration;
        assert!(clock >= boundary, "{what}: clock {clock} before {boundary}");
    }

    let Some(report) = &record.telemetry else {
        return;
    };
    let t = &report.counters;
    let counted = [
        t.uploads,
        t.downloads,
        t.upload_retransmissions,
        t.lost_uploads,
        t.stale_merges,
        t.syncs,
        t.active_steps,
    ];
    let ledger = [
        c.device_to_edge,
        c.edge_to_device,
        c.upload_retransmissions,
        c.lost_uploads,
        c.stale_uploads,
        record.syncs,
        record.active_steps,
    ];
    assert_eq!(counted, ledger, "{what}: telemetry against the ledger");
    if !cfg.timeline.event_mode() {
        let landed = t.selected - t.deadline_misses + t.upload_retransmissions + t.stale_merges;
        assert_eq!(c.device_to_edge, landed, "{what}: uploads charged");
        let queued = sim.fault_plane().pending().len() as u64;
        assert_eq!(
            t.deadline_misses - t.stale_merges,
            queued,
            "{what}: stale queue"
        );
    }
    if cfg.timeline.cloud_timer.is_none() {
        let scheduled = (cfg.steps / cfg.cloud_interval * cfg.num_edges) as u64;
        let accounted = c.edge_to_cloud + t.wan_outages;
        assert_eq!(accounted, scheduled, "{what}: scheduled syncs × edges");
    }
}
