//! The differential matrix (DESIGN §6): every trajectory-level gate of
//! the round as one table of cells, one `#[test]` a cell, run by the
//! harness in `common/mod.rs`. A cell ticks once to the end with the
//! population plane's invariants checked after every tick, keeps the
//! ledger identities, holds its pin if it has one, resumes bitwise from
//! a checkpoint cut inside that run, and equals its zero-delay twin
//! where it has one.
//!
//! Every pin was captured where an older oracle still agreed with the
//! run — the round-level reference step, a replica per device, the main
//! before the fault plane — and none is recaptured here: a pin moves
//! only when the simulation's semantics deliberately change.

use middle_core::timeline::EventKind;
use middle_core::{
    Algorithm, DelayModel, DropoutModel, FaultConfig, OnDevicePolicy, SelectionPolicy, SimConfig,
    Simulation,
};
use middle_data::Task;
use middle_nn::params::flatten;
use proptest::prelude::*;

mod common;
use common::Pin::{Trajectory, WithClock};
use common::*;

// ---- 20 steps across five broadcasts --------------------------------
// Pinned on a replica per device, the simulated clock folded in.

/// Full broadcasts: every sync demotes the whole working set into the
/// pool and the next window draws it back out.
#[test]
fn clean() {
    Cell::new("clean", broadcasts())
        .pin(WithClock(0x0ec009083d5eafd4))
        .cut("a replica waiting in the pool", replica_pooled)
        .zero_delay_twin()
        .run();
}

/// Empty cohorts and the dropout draw order.
#[test]
fn dropout_markov() {
    let mut cfg = broadcasts();
    cfg.faults = dropout();
    Cell::new("Markov dropout", cfg)
        .pin(WithClock(0x006543bc75512964))
        .cut_at(10)
        .zero_delay_twin()
        .run();
}

/// The stale-merge queue and the retry ledger.
#[test]
fn stragglers_and_loss() {
    let mut cfg = broadcasts();
    cfg.faults = stragglers();
    Cell::new("stragglers, loss", cfg)
        .pin(WithClock(0xa8b1ee3fe34d7aed))
        .cut("a stale upload pending", stale_upload_pending)
        .zero_delay_twin()
        .run();
}

/// Partial broadcasts: devices under a down edge keep the old version.
#[test]
fn wan_outage() {
    let mut cfg = broadcasts();
    cfg.faults = wan(0.5);
    Cell::new("WAN outage", cfg)
        .pin(WithClock(0x6474335b7ffad5b6))
        .cut("a resident outlived a masked sync", resident_outlived_sync)
        .zero_delay_twin()
        .run();
}

/// Error-feedback residuals indexed by device id, not residency, cut
/// after two syncs.
#[test]
fn lossy_compression() {
    let mut cfg = broadcasts();
    cfg.compression = lossy(8, 0.5);
    Cell::new("lossy", cfg)
        .pin(WithClock(0x65ba9203a4162392))
        .cut("live error-feedback residuals from step 8", |sim| {
            sim.next_step() >= 8 && live_residuals(sim)
        })
        .zero_delay_twin()
        .run();
}

/// A stateful policy's hooks fire from event handlers, in lockstep order.
#[test]
fn fedfly_under_dropout() {
    let mut cfg = broadcasts();
    cfg.algorithm = Algorithm::fedfly();
    cfg.faults = dropout();
    Cell::new("FedFly, dropout", cfg)
        .cut("an update in flight", migration_in_flight)
        .zero_delay_twin()
        .run();
}

/// A masked broadcast demotes part of the working set, so a later step
/// drains the pool mid-step and builds the rest fresh.
#[test]
fn pooled_and_fresh_replicas() {
    let cfg = SimConfig {
        num_devices: 48,
        num_edges: 4,
        devices_per_edge: 3,
        cloud_interval: 2,
        faults: wan(0.5),
        ..broadcasts()
    };
    Cell::new("pooled and fresh replicas", cfg)
        .pin(WithClock(0x95d3028079d4cb3b))
        .cut("a step drew pooled and fresh replicas", pool_ran_dry())
        .run();
}

// ---- the event engine with real latencies ---------------------------

/// A broadcast lands while uploads are in flight and demotes their
/// senders to stubs.
#[test]
fn event_driven_demotes_senders_in_flight() {
    Cell::new("in-flight broadcasts", in_flight_broadcasts())
        .pin(WithClock(0xabc815bd4c02dde2))
        .cut("a demoted sender's upload in flight", |sim| {
            !demoted_senders_in_flight(sim).is_empty()
        })
        .run();
}

/// In-flight payloads are the send-time reconstructions.
#[test]
fn event_driven_lossy() {
    let mut cfg = in_flight_broadcasts();
    cfg.compression = lossy(8, 0.5);
    Cell::new("in-flight broadcasts, lossy", cfg)
        .pin(WithClock(0x6a0846f7328e0ad5))
        .cut("a demoted sender in flight, residuals live", |sim| {
            !demoted_senders_in_flight(sim).is_empty() && live_residuals(sim)
        })
        .run();
}

#[test]
fn event_driven_mid_heap() {
    Cell::new("stragglers as latencies", async_stragglers())
        .cut(
            "uploads on the heap with send-time snapshots",
            uploads_on_the_heap,
        )
        .run();
}

/// Cut after the first step, so the resume leg replays the rest of the
/// run from a fresh build.
#[test]
fn event_driven_threshold_and_timer() {
    let mut cfg = async_stragglers();
    cfg.timeline.edge_threshold = Some(2);
    cfg.timeline.cloud_timer = Some(3.0);
    Cell::new("K = 2, timer 3 s", cfg).cut_at(1).run();
}

/// Edges aggregate as soon as one update lands.
#[test]
fn event_driven_threshold_one() {
    let mut cfg = async_stragglers();
    cfg.timeline.edge_threshold = Some(1);
    Cell::new("K = 1", cfg).cut_at(5).run();
}

// ---- traces pinned at the round-level reference step ----------------

/// Moved devices keep their model and download nothing.
#[test]
fn keep_local() {
    let mut cfg = shape(Task::Mnist, 12, 4, 2);
    cfg.algorithm = Algorithm::custom(
        "KeepLocal",
        SelectionPolicy::Random,
        OnDevicePolicy::KeepLocal,
    );
    Cell::new("KeepLocal", cfg)
        .pin(Trajectory(0xc72c2815a5d60045))
        .zero_delay_twin()
        .run();
}

/// Oort selection over edge-model downloads.
#[test]
fn oort() {
    let mut cfg = shape(Task::Mnist, 12, 3, 2);
    cfg.algorithm = Algorithm::oort();
    Cell::new("Oort", cfg)
        .pin(Trajectory(0x9046c92c5764228d))
        .run();
}

#[test]
fn lossy_6_bit() {
    let mut cfg = shape(Task::Mnist, 20, 4, 2);
    cfg.compression = lossy(6, 0.3);
    Cell::new("lossy, 6 bits", cfg)
        .pin(Trajectory(0xd99bde3a3418774f))
        .cut("live error-feedback residuals", live_residuals)
        .run();
}

/// Lossy compression with every failure model on at once.
#[test]
fn lossy_under_every_fault() {
    let faults = FaultConfig {
        dropout: DropoutModel::Iid { p: 0.2 },
        straggler_delay: DelayModel::Uniform {
            min_s: 0.0,
            max_s: 2.0,
        },
        deadline_s: 1.5,
        upload_loss: 0.15,
        upload_retries: 2,
        wan_outage: 0.3,
    };
    let cfg = SimConfig {
        compression: lossy(4, 0.25),
        faults,
        ..shape(Task::Mnist, 20, 4, 2)
    };
    Cell::new("lossy, every fault", cfg)
        .pin(Trajectory(0x18f2065ae87f044f))
        .cut("a stale upload pending", stale_upload_pending)
        .run();
}

/// Every failure model at once, fault stream draw for draw.
#[test]
fn every_fault() {
    let faults = FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.2,
            p_recover: 0.5,
        },
        straggler_delay: DelayModel::Exponential { mean_s: 0.8 },
        deadline_s: 1.0,
        upload_loss: 0.3,
        upload_retries: 2,
        wan_outage: 0.4,
    };
    let cfg = SimConfig {
        faults,
        ..shape(Task::Mnist, 12, 4, 4)
    };
    Cell::new("every fault", cfg)
        .pin(Trajectory(0x63e0436a357ef2f8))
        .run();
}

// ---- a sweep snapshot's cut -----------------------------------------

#[test]
fn resume_at_step_3() {
    Cell::new("sweep shape", sweep_shape()).cut_at(3).run();
}

/// The fault plane's persisted state: its RNG, per-device down states
/// and the stale-upload queue.
#[test]
fn resume_at_step_3_with_faults() {
    let mut cfg = sweep_shape();
    cfg.faults = faulty();
    Cell::new("sweep shape, faulty", cfg).cut_at(3).run();
}

/// A resident replica sits in the pool. After every tick, the pool and
/// the working set together hold no more replicas than the peak
/// residency.
fn replica_pooled(sim: &Simulation) -> bool {
    let p = sim.population();
    let (fresh, peak) = (p.fresh_replicas(), p.peak_resident());
    assert!(fresh <= peak, "{fresh} replicas against a peak of {peak}");
    fresh > p.resident_count()
}

/// A resident survived this step's sync: its edge was down, so its
/// cached score is one cloud model behind.
fn resident_outlived_sync(sim: &Simulation) -> bool {
    let synced_now = sim.next_step().is_multiple_of(sim.config().cloud_interval);
    synced_now && sim.population().resident_count() > 0
}

/// Some step found replicas in the pool and still allocated: the pool
/// ran dry mid-step (replicas are allocated only while it is empty).
fn pool_ran_dry() -> impl FnMut(&Simulation) -> bool {
    let (mut before, mut seen) = ((0, 0), false);
    move |sim| {
        let p = sim.population();
        let (fresh, resident) = (p.fresh_replicas(), p.resident_count());
        seen |= before.0 > before.1 && fresh > before.0;
        before = (fresh, resident);
        seen
    }
}

/// Uploads wait on the heap and send-time snapshots are in flight.
fn uploads_on_the_heap(sim: &Simulation) -> bool {
    let timeline = sim.checkpoint().timeline.expect("event-driven checkpoint");
    let upload = (EventKind::DeviceUpload {
        edge: 0,
        device: 0,
        wave: 0,
    })
    .rank();
    timeline.events.iter().any(|e| e.kind == upload) && upload_in_flight(sim)
}

/// Some upload's send-time snapshot is in flight.
fn upload_in_flight(sim: &Simulation) -> bool {
    let timeline = sim.checkpoint().timeline.expect("event-driven checkpoint");
    timeline.in_flight.iter().any(Option::is_some)
}

/// The pin older than the fault and compression planes, in its parts:
/// cloud, devices and edges hashed plane by plane, the final accuracy
/// and loss, the transfer counts. It was captured on the last commit
/// before the fault plane; each plane owns an RNG stream of its own
/// (`derive_seed(seed, 9)`, `derive_seed(seed, 10)`) and a disabled one
/// draws nothing, so the defaults must reproduce it — and a lossless
/// compression setting, which short-circuits the plane, must equal that
/// run, byte ledger included.
///
/// The floats hashed come from seeded arithmetic on x86_64 linux; a
/// different libm could shift the accuracy and loss bits, in which case
/// re-pin from that commit on that platform.
#[test]
fn pre_fault_plane_main() {
    let cfg = shape(Task::Mnist, 20, 4, 2);
    assert_eq!(cfg.faults, FaultConfig::default());
    assert!(!cfg.compression.enabled);
    let main = Cell::new("pre-fault-plane main", cfg.clone()).run();
    let compression = lossy(32, 1.0);
    assert!(!compression.lossy_active());
    let lossless = finished(SimConfig { compression, ..cfg });
    assert_same_run(&main, &lossless, "lossless compression");

    let (sim, record) = main;
    let folded = |planes: &mut dyn Iterator<Item = Vec<f32>>| {
        let mut h = 0xcbf29ce484222325u64;
        planes.for_each(|plane| fnv(&mut h, &fnv_params(&plane).to_le_bytes()));
        h
    };
    assert_eq!(fnv_params(&flatten(sim.cloud_model())), 0x75a18b3f9d2c2c47);
    assert_eq!(folded(&mut device_planes(&sim)), 0x94105ab3ced3cd05);
    let edges = &mut sim.edges().iter().map(|e| flatten(&e.model));
    assert_eq!(folded(edges), 0xa901b57d25ac7acd);
    let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
    assert_eq!((acc.to_bits(), loss.to_bits()), (0x3e19999a, 0x4018f3e4));

    let c = record.comm;
    let transfers = [
        c.edge_to_device,
        c.device_to_edge,
        c.edge_to_cloud,
        c.cloud_to_edge,
        c.cloud_to_device,
    ];
    assert_eq!(transfers, [79, 79, 10, 10, 40]);
    let faults = [c.upload_retransmissions, c.lost_uploads, c.stale_uploads];
    assert_eq!(faults, [0, 0, 0]);
    assert_eq!((record.syncs, record.active_steps), (5, 20));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-delay twin holds across seeds, not just the default one.
    #[test]
    fn zero_delay_twin_across_seeds(seed in 0u64..64) {
        let mut cfg = shape(Task::Mnist, 8, 4, 8);
        cfg.seed = seed;
        cfg.faults = stragglers();
        Cell::new(format!("seed {seed}"), cfg).zero_delay_twin().run();
    }
}

// ---- the zoo ---------------------------------------------------------

/// [`faulty`] with the heavy-tailed Pareto delay.
fn heavy_tail() -> FaultConfig {
    FaultConfig {
        straggler_delay: DelayModel::Pareto {
            scale_s: 0.3,
            shape: 1.5,
        },
        ..faulty()
    }
}

/// Bounded-uniform delay, the one delay model the other regimes skip.
fn uniform_delay() -> FaultConfig {
    FaultConfig {
        straggler_delay: DelayModel::Uniform {
            min_s: 0.2,
            max_s: 1.5,
        },
        deadline_s: 1.0,
        ..FaultConfig::default()
    }
}

/// A zoo member on eight MNIST steps with a sync every third, pinned
/// under one fault regime at the round-level reference step, where fast
/// and reference runs agreed.
fn zoo_pinned(algorithm: Algorithm, regime: &str, faults: FaultConfig, pin: u64) -> Cell {
    let name = format!("{}/{regime}", algorithm.name);
    let cfg = SimConfig {
        algorithm,
        faults,
        ..shape(Task::Mnist, 8, 3, 4)
    };
    Cell::new(name, cfg).pin(Trajectory(pin))
}

/// A zoo member crossed with another plane on twelve Speech steps (the
/// conv-free task, so a crossing costs a fraction of a pin) with
/// telemetry on; its checks are relational only.
fn zoo_crossed(algorithm: Algorithm, with: &str, cfg: SimConfig) -> Cell {
    let name = format!("{} × {with}", algorithm.name);
    let cfg = SimConfig {
        algorithm,
        telemetry: true,
        ..cfg
    };
    Cell::new(name, cfg)
}

fn speech() -> SimConfig {
    shape(Task::Speech, 12, 3, 4)
}

/// FedFly's cell cuts with an update in flight, so a move would migrate
/// it; every other member's with a stale upload pending.
fn crossed_with_hostile_faults(algorithm: Algorithm) -> Cell {
    let migrates = algorithm.migrate_in_flight;
    let mut cfg = speech();
    cfg.faults = hostile();
    let cell = zoo_crossed(algorithm, "hostile faults", cfg);
    let cell = if migrates {
        cell.cut("an update in flight", migration_in_flight)
    } else {
        cell.cut("a stale upload pending", stale_upload_pending)
    };
    cell.zero_delay_twin()
}

fn crossed_with_real_latencies(algorithm: Algorithm) -> Cell {
    let cfg = SimConfig {
        faults: hostile(),
        timeline: real_latencies(),
        ..speech()
    };
    zoo_crossed(algorithm, "real latencies", cfg).cut("an upload in flight", upload_in_flight)
}

fn crossed_with_lossy_compression(algorithm: Algorithm) -> Cell {
    let mut cfg = speech();
    cfg.compression = lossy(8, 0.25);
    zoo_crossed(algorithm, "lossy compression", cfg)
        .cut("live error-feedback residuals", live_residuals)
        .zero_delay_twin()
}

/// Every zoo member's cells, one module a member: pinned under four
/// fault regimes, crossed with hostile faults, the event engine with
/// real latencies and lossy compression. The rows are the whole zoo, in
/// its order.
macro_rules! zoo {
    ($($member:ident: [$clean:literal, $hostile:literal, $heavy:literal, $uniform:literal,],)*) => {
        $(mod $member {
            use super::*;

            #[test]
            fn clean() {
                zoo_pinned(Algorithm::$member(), "clean", FaultConfig::default(), $clean).run();
            }

            #[test]
            fn hostile() {
                zoo_pinned(Algorithm::$member(), "hostile", common::hostile(), $hostile).run();
            }

            #[test]
            fn heavy_tail() {
                zoo_pinned(Algorithm::$member(), "heavy tail", super::heavy_tail(), $heavy).run();
            }

            #[test]
            fn uniform_delay() {
                let faults = super::uniform_delay();
                zoo_pinned(Algorithm::$member(), "uniform delay", faults, $uniform).run();
            }

            #[test]
            fn crossed_with_hostile_faults() {
                super::crossed_with_hostile_faults(Algorithm::$member()).run();
            }

            #[test]
            fn crossed_with_real_latencies() {
                super::crossed_with_real_latencies(Algorithm::$member()).run();
            }

            #[test]
            fn crossed_with_lossy_compression() {
                super::crossed_with_lossy_compression(Algorithm::$member()).run();
            }
        })*

        #[test]
        fn the_zoo_rows_are_the_whole_zoo() {
            let zoo: Vec<String> = Algorithm::zoo().into_iter().map(|a| a.name).collect();
            assert_eq!(zoo, [$(Algorithm::$member().name),*]);
        }
    };
}

zoo! {
    middle: [
        0x4c1cde4cd7689300,
        0x9732e06b3f8728a5,
        0xf20ef3e7fb8b9ded,
        0x6647dae417489028,
    ],
    oort: [
        0x71b912d3c422fd31,
        0xfc39ca901cffd266,
        0x5e8d03f942a24ee4,
        0xad1eb2df0dfc9465,
    ],
    fedmes: [
        0x18f8d4f9e52a5817,
        0xb8b5aadbb1858ef9,
        0x9b7d7c347f48cb1d,
        0x2ecd5190a304b561,
    ],
    greedy: [
        0x76c2b0944caf9385,
        0xb336c101450a8366,
        0x7e53f057060449cd,
        0xade5d5598a40cb9a,
    ],
    ensemble: [
        0xcf3217c867901834,
        0xd9ddd268ee57cb85,
        0xf97cb00a4838a9e5,
        0x5c7a03283c01ede7,
    ],
    hierfavg: [
        0x0486aafb684d3905,
        0x1dc5d24b327c7de1,
        0x71beb697fd32ff1e,
        0xff7f6c9c8c72d462,
    ],
    fedfly: [
        0x881119c4348015d6,
        0x24ed00436ce4c09e,
        0xae07da134ced8845,
        0x66b7c80ba2add6b8,
    ],
    fedlecc: [
        0xc1e7fbb65379c676,
        0x55668564f8246587,
        0x25659a7d181721d7,
        0x99cca0ac31d7f4de,
    ],
    random_control: [
        0xb58542341da00b49,
        0xa58ee4b00996a80f,
        0x8387e1246bda099b,
        0x22d3290c5e51aca0,
    ],
}
