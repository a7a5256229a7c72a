//! Differential battery for the event-driven timeline: at the
//! zero-delay corner the event engine must reproduce the lockstep
//! scheduler bit for bit — identical run record, identical
//! cloud/edge/device parameters — across every fault regime and in
//! both step modes. Lockstep is the oracle; the event engine
//! earns its asynchrony by collapsing onto it exactly when every
//! latency is zero. On top of the differential matrix: heap ordering
//! properties (pop order is insertion-invariant, so any event-arrival
//! permutation consistent with timestamp order yields the same run),
//! determinism of the genuinely-async arm, and sanity gates on
//! thresholds, timers and the simulated clock.

use middle_core::timeline::{EventKind, Timeline};
use middle_core::{
    Algorithm, DelayModel, DropoutModel, ExecutionMode, FaultConfig, LatencyModel, SimCheckpoint,
    SimConfig, Simulation, SimulationBuilder, StepMode,
};
use middle_data::Task;
use proptest::prelude::*;

mod common;
use common::{assert_records_equal, sim_bits};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

/// 20 steps crossing several cloud syncs, ending on a sync step — the
/// same shape as the population-plane battery.
fn base_config() -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 4;
    cfg
}

fn event_zero(mut cfg: SimConfig) -> SimConfig {
    cfg.timeline.mode = ExecutionMode::EventDriven;
    cfg
}

/// Bursty Markov dropout: empty cohorts, availability-draw ordering.
fn dropout() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.3,
            p_recover: 0.5,
        },
        ..FaultConfig::default()
    }
}

/// Exponential stragglers against a deadline plus lossy retried
/// uploads: the regime whose deadline/stale draws the zero-delay
/// boundary must replay verbatim.
fn stragglers() -> FaultConfig {
    FaultConfig {
        straggler_delay: DelayModel::Exponential { mean_s: 1.0 },
        deadline_s: 1.2,
        upload_loss: 0.2,
        upload_retries: 2,
        ..FaultConfig::default()
    }
}

/// WAN outages: cloud syncs scheduled by the round cadence but vetoed
/// by the fault plane.
fn wan_outage() -> FaultConfig {
    FaultConfig {
        wan_outage: 0.5,
        ..FaultConfig::default()
    }
}

/// Runs `cfg` under lockstep and under zero-delay event-driven
/// execution (same step implementation) and demands bitwise agreement
/// on the run record and on every model in the system.
fn event_matches_lockstep(cfg: SimConfig, mode: StepMode) {
    let mut lock = built(cfg.clone());
    let lock_record = lock.run_with(mode);
    let mut event = built(event_zero(cfg));
    let event_record = event.run_with(mode);
    assert_records_equal(&lock_record, &event_record);
    assert_eq!(
        sim_bits(&lock),
        sim_bits(&event),
        "event-driven zero-delay models diverged from lockstep"
    );
    assert!(lock_record.event_seconds.is_none());
    assert!(event_record.event_seconds.is_some());
}

#[test]
fn zero_delay_matches_lockstep_clean() {
    event_matches_lockstep(base_config(), StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_clean_reference() {
    event_matches_lockstep(base_config(), StepMode::Reference);
}

#[test]
fn zero_delay_matches_lockstep_under_dropout() {
    let mut cfg = base_config();
    cfg.faults = dropout();
    event_matches_lockstep(cfg, StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_under_dropout_reference() {
    let mut cfg = base_config();
    cfg.faults = dropout();
    event_matches_lockstep(cfg, StepMode::Reference);
}

#[test]
fn zero_delay_matches_lockstep_under_stragglers() {
    let mut cfg = base_config();
    cfg.faults = stragglers();
    event_matches_lockstep(cfg, StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_under_stragglers_reference() {
    let mut cfg = base_config();
    cfg.faults = stragglers();
    event_matches_lockstep(cfg, StepMode::Reference);
}

#[test]
fn zero_delay_matches_lockstep_under_wan_outage() {
    let mut cfg = base_config();
    cfg.faults = wan_outage();
    event_matches_lockstep(cfg, StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_under_wan_outage_reference() {
    let mut cfg = base_config();
    cfg.faults = wan_outage();
    event_matches_lockstep(cfg, StepMode::Reference);
}

#[test]
fn zero_delay_matches_lockstep_with_compression() {
    let mut cfg = base_config();
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    event_matches_lockstep(cfg, StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_with_compression_reference() {
    let mut cfg = base_config();
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    event_matches_lockstep(cfg, StepMode::Reference);
}

/// A stateful policy (FedFly's in-flight migration set) must survive
/// the event-driven dispatch unchanged: the policy hooks fire from
/// event handlers, not from the lockstep loop, but in the same order.
#[test]
fn zero_delay_matches_lockstep_stateful_algorithm() {
    let mut cfg = base_config();
    cfg.algorithm = Algorithm::fedfly();
    cfg.faults = dropout();
    event_matches_lockstep(cfg, StepMode::Fast);
}

#[test]
fn zero_delay_matches_lockstep_stateful_algorithm_reference() {
    let mut cfg = base_config();
    cfg.algorithm = Algorithm::fedfly();
    cfg.faults = dropout();
    event_matches_lockstep(cfg, StepMode::Reference);
}

/// An `edge_threshold` is provably irrelevant at zero delay: every
/// upload of a round pops (rank 1) before any aggregate event (rank 2)
/// at the same instant, so the wave is always complete when it
/// aggregates, whatever the trigger.
#[test]
fn zero_delay_edge_threshold_is_irrelevant() {
    let mut cfg = event_zero(base_config());
    cfg.faults = stragglers();
    let baseline = built(cfg.clone()).run_with(StepMode::Fast);
    for k in [1, 2] {
        let mut with_threshold = cfg.clone();
        with_threshold.timeline.edge_threshold = Some(k);
        let record = built(with_threshold).run_with(StepMode::Fast);
        assert_records_equal(&baseline, &record);
    }
}

/// The simulated clock of a zero-delay run is exactly the last round's
/// boundary instant: every event of round `t` fires at
/// `t * step_duration`.
#[test]
fn zero_delay_clock_is_final_step_boundary() {
    let cfg = event_zero(base_config());
    let steps = cfg.steps;
    let step_duration = cfg.timeline.step_duration;
    let record = built(cfg).run_with(StepMode::Fast);
    let clock = record.event_seconds.expect("event-driven run");
    assert_eq!(clock, (steps - 1) as f64 * step_duration);
}

// ---- genuinely-async arm ----------------------------------------------

/// Async regime: straggler delays become real upload latencies.
fn async_config() -> SimConfig {
    let mut cfg = base_config();
    cfg.faults = stragglers();
    cfg.timeline.mode = ExecutionMode::EventDriven;
    cfg.timeline.latency = LatencyModel::Faults;
    cfg
}

/// The async arm is deterministic: two identical runs agree bitwise.
#[test]
fn async_run_is_deterministic() {
    let mut cfg = async_config();
    cfg.timeline.edge_threshold = Some(2);
    cfg.timeline.cloud_timer = Some(3.0);
    let mut a = built(cfg.clone());
    let ra = a.run_with(StepMode::Fast);
    let mut b = built(cfg);
    let rb = b.run_with(StepMode::Fast);
    assert_records_equal(&ra, &rb);
    assert_eq!(ra.event_seconds, rb.event_seconds);
    assert_eq!(sim_bits(&a), sim_bits(&b));
}

/// With real latencies the clock runs past the last boundary (late
/// uploads land after their round) and the upload ledger still records
/// every send.
#[test]
fn async_clock_and_ledger_are_sane() {
    let mut sim = built(async_config());
    let record = sim.run_with(StepMode::Fast);
    let clock = record.event_seconds.expect("event-driven run");
    assert!(clock >= 19.0, "clock went backwards: {clock}");
    assert!(record.comm.device_to_edge > 0);
    assert!(record.active_steps > 0);
    assert!(record.syncs > 0);
}

/// A cloud timer drives syncs on simulated time instead of the round
/// cadence; with a short period and 20 simulated seconds the run must
/// sync at least as often as the default cadence would.
#[test]
fn async_cloud_timer_drives_syncs() {
    let mut cfg = async_config();
    cfg.timeline.cloud_timer = Some(2.0);
    let record = built(cfg).run_with(StepMode::Fast);
    assert!(
        record.syncs >= 5,
        "timer at 2.0s over ~20s simulated should sync >= 5 times, got {}",
        record.syncs
    );
}

/// An edge threshold makes edges aggregate mid-round as soon as K
/// updates land; the run still completes with a coherent record.
#[test]
fn async_edge_threshold_aggregates_early() {
    let mut cfg = async_config();
    cfg.timeline.edge_threshold = Some(1);
    let steps = cfg.steps;
    let record = built(cfg).run_with(StepMode::Fast);
    assert_eq!(record.points.last().map(|p| p.step), Some(steps));
    assert!(record.comm.device_to_edge > 0);
}

// ---- checkpoint / resume ----------------------------------------------

/// Kill an async run mid-heap — live in-flight uploads parked in the
/// timeline, pending `DeviceUpload` events in the queue — round-trip
/// the checkpoint through JSON, and the resumed run must finish
/// bitwise-identical to the uninterrupted one.
#[test]
fn async_mid_heap_checkpoint_resumes_bitwise_through_json() {
    let cfg = async_config();

    let mut straight = built(cfg.clone());
    let reference = straight.run();

    let mut first = built(cfg.clone());
    for _ in 0..5 {
        first.tick(StepMode::Fast);
    }
    let ck = first.checkpoint();
    let tck = ck
        .timeline
        .as_ref()
        .expect("event-driven checkpoints carry the timeline");
    let pending_uploads = tck
        .events
        .iter()
        .filter(|e| {
            e.kind
                == EventKind::DeviceUpload {
                    edge: 0,
                    device: 0,
                    wave: 0,
                }
                .rank()
        })
        .count();
    assert!(
        pending_uploads > 0,
        "checkpoint taken with an empty upload heap; the gate would prove nothing"
    );
    assert!(
        tck.in_flight.iter().any(Option::is_some),
        "no send-time snapshot was in flight at the cut"
    );
    let json = ck.to_json();
    drop(first);

    let ck = SimCheckpoint::from_json(&json).expect("checkpoint parses");
    let mut second = built(cfg);
    second.restore(&ck).expect("checkpoint applies");
    assert_eq!(second.next_step(), 5);
    let resumed = second.run();

    assert_records_equal(&reference, &resumed);
    assert_eq!(reference.event_seconds, resumed.event_seconds);
    assert_eq!(sim_bits(&straight), sim_bits(&second));
}

/// A checkpoint without a timeline block must not restore into an
/// event-driven simulation, and one carrying a pending-event heap must
/// not restore into a lockstep run — silently dropping or fabricating
/// in-flight events would corrupt the trajectory. (A checkpoint from a
/// run with the *other mode in its config* is already rejected by the
/// config digest; these gates catch the deeper corruption where the
/// digest agrees but the timeline payload contradicts the mode.)
#[test]
fn restore_rejects_execution_mode_mismatch_both_ways() {
    let lock_cfg = base_config();
    let event_cfg = event_zero(base_config());

    let mut lock = built(lock_cfg.clone());
    lock.tick(StepMode::Fast);
    let lock_ck = lock.checkpoint();
    assert!(lock_ck.timeline.is_none());

    let mut event = built(event_cfg.clone());
    event.tick(StepMode::Fast);
    let event_ck = event.checkpoint();
    assert!(event_ck.timeline.is_some());

    // Event-driven restore, checkpoint stripped of its timeline.
    let mut stripped = event_ck.clone();
    stripped.timeline = None;
    let mut target = built(event_cfg);
    let before = target.checkpoint().to_json();
    let err = target
        .restore(&stripped)
        .expect_err("a timeline-less checkpoint must not restore into an event-driven run");
    assert!(
        err.to_string().contains("lockstep"),
        "unexpected error: {err}"
    );
    assert_eq!(
        target.checkpoint().to_json(),
        before,
        "a rejected restore must leave the target untouched"
    );

    // Lockstep restore, checkpoint carrying a grafted timeline.
    let mut grafted = lock_ck.clone();
    grafted.timeline = event_ck.timeline.clone();
    let mut target = built(lock_cfg);
    let before = target.checkpoint().to_json();
    let err = target
        .restore(&grafted)
        .expect_err("a pending-event heap must not restore into a lockstep run");
    assert!(
        err.to_string().contains("event-driven"),
        "unexpected error: {err}"
    );
    assert_eq!(
        target.checkpoint().to_json(),
        before,
        "a rejected restore must leave the target untouched"
    );
}

// ---- event-heap ordering properties -----------------------------------

/// The canonical pop order of a set of events: time, then kind rank,
/// then edge, then device. For key-distinct events this is a total
/// order with no dependence on `seq`.
fn canonical_order(events: &[(f64, EventKind)]) -> Vec<(f64, EventKind)> {
    let mut sorted = events.to_vec();
    sorted.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| {
            (a.1.rank(), a.1.edge(), a.1.device()).cmp(&(b.1.rank(), b.1.edge(), b.1.device()))
        })
    });
    sorted
}

/// A pool of key-distinct events spanning every kind, several edges and
/// devices, with deliberate timestamp collisions.
fn event_pool() -> Vec<(f64, EventKind)> {
    let mut pool = Vec::new();
    for step in 0..3usize {
        let t = step as f64;
        pool.push((t, EventKind::StepBoundary { step }));
        pool.push((t, EventKind::EndOfStep { step }));
        for edge in 0..2usize {
            pool.push((t, EventKind::EdgeAggregate { edge, wave: 1 }));
            for device in 0..3usize {
                pool.push((
                    t + 0.25,
                    EventKind::DeviceUpload {
                        edge,
                        device,
                        wave: 1,
                    },
                ));
            }
        }
    }
    pool.push((1.5, EventKind::CloudSync { timer: true }));
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any insertion permutation consistent with timestamp order pops
    /// in the same canonical total order — the heap's tie-break makes
    /// arrival permutations unobservable, which is what lets the
    /// zero-delay differential matrix above generalize to *every*
    /// interleaving rather than the one the engine happens to produce.
    #[test]
    fn pop_order_is_insertion_invariant(perm in Just(event_pool()).prop_shuffle()) {
        let mut timeline = Timeline::new(4, 8);
        for (time, kind) in &perm {
            timeline.push(*time, *kind);
        }
        let mut popped = Vec::new();
        while let Some(ev) = timeline.pop() {
            popped.push((ev.time, ev.kind));
        }
        prop_assert_eq!(popped, canonical_order(&event_pool()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-delay oracle equivalence holds across seeds, not just
    /// the default one.
    #[test]
    fn zero_delay_matches_lockstep_across_seeds(seed in 0u64..64) {
        let mut cfg = base_config();
        cfg.steps = 8;
        cfg.eval_interval = 8;
        cfg.seed = seed;
        cfg.faults = stragglers();
        let lock = built(cfg.clone()).run_with(StepMode::Fast);
        let event = built(event_zero(cfg)).run_with(StepMode::Fast);
        assert_records_equal(&lock, &event);
    }
}
