//! The event-driven timeline's own contract: heap ordering (pop order
//! is insertion-invariant, so any event-arrival permutation consistent
//! with timestamp order yields the same run), thresholds that cannot
//! matter at zero delay, timer-driven syncs, and checkpoints that
//! contradict the execution mode or the heap rejected before any write.
//! Zero delay reproducing lockstep bit for bit — the twin of every
//! lockstep cell — and the async arm's resumes mid-heap are cells of
//! the differential matrix (`matrix.rs`).

use middle_core::timeline::{EventKind, Timeline, WaveCheckpoint};
use middle_core::{SimCheckpoint, SimConfig, StepMode, TimelineConfig};
use middle_nn::serialize::Packed;
use proptest::prelude::*;

mod common;
use common::{
    assert_rejected, assert_same_run, async_stragglers, broadcasts, built, finished, run_to_end,
    stragglers, tick_n, Cell,
};

/// An `edge_threshold` is provably irrelevant at zero delay: every
/// upload of a round pops (rank 1) before any aggregate event (rank 2)
/// at the same instant, so the wave is always complete when it
/// aggregates, whatever the trigger.
#[test]
fn zero_delay_edge_threshold_is_irrelevant() {
    let mut cfg = SimConfig {
        faults: stragglers(),
        timeline: TimelineConfig::event_driven_zero_delay(),
        ..broadcasts()
    };
    let baseline = finished(cfg.clone());
    for k in [1, 2] {
        cfg.timeline.edge_threshold = Some(k);
        assert_same_run(&baseline, &finished(cfg.clone()), &format!("K = {k}"));
    }
}

/// A cloud timer drives syncs on simulated time instead of the round
/// cadence; with a short period and 20 simulated seconds the run must
/// sync at least as often as the default cadence would.
#[test]
fn async_cloud_timer_drives_syncs() {
    let mut cfg = async_stragglers();
    cfg.timeline.cloud_timer = Some(2.0);
    let (_, record) = Cell::new("timer 2 s", cfg).cut_at(10).run();
    assert!(
        record.syncs >= 5,
        "timer at 2.0s over ~20s simulated should sync >= 5 times, got {}",
        record.syncs
    );
}

/// A hostile timeline block — a short in-flight snapshot, a short wave
/// snapshot, one wave too many — each sent through JSON, is rejected
/// with `CheckpointMismatch` before anything is written: the target
/// then finishes exactly as a fresh run does.
#[test]
fn hostile_timeline_checkpoint_is_rejected_before_any_write() {
    let cfg = async_stragglers();
    let fresh = finished(cfg.clone());

    let mut donor = built(cfg.clone());
    tick_n(&mut donor, 5);
    let ck = donor.checkpoint();
    let timeline = ck.timeline.as_ref().expect("event-driven checkpoint");
    let in_flight = (timeline.in_flight.iter())
        .position(Option::is_some)
        .expect("an upload in flight at the cut");
    let short = |p: &Packed<f32>| Some(Packed(p[..p.len() - 1].to_vec()));

    let mut short_in_flight = ck.clone();
    let tl = short_in_flight.timeline.as_mut().unwrap();
    tl.in_flight[in_flight] = short(timeline.in_flight[in_flight].as_ref().unwrap());

    let mut short_wave = ck.clone();
    let tl = short_wave.timeline.as_mut().unwrap();
    let wave = &mut tl.waves[0];
    wave.members.push(0);
    wave.arrived.push(true);
    wave.snapshots
        .push(short(timeline.in_flight[in_flight].as_ref().unwrap()));

    let mut extra_wave = ck.clone();
    let tl = extra_wave.timeline.as_mut().unwrap();
    tl.waves.push(WaveCheckpoint {
        id: 0,
        members: Vec::new(),
        arrived: Vec::new(),
        trigger: 0,
        aggregated: true,
        snapshots: Vec::new(),
    });

    for (what, bad) in [
        ("short in-flight snapshot", short_in_flight),
        ("short wave snapshot", short_wave),
        ("wrong wave count", extra_wave),
    ] {
        let bad = SimCheckpoint::from_json(&bad.to_json()).expect("checkpoint parses");
        let mut target = built(cfg.clone());
        assert_rejected(&mut target, &bad, "");
        assert_same_run(&fresh, &run_to_end(target), what);
    }
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
    let lock_cfg = broadcasts();
    let event_cfg = SimConfig {
        timeline: TimelineConfig::event_driven_zero_delay(),
        ..broadcasts()
    };

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
    assert_rejected(&mut built(event_cfg), &stripped, "lockstep");

    // Lockstep restore, checkpoint carrying a grafted timeline.
    let mut grafted = lock_ck;
    grafted.timeline = event_ck.timeline;
    assert_rejected(&mut built(lock_cfg), &grafted, "event-driven");
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
    /// matrix's zero-delay twins generalize to *every* interleaving
    /// rather than the one the engine happens to produce.
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
