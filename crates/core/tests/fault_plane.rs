//! The fault plane's semantics (DESIGN §9): recovery on seeded
//! scenarios — retry accounting, deadline exclusion and stale merges,
//! empty-cohort degradation, WAN outages, sticky dropout — plus what a
//! silent or saturated plane must do: all-zero fault rates reproduce the
//! fault-free trace bitwise, and total dropout moves nothing. The runs
//! are differential-matrix cells (`common::Cell`), so the ledger
//! identities — telemetry against the comm ledger, bytes, scheduled
//! syncs — hold on each; the trajectory pinned with every model on is a
//! cell of `matrix.rs`.

use middle_core::{
    DelayModel, DropoutModel, FaultConfig, RunRecord, SimConfig, StepCounters, StepMode,
};
use middle_data::Task;
use middle_nn::params::flatten;
use proptest::prelude::*;

mod common;
use common::{
    assert_ledger, assert_rejected, assert_same_run, bits, built, finished, run_to_end, shape,
    tick_n, wan, Cell,
};

fn base_config() -> SimConfig {
    SimConfig {
        telemetry: true,
        ..shape(Task::Mnist, 12, 4, 4)
    }
}

fn counters(record: &RunRecord) -> StepCounters {
    record
        .telemetry
        .as_ref()
        .expect("telemetry enabled")
        .counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any `FaultConfig` whose rates are all zero — regardless of which
    /// models are nominally "on" and how the deadline/retry knobs are
    /// set — reproduces the fault-free trace bitwise. Zero-rate models
    /// still draw from the fault RNG stream, but that stream is
    /// dedicated (`derive_seed(seed, 9)`), so no other randomness
    /// shifts and no decision ever goes the faulty way.
    #[test]
    fn zero_rate_faults_reproduce_the_fault_free_trace_bitwise(
        dropout_kind in 0usize..3,
        recover in 0.1f64..1.0,
        deadline_s in 0.5f64..4.0,
        retries in 0u32..6,
        with_delay in 0usize..2,
    ) {
        let clean = SimConfig { steps: 8, ..base_config() };
        let faults = FaultConfig {
            dropout: match dropout_kind {
                0 => DropoutModel::None,
                1 => DropoutModel::Iid { p: 0.0 },
                _ => DropoutModel::Markov { p_fail: 0.0, p_recover: recover },
            },
            // A zero-width delay at 0 s always meets any positive
            // deadline, so the straggler model is active but harmless.
            straggler_delay: if with_delay == 1 {
                DelayModel::Uniform { min_s: 0.0, max_s: 0.0 }
            } else {
                DelayModel::None
            },
            deadline_s,
            upload_loss: 0.0,
            upload_retries: retries,
            wan_outage: 0.0,
        };
        let faulty = Cell::new("zero-rate faults", SimConfig { faults, ..clean.clone() }).run();
        assert_same_run(&finished(clean), &faulty, "zero-rate faults");
    }

    /// Dropout at rate 1.0 takes every device down every step: zero
    /// wireless transfers in either direction and bitwise-untouched
    /// edge and cloud models.
    #[test]
    fn total_dropout_moves_nothing_and_touches_no_model(seed in 0u64..200) {
        let mut cfg = base_config();
        cfg.steps = 6;
        cfg.seed = seed;
        cfg.faults.dropout = DropoutModel::Iid { p: 1.0 };
        let mut sim = built(cfg.clone());
        let init = bits(&flatten(sim.cloud_model()));
        tick_n(&mut sim, cfg.steps);
        let comm = sim.comm_stats();
        prop_assert_eq!(comm.device_to_edge, 0);
        prop_assert_eq!(comm.edge_to_device, 0);
        prop_assert_eq!(comm.lost_uploads, 0);
        prop_assert_eq!(sim.active_steps(), 0);
        for e in sim.edges() {
            prop_assert_eq!(bits(&flatten(&e.model)), init.clone());
        }
        // The cloud still syncs on schedule, but over untouched edges.
        prop_assert_eq!(bits(&flatten(sim.cloud_model())), init);
        let c = sim.telemetry().report().unwrap().counters;
        prop_assert!(c.dropout_drops > 0);
        prop_assert_eq!(c.selected, 0);
    }
}

/// Upload loss with bounded retries: every transmission attempt lands
/// in `CommStats::device_to_edge` (so, with no straggler model, the
/// ledger identity reads `selected + retransmissions`), retransmissions
/// and abandoned uploads are ledgered separately, and backoff slots
/// accumulate.
#[test]
fn retry_accounting_reconciles_with_comm_stats() {
    let mut cfg = base_config();
    cfg.faults.upload_loss = 0.45;
    cfg.faults.upload_retries = 2;
    let (_, record) = Cell::new("45 % loss, 2 retries", cfg).run();
    let (c, comm) = (counters(&record), record.comm);

    assert!(c.selected > 0);
    assert!(
        c.upload_retransmissions > 0,
        "45% loss over {} uploads should retransmit",
        c.selected
    );
    assert!(c.lost_uploads > 0, "some upload should exhaust 2 retries");
    assert!(comm.retry_backoff_slots > 0);
    assert_eq!(comm.stale_uploads, 0);
    // Bounded retry: at most 1 + upload_retries attempts per upload.
    assert!(c.upload_retransmissions <= c.selected * 2);
    // Backoff is 1 slot for retry 1, +2 for retry 2.
    assert!(comm.retry_backoff_slots <= c.selected * 3);
}

/// Deadline exclusion + stale-merge recovery: with every upload late,
/// edges aggregate nothing in-step (graceful empty-cohort degradation,
/// `w_n` carried forward) and each late update lands next step as a
/// similarity-weighted stale merge that does move the edge model.
#[test]
fn deadline_misses_become_stale_merges_next_step() {
    let mut cfg = base_config();
    cfg.faults.straggler_delay = DelayModel::Uniform {
        min_s: 2.0,
        max_s: 2.0,
    };
    cfg.faults.deadline_s = 1.0;
    let mut sim = built(cfg);
    let init = bits(&flatten(sim.cloud_model()));

    // Step 0: everyone trains, everyone misses the deadline — edge
    // models must be carried forward untouched.
    sim.tick(StepMode::Fast);
    for e in sim.edges() {
        assert_eq!(
            bits(&flatten(&e.model)),
            init.clone(),
            "edge model must carry forward when its whole cohort is late"
        );
    }
    assert_eq!(sim.comm_stats().device_to_edge, 0, "no upload landed yet");
    let pending = sim.fault_plane().pending().len();
    assert!(pending > 0, "late uploads queued for stale merge");

    // Step 1: the stale merges land before selection and move the edges.
    sim.tick(StepMode::Fast);
    let comm = sim.comm_stats();
    assert_eq!(comm.stale_uploads, pending as u64);
    assert_eq!(
        comm.device_to_edge, pending as u64,
        "stale uploads are the only deliveries so far"
    );
    let moved = sim.edges().iter().any(|e| bits(&flatten(&e.model)) != init);
    assert!(moved, "a stale merge must blend into some edge model");

    // Each deadline miss is merged exactly one step later; only the
    // final step's misses are still queued (the ledger identities).
    let (sim, record) = run_to_end(sim);
    assert_ledger(&sim, &record, "every upload late");
    let c = counters(&record);
    assert_eq!(c.deadline_misses, c.selected, "every upload was late");
    assert!(c.empty_cohorts > 0, "all-late cohorts degrade gracefully");
}

/// A total WAN outage suppresses every cloud sync: the cloud model
/// never changes, nothing crosses the WAN (every scheduled sync draws
/// one outage per edge: the ledger identity), and edge sample windows
/// keep accumulating for the sync that never comes.
#[test]
fn total_wan_outage_suppresses_every_sync() {
    let cfg = SimConfig {
        faults: wan(1.0),
        ..base_config()
    };
    let init = bits(&flatten(built(cfg.clone()).cloud_model()));
    let (sim, record) = Cell::new("total WAN outage", cfg).run();
    assert_eq!(record.syncs, 0);
    let comm = record.comm;
    let wan = (comm.edge_to_cloud, comm.cloud_to_edge, comm.cloud_to_device);
    assert_eq!(wan, (0, 0, 0));
    assert_eq!(bits(&flatten(sim.cloud_model())), init);
    assert!(
        sim.edges().iter().any(|e| e.window_samples > 0.0),
        "windows accumulate awaiting a successful sync"
    );
}

/// Partial WAN outages: per-edge links fail independently, and the
/// sync proceeds over the surviving edges (every scheduled sync
/// accounts each edge as an upload or an outage: the ledger identity).
#[test]
fn partial_wan_outage_syncs_over_surviving_edges() {
    let cfg = SimConfig {
        steps: 24,
        faults: wan(0.5),
        ..base_config()
    };
    let num_devices = cfg.num_devices as u64;
    let (_, record) = Cell::new("partial WAN outage", cfg).run();
    let (c, comm) = (counters(&record), record.comm);
    assert_eq!(comm.edge_to_cloud, comm.cloud_to_edge);
    assert!(c.wan_outages > 0, "seeded run should hit some outage");
    assert!(record.syncs > 0, "seeded run should complete some sync");
    assert!(
        comm.cloud_to_device <= record.syncs * num_devices,
        "devices under a down edge miss the broadcast"
    );
}

/// Markov (sticky) dropout produces multi-step outages for the same
/// device — the bursty churn i.i.d. dropout cannot express — and the
/// run survives with sensible accounting.
#[test]
fn sticky_dropout_runs_with_consistent_accounting() {
    let mut cfg = base_config();
    cfg.steps = 16;
    cfg.faults.dropout = DropoutModel::Markov {
        p_fail: 0.4,
        p_recover: 0.3,
    };
    let (_, record) = Cell::new("sticky dropout", cfg).run();
    let c = counters(&record);
    assert!(c.dropout_drops > 0, "sticky chain should take devices down");
    assert!(c.selected > 0, "some device must still participate");
    // Dropout filters candidates before selection, so the selected
    // count bounds every downstream ledger.
    assert!(c.selected <= c.candidates_seen - c.dropout_drops);
}

/// A checkpoint whose pending stale upload does not fit the simulation —
/// an edge or a device out of range, a flat one parameter short — is
/// rejected before anything is restored: the target still finishes
/// equal to a fresh run.
#[test]
fn restore_rejects_malformed_pending_stale_uploads() {
    let mut cfg = base_config();
    cfg.steps = 4;
    cfg.faults.straggler_delay = DelayModel::Uniform {
        min_s: 2.0,
        max_s: 2.0,
    };
    let mut source = built(cfg.clone());
    source.tick(StepMode::Fast);
    let ck = source.checkpoint();
    assert!(
        !ck.faults.pending.is_empty(),
        "no stale upload to tamper with"
    );
    let fresh = finished(cfg.clone());
    for case in ["edge 99", "device N", "flat one short"] {
        let mut bad = ck.clone();
        let pending = &mut bad.faults.pending[0];
        match case {
            "edge 99" => pending.edge = 99,
            "device N" => pending.device = cfg.num_devices,
            _ => {
                pending.flat.0.pop();
            }
        }
        let mut target = built(cfg.clone());
        assert_rejected(&mut target, &bad, "");
        assert_same_run(&fresh, &run_to_end(target), case);
    }
}
