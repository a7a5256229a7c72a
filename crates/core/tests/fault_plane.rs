//! Integration gates for the fault-injection plane: recovery semantics
//! (retry accounting, deadline exclusion + stale merges, empty-cohort
//! degradation, WAN outages) on seeded scenarios, plus the two
//! bitwise-identity properties the plane must preserve — all-zero fault
//! rates reproduce the fault-free trace, and a run with every fault
//! enabled keeps its pinned trajectory.

use middle_core::{
    Algorithm, DelayModel, DropoutModel, FaultConfig, SimConfig, SimError, Simulation,
    SimulationBuilder, StepCounters, StepMode,
};
use middle_data::Task;
use middle_nn::params::flatten;
use proptest::prelude::*;

mod common;
use common::{bits, device_planes, trajectory_fnv};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

fn base_config() -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 12;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 4;
    cfg.telemetry = true;
    cfg
}

type Fingerprint = (Vec<Vec<u32>>, middle_core::CommStats, u64, u64);

/// Full end-state fingerprint of a run: every model's parameter bits
/// plus the communication ledger.
fn run_fingerprint(cfg: &SimConfig) -> Fingerprint {
    finish_fingerprint(built(cfg.clone()))
}

/// [`run_fingerprint`] of a simulation ticked from wherever it stands.
fn finish_fingerprint(mut sim: Simulation) -> Fingerprint {
    while !sim.is_finished() {
        sim.tick(StepMode::Fast);
    }
    let mut models = vec![bits(&flatten(sim.cloud_model()))];
    models.extend(sim.edges().iter().map(|e| bits(&flatten(&e.model))));
    models.extend(device_planes(&sim).map(|plane| bits(&plane)));
    (models, *sim.comm_stats(), sim.syncs(), sim.active_steps())
}

fn run_counters(cfg: &SimConfig) -> (StepCounters, middle_core::CommStats, u64) {
    let mut sim = built(cfg.clone());
    for _ in 0..cfg.steps {
        sim.tick(StepMode::Fast);
    }
    let report = sim.telemetry().report().expect("telemetry enabled");
    (report.counters, *sim.comm_stats(), sim.syncs())
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
        let mut clean = base_config();
        clean.steps = 8;
        let mut faulty = clean.clone();
        faulty.faults = FaultConfig {
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
        let (m_clean, comm_clean, syncs_clean, active_clean) = run_fingerprint(&clean);
        let (m_faulty, comm_faulty, syncs_faulty, active_faulty) = run_fingerprint(&faulty);
        prop_assert_eq!(m_clean, m_faulty);
        prop_assert_eq!(comm_clean, comm_faulty);
        prop_assert_eq!(syncs_clean, syncs_faulty);
        prop_assert_eq!(active_clean, active_faulty);
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
        for _ in 0..cfg.steps {
            sim.tick(StepMode::Fast);
        }
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
/// in `CommStats::device_to_edge`, retransmissions and abandoned
/// uploads are ledgered separately, backoff slots accumulate, and the
/// telemetry counters mirror the comm ledger exactly.
#[test]
fn retry_accounting_reconciles_with_comm_stats() {
    let mut cfg = base_config();
    cfg.faults.upload_loss = 0.45;
    cfg.faults.upload_retries = 2;
    let (c, comm, _) = run_counters(&cfg);

    assert!(c.selected > 0);
    assert!(
        c.upload_retransmissions > 0,
        "45% loss over {} uploads should retransmit",
        c.selected
    );
    assert!(c.lost_uploads > 0, "some upload should exhaust 2 retries");
    assert!(comm.retry_backoff_slots > 0);
    // Telemetry mirrors the comm ledger exactly.
    assert_eq!(c.uploads, comm.device_to_edge);
    assert_eq!(c.upload_retransmissions, comm.upload_retransmissions);
    assert_eq!(c.lost_uploads, comm.lost_uploads);
    // Every selected device attempted once, plus the retransmissions
    // (no straggler model, so no stale uploads in the ledger).
    assert_eq!(comm.device_to_edge, c.selected + c.upload_retransmissions);
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
    let mut sim = built(cfg.clone());
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

    for _ in 2..cfg.steps {
        sim.tick(StepMode::Fast);
    }
    let c = sim.telemetry().report().unwrap().counters;
    assert_eq!(c.deadline_misses, c.selected, "every upload was late");
    assert!(c.empty_cohorts > 0, "all-late cohorts degrade gracefully");
    let comm = sim.comm_stats();
    // Each deadline miss is merged exactly one step later; only the
    // final step's misses are still pending.
    assert_eq!(
        c.stale_merges,
        c.deadline_misses - sim.fault_plane().pending().len() as u64
    );
    assert_eq!(comm.stale_uploads, c.stale_merges);
    assert_eq!(c.uploads, comm.device_to_edge);
}

/// A total WAN outage suppresses every cloud sync: the cloud model
/// never changes, nothing crosses the WAN, and edge sample windows keep
/// accumulating for the sync that never comes.
#[test]
fn total_wan_outage_suppresses_every_sync() {
    let mut cfg = base_config();
    cfg.faults.wan_outage = 1.0;
    let mut sim = built(cfg.clone());
    let init = bits(&flatten(sim.cloud_model()));
    for _ in 0..cfg.steps {
        sim.tick(StepMode::Fast);
    }
    assert_eq!(sim.syncs(), 0);
    let comm = sim.comm_stats();
    assert_eq!(comm.edge_to_cloud, 0);
    assert_eq!(comm.cloud_to_edge, 0);
    assert_eq!(comm.cloud_to_device, 0);
    assert_eq!(bits(&flatten(sim.cloud_model())), init);
    let c = sim.telemetry().report().unwrap().counters;
    // Every scheduled sync drew one outage per edge: 3 syncs × 2 edges.
    assert_eq!(
        c.wan_outages,
        (cfg.steps / cfg.cloud_interval * cfg.num_edges) as u64
    );
    assert!(
        sim.edges().iter().any(|e| e.window_samples > 0.0),
        "windows accumulate awaiting a successful sync"
    );
}

/// Partial WAN outages: per-edge links fail independently, the sync
/// proceeds over the surviving edges, and the WAN ledger reconciles —
/// every scheduled sync accounts each edge as either an upload or an
/// outage.
#[test]
fn partial_wan_outage_syncs_over_surviving_edges() {
    let mut cfg = base_config();
    cfg.steps = 24;
    cfg.faults.wan_outage = 0.5;
    let (c, comm, syncs) = run_counters(&cfg);
    let attempts = (cfg.steps / cfg.cloud_interval * cfg.num_edges) as u64;
    assert_eq!(comm.edge_to_cloud + c.wan_outages, attempts);
    assert_eq!(comm.edge_to_cloud, comm.cloud_to_edge);
    assert!(c.wan_outages > 0, "seeded run should hit some outage");
    assert!(syncs > 0, "seeded run should complete some sync");
    assert!(
        comm.cloud_to_device <= syncs * cfg.num_devices as u64,
        "devices under a down edge miss the broadcast"
    );
}

/// Every failure model at once keeps the fingerprint of its trajectory
/// ([`trajectory_fnv`]), captured at the last commit that still had the
/// round-level reference step — where the fast and reference runs
/// agreed, fault stream draw for draw.
#[test]
fn faulty_trace_keeps_its_fingerprint() {
    let mut cfg = base_config();
    cfg.telemetry = false;
    cfg.faults = FaultConfig {
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
    let mut sim = built(cfg);
    let record = sim.run();
    assert_eq!(trajectory_fnv(&sim, &record), 0x63e0436a357ef2f8);
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
    let (c, comm, _) = run_counters(&cfg);
    assert!(c.dropout_drops > 0, "sticky chain should take devices down");
    assert!(c.selected > 0, "some device must still participate");
    assert_eq!(c.uploads, comm.device_to_edge);
    assert_eq!(c.downloads, comm.edge_to_device);
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
    let fresh = run_fingerprint(&cfg);
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
        let err = target.restore(&bad).expect_err(case);
        assert!(matches!(err, SimError::CheckpointMismatch { .. }), "{case}");
        assert!(
            finish_fingerprint(target) == fresh,
            "{case}: target changed"
        );
    }
}
