//! Gates for the multi-process fleet layer behind `middle-sweepd`:
//! lease expiry and reclamation, duplicate-claim rejection, a worker
//! killed mid-shard resuming from its checkpoint, N-worker fleets
//! matching the single-process sweep bitwise, coordinator rebuilds
//! from the JSONL streams alone, and corrupt-ledger quarantine.
//!
//! Workers here run as threads of one process — `run_fleet_worker`
//! talks only through the shared ledger directory, so thread-vs-
//! process is invisible to the protocol, and the deterministic kill
//! switch ([`FleetOptions::kill_after_checkpoints`]) reproduces a
//! SIGKILL (leases stay unreleased, checkpoints stay on disk) without
//! real signals. Real-process coverage (spawn + SIGKILL) lives in
//! `scripts/fleet_smoke.sh` / the CI `fleet-smoke` job.

use middle_core::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, run_sweep, Algorithm, FleetOptions,
    ScenarioGrid, SimCheckpoint, SimConfig, SweepOptions,
};
use middle_data::Task;
use std::path::PathBuf;
use std::thread;

fn tiny() -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 6;
    cfg.eval_interval = 2;
    cfg.cloud_interval = 3;
    cfg
}

/// A 4-scenario grid (2 seeds × 2 sync periods) — small enough that
/// every test stays in tier-1 budget, big enough that shards move
/// between workers.
fn grid() -> ScenarioGrid {
    ScenarioGrid::new(tiny())
        .with_sync_periods([2usize, 3])
        .with_seeds([7u64, 8])
}

/// Fresh per-test scratch directory under the system tmpdir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("middle_fleet_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fast-expiring options: any lease left behind by a killed worker is
/// immediately reclaimable. With concurrent live workers an
/// instantly-expired lease also lets them reclaim each other's shards
/// and duplicate work — benign (every writer has its own tmp file, and
/// first-wins dedup keeps the report bitwise), which is what
/// `kill_mid_shard_then_fleet_matches_serial_bitwise` runs on purpose;
/// only per-worker `completed` counts inflate, so tests that assert
/// them use [`live_opts`].
fn opts() -> FleetOptions {
    FleetOptions {
        lease_ms: 0,
        heartbeat_ms: 10_000,
        poll_ms: 1,
        checkpoint_every: 2,
        ..FleetOptions::default()
    }
}

/// Realistic lease window for concurrent live workers: long enough
/// that no live lease ever expires inside a test, so every scenario
/// runs exactly once.
fn live_opts() -> FleetOptions {
    FleetOptions {
        lease_ms: 600_000,
        ..opts()
    }
}

fn serial_reference() -> String {
    run_sweep(&grid(), &SweepOptions::default())
        .unwrap()
        .deterministic_json()
}

// ------------------------------------------------------ lease protocol

#[test]
fn killed_worker_leaves_lease_and_checkpoint_for_reclamation() {
    let dir = scratch("kill_reclaim");
    // Worker "victim" dies after its first mid-scenario checkpoint:
    // the lease stays in the ledger and the snapshot stays on disk.
    let killed = run_fleet_worker(
        &grid(),
        &dir,
        "victim",
        &FleetOptions {
            kill_after_checkpoints: Some(1),
            ..opts()
        },
    )
    .unwrap();
    assert!(killed.killed);
    assert_eq!(killed.completed, 0);
    let status = fleet_status(&dir).unwrap().expect("ledger must exist");
    assert_eq!(status.total, 4);
    assert_eq!(status.completed, 0);
    assert_eq!(status.leases.len(), 1, "kill must not release the lease");
    assert_eq!(status.leases[0].worker, "victim");
    assert!(
        dir.join("scenario_0.ckpt.json").exists(),
        "mid-scenario checkpoint must survive the kill"
    );
    // A second worker reclaims the expired lease (lease_ms = 0) and
    // finishes the grid; the merged report matches the uninterrupted
    // single-process sweep bitwise.
    let rescue = run_fleet_worker(&grid(), &dir, "rescue", &opts()).unwrap();
    assert_eq!(rescue.completed, 4);
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 4);
    assert!(status.leases.is_empty(), "completion must release leases");
    let report = run_fleet_coordinator(&grid(), &dir, &opts()).unwrap();
    assert_eq!(report.deterministic_json(), serial_reference());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_leases_reject_duplicate_claims() {
    let dir = scratch("dup_claim");
    // Worker "holder" dies holding shard 0's lease. With a long expiry
    // the lease is still live, so a second worker must not touch that
    // shard: it completes the other three scenarios and then times out
    // polling.
    let holder = run_fleet_worker(
        &grid(),
        &dir,
        "holder",
        &FleetOptions {
            kill_after_checkpoints: Some(1),
            ..live_opts()
        },
    )
    .unwrap();
    assert!(holder.killed);
    // "other" can never exit on its own (the blocked shard keeps the
    // grid incomplete), so it runs detached with a wall cap while the
    // test polls the ledger for the steady state: three scenarios
    // done and the holder's lease the only one standing. Recording a
    // completion and releasing its shard are two ledger writes, so a
    // poll can land between them and see "other" still holding the
    // lease of the scenario it just finished — not steady yet.
    let worker_grid = grid();
    let worker_dir = dir.clone();
    let other = thread::spawn(move || {
        run_fleet_worker(
            &worker_grid,
            &worker_dir,
            "other",
            &FleetOptions {
                max_wall_ms: Some(120_000),
                poll_ms: 250,
                ..live_opts()
            },
        )
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(90);
    loop {
        let status = fleet_status(&dir).unwrap().unwrap();
        let holders: Vec<&str> = status.leases.iter().map(|l| l.worker.as_str()).collect();
        if status.completed == 3 && holders == ["holder"] {
            break;
        }
        assert!(
            status.completed <= 3,
            "live lease must block its shard (completed {})",
            status.completed
        );
        assert!(
            std::time::Instant::now() < deadline,
            "never reached three done under the holder's lease alone \
             (completed {}, leases {holders:?})",
            status.completed
        );
        thread::sleep(std::time::Duration::from_millis(50));
    }
    // Give the polling worker a moment to observe the still-blocked
    // shard, then confirm it never claimed it.
    thread::sleep(std::time::Duration::from_millis(200));
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 3);
    assert_eq!(status.leases[0].worker, "holder");
    // The worker thread keeps polling until its wall cap; detach it —
    // the scratch directory stays on disk for it (tmpdir-scoped).
    drop(other);
}

// ------------------------------------------------- bitwise determinism

#[test]
fn three_worker_fleet_matches_the_serial_sweep_bitwise() {
    let dir = scratch("three_way");
    let reference = serial_reference();
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let grid = grid();
            let dir = dir.clone();
            thread::spawn(move || {
                run_fleet_worker(&grid, &dir, &format!("w{i}"), &live_opts()).unwrap()
            })
        })
        .collect();
    let mut completed = 0;
    for handle in workers {
        completed += handle.join().unwrap().completed;
    }
    assert_eq!(completed, 4, "every scenario completes exactly once");
    let report = run_fleet_coordinator(&grid(), &dir, &live_opts()).unwrap();
    assert!(report.complete);
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_shard_then_fleet_matches_serial_bitwise() {
    let dir = scratch("kill_mid_shard");
    let reference = serial_reference();
    // First worker dies mid-scenario after 2 checkpoints; the fleet
    // that follows resumes from the snapshot, and the final report is
    // still bitwise-identical to the uninterrupted sweep — checkpoint
    // restore is exact, not approximate.
    let victim = run_fleet_worker(
        &grid(),
        &dir,
        "victim",
        &FleetOptions {
            kill_after_checkpoints: Some(2),
            ..opts()
        },
    )
    .unwrap();
    assert!(victim.killed);
    // The second snapshot replaced the first by unlink + rename: what is
    // on disk is the newer one, whole, with no tmp file left beside it.
    let text = std::fs::read_to_string(dir.join("scenario_0.ckpt.json")).unwrap();
    assert_eq!(SimCheckpoint::from_json(&text).unwrap().next_step, 4);
    let litter = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|entry| entry.unwrap().file_name().into_string().ok())
        .filter(|name| name.contains(".tmp."))
        .count();
    assert_eq!(litter, 0);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let grid = grid();
            let dir = dir.clone();
            thread::spawn(move || run_fleet_worker(&grid, &dir, &format!("w{i}"), &opts()).unwrap())
        })
        .collect();
    for handle in workers {
        handle.join().unwrap();
    }
    let report = run_fleet_coordinator(&grid(), &dir, &opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_rebuilds_the_ledger_from_worker_streams() {
    let dir = scratch("jsonl_rebuild");
    let reference = serial_reference();
    let done = run_fleet_worker(&grid(), &dir, "solo", &opts()).unwrap();
    assert_eq!(done.completed, 4);
    // Deleting the ledger loses no completions: every record is also
    // in the worker's JSONL stream, and the coordinator's two-way
    // merge writes the healed ledger back.
    std::fs::remove_file(dir.join("sweep_state.json")).unwrap();
    let report = run_fleet_coordinator(&grid(), &dir, &opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 4, "coordinator must heal the ledger");
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------- ledger corruption

#[test]
fn truncated_ledger_is_quarantined_and_the_sweep_recovers() {
    let dir = scratch("truncated");
    let reference = serial_reference();
    let first = run_fleet_worker(
        &grid(),
        &dir,
        "first",
        &FleetOptions {
            kill_after_checkpoints: Some(3),
            ..opts()
        },
    )
    .unwrap();
    assert!(first.killed);
    // Torn write: chop the ledger mid-file. The checksum trailer is
    // gone, so the next reader must quarantine it instead of
    // deserializing a prefix into a bogus resume state.
    let path = dir.join("sweep_state.json");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.len() > 20);
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let second = run_fleet_worker(&grid(), &dir, "second", &opts()).unwrap();
    assert_eq!(second.completed, 4, "recovery restarts the lost work");
    assert!(
        dir.join("sweep_state.json.corrupt").exists(),
        "torn ledger must be preserved for inspection"
    );
    let report = run_fleet_coordinator(&grid(), &dir, &opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_ledger_is_quarantined_not_trusted() {
    let dir = scratch("bitflip");
    let reference = serial_reference();
    let done = run_fleet_worker(&grid(), &dir, "solo", &opts()).unwrap();
    assert_eq!(done.completed, 4);
    // Flip one payload byte, leaving the file well-formed JSON-wise
    // wherever possible: only the checksum can catch this.
    let path = dir.join("sweep_state.json");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        fleet_status(&dir).unwrap().is_none(),
        "a checksum-mismatched ledger must read as absent, not parsed"
    );
    assert!(dir.join("sweep_state.json.corrupt").exists());
    // The JSONL streams still hold every record: the coordinator
    // rebuilds and the report stays bitwise-identical.
    let report = run_fleet_coordinator(&grid(), &dir, &opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
