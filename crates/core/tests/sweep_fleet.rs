//! Gates for the multi-process fleet layer behind `middle-sweepd`:
//! duplicate-claim rejection, a worker past its wall cap releasing its
//! scenario mid-run, a worker killed mid-scenario resuming
//! from its checkpoint (under the fleet or under `run_sweep`), N-worker
//! fleets matching the single-process sweep bitwise, coordinator rebuilds from the JSONL streams alone
//! (its own grid's streams only), and corrupt-ledger quarantine. Lease
//! expiry and reclamation after a kill is tier-1's
//! `killed_worker_leaves_lease_and_checkpoint_for_reclamation` in root
//! `tests/integration.rs`, which shares this suite's grid and options
//! through `common`.
//!
//! Workers here run as threads of one process — `run_fleet_worker`
//! talks only through the shared ledger directory, so thread-vs-
//! process is invisible to the protocol, and the deterministic kill
//! switch ([`FleetOptions::kill_after_checkpoints`]) reproduces a
//! SIGKILL (leases stay unreleased, checkpoints stay on disk) without
//! real signals. Real-process coverage (spawn + SIGKILL) lives in
//! `scripts/fleet_smoke.sh` / the CI `fleet-smoke` job.

use middle_core::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, run_sweep, FleetOptions, ScenarioGrid,
    SimCheckpoint, SweepOptions,
};
use std::thread;

mod common;
use common::{fleet_grid, fleet_opts, fleet_reference, scratch_dir};

/// The JSONL stream worker `id` writes for `grid`: keyed by the grid's
/// digest, so two grids' streams never share a file name.
fn stream_name(grid: &ScenarioGrid, id: &str) -> String {
    format!("worker_{:016x}_{id}.jsonl", grid.digest().unwrap())
}

/// Realistic lease window for concurrent live workers: long enough
/// that no live lease ever expires inside a test, so every scenario
/// runs exactly once.
fn live_opts() -> FleetOptions {
    FleetOptions {
        lease_ms: 600_000,
        ..fleet_opts()
    }
}

// ------------------------------------------------------ lease protocol

#[test]
fn live_leases_reject_duplicate_claims() {
    let dir = scratch_dir("dup_claim");
    // Worker "holder" dies holding scenario 0's lease. With a long
    // expiry the lease is still live, so a second worker must not touch
    // that scenario: it completes the other three and then times out
    // polling.
    let holder = run_fleet_worker(
        &fleet_grid(),
        &dir,
        "holder",
        &FleetOptions {
            kill_after_checkpoints: Some(1),
            ..live_opts()
        },
    )
    .unwrap();
    assert!(holder.killed);
    // "other" can never exit on its own (the blocked scenario keeps the
    // grid incomplete), so it runs detached with a wall cap while the
    // test polls the ledger for the steady state: three scenarios done
    // and the holder's lease the only one standing. A completion
    // releases its lease in the same write, so every poll sees "other"
    // holding at most the lease of a scenario still running.
    let worker_grid = fleet_grid();
    let worker_dir = dir.clone();
    let other = thread::spawn(move || {
        run_fleet_worker(
            &worker_grid,
            &worker_dir,
            "other",
            &FleetOptions {
                max_wall_ms: Some(120_000),
                ..live_opts()
            },
        )
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(90);
    loop {
        let status = fleet_status(&dir).unwrap().unwrap();
        let holders: Vec<&str> = status.leases.iter().map(|l| l.worker.as_str()).collect();
        if status.completed == 3 {
            assert_eq!(holders, ["holder"], "a completion must release its lease");
            break;
        }
        assert!(
            status.completed <= 3,
            "live lease must block its scenario (completed {})",
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
    // scenario, then confirm it never claimed it.
    thread::sleep(std::time::Duration::from_millis(200));
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 3);
    assert_eq!(status.leases.len(), 1);
    assert_eq!(status.leases[0].worker, "holder");
    assert_eq!(status.leases[0].scenario, 0);
    // The worker thread keeps polling until its wall cap; detach it —
    // the scratch directory stays on disk for it (tmpdir-scoped).
    drop(other);
}

// ------------------------------------------------- bitwise determinism

#[test]
fn three_worker_fleet_matches_the_serial_sweep_bitwise() {
    let dir = scratch_dir("three_way");
    let reference = fleet_reference();
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let grid = fleet_grid();
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
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &live_opts()).unwrap();
    assert!(report.complete);
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_scenario_then_fleet_matches_serial_bitwise() {
    let dir = scratch_dir("kill_mid_scenario");
    let reference = fleet_reference();
    // First worker dies mid-scenario after 2 checkpoints; the fleet
    // that follows resumes from the snapshot, and the final report is
    // still bitwise-identical to the uninterrupted sweep — checkpoint
    // restore is exact, not approximate.
    let victim = run_fleet_worker(
        &fleet_grid(),
        &dir,
        "victim",
        &FleetOptions {
            kill_after_checkpoints: Some(2),
            ..fleet_opts()
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
            let grid = fleet_grid();
            let dir = dir.clone();
            thread::spawn(move || {
                run_fleet_worker(&grid, &dir, &format!("w{i}"), &fleet_opts()).unwrap()
            })
        })
        .collect();
    for handle in workers {
        handle.join().unwrap();
    }
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_sweep_resumes_a_killed_fleet_workers_ledger_and_snapshot() {
    let dir = scratch_dir("fleet_then_sweep");
    let reference = fleet_reference();
    // Each scenario snapshots at steps 2 and 4, so the fourth snapshot
    // kills the worker inside scenario 1 with scenario 0 in the ledger.
    let victim = run_fleet_worker(
        &fleet_grid(),
        &dir,
        "victim",
        &FleetOptions {
            kill_after_checkpoints: Some(4),
            ..fleet_opts()
        },
    )
    .unwrap();
    assert!(victim.killed);
    assert_eq!(victim.completed, 1);
    let snapshot = dir.join("scenario_1.ckpt.json");
    let text = std::fs::read_to_string(&snapshot).unwrap();
    assert_eq!(SimCheckpoint::from_json(&text).unwrap().next_step, 4);
    // The in-process driver reads the fleet's ledger and snapshot as its
    // own and finishes the grid to the uninterrupted bytes.
    let opts = SweepOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: fleet_opts().checkpoint_every,
        ..SweepOptions::default()
    };
    let report = run_sweep(&fleet_grid(), &opts).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    assert!(!snapshot.exists(), "the resumed scenario ran to its end");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_past_its_wall_cap_releases_its_scenario_mid_run() {
    let dir = scratch_dir("wall_cap");
    // One millisecond is over before the first tick of the scenario the
    // worker leases ends: it stops there, lease released, snapshot kept.
    let capped = FleetOptions {
        lease_ms: 600_000,
        checkpoint_every: 1,
        max_wall_ms: Some(1),
        ..fleet_opts()
    };
    let report = run_fleet_worker(&fleet_grid(), &dir, "capped", &capped).unwrap();
    assert_eq!((report.completed, report.killed), (0, false));
    // (No ledger at all if the cap passed before the first claim.)
    let status = fleet_status(&dir).unwrap();
    let left = status.map_or((0, 0), |s| (s.completed, s.leases.len()));
    assert_eq!(left, (0, 0), "completed scenarios and leases left");
    // A live lease would keep the next worker off the scenario for ten
    // minutes; released, it is claimed at once and resumed to the bytes.
    let rest = FleetOptions {
        checkpoint_every: 1,
        ..live_opts()
    };
    run_fleet_worker(&fleet_grid(), &dir, "next", &rest).unwrap();
    let merged = run_fleet_coordinator(&fleet_grid(), &dir, &rest).unwrap();
    assert_eq!(merged.deterministic_json(), fleet_reference());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_rebuilds_the_ledger_from_worker_streams() {
    let dir = scratch_dir("jsonl_rebuild");
    let reference = fleet_reference();
    let done = run_fleet_worker(&fleet_grid(), &dir, "solo", &fleet_opts()).unwrap();
    assert_eq!(done.completed, 4);
    assert!(dir.join(stream_name(&fleet_grid(), "solo")).exists());
    // Deleting the ledger loses no completions: every record is also
    // in the worker's JSONL stream, and the coordinator's two-way
    // merge writes the healed ledger back.
    std::fs::remove_file(dir.join("sweep_state.json")).unwrap();
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 4, "coordinator must heal the ledger");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_merges_only_its_own_grids_streams() {
    let dir = scratch_dir("two_grids");
    // Grid A finishes and its ledger goes (deleted here; quarantined or
    // overwritten by another grid's sweep in the wild): only A's stream
    // is left. Grid B — A under other seeds, so the same four indices —
    // then runs in the same directory. A's records must not fill B's
    // slots: B's report is B's reference, byte for byte. (A's worker id
    // sorts first, so a merge by index alone would take A's records.)
    let grid_b = fleet_grid().with_seeds([17u64, 18]);
    let reference_b = run_sweep(&grid_b, &SweepOptions::default())
        .unwrap()
        .deterministic_json();
    let a = run_fleet_worker(&fleet_grid(), &dir, "a", &fleet_opts()).unwrap();
    assert_eq!(a.completed, 4);
    std::fs::remove_file(dir.join("sweep_state.json")).unwrap();
    let b = run_fleet_worker(&grid_b, &dir, "b", &fleet_opts()).unwrap();
    assert_eq!(b.completed, 4, "B's worker runs every scenario of B");
    let report = run_fleet_coordinator(&grid_b, &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference_b);
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------- ledger corruption

#[test]
fn truncated_ledger_is_quarantined_and_the_sweep_recovers() {
    let dir = scratch_dir("truncated");
    let reference = fleet_reference();
    let first = run_fleet_worker(
        &fleet_grid(),
        &dir,
        "first",
        &FleetOptions {
            kill_after_checkpoints: Some(3),
            ..fleet_opts()
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
    let second = run_fleet_worker(&fleet_grid(), &dir, "second", &fleet_opts()).unwrap();
    assert_eq!(second.completed, 4, "recovery restarts the lost work");
    assert!(
        dir.join("sweep_state.json.corrupt").exists(),
        "torn ledger must be preserved for inspection"
    );
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_ledger_is_quarantined_not_trusted() {
    let dir = scratch_dir("bitflip");
    let reference = fleet_reference();
    let done = run_fleet_worker(&fleet_grid(), &dir, "solo", &fleet_opts()).unwrap();
    assert_eq!(done.completed, 4);
    assert!(dir.join(stream_name(&fleet_grid(), "solo")).exists());
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
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
