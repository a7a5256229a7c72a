//! The `middle-sweepd` binary end to end, on a small grid file: the
//! in-process and the two-worker drivers write the same bytes, a fleet
//! run cut short resumes in-process from the same directory to those
//! bytes (the two drivers share one ledger), and a bad preset or
//! subcommand is a usage error. That `run_sweep` also resumes a fleet
//! worker's mid-scenario snapshot is `sweep_fleet.rs`'s concern.

use middle_core::{Algorithm, ScenarioGrid, SimConfig};
use middle_data::Task;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory holding the test grid as `grid.json`: six
/// eight-step Speech scenarios.
fn setup(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("middle_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = SimConfig::tiny(Task::Speech, Algorithm::middle());
    cfg.steps = 8;
    cfg.eval_interval = 4;
    let grid = ScenarioGrid::new(cfg)
        .with_sync_periods([2usize, 4])
        .with_seeds([7u64, 8, 9]);
    let path = dir.join("grid.json");
    std::fs::write(&path, serde_json::to_string(&grid).unwrap()).unwrap();
    (dir, path)
}

fn sweepd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_middle-sweepd"))
        .args(args)
        .output()
        .unwrap()
}

/// `run --grid grid` plus `extra`, writing its report to `out`.
fn run_grid(grid: &Path, out: &Path, extra: &[&str]) -> Output {
    let (grid, out) = (grid.to_str().unwrap(), out.to_str().unwrap());
    sweepd(&[&["run", "--grid", grid, "--out", out], extra].concat())
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn in_process_and_two_worker_runs_write_equal_bytes() {
    let (dir, grid) = setup("equal");
    let (serial, fleet) = (dir.join("serial.json"), dir.join("fleet.json"));
    let run = run_grid(&grid, &serial, &[]);
    assert!(run.status.success(), "{}", stderr(&run));
    let fleet_dir = dir.join("fleet");
    let spawn = ["--spawn", "2", "--dir", fleet_dir.to_str().unwrap()];
    let run = run_grid(&grid, &fleet, &spawn);
    assert!(run.status.success(), "{}", stderr(&run));
    assert_eq!(
        std::fs::read(&serial).unwrap(),
        std::fs::read(&fleet).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fleet_run_cut_short_resumes_in_process_to_the_same_bytes() {
    let (dir, grid) = setup("resume");
    let (reference, resumed) = (dir.join("reference.json"), dir.join("resumed.json"));
    let run = run_grid(&grid, &reference, &[]);
    assert!(run.status.success(), "{}", stderr(&run));
    // Past the 1 ms wall cap a worker claims nothing more, and the
    // scenario it leased at its start stops at its first tick, its lease
    // released: no scenario completes, whatever the host's speed, and
    // the coordinator gives up. No snapshot was due yet (the eight-step
    // scenarios snapshot every eight steps), so the resume runs every
    // scenario from its start.
    let fleet_dir = dir.join("fleet");
    let fleet_dir = fleet_dir.to_str().unwrap();
    let cut = ["--spawn", "2", "--dir", fleet_dir, "--max-wall-ms", "1"];
    let run = run_grid(&grid, &dir.join("cut.json"), &cut);
    assert_eq!(run.status.code(), Some(1), "{}", stderr(&run));
    assert!(stderr(&run).contains("timed out"), "{}", stderr(&run));
    let status = sweepd(&["status", "--dir", fleet_dir]);
    let status = String::from_utf8_lossy(&status.stdout).into_owned();
    assert!(
        status.starts_with("0/6 scenarios complete, 0 lease(s)"),
        "no scenario may finish or stay leased past the cap: {status}"
    );
    let run = run_grid(&grid, &resumed, &["--dir", fleet_dir]);
    assert!(run.status.success(), "{}", stderr(&run));
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_preset_or_subcommand_is_a_usage_error() {
    for args in [&["run", "no-such-preset"][..], &["frobnicate"], &["run"]] {
        let run = sweepd(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&run).contains("USAGE:"),
            "{args:?}: {}",
            stderr(&run)
        );
    }
}
