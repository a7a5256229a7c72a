//! `middle-sweepd` — multi-process sweep orchestration.
//!
//! A fleet is one shared directory (the ledger + checkpoints + worker
//! JSONL streams) plus one grid-spec JSON file that every process
//! reads. Workers lease scenario shards from the ledger, heartbeat
//! while they run, and stream completed records; the coordinator tails
//! the streams, reclaims expired leases (a SIGKILL'd worker's
//! scenarios re-run from their last checkpoint elsewhere), and writes
//! the merged report. The merged report's deterministic form is
//! byte-identical to a single-process run of the same grid — the
//! `serial` subcommand exists so scripts can assert exactly that with
//! `cmp`. See DESIGN.md §14 for the protocol.
//!
//! ```text
//! middle-sweepd gen-grid --smoke --out grid.json
//! middle-sweepd serial      --grid grid.json --deterministic --out serial.json
//! middle-sweepd worker      --grid grid.json --dir fleet/ --id w0 &
//! middle-sweepd coordinator --grid grid.json --dir fleet/ --spawn 2 \
//!     --deterministic --out fleet.json
//! cmp serial.json fleet.json
//! ```

use middle_core::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, run_sweep, Algorithm, FleetOptions,
    ScenarioGrid, SimConfig, SweepOptions,
};
use middle_data::Task;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
middle-sweepd — multi-process sweep orchestration (see DESIGN.md §14)

USAGE:
  middle-sweepd gen-grid [--smoke | --tiny] [--out PATH]
      Write a built-in grid spec (default: the fleet-smoke grid) as
      JSON to PATH (default stdout). Grid specs are serialised
      ScenarioGrids; hand-authored specs work the same way.

  middle-sweepd serial --grid PATH [--out PATH] [--deterministic] [--threads N]
      Run the grid single-process through run_sweep (the bitwise
      oracle for fleet runs) and write the report.

  middle-sweepd worker --grid PATH --dir PATH --id ID
      [--shard-size N] [--lease-ms N] [--heartbeat-ms N] [--poll-ms N]
      [--checkpoint-every N] [--max-wall-ms N]
      Run one fleet worker against the shared directory.

  middle-sweepd coordinator --grid PATH --dir PATH [--out PATH]
      [--deterministic] [--spawn N] [--shard-size N] [--lease-ms N]
      [--poll-ms N] [--max-wall-ms N]
      Run the coordinator; --spawn N forks N child workers (ids w0..)
      with matching options. Writes the merged report on completion.

  middle-sweepd status --dir PATH
      Print ledger progress and the live lease table.

Every fleet member must use the same grid spec and the same
--shard-size; the ledger rejects mismatches.";

fn fail(message: &str) -> ExitCode {
    eprintln!("middle-sweepd: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

/// The built-in fleet-smoke grid: long enough on one core that CI can
/// SIGKILL a worker mid-run, small enough to finish in seconds.
fn smoke_grid() -> ScenarioGrid {
    let mut cfg = SimConfig::tiny(Task::Speech, Algorithm::middle());
    cfg.num_edges = 3;
    cfg.num_devices = 120;
    cfg.samples_per_device = 100;
    cfg.test_samples = 100;
    cfg.local_steps = 2;
    cfg.batch_size = 8;
    cfg.steps = 64;
    cfg.eval_interval = 8;
    ScenarioGrid::new(cfg)
        .with_selection_sizes([4usize, 6])
        .with_sync_periods([2usize, 4])
        .with_seeds([7u64, 8, 9])
}

/// A seconds-long four-scenario grid for local experimentation.
fn tiny_grid() -> ScenarioGrid {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 6;
    cfg.eval_interval = 2;
    ScenarioGrid::new(cfg)
        .with_selection_sizes([2usize, 3])
        .with_seeds([7u64, 8])
}

/// One parsed `--flag value` vocabulary shared by the subcommands.
#[derive(Default)]
struct Args {
    grid: Option<PathBuf>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    id: Option<String>,
    deterministic: bool,
    smoke: bool,
    tiny: bool,
    threads: usize,
    spawn: usize,
    shard_size: Option<usize>,
    lease_ms: Option<u64>,
    heartbeat_ms: Option<u64>,
    poll_ms: Option<u64>,
    checkpoint_every: Option<usize>,
    max_wall_ms: Option<u64>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--grid" => args.grid = Some(PathBuf::from(value("--grid")?)),
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--id" => args.id = Some(value("--id")?.clone()),
            "--deterministic" => args.deterministic = true,
            "--smoke" => args.smoke = true,
            "--tiny" => args.tiny = true,
            "--threads" => args.threads = parse_num(value("--threads")?, "--threads")?,
            "--spawn" => args.spawn = parse_num(value("--spawn")?, "--spawn")?,
            "--shard-size" => {
                args.shard_size = Some(parse_num(value("--shard-size")?, "--shard-size")?);
            }
            "--lease-ms" => args.lease_ms = Some(parse_num(value("--lease-ms")?, "--lease-ms")?),
            "--heartbeat-ms" => {
                args.heartbeat_ms = Some(parse_num(value("--heartbeat-ms")?, "--heartbeat-ms")?);
            }
            "--poll-ms" => args.poll_ms = Some(parse_num(value("--poll-ms")?, "--poll-ms")?),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(parse_num(
                    value("--checkpoint-every")?,
                    "--checkpoint-every",
                )?);
            }
            "--max-wall-ms" => {
                args.max_wall_ms = Some(parse_num(value("--max-wall-ms")?, "--max-wall-ms")?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got {text:?}"))
}

fn fleet_options(args: &Args) -> FleetOptions {
    let defaults = FleetOptions::default();
    FleetOptions {
        shard_size: args.shard_size.unwrap_or(defaults.shard_size),
        lease_ms: args.lease_ms.unwrap_or(defaults.lease_ms),
        heartbeat_ms: args.heartbeat_ms.unwrap_or(defaults.heartbeat_ms),
        poll_ms: args.poll_ms.unwrap_or(defaults.poll_ms),
        checkpoint_every: args.checkpoint_every.unwrap_or(8),
        max_wall_ms: args.max_wall_ms,
        kill_after_checkpoints: None,
    }
}

fn load_grid(args: &Args) -> Result<ScenarioGrid, String> {
    let path = args.grid.as_ref().ok_or("--grid is required")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn write_out(out: Option<&Path>, contents: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
        }
        None => {
            println!("{contents}");
            Ok(())
        }
    }
}

fn report_json(report: &middle_core::SweepReport, deterministic: bool) -> String {
    if deterministic {
        report.deterministic_json()
    } else {
        report.to_json()
    }
}

fn cmd_gen_grid(args: &Args) -> Result<(), String> {
    let grid = if args.tiny { tiny_grid() } else { smoke_grid() };
    let json = serde_json::to_string(&grid).expect("grid serialisation cannot fail");
    let n = grid.scenarios().map_err(|e| e.to_string())?.len();
    write_out(args.out.as_deref(), &json)?;
    eprintln!("[gen-grid] {n} scenarios");
    Ok(())
}

fn cmd_serial(args: &Args) -> Result<(), String> {
    let grid = load_grid(args)?;
    let report = run_sweep(
        &grid,
        &SweepOptions {
            threads: args.threads.max(1),
            ..SweepOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "[serial] {} scenarios in {:.2}s",
        report.scenarios.len(),
        report.wall_seconds
    );
    write_out(
        args.out.as_deref(),
        &report_json(&report, args.deterministic),
    )
}

fn cmd_worker(args: &Args) -> Result<(), String> {
    let grid = load_grid(args)?;
    let dir = args.dir.as_ref().ok_or("--dir is required")?;
    let id = args.id.as_ref().ok_or("--id is required")?;
    let opts = fleet_options(args);
    let report = run_fleet_worker(&grid, dir, id, &opts).map_err(|e| e.to_string())?;
    eprintln!(
        "[worker {}] completed {} scenarios",
        report.worker_id, report.completed
    );
    Ok(())
}

fn cmd_coordinator(args: &Args) -> Result<(), String> {
    let grid = load_grid(args)?;
    let dir = args.dir.as_ref().ok_or("--dir is required")?;
    let opts = fleet_options(args);

    // Optionally fork child workers that inherit this invocation's
    // grid and fleet options.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let grid_path = args.grid.as_ref().expect("checked by load_grid");
    let mut children = Vec::new();
    for i in 0..args.spawn {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--grid")
            .arg(grid_path)
            .arg("--dir")
            .arg(dir)
            .arg("--id")
            .arg(format!("w{i}"))
            .arg("--shard-size")
            .arg(opts.shard_size.to_string())
            .arg("--lease-ms")
            .arg(opts.lease_ms.to_string())
            .arg("--heartbeat-ms")
            .arg(opts.heartbeat_ms.to_string())
            .arg("--poll-ms")
            .arg(opts.poll_ms.to_string())
            .arg("--checkpoint-every")
            .arg(opts.checkpoint_every.to_string());
        if let Some(ms) = opts.max_wall_ms {
            cmd.arg("--max-wall-ms").arg(ms.to_string());
        }
        let child = cmd.spawn().map_err(|e| format!("spawn worker w{i}: {e}"))?;
        children.push(child);
    }

    let result = run_fleet_coordinator(&grid, dir, &opts).map_err(|e| e.to_string());
    for mut child in children {
        let _ = child.wait();
    }
    let report = result?;
    eprintln!(
        "[coordinator] {} scenarios complete, {} worker streams, {:.2}s",
        report.scenarios.len(),
        report.threads,
        report.wall_seconds
    );
    write_out(
        args.out.as_deref(),
        &report_json(&report, args.deterministic),
    )
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let dir = args.dir.as_ref().ok_or("--dir is required")?;
    match fleet_status(dir).map_err(|e| e.to_string())? {
        None => println!("no ledger in {}", dir.display()),
        Some(status) => {
            println!(
                "{}/{} scenarios complete, shard size {}, {} lease(s)",
                status.completed,
                status.total,
                status.shard_size,
                status.leases.len()
            );
            for lease in &status.leases {
                println!(
                    "  shard {} leased by {} (heartbeat {} ms ago)",
                    lease.shard,
                    lease.worker,
                    now_ms().saturating_sub(lease.heartbeat_unix_ms)
                );
            }
        }
    }
    Ok(())
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return fail("missing subcommand");
    };
    if matches!(cmd.as_str(), "-h" | "--help" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => return fail(&message),
    };
    let result = match cmd.as_str() {
        "gen-grid" => cmd_gen_grid(&args),
        "serial" => cmd_serial(&args),
        "worker" => cmd_worker(&args),
        "coordinator" => cmd_coordinator(&args),
        "status" => cmd_status(&args),
        other => return fail(&format!("unknown subcommand {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("middle-sweepd: {message}");
            ExitCode::FAILURE
        }
    }
}
