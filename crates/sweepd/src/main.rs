//! `middle-sweepd` — the one experiment CLI: every preset and every
//! grid runs through `run`, in this process or on a fleet of worker
//! processes.
//!
//! `run` takes a preset ([`presets::PRESETS`]: the paper's figures, the
//! four scientific sweeps and the fleet's `smoke` grid) or a grid file
//! (a serialised `ScenarioGrid`). With `--dir D` each grid runs in its
//! own directory `D/<grid digest, 16 hex>/`, so a rerun resumes there
//! and two grids never share a ledger, a checkpoint or a stream. At
//! `--spawn 0` (the default) a grid runs in-process through
//! `run_sweep`; at `--spawn N` it is written to `grid.json` in its
//! directory, N `worker` children lease its scenarios one at a time
//! from the shared ledger, and the coordinator in this process merges
//! their streams. Both drivers keep one ledger and checkpoint format,
//! and the merged report's deterministic form is byte-identical to the
//! in-process one (DESIGN.md §14), so a run cut short under either
//! resumes under the other. A preset then runs its check and writes its
//! tables into a directory; a grid run writes the report's deterministic
//! JSON.
//!
//! ```text
//! middle-sweepd run fig6                        # results/fig6_*.csv
//! middle-sweepd run smoke --out oracle/
//! middle-sweepd run smoke --spawn 3 --dir ledger/ --out fleet/
//! diff -r oracle/ fleet/
//! middle-sweepd status --dir ledger/
//! ```

mod presets;

use middle_core::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, run_sweep, FleetOptions, ScenarioGrid,
    SweepOptions, SweepReport,
};
use presets::{Preset, PRESETS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn usage() -> String {
    let presets: Vec<&str> = PRESETS.iter().map(|p| p.0).collect();
    format!(
        "\
middle-sweepd — the experiment CLI (see DESIGN.md §14)

USAGE:
  middle-sweepd run (<preset> | --grid PATH) [--spawn N] [--dir D] [--out PATH]
      [--lease-ms N] [--max-wall-ms N]
      Run every grid of a preset, or the grid of a grid file (a
      serialised ScenarioGrid). With --dir D each grid runs in
      D/<grid digest>/, where a rerun resumes. --spawn 0 (the default)
      runs in this process; --spawn N (needs --dir) writes grid.json
      there, forks N workers (ids w0..) and merges their results. A
      preset then checks its claims and writes its CSV tables into the
      directory --out (default results/); a grid run writes the
      report's deterministic JSON to the file --out (default stdout).
      --lease-ms and --max-wall-ms are the fleet's.
      Presets: {}

  middle-sweepd worker --grid PATH --dir PATH --id ID
      [--lease-ms N] [--max-wall-ms N]
      Run one fleet worker in a grid directory. A worker renews its
      lease every lease-ms / 4 (default lease 5000 ms).

Either driver snapshots a running scenario every 8 steps in its grid
directory, so a run cut short under one resumes under the other.

  middle-sweepd status --dir PATH
      Print ledger progress and the live lease table of a grid
      directory, or of every grid directory of a run directory.

Every fleet member must use the same grid spec; the ledger rejects a
mismatch.",
        presets.join(" ")
    )
}

fn fail(message: &str) -> ExitCode {
    eprintln!("middle-sweepd: {message}\n\n{}", usage());
    ExitCode::from(2)
}

/// One parsed `--flag value` vocabulary shared by the subcommands.
#[derive(Default)]
struct Args {
    grid: Option<PathBuf>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    id: Option<String>,
    spawn: usize,
    lease_ms: Option<u64>,
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
            "--spawn" => args.spawn = parse_num(value("--spawn")?, "--spawn")?,
            "--lease-ms" => args.lease_ms = Some(parse_num(value("--lease-ms")?, "--lease-ms")?),
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
        lease_ms: args.lease_ms.unwrap_or(defaults.lease_ms),
        max_wall_ms: args.max_wall_ms,
        ..defaults
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

/// What `run` runs — `Some` preset, or `None` for the `--grid` file —
/// once its words and flags are known to fit together.
fn run_target(preset: Option<&str>, args: &Args) -> Result<Option<&'static Preset>, String> {
    if args.spawn == 0 && (args.lease_ms.is_some() || args.max_wall_ms.is_some()) {
        return Err("--lease-ms and --max-wall-ms need --spawn N > 0".to_string());
    }
    if args.dir.is_none() && args.spawn > 0 {
        return Err("--spawn needs --dir".to_string());
    }
    match (preset, &args.grid) {
        (Some(name), None) => match PRESETS.iter().find(|p| p.0 == name) {
            Some(preset) => Ok(Some(preset)),
            None => Err(format!("unknown preset {name}")),
        },
        (None, Some(_)) => Ok(None),
        _ => Err("run takes a preset or --grid PATH".to_string()),
    }
}

fn cmd_run(preset: Option<&Preset>, args: &Args) -> Result<(), String> {
    let grids = match preset {
        Some((_, grids, _)) => grids(),
        None => vec![load_grid(args)?],
    };
    let reports: Vec<SweepReport> = grids
        .iter()
        .map(|grid| run_grid(grid, args))
        .collect::<Result<_, _>>()?;
    // Tables and reports are written from whole grids only.
    if reports.iter().any(|report| !report.complete) {
        return Err("a grid finished with scenarios missing".to_string());
    }
    match preset {
        Some(preset) => {
            presets::check_and_write(preset, &reports, args.out.as_deref());
            Ok(())
        }
        None => write_out(args.out.as_deref(), &reports[0].deterministic_json()),
    }
}

/// Runs one grid — in its directory under `--dir` when one is given —
/// in-process or, at `--spawn N`, on N worker processes.
fn run_grid(grid: &ScenarioGrid, args: &Args) -> Result<SweepReport, String> {
    let fleet = fleet_options(args);
    let digest = grid.digest().map_err(|e| e.to_string())?;
    let dir = args.dir.as_ref().map(|d| d.join(format!("{digest:016x}")));
    let report = match dir {
        Some(dir) if args.spawn > 0 => run_fleet(grid, &dir, args.spawn, &fleet)?,
        dir => {
            let opts = SweepOptions {
                checkpoint_dir: dir,
                checkpoint_every: fleet.checkpoint_every,
                ..SweepOptions::default()
            };
            run_sweep(grid, &opts).map_err(|e| e.to_string())?
        }
    };
    eprintln!(
        "[run] grid {digest:016x}: {} scenarios in {:.2}s, {} workers, input cache {} hits / {} misses",
        report.scenarios.len(),
        report.wall_seconds,
        report.threads,
        report.cache_hits,
        report.cache_misses
    );
    Ok(report)
}

/// The fleet in `dir`: `grid.json` there, `n` forked `worker` children
/// with this invocation's fleet options, and the coordinator in this
/// process.
fn run_fleet(
    grid: &ScenarioGrid,
    dir: &Path,
    n: usize,
    opts: &FleetOptions,
) -> Result<SweepReport, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let grid_path = dir.join("grid.json");
    let json = serde_json::to_string(grid).expect("grid serialisation cannot fail");
    write_out(Some(&grid_path), &json)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for i in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--grid")
            .arg(&grid_path)
            .arg("--dir")
            .arg(dir)
            .arg("--id")
            .arg(format!("w{i}"))
            .arg("--lease-ms")
            .arg(opts.lease_ms.to_string());
        if let Some(ms) = opts.max_wall_ms {
            cmd.arg("--max-wall-ms").arg(ms.to_string());
        }
        let child = cmd.spawn().map_err(|e| format!("spawn worker w{i}: {e}"))?;
        children.push(child);
    }
    let result = run_fleet_coordinator(grid, dir, opts).map_err(|e| e.to_string());
    for mut child in children {
        let _ = child.wait();
    }
    result
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

fn cmd_status(args: &Args) -> Result<(), String> {
    let dir = args.dir.as_ref().ok_or("--dir is required")?;
    // A run directory holds one grid directory per digest; a directory
    // with none is read as a grid directory itself.
    let mut grid_dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.join("sweep_state.json").exists())
        .collect();
    grid_dirs.sort();
    if grid_dirs.is_empty() {
        grid_dirs.push(dir.clone());
    }
    for dir in grid_dirs {
        let Some(status) = fleet_status(&dir).map_err(|e| e.to_string())? else {
            println!("no ledger in {}", dir.display());
            continue;
        };
        println!(
            "{}/{} scenarios complete, {} lease(s) in {}",
            status.completed,
            status.total,
            status.leases.len(),
            dir.display()
        );
        for lease in &status.leases {
            println!(
                "  scenario {} leased by {} (heartbeat {} ms ago)",
                lease.scenario,
                lease.worker,
                now_ms().saturating_sub(lease.heartbeat_unix_ms)
            );
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
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    // `run` names its preset in the first word; every other word is a flag.
    let (preset, flags) = match rest.split_first() {
        Some((word, flags)) if cmd == "run" && !word.starts_with("--") => {
            (Some(word.as_str()), flags)
        }
        _ => (None, rest),
    };
    let args = match parse_args(flags) {
        Ok(args) => args,
        Err(message) => return fail(&message),
    };
    let result = match cmd.as_str() {
        "run" => match run_target(preset, &args) {
            Ok(preset) => cmd_run(preset, &args),
            Err(message) => return fail(&message),
        },
        "worker" => cmd_worker(&args),
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
