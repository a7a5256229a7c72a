//! Population-scale sweep: runs the lazy population plane at 10k, 100k
//! and 1M devices on 100 edges and records peak RSS, per-step wall
//! clock and the resident-replica high-water mark into
//! `BENCH_scale.json`.
//!
//! Each scale runs in a child process (the binary re-execs itself with
//! `--one`), because `VmHWM` is a process-lifetime high-water mark —
//! measuring three scales in one process would report the largest for
//! all of them. The 10k scale also runs once in dense mode as the
//! memory baseline the lazy plane is measured against.
//!
//! ```sh
//! cargo run -p middle-bench --release --bin scale_sweep   # writes BENCH_scale.json
//! ```
//!
//! This is the one host-time instrument outside `perf`: it stays until
//! `perf` has a 1M-device workload (ROADMAP item 3(b) reads these
//! numbers). Dense ≡ lazy and the `peak_resident` bound at CI size are
//! held by `crates/core/tests/population_plane.rs`.
//!
//! Dropout faults are deliberately absent here: the fault plane's
//! dropout chain advances per device per step (O(N)) and would dominate
//! the idle-population cost this sweep isolates.

use middle_core::{
    Algorithm, MobilitySource, PopulationMode, SimConfig, SimulationBuilder, StepMode,
};
use middle_data::Task;
use std::time::Instant;

/// Runs the 10k-device scenario dense and lazy and checks the two
/// `RunRecord`s are bitwise identical (floats compare through the
/// shortest-round-trip JSON encoding, which is bit-faithful).
/// `wall_seconds` is host timing, not simulation output, and is
/// excluded. Returns `true` on equality; mismatches are printed.
fn verify_dense_lazy_10k() -> bool {
    let mut records = Vec::new();
    for mode in [PopulationMode::Dense, PopulationMode::Lazy] {
        let cfg = scenario(10_000, 100, mode);
        let mut sim = SimulationBuilder::new(cfg)
            .build()
            .expect("valid scale config");
        let mut record = sim.run();
        record.wall_seconds = 0.0;
        records.push(serde_json::to_string(&record).expect("record serialises"));
    }
    if records[0] == records[1] {
        true
    } else {
        eprintln!("[scale_sweep] 10k dense/lazy records DIVERGED");
        eprintln!("[scale_sweep] dense: {}", records[0]);
        eprintln!("[scale_sweep] lazy:  {}", records[1]);
        false
    }
}

/// One measured scenario, serialised as a JSON object.
struct Row {
    devices: usize,
    edges: usize,
    steps: usize,
    mode: &'static str,
    build_seconds: f64,
    avg_step_ms: f64,
    max_step_ms: f64,
    peak_rss_mb: f64,
    end_rss_mb: f64,
    peak_resident: usize,
    end_resident: usize,
    active_steps: u64,
    syncs: u64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"devices\":{},\"edges\":{},\"steps\":{},\"mode\":\"{}\",",
                "\"build_seconds\":{:.3},\"avg_step_ms\":{:.3},\"max_step_ms\":{:.3},",
                "\"peak_rss_mb\":{:.1},\"end_rss_mb\":{:.1},",
                "\"peak_resident\":{},\"end_resident\":{},",
                "\"active_steps\":{},\"syncs\":{}}}"
            ),
            self.devices,
            self.edges,
            self.steps,
            self.mode,
            self.build_seconds,
            self.avg_step_ms,
            self.max_step_ms,
            self.peak_rss_mb,
            self.end_rss_mb,
            self.peak_resident,
            self.end_resident,
            self.active_steps,
            self.syncs,
        )
    }
}

/// Reads a kB-denominated field (`VmRSS`, `VmHWM`) from
/// `/proc/self/status`, in MiB. Returns 0 where procfs is unavailable
/// (the numbers are then meaningless but the sweep still runs).
fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: f64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The sweep scenario at a given population size. Small per-device
/// datasets and a single end-of-run eval keep the base-data and test
/// costs from masking the per-step population cost under measurement.
fn scenario(devices: usize, edges: usize, mode: PopulationMode) -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.num_devices = devices;
    cfg.num_edges = edges;
    cfg.devices_per_edge = 5;
    cfg.samples_per_device = 2;
    cfg.batch_size = 2;
    cfg.local_steps = 2;
    cfg.steps = 10;
    cfg.cloud_interval = 5;
    cfg.eval_interval = cfg.steps;
    cfg.test_samples = 64;
    cfg.mobility = MobilitySource::MarkovHop { p: 0.5 };
    cfg.population = mode;
    cfg
}

/// Runs one scenario in this process and prints its row as a single
/// JSON line on stdout (the parent collects it).
fn run_one(devices: usize, edges: usize, mode: PopulationMode) {
    let cfg = scenario(devices, edges, mode);
    let steps = cfg.steps;
    let t0 = Instant::now();
    let mut sim = SimulationBuilder::new(cfg)
        .build()
        .expect("valid scale config");
    let build_seconds = t0.elapsed().as_secs_f64();
    let mut total_ms = 0.0f64;
    let mut max_ms = 0.0f64;
    for _ in 0..steps {
        let s0 = Instant::now();
        sim.tick(StepMode::Fast);
        let ms = s0.elapsed().as_secs_f64() * 1e3;
        total_ms += ms;
        max_ms = max_ms.max(ms);
    }
    let row = Row {
        devices,
        edges,
        steps,
        mode: match mode {
            PopulationMode::Dense => "dense",
            PopulationMode::Lazy => "lazy",
        },
        build_seconds,
        avg_step_ms: total_ms / steps as f64,
        max_step_ms: max_ms,
        peak_rss_mb: proc_status_mb("VmHWM"),
        end_rss_mb: proc_status_mb("VmRSS"),
        peak_resident: sim.population().peak_resident(),
        end_resident: sim.population().resident_count(),
        active_steps: sim.active_steps(),
        syncs: sim.syncs(),
    };
    println!("{}", row.to_json());
}

/// Re-execs this binary for one scenario and returns the child's JSON
/// row.
fn spawn_one(devices: usize, edges: usize, mode: PopulationMode) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mode_arg = match mode {
        PopulationMode::Dense => "dense",
        PopulationMode::Lazy => "lazy",
    };
    eprintln!("[scale_sweep] {devices} devices / {edges} edges ({mode_arg}) ...");
    let out = std::process::Command::new(exe)
        .args(["--one", &devices.to_string(), &edges.to_string(), mode_arg])
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "[scale_sweep] child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if line.is_empty() {
        None
    } else {
        eprintln!("[scale_sweep]   {line}");
        Some(line)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 5 && args[1] == "--one" {
        let devices: usize = args[2].parse().expect("devices");
        let edges: usize = args[3].parse().expect("edges");
        let mode = match args[4].as_str() {
            "dense" => PopulationMode::Dense,
            _ => PopulationMode::Lazy,
        };
        run_one(devices, edges, mode);
        return;
    }
    // Dense only at 10k: at the larger scales it is exactly the O(N)
    // residency the lazy plane removes.
    let mut rows: Vec<String> = [
        (10_000, 100, PopulationMode::Dense),
        (10_000, 100, PopulationMode::Lazy),
        (100_000, 100, PopulationMode::Lazy),
        (1_000_000, 100, PopulationMode::Lazy),
    ]
    .into_iter()
    .filter_map(|(n, e, mode)| spawn_one(n, e, mode))
    .collect();
    eprintln!("[scale_sweep] verifying 10k dense == lazy records bitwise ...");
    let ok = verify_dense_lazy_10k();
    rows.push(format!("{{\"dense_lazy_10k_records_bitwise\":{ok}}}"));
    assert!(ok, "10k dense and lazy runs must produce identical records");
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = "BENCH_scale.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[scale_sweep] wrote {path}"),
        Err(e) => {
            eprintln!("[scale_sweep] cannot write {path}: {e}");
            println!("{json}");
        }
    }
}
