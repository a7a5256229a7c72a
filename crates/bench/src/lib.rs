//! # middle-bench
//!
//! Experiment harness regenerating every table and figure of the MIDDLE
//! paper (see DESIGN.md §4 for the experiment index). Each figure has a
//! binary (`fig1_motivation`, …, `theorem1_bound`) that prints the
//! figure's series as aligned text plus CSV, and writes the CSV under
//! `results/`. The `sweeps` binary holds the four scientific sweep
//! presets behind the committed `BENCH_*.json` (DESIGN.md §17); host
//! time is measured by `perf/`, not here.
//!
//! Scale control: the figure binaries read the `MIDDLE_SCALE`
//! environment variable (default `1.0`); values below 1 shrink step
//! counts for smoke runs (e.g. `MIDDLE_SCALE=0.1`), values above stretch
//! them. `sweeps` has one size and ignores it.
//!
//! Telemetry: the switches are [`SimulationBuilder::telemetry`] and
//! [`SimulationBuilder::telemetry_jsonl`] (or the corresponding
//! `SimConfig` fields). The old `MIDDLE_TELEMETRY` /
//! `MIDDLE_TELEMETRY_JSONL` environment variables have been removed.
//!
//! [`SimulationBuilder::telemetry`]: middle_core::SimulationBuilder::telemetry
//! [`SimulationBuilder::telemetry_jsonl`]: middle_core::SimulationBuilder::telemetry_jsonl

use middle_core::{RunRecord, SimConfig, SimulationBuilder};
use std::fs;
use std::path::PathBuf;

/// Scale factor for step counts, from `MIDDLE_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("MIDDLE_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Applies the scale factor to a step count (minimum 4).
pub fn scaled_steps(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(4)
}

/// Runs a simulation, echoing progress to stderr. When telemetry is
/// enabled on the config ([`SimulationBuilder::telemetry`] /
/// [`SimulationBuilder::telemetry_jsonl`]), the per-phase summary table
/// is echoed after the run.
pub fn run_logged(cfg: SimConfig) -> RunRecord {
    let label = format!("{} / {}", cfg.algorithm.name, cfg.task.name());
    eprintln!(
        "[middle-bench] {label}: {} edges, {} devices, {} steps ...",
        cfg.num_edges, cfg.num_devices, cfg.steps
    );
    let record = SimulationBuilder::new(cfg)
        .build()
        .expect("valid bench config")
        .run();
    eprintln!(
        "[middle-bench] {label}: final {:.3} in {:.1}s",
        record.final_accuracy(),
        record.wall_seconds
    );
    if let Some(report) = &record.telemetry {
        eprintln!(
            "[middle-bench] {label}: telemetry\n{}",
            report.summary_table()
        );
    }
    record
}

/// Writes CSV content under `results/<name>.csv` (creating the
/// directory), returning the path. Errors are printed, not fatal —
/// benches still report to stdout on read-only filesystems.
pub fn write_csv(name: &str, content: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("[middle-bench] cannot create results/: {e}");
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    match fs::write(&path, content) {
        Ok(()) => {
            eprintln!("[middle-bench] wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("[middle-bench] cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Formats a set of named accuracy curves as a CSV matrix keyed by step:
/// `step,<name1>,<name2>,...` with empty cells where a curve lacks the
/// step.
pub fn curves_to_csv(curves: &[(String, Vec<(usize, f32)>)]) -> String {
    let mut steps: Vec<usize> = curves
        .iter()
        .flat_map(|(_, c)| c.iter().map(|(s, _)| *s))
        .collect();
    steps.sort_unstable();
    steps.dedup();

    let mut out = String::from("step");
    for (name, _) in curves {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for s in steps {
        out.push_str(&s.to_string());
        for (_, curve) in curves {
            out.push(',');
            if let Some((_, a)) = curve.iter().find(|(cs, _)| cs == &s) {
                out.push_str(&format!("{a:.4}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Pretty-prints named curves as an aligned table to stdout.
pub fn print_curves(title: &str, curves: &[(String, Vec<(usize, f32)>)]) {
    println!("\n=== {title} ===");
    print!("{:>6}", "step");
    for (name, _) in curves {
        print!(" {name:>12}");
    }
    println!();
    let mut steps: Vec<usize> = curves
        .iter()
        .flat_map(|(_, c)| c.iter().map(|(s, _)| *s))
        .collect();
    steps.sort_unstable();
    steps.dedup();
    for s in steps {
        print!("{s:>6}");
        for (_, curve) in curves {
            match curve.iter().find(|(cs, _)| cs == &s) {
                Some((_, a)) => print!(" {a:>12.3}"),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
}

/// The shared scaled-down Figure 6–8 configuration for `task`:
/// the paper's §6.1.2 setting reduced to 5 edges / 40 devices / K = 3
/// so the full figure suite regenerates on a single-core laptop
/// (DESIGN.md §7 records the scaling).
pub fn fig_config(task: middle_data::Task, algorithm: middle_core::Algorithm) -> SimConfig {
    use middle_data::Task;
    let mut cfg = SimConfig::paper_default(task, algorithm);
    cfg.num_edges = 5;
    cfg.num_devices = 40;
    cfg.devices_per_edge = 3;
    cfg.samples_per_device = 30;
    cfg.batch_size = 8;
    cfg.test_samples = 300;
    cfg.eval_interval = 5;
    cfg.steps = scaled_steps(match task {
        Task::Mnist => 150,
        Task::Emnist => 200,
        Task::Cifar10 => 200,
        Task::Speech => 150,
    });
    cfg
}

/// Scaled-down time-to-accuracy targets used by the harness.
///
/// The paper's targets (0.95 / 0.80 / 0.55 / 0.85, §6.1.2) assume the
/// full datasets and 1.5k–20k time steps; at this harness's reduced
/// scale (40 devices × 30 samples, 150–200 steps) the same *ordering*
/// experiments use proportionally reduced targets, recorded in
/// EXPERIMENTS.md alongside the paper's originals.
pub fn scaled_target(task: middle_data::Task) -> f32 {
    use middle_data::Task;
    match task {
        Task::Mnist => 0.75,
        Task::Emnist => 0.45,
        Task::Cifar10 => 0.22,
        Task::Speech => 0.70,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_steps_has_floor() {
        assert!(scaled_steps(100) >= 4);
        assert_eq!(scaled_steps(0), 4);
    }

    #[test]
    fn curves_csv_merges_steps() {
        let csv = curves_to_csv(&[
            ("a".into(), vec![(1, 0.5), (2, 0.6)]),
            ("b".into(), vec![(2, 0.7)]),
        ]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "step,a,b");
        assert_eq!(lines[1], "1,0.5000,");
        assert_eq!(lines[2], "2,0.6000,0.7000");
    }
}
