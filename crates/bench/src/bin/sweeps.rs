//! The repo's scientific sweeps: robustness to faults, the algorithm
//! zoo, uplink compression and async-vs-lockstep execution, each a
//! named [`ScenarioGrid`] run through [`run_sweep`] and committed as the
//! [`SweepReport::deterministic_json`] of that run.
//!
//! ```sh
//! cargo run -p middle-bench --release --bin sweeps -- <faults|algos|compress|async> [out.json]
//! ```
//!
//! `out.json` defaults to the committed artefact of the preset
//! (`BENCH_faults.json`, `BENCH_algos.json`, `BENCH_compress.json`,
//! `BENCH_async.json`). Every scenario result is a pure function of its
//! config, so the artefacts are byte-reproducible on any host and thread
//! count, and `scripts/check.sh --ci` regenerates them and fails on any
//! `git diff`. Host time is not measured here — that is `perf`'s job.
//!
//! Each preset is a grid plus a check over the finished report. The
//! check prints the preset's table and asserts its claims; derived
//! columns (communication wall-clock under the shared two-tier link
//! model [`WIRELESS_SECS_PER_TRANSFER`] / [`WAN_SECS_PER_TRANSFER`],
//! uplink ratio, async dominance) are functions of the records computed
//! there, not stored. A failed claim panics before the artefact is
//! written.

use middle_core::comm::{WAN_SECS_PER_TRANSFER, WIRELESS_SECS_PER_TRANSFER};
use middle_core::{
    run_sweep, Algorithm, CompressionConfig, CompressionPreset, DelayModel, DropoutModel,
    ExecutionMode, FaultConfig, FaultPreset, LatencyModel, RunRecord, ScenarioGrid, SimConfig,
    SweepOptions, SweepReport, TimelineConfig,
};
use middle_data::Task;

/// One named sweep: its grid, its claims, its committed artefact.
struct Preset {
    name: &'static str,
    artefact: &'static str,
    grid: fn() -> ScenarioGrid,
    check: fn(&SweepReport),
}

const PRESETS: [Preset; 4] = [
    Preset {
        name: "faults",
        artefact: "BENCH_faults.json",
        grid: faults_grid,
        check: faults_check,
    },
    Preset {
        name: "algos",
        artefact: "BENCH_algos.json",
        grid: algos_grid,
        check: algos_check,
    },
    Preset {
        name: "compress",
        artefact: "BENCH_compress.json",
        grid: compress_grid,
        check: compress_check,
    },
    Preset {
        name: "async",
        artefact: "BENCH_async.json",
        grid: async_grid,
        check: async_check,
    },
];

/// The one MIDDLE configuration every preset varies: the paper's MNIST
/// setting cut to 4 edges / 24 devices / K = 3 / 30 steps.
fn base_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
    cfg.num_edges = 4;
    cfg.num_devices = 24;
    cfg.devices_per_edge = 3;
    cfg.samples_per_device = 30;
    cfg.steps = 30;
    cfg.cloud_interval = 5;
    cfg.test_samples = 200;
    cfg.eval_interval = 5;
    cfg
}

fn fault_preset(name: &str, faults: FaultConfig) -> FaultPreset {
    FaultPreset {
        name: name.to_string(),
        faults,
    }
}

/// The record of the cell under fault preset `preset` whose swept
/// compression / algorithm / execution name is `axis`. Panics when the
/// report lacks it — the presence assertion of every table below.
fn cell<'a>(report: &'a SweepReport, preset: &str, axis: &str) -> &'a RunRecord {
    report
        .scenarios
        .iter()
        .find(|s| {
            let swept = s
                .compression
                .as_deref()
                .or(s.algorithm.as_deref())
                .or(s.execution.as_deref());
            s.preset == preset && swept == Some(axis)
        })
        .map(|s| &s.record)
        .unwrap_or_else(|| panic!("cell {preset} / {axis} is missing from the report"))
}

/// The two fault regimes of the `algos` and `compress` presets (each
/// preset has its own hostile config under the shared name).
const REGIMES: [&str; 2] = ["clean", "hostile"];

/// Simulated communication wall-clock under the shared link model.
fn comm_wall_s(record: &RunRecord) -> f64 {
    record.comm_wall_clock(WIRELESS_SECS_PER_TRANSFER, WAN_SECS_PER_TRANSFER)
}

// --------------------------------------------------------------------
// faults: one configuration through eight failure scenarios
// --------------------------------------------------------------------

/// Everything on: sticky dropout, exponential stragglers against a
/// deadline, lossy uploads with retry, WAN outages. Also the `algos`
/// preset's hostile regime, so stateful policies (FedFly migration) meet
/// stale merges and masked cloud syncs, not just the happy path.
fn hostile_everything() -> FaultConfig {
    FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.1,
            p_recover: 0.3,
        },
        straggler_delay: DelayModel::Exponential { mean_s: 0.6 },
        deadline_s: 1.0,
        upload_loss: 0.2,
        upload_retries: 2,
        wan_outage: 0.2,
    }
}

fn faults_grid() -> ScenarioGrid {
    let off = FaultConfig::default();
    ScenarioGrid::new(base_config()).with_fault_presets([
        FaultPreset::clean(),
        fault_preset(
            "dropout_iid_30",
            FaultConfig {
                dropout: DropoutModel::Iid { p: 0.3 },
                ..off
            },
        ),
        fault_preset(
            "dropout_sticky_bursts",
            FaultConfig {
                dropout: DropoutModel::Markov {
                    p_fail: 0.1,
                    p_recover: 0.25,
                },
                ..off
            },
        ),
        fault_preset(
            "stragglers_exponential",
            FaultConfig {
                straggler_delay: DelayModel::Exponential { mean_s: 0.7 },
                deadline_s: 1.0,
                ..off
            },
        ),
        fault_preset(
            "stragglers_pareto_tail",
            FaultConfig {
                straggler_delay: DelayModel::Pareto {
                    scale_s: 0.4,
                    shape: 1.2,
                },
                deadline_s: 1.0,
                ..off
            },
        ),
        fault_preset(
            "lossy_uploads_retry",
            FaultConfig {
                upload_loss: 0.3,
                upload_retries: 2,
                ..off
            },
        ),
        fault_preset(
            "wan_outage_30",
            FaultConfig {
                wan_outage: 0.3,
                ..off
            },
        ),
        fault_preset("hostile_everything", hostile_everything()),
    ])
}

fn faults_check(report: &SweepReport) {
    println!(
        "{:<24} {:>7} {:>8} {:>8} {:>7} {:>6} {:>6} {:>7} {:>8} {:>9}",
        "scenario",
        "final",
        "uploads",
        "retx",
        "lost",
        "stale",
        "syncs",
        "active",
        "comm s",
        "backoff s"
    );
    for s in &report.scenarios {
        let (record, comm) = (&s.record, &s.record.comm);
        println!(
            "{:<24} {:>7.3} {:>8} {:>8} {:>7} {:>6} {:>6} {:>7} {:>8.1} {:>9.1}",
            s.preset,
            record.final_accuracy(),
            comm.device_to_edge,
            comm.upload_retransmissions,
            comm.lost_uploads,
            comm.stale_uploads,
            record.syncs,
            record.active_steps,
            comm_wall_s(record),
            comm.retry_backoff_seconds(WIRELESS_SECS_PER_TRANSFER),
        );
    }
}

// --------------------------------------------------------------------
// algos: the zoo through a clean and a hostile regime
// --------------------------------------------------------------------

fn algos_grid() -> ScenarioGrid {
    ScenarioGrid::new(base_config())
        .with_fault_presets([
            FaultPreset::clean(),
            fault_preset(REGIMES[1], hostile_everything()),
        ])
        .with_algorithms(Algorithm::zoo())
}

/// Claim: every zoo algorithm × regime cell is present ([`cell`]).
fn algos_check(report: &SweepReport) {
    println!(
        "{:<10} {:<8} {:>7} {:>8} {:>7} {:>6} {:>6} {:>7} {:>9}",
        "algorithm", "regime", "final", "uploads", "e2e", "stale", "syncs", "active", "comm s"
    );
    for algorithm in Algorithm::zoo() {
        for regime in REGIMES {
            let record = cell(report, regime, &algorithm.name);
            println!(
                "{:<10} {:<8} {:>7.3} {:>8} {:>7} {:>6} {:>6} {:>7} {:>9.1}",
                algorithm.name,
                regime,
                record.final_accuracy(),
                record.comm.device_to_edge,
                record.comm.edge_to_edge,
                record.comm.stale_uploads,
                record.syncs,
                record.active_steps,
                comm_wall_s(record),
            );
        }
    }
}

// --------------------------------------------------------------------
// compress: bits × top-K uplink compression, clean and hostile links
// --------------------------------------------------------------------

/// Plane off, enabled-but-lossless (32 bits, every coordinate), then the
/// lossy {8, 4} bits × top {100, 25, 5} % cells.
fn compression_presets() -> Vec<CompressionPreset> {
    let plane = |name: String, bits: u32, frac: f64| CompressionPreset {
        name,
        compression: CompressionConfig {
            enabled: true,
            quantize_bits: bits,
            top_frac: frac,
            ..CompressionConfig::default()
        },
    };
    let mut presets = vec![
        CompressionPreset {
            name: "off".to_string(),
            compression: CompressionConfig::default(),
        },
        plane("lossless".to_string(), 32, 1.0),
    ];
    for bits in [8, 4] {
        for frac in [1.0, 0.25, 0.05] {
            let name = format!("q{bits}k{:02}", (frac * 100.0) as u32);
            presets.push(plane(name, bits, frac));
        }
    }
    presets
}

fn compress_grid() -> ScenarioGrid {
    ScenarioGrid::new(base_config())
        .with_fault_presets([
            FaultPreset::clean(),
            fault_preset(
                REGIMES[1],
                FaultConfig {
                    dropout: DropoutModel::Iid { p: 0.2 },
                    straggler_delay: DelayModel::Uniform {
                        min_s: 0.0,
                        max_s: 2.0,
                    },
                    deadline_s: 1.5,
                    upload_loss: 0.15,
                    upload_retries: 2,
                    wan_outage: 0.2,
                },
            ),
        ])
        .with_compression_presets(compression_presets())
}

/// Claims: the enabled-but-lossless plane is bitwise identical to the
/// plane off (final accuracy and the whole comm ledger), under both link
/// regimes; and at least one lossy cell cuts uplink bytes >= 4x.
fn compress_check(report: &SweepReport) {
    println!(
        "{:<10} {:<8} {:>7} {:>8} {:>14} {:>7} {:>9}",
        "cell", "faults", "final", "dacc", "uplink bytes", "ratio", "comm s"
    );
    let mut best_ratio = 0.0f64;
    for regime in REGIMES {
        let off = cell(report, regime, "off");
        for preset in compression_presets() {
            let record = cell(report, regime, &preset.name);
            let ratio = off.comm.uplink_bytes() as f64 / record.comm.uplink_bytes().max(1) as f64;
            if preset.name == "lossless" {
                assert_eq!(
                    record.final_accuracy().to_bits(),
                    off.final_accuracy().to_bits(),
                    "lossless compression diverged from off ({regime})"
                );
                assert_eq!(
                    record.comm, off.comm,
                    "lossless comm ledger diverged ({regime})"
                );
            } else if preset.compression.enabled {
                best_ratio = best_ratio.max(ratio);
            }
            println!(
                "{:<10} {:<8} {:>7.3} {:>+8.3} {:>14} {:>6.2}x {:>9.1}",
                preset.name,
                regime,
                record.final_accuracy(),
                record.final_accuracy() - off.final_accuracy(),
                record.comm.uplink_bytes(),
                ratio,
                comm_wall_s(record),
            );
        }
    }
    assert!(
        best_ratio >= 4.0,
        "no lossy cell reached a 4x uplink cut (best {best_ratio:.2}x)"
    );
    println!("\nbest uplink ratio {best_ratio:.2}x");
}

// --------------------------------------------------------------------
// async: lockstep vs event-driven variants, clean and hostile stragglers
// --------------------------------------------------------------------

/// Simulated duration of one event-driven round: the wireless cost of a
/// synchronous round (device download + upload), so in the clean
/// zero-delay regime both schedulers price a round identically and the
/// curves separate only where asynchrony genuinely helps.
const STEP_DURATION_S: f64 = 2.0 * WIRELESS_SECS_PER_TRANSFER;

const HOSTILE_STRAGGLERS: &str = "hostile_stragglers";

/// Clean, and exponential stragglers against a deadline: the regime
/// where the lockstep barrier bleeds a full `deadline_s` every round
/// while the async arm lets the tail overlap the next round. The
/// deadline equals the round duration and sits at 4x the mean upload
/// delay — the tail allowance a synchronous deployment provisions so
/// that only the slowest ~2% of uploads (`e^-4`) go stale — so both arms
/// lose the same small fraction of updates to staleness and the barrier
/// cost is pure overhead. Pushing the mean much past the point where
/// delays routinely span rounds trades the comparison for a different
/// one: there the async arm's accuracy genuinely degrades (updates land
/// rounds late, busy devices sit out selection) and neither arm
/// dominates.
fn async_regimes() -> [FaultPreset; 2] {
    [
        FaultPreset::clean(),
        fault_preset(
            HOSTILE_STRAGGLERS,
            FaultConfig {
                straggler_delay: DelayModel::Exponential { mean_s: 0.5 },
                deadline_s: STEP_DURATION_S,
                ..FaultConfig::default()
            },
        ),
    ]
}

/// Lockstep, then plain async plus the K-of-cohort edge threshold and
/// the timer-driven cloud sync, alone and together.
fn async_grid() -> ScenarioGrid {
    let lockstep = TimelineConfig {
        step_duration: STEP_DURATION_S,
        ..TimelineConfig::default()
    };
    let event = |edge_threshold, cloud_timer| TimelineConfig {
        mode: ExecutionMode::EventDriven,
        latency: LatencyModel::Faults,
        edge_threshold,
        cloud_timer,
        ..lockstep
    };
    ScenarioGrid::new(base_config())
        .with_fault_presets(async_regimes())
        .with_execution_modes([
            lockstep,
            event(None, None),
            event(Some(2), None),
            event(None, Some(10.0)),
            event(Some(2), Some(10.0)),
        ])
}

/// Wall-clock of a run, charging both schedulers symmetrically.
/// Lockstep pays the link model plus, when a straggler model is on, one
/// `deadline_s` barrier wait per active round — synchronous rounds
/// cannot close before the deadline expires on the slowest cohort
/// member. Event-driven pays its own simulated clock (`event_seconds`,
/// which already paces rounds at `step_duration` and lets upload
/// latencies overlap training) plus the identical per-sync charge: two
/// WAN rounds and the cloud→device wireless broadcast.
fn async_wall_s(record: &RunRecord, faults: &FaultConfig) -> f64 {
    match record.event_seconds {
        Some(event_s) => {
            event_s
                + record.syncs as f64 * (2.0 * WAN_SECS_PER_TRANSFER + WIRELESS_SECS_PER_TRANSFER)
        }
        None if faults.straggler_delay != DelayModel::None => {
            comm_wall_s(record) + record.active_steps as f64 * faults.deadline_s
        }
        None => comm_wall_s(record),
    }
}

/// Claim: under hostile stragglers every event-driven point beats the
/// lockstep wall-clock, at no accuracy loss (the best async final
/// accuracy is at least lockstep's).
fn async_check(report: &SweepReport) {
    println!(
        "{:<18} {:<14} {:>9} {:>7} {:>7} {:>6} {:>7} {:>6}",
        "regime", "point", "wall s", "final", "best", "syncs", "active", "stale"
    );
    for regime in async_regimes() {
        let lock = cell(report, &regime.name, "lock");
        let lock_wall = async_wall_s(lock, &regime.faults);
        let mut all_faster = true;
        let mut best_async = f32::MIN;
        for s in report.scenarios.iter().filter(|s| s.preset == regime.name) {
            let wall = async_wall_s(&s.record, &regime.faults);
            if s.record.event_seconds.is_some() {
                all_faster &= wall < lock_wall;
                best_async = best_async.max(s.record.final_accuracy());
            }
            println!(
                "{:<18} {:<14} {:>9.1} {:>7.3} {:>7.3} {:>6} {:>7} {:>6}",
                regime.name,
                s.execution.as_deref().unwrap_or("-"),
                wall,
                s.record.final_accuracy(),
                s.record.best_accuracy(),
                s.record.syncs,
                s.record.active_steps,
                s.record.comm.stale_uploads,
            );
        }
        if regime.name == HOSTILE_STRAGGLERS {
            assert!(
                all_faster && best_async >= lock.final_accuracy(),
                "async failed to dominate the lockstep wall-clock ({lock_wall:.1} s) \
                 under hostile stragglers"
            );
            println!("\nasync dominates lockstep under hostile stragglers");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(preset) = args
        .first()
        .and_then(|name| PRESETS.iter().find(|p| p.name == name))
    else {
        eprintln!("usage: sweeps <faults|algos|compress|async> [out.json]");
        std::process::exit(2);
    };
    let out_path = args.get(1).map_or(preset.artefact, String::as_str);

    let report = run_sweep(&(preset.grid)(), &SweepOptions::default())
        .unwrap_or_else(|e| panic!("sweep {} failed: {e}", preset.name));
    assert!(report.complete, "an unlimited sweep runs every scenario");
    (preset.check)(&report);
    std::fs::write(out_path, report.deterministic_json())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expansion only — no simulation runs, so `cargo test --workspace`
    /// guards every preset grid in milliseconds. `scenarios()` itself
    /// rejects a grid with two equal labels.
    #[test]
    fn preset_grids_expand_to_their_cells() {
        let zoo = Algorithm::zoo().len();
        for (name, cells, sample) in [
            ("faults", 8, "k3-tc5-stragglers_pareto_tail-s2023"),
            ("algos", 2 * zoo, "k3-tc5-hostile-afedfly-s2023"),
            ("compress", 2 * 8, "k3-tc5-hostile-cq4k05-s2023"),
            (
                "async",
                2 * 5,
                "k3-tc5-hostile_stragglers-xevent-k2-t10-s2023",
            ),
        ] {
            let preset = PRESETS.iter().find(|p| p.name == name).expect("preset");
            let scenarios = (preset.grid)()
                .scenarios()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenarios.len(), cells, "{name}");
            assert!(
                scenarios.iter().any(|s| s.label == sample),
                "{name}: no scenario labelled {sample}"
            );
        }
    }
}
