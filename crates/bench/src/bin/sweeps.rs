//! The one driver of every experiment in this repository.
//!
//! ```sh
//! cargo run -p middle-bench --release --bin sweeps -- <preset> [out]
//! ```
//!
//! * `faults`, `algos`, `compress`, `async` — robustness to faults, the
//!   algorithm zoo, uplink compression and async-vs-lockstep execution:
//!   one [`ScenarioGrid`] each through [`run_sweep`], committed as the
//!   [`SweepReport::deterministic_json`] of that run (`out` defaults to
//!   `BENCH_<preset>.json`).
//! * `fig1`, `fig2`, `fig3`, `fig6`, `fig7`, `fig8`, `ablation`,
//!   `theorem1` — the paper's figures at harness scale, three seeds a
//!   cell, committed as CSV tables in the directory `out` (default
//!   `results`).
//!
//! Every scenario result is a pure function of its config, so the
//! artefacts are byte-reproducible on any host and thread count, and
//! `scripts/check.sh --ci` regenerates them and fails on any `git diff`.
//! Host time is not measured here — that is `perf`'s job.
//!
//! Each preset is its grids plus a check over the finished reports,
//! which decides the preset's claims. A scientific check prints its
//! table; derived columns (communication wall-clock under the shared
//! two-tier link model [`WIRELESS_SECS_PER_TRANSFER`] /
//! [`WAN_SECS_PER_TRANSFER`], uplink ratio, async dominance) are
//! functions of the records computed there, not stored. A figure check
//! returns its tables, printed as they are written. A failed claim
//! panics before any artefact is written. A paper claim that HEAD's
//! numbers do not show is not asserted either way: the figure checks
//! record it as `NOT REPRODUCED` with its measured value, in the table
//! the gate byte-compares ([`Verdicts`]).

use middle_core::comm::{WAN_SECS_PER_TRANSFER, WIRELESS_SECS_PER_TRANSFER};
use middle_core::quadratic_sim::{
    mean_ci95, remark1_rows, simulate_quadratic_hfl, theorem1_testbed, Remark1Row,
};
use middle_core::theory::QuadraticProblem;
use middle_core::{
    run_sweep, speedup, AggregatePoint, Algorithm, CompressionConfig, CompressionPreset,
    DelayModel, DropoutModel, EvalPoint, ExecutionMode, FaultConfig, FaultPreset, LatencyModel,
    MobilitySource, OnDevicePolicy, RunRecord, ScenarioGrid, ScenarioRecord, SelectionPolicy,
    SimConfig, SimulationBuilder, SweepOptions, SweepReport, TimelineConfig,
};
use middle_data::{Scheme, Task};
use middle_mobility::Trace;
use std::path::Path;

/// One named experiment: its name, its grids — one [`run_sweep`] report
/// each; none for the presets on scripted traces and closed forms, whose
/// check does the running, a trace not being a grid axis — and its check.
type Preset = (&'static str, fn() -> Vec<ScenarioGrid>, Check);

enum Check {
    /// Prints the table and asserts over the one report, which is the
    /// artefact: `[out]` defaults to `BENCH_<preset>.json`.
    Report(fn(&SweepReport)),
    /// Decides the claims over the reports and returns the CSV tables to
    /// write into the directory `[out]`, `results` by default.
    Tables(fn(&[SweepReport]) -> Vec<Table>),
}

const PRESETS: [Preset; 12] = [
    (
        "faults",
        || vec![faults_grid()],
        Check::Report(faults_check),
    ),
    ("algos", || vec![algos_grid()], Check::Report(algos_check)),
    (
        "compress",
        || vec![compress_grid()],
        Check::Report(compress_check),
    ),
    ("async", || vec![async_grid()], Check::Report(async_check)),
    ("fig1", Vec::new, Check::Tables(fig1_check)),
    ("fig2", Vec::new, Check::Tables(fig2_check)),
    ("fig3", Vec::new, Check::Tables(fig3_check)),
    ("fig6", || per_task(fig6_grid), Check::Tables(fig6_check)),
    ("fig7", || per_task(fig7_grid), Check::Tables(fig7_check)),
    ("fig8", || per_task(fig8_grid), Check::Tables(fig8_check)),
    (
        "ablation",
        || vec![ablation_grid()],
        Check::Tables(ablation_check),
    ),
    ("theorem1", Vec::new, Check::Tables(theorem1_check)),
];

/// The one MIDDLE configuration every scientific preset varies: the
/// paper's MNIST setting cut to 4 edges / 24 devices / K = 3 / 30 steps.
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

// --------------------------------------------------------------------
// The paper's figures: shared harness
// --------------------------------------------------------------------

/// A CSV table a figure preset commits: (file name, content).
type Table = (String, String);

/// Every figure cell runs these master seeds (`2023 + 31·s`). The seed
/// redraws data, models and trace, so algorithms and axis values are
/// compared by their per-seed differences ([`paired`]), not by the
/// overlap of cross-seed intervals.
const SEEDS: [u64; 3] = [2023, 2054, 2085];

/// The Figure 6–8 harness: MIDDLE on §6.1.2's setting cut to 5 edges /
/// 40 devices / K = 3 for 150 or 200 steps. Mobility stays
/// `paper_default`'s home-biased hop at P = 0.5.
fn fig_config(task: Task) -> SimConfig {
    let mut cfg = SimConfig::paper_default(task, Algorithm::middle());
    cfg.num_edges = 5;
    cfg.num_devices = 40;
    cfg.devices_per_edge = 3;
    cfg.samples_per_device = 30;
    cfg.batch_size = 8;
    cfg.test_samples = 300;
    cfg.eval_interval = 5;
    cfg.steps = match task {
        Task::Mnist | Task::Speech => 150,
        Task::Emnist | Task::Cifar10 => 200,
    };
    cfg
}

/// One grid per task: the horizons differ, so the task is not an axis.
fn per_task(grid: fn(Task) -> ScenarioGrid) -> Vec<ScenarioGrid> {
    Task::ALL.into_iter().map(grid).collect()
}

/// What a claim compares, with the mean and CI95 half-width of the
/// per-seed difference (half-width `0`: an exact quantity).
type Diff = (String, (f64, f64));

fn paired(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "paired cells have one value per seed");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
    mean_ci95(&diffs)
}

/// The verdict lines of one figure preset, `# ` comments at the foot of
/// its summary table: a change that moves a measured value or turns a
/// recorded claim green has to touch the committed file. One rule decides
/// every claim: each of its differences is positive beyond its CI95. A
/// right-signed mean whose interval reaches zero is not resolved at
/// three seeds, and not reproduced.
#[derive(Default)]
struct Verdicts(String);

impl Verdicts {
    /// A claim that holds at HEAD: recorded, and asserted.
    fn reproduced(&mut self, claim: &str, what: &str, diffs: &[Diff]) {
        self.record("REPRODUCED", claim, what, diffs);
        let holds = diffs.iter().all(|(_, (mean, ci95))| mean - ci95 > 0.0);
        assert!(holds, "no longer holds:\n{}", self.0);
    }

    /// A claim of the paper that HEAD's numbers do not show.
    fn not_reproduced(&mut self, claim: &str, what: &str, diffs: &[Diff]) {
        self.record("NOT REPRODUCED", claim, what, diffs);
    }

    /// Lists up to four differences; of more, the one that decides the
    /// claim — the lowest CI bound.
    fn record(&mut self, verdict: &str, claim: &str, what: &str, diffs: &[Diff]) {
        let mut shown: Vec<&Diff> = diffs.iter().collect();
        let mut of = String::new();
        if diffs.len() > 4 {
            shown.sort_by(|(_, a), (_, b)| (a.0 - a.1).total_cmp(&(b.0 - b.1)));
            shown.truncate(1);
            of = format!("weakest of {}: ", diffs.len());
        }
        let shown: Vec<String> = shown
            .iter()
            .map(|(label, (mean, ci95))| format!("{label} {mean:+.3} ± {ci95:.3}"))
            .collect();
        let measured = shown.join(", ");
        self.0 += &format!("# {verdict}: {claim} — measured {what}, {of}{measured}\n");
    }
}

/// One difference per task, labelled by the task.
fn by_task(reports: &[SweepReport], diff: impl Fn(&SweepReport) -> (f64, f64)) -> Vec<Diff> {
    let label = |(task, report): (&Task, &SweepReport)| (task.name().to_string(), diff(report));
    Task::ALL.iter().zip(reports).map(label).collect()
}

/// The runs of one cell in seed order: the scenarios of `algorithm`
/// that `axis` selects.
fn cell_seeds<'a>(
    report: &'a SweepReport,
    algorithm: &str,
    axis: impl Fn(&ScenarioRecord) -> bool,
) -> Vec<&'a RunRecord> {
    let picked = |s: &&ScenarioRecord| s.algorithm.as_deref() == Some(algorithm) && axis(s);
    let scenarios = report.scenarios.iter().filter(picked);
    let runs: Vec<&RunRecord> = scenarios.map(|s| &s.record).collect();
    assert_eq!(runs.len(), SEEDS.len(), "cell of {algorithm}");
    runs
}

/// Per-seed tail accuracies of a cell over the engine's window
/// (`AggregatePoint::tail_mean` is their mean).
fn tails(cell: &[&RunRecord]) -> Vec<f64> {
    let tail = |r: &&RunRecord| f64::from(r.tail_accuracy(3));
    cell.iter().map(tail).collect()
}

/// Per-step mean over the seeds of `value`, one CSV column.
fn mean_curve(cell: &[&RunRecord], value: impl Fn(&EvalPoint) -> f32) -> Vec<(usize, f32)> {
    let mean = |i| cell.iter().map(|r| value(&r.points[i])).sum::<f32>() / cell.len() as f32;
    let points = cell[0].points.iter().enumerate();
    points.map(|(i, p)| (p.step, mean(i))).collect()
}

/// Named curves over one evaluation grid as a CSV matrix keyed by step.
fn curves_to_csv(curves: &[(String, Vec<(usize, f32)>)]) -> String {
    let names: Vec<&str> = curves.iter().map(|(name, _)| name.as_str()).collect();
    let mut csv = format!("step,{}\n", names.join(","));
    for (i, (step, _)) in curves[0].1.iter().enumerate() {
        let row = curves.iter().map(|(_, curve)| format!("{:.4}", curve[i].1));
        csv += &format!("{step},{}\n", row.collect::<Vec<_>>().join(","));
    }
    csv
}

const AGGREGATE_COLUMNS: &str = "seeds,final_mean,final_ci95,tail_mean,tail_ci95";

fn aggregate_columns(a: &AggregatePoint) -> String {
    let stats = [a.final_mean, a.final_ci95, a.tail_mean, a.tail_ci95];
    format!("{},{}", a.seeds, stats.map(|v| format!("{v:.4}")).join(","))
}

/// One row per cell of every task's report; `axis` names the swept value.
fn aggregate_table(
    reports: &[SweepReport],
    axis: &str,
    value: fn(&AggregatePoint) -> String,
) -> String {
    let mut csv = format!("task,algorithm,{axis},{AGGREGATE_COLUMNS}\n");
    for (task, report) in Task::ALL.iter().zip(reports) {
        for a in &report.aggregates {
            let (algorithm, stats) = (a.algorithm.as_deref().expect("swept"), aggregate_columns(a));
            csv += &format!("{},{algorithm},{},{stats}\n", task.name(), value(a));
        }
    }
    csv
}

/// §2's case studies, once per seed: `algorithm` on mnist over two edges
/// (K = 5, T_c = 10, per-edge and per-class evaluation on 300 test
/// samples) along the scripted `trace`.
fn case_study(algorithm: Algorithm, trace: &Trace, shape: fn(&mut SimConfig)) -> Vec<RunRecord> {
    let mut cfg = SimConfig::paper_default(Task::Mnist, algorithm);
    cfg.num_edges = 2;
    cfg.num_devices = trace.devices();
    cfg.devices_per_edge = 5;
    cfg.steps = trace.steps();
    cfg.cloud_interval = 10;
    cfg.eval_edges = true;
    cfg.eval_per_class = true;
    cfg.test_samples = 300;
    shape(&mut cfg);
    let run = |seed| {
        let cfg = SimConfig {
            seed,
            ..cfg.clone()
        };
        let sim = SimulationBuilder::new(cfg)
            .with_trace(trace.clone())
            .build();
        sim.expect("the scripted trace fits the config").run()
    };
    SEEDS.map(run).to_vec()
}

/// Mean of one evaluation's per-class accuracies over `classes`.
fn class_mean(per_class: &[Option<f32>], classes: std::ops::Range<usize>) -> f32 {
    let n = classes.len() as f32;
    let accuracy = |c: usize| per_class[c].expect("every class is in the test set");
    classes.map(accuracy).sum::<f32>() / n
}

// --------------------------------------------------------------------
// fig1: Non-IID across edges starves an edge's minor classes
// --------------------------------------------------------------------

/// §2 Question 1: HierFAVG for 80 steps over 50 stationary devices,
/// placed so that edge 1 holds ~70 % of its data in classes 0–4 (its
/// major classes) and ~30 % in 5–9, and vice versa for edge 2. The
/// major-class scheme deals majors round-robin, 5 devices a class:
/// classes 0–4 put 4 of theirs on edge 1, classes 5–9 put 1 there.
fn fig1_check(_: &[SweepReport]) -> Vec<Table> {
    let on_edge2 = |m: usize| if m % 10 < 5 { m >= 40 } else { m >= 10 };
    let placement: Vec<usize> = (0..50).map(|m| usize::from(on_edge2(m))).collect();
    let runs = case_study(
        Algorithm::hierfavg(),
        &Trace::new(2, vec![placement; 80]),
        |cfg| {
            cfg.samples_per_device = 24;
            cfg.scheme = Scheme::MajorClass { major_frac: 0.8 };
            cfg.eval_interval = 4;
        },
    );
    let runs: Vec<&RunRecord> = runs.iter().collect();

    type Series = fn(&EvalPoint) -> f32;
    let series: [(&str, Series); 4] = [
        ("global", |p| p.global_accuracy),
        ("edge1", |p| p.edge_accuracy[0]),
        ("edge1_major", |p| class_mean(&p.edge0_per_class, 0..5)),
        ("edge1_minor", |p| class_mean(&p.edge0_per_class, 5..10)),
    ];
    let curve = |(name, value): &(&str, Series)| (name.to_string(), mean_curve(&runs, value));
    let curves: Vec<_> = series.iter().map(curve).collect();
    // Per-seed tail of a series, over the engine's three-evaluation window.
    let tail = |value: Series| -> Vec<f64> {
        let last3 = |r: &&RunRecord| {
            r.points[r.points.len() - 3..]
                .iter()
                .map(value)
                .sum::<f32>()
        };
        runs.iter().map(|r| f64::from(last3(r) / 3.0)).collect()
    };
    let (major, minor) = (tail(series[2].1), tail(series[3].1));
    let label = format!("{:.3} − {:.3}", mean_ci95(&major).0, mean_ci95(&minor).0);
    let mut verdicts = Verdicts::default();
    verdicts.not_reproduced(
        "edge 1 ends more accurate on its major classes than on its minor classes",
        "tail accuracy major − minor",
        &[(label, paired(&major, &minor))],
    );
    vec![(
        "fig1_motivation.csv".to_string(),
        curves_to_csv(&curves) + &verdicts.0,
    )]
}

// --------------------------------------------------------------------
// fig2: the on-device aggregation case study
// --------------------------------------------------------------------

/// §2 Question 2: ten one-class devices, classes 0–4 on edge 1 and 5–9 on
/// edge 2, full participation. After 44 steps devices {3, 4} swap edges
/// with {8, 9} and training runs 14 more, under "General" (download the
/// edge model) and under the plain-average on-device aggregation. The
/// swap lands mid-sync-window and the one evaluation 8 steps after the
/// last sync, where edge and cloud models differ.
fn fig2_check(_: &[SweepReport]) -> Vec<Table> {
    let before: Vec<usize> = (0..10).map(|m| usize::from(m >= 5)).collect();
    let after: Vec<usize> = (0..10).map(|m| usize::from((3..8).contains(&m))).collect();
    let trace = Trace::new(2, [vec![before; 44], vec![after; 14]].concat());
    let runs = |name: &str, on_device| {
        let algorithm = Algorithm::custom(name, SelectionPolicy::Random, on_device);
        case_study(algorithm, &trace, |cfg| {
            cfg.samples_per_device = 30;
            cfg.scheme = Scheme::SingleClass;
            cfg.eval_interval = cfg.steps;
        })
    };
    let arms = [
        runs("General", OnDevicePolicy::EdgeModel),
        runs("OnDeviceAvg", OnDevicePolicy::Average),
    ];

    // Per-seed values of `value` at the evaluation: [general, on-device].
    let at_end = |value: &dyn Fn(&EvalPoint) -> f32| {
        let last = |r: &RunRecord| f64::from(value(r.points.last().expect("one evaluation")));
        [&arms[0], &arms[1]].map(|runs| runs.iter().map(last).collect::<Vec<f64>>())
    };
    let lift = |value: &dyn Fn(&EvalPoint) -> f32| {
        let [general, on_device] = at_end(value);
        paired(&on_device, &general)
    };
    let edge1 = |classes: std::ops::Range<usize>| {
        lift(&|p| class_mean(&p.edge0_per_class, classes.clone()))
    };
    let mut csv = String::from(
        "class,seeds,global_general,global_ondevice,edge1_general,edge1_ondevice,\
         edge1_lift_mean,edge1_lift_ci95\n",
    );
    for c in 0..10 {
        let [gg, go] =
            at_end(&|p| class_mean(&p.global_per_class, c..c + 1)).map(|v| mean_ci95(&v).0);
        let [eg, eo] =
            at_end(&|p| class_mean(&p.edge0_per_class, c..c + 1)).map(|v| mean_ci95(&v).0);
        let ((lift, ci95), seeds) = (edge1(c..c + 1), SEEDS.len());
        csv += &format!("{c},{seeds},{gg:.4},{go:.4},{eg:.4},{eo:.4},{lift:.4},{ci95:.4}\n");
    }

    let mut verdicts = Verdicts::default();
    let mut record = |claim: &str, what: &str, diff: (f64, f64)| {
        let claim = format!("on-device aggregation after the swap {claim}");
        verdicts.not_reproduced(&claim, what, &[("accuracy".to_string(), diff)]);
    };
    const LIFT: &str = "on-device − general";
    let (dip, ci95) = edge1(3..5);
    record(
        "lifts edge 1 on the arriving classes 8-9",
        LIFT,
        edge1(8..10),
    );
    record(
        "lifts edge 1 on classes 5-7, inherited from edge 2",
        LIFT,
        edge1(5..8),
    );
    record(
        "dips edge 1 on the departed classes 3-4",
        "general − on-device",
        (-dip, ci95),
    );
    record(
        "improves the global model",
        LIFT,
        lift(&|p| p.global_accuracy),
    );
    vec![("fig2_ondevice_case.csv".to_string(), csv + &verdicts.0)]
}

// --------------------------------------------------------------------
// fig3: the parameter-space illustration
// --------------------------------------------------------------------

/// Two devices of one edge descend their 2-D quadratics (optima (2, 0)
/// and (2, 1)) for 12 steps from the edge model at the origin. Device 1
/// has just arrived with a model trained at the other edge, whose data
/// (device 2 of the problem, optimum (−2, 2)) pulled it to (−1.5, 1.5):
/// "General" discards it, on-device aggregation starts from the α = ½
/// blend. Closed form — no seed, no noise.
fn fig3_check(_: &[SweepReport]) -> Vec<Table> {
    let q = QuadraticProblem::new(
        vec![1.0, 1.0, 1.0],
        vec![vec![2.0, 0.0], vec![2.0, 1.0], vec![-2.0, 2.0]],
        vec![1.0, 1.0, 1.0],
    );
    let descend = |m: usize, start: [f32; 2]| -> Vec<[f32; 2]> {
        let (mut w, mut grad) = (start.to_vec(), vec![0.0f32; 2]);
        let mut path = vec![start];
        for _ in 0..12 {
            q.device_grad(m, &w, &mut grad);
            for (x, g) in w.iter_mut().zip(&grad) {
                *x -= 0.15 * g;
            }
            path.push([w[0], w[1]]);
        }
        path
    };
    let (edge_model, carried) = ([0.0f32, 0.0], [-1.5f32, 1.5]);
    let blended = [0, 1].map(|i| 0.5 * edge_model[i] + 0.5 * carried[i]);
    let paths = [
        descend(0, edge_model),
        descend(1, edge_model),
        descend(1, blended),
    ];
    let mut csv = String::from(
        "step,dev0_x,dev0_y,dev1_general_x,dev1_general_y,dev1_ondevice_x,dev1_ondevice_y\n",
    );
    for t in 0..=12 {
        let row = paths
            .iter()
            .map(|path| format!("{:.4},{:.4}", path[t][0], path[t][1]));
        csv += &format!("{t},{}\n", row.collect::<Vec<_>>().join(","));
    }

    // The edge's optimum ignores the other edge's data; the global one
    // does not. Distances to both of the aggregated edge model: device 0
    // averaged with `dev1`'s end point.
    let edge_opt = QuadraticProblem::new(
        q.curvatures[..2].to_vec(),
        q.centers[..2].to_vec(),
        vec![1.0; 2],
    );
    let optima = [edge_opt.optimum(), q.optimum()];
    let distances = |dev1: &[[f32; 2]]| {
        let edge = [0, 1].map(|i| (paths[0][12][i] + dev1[12][i]) / 2.0);
        [0, 1].map(|o| f64::from((edge[0] - optima[o][0]).hypot(edge[1] - optima[o][1])))
    };
    let (general, on_device) = (distances(&paths[1]), distances(&paths[2]));
    let mut verdicts = Verdicts::default();
    let label = format!(
        "General's {:.2} − on-device's {:.2} (to the edge optimum: {:.2}, {:.2})",
        general[1], on_device[1], general[0], on_device[0]
    );
    verdicts.reproduced(
        "the on-device-aggregated edge model lands closer to the global optimum",
        "distance to the global optimum",
        &[(label, (general[1] - on_device[1], 0.0))],
    );
    vec![("fig3_param_space.csv".to_string(), csv + &verdicts.0)]
}

// --------------------------------------------------------------------
// fig6: time-to-accuracy and the §6.2.1 speedup table
// --------------------------------------------------------------------

fn fig6_grid(task: Task) -> ScenarioGrid {
    ScenarioGrid::new(fig_config(task))
        .with_algorithms(Algorithm::figure6())
        .with_seeds(SEEDS)
}

/// The paper's time-to-accuracy targets (0.95 / 0.80 / 0.55 / 0.85,
/// §6.1.2) assume the full datasets and 1.5k–20k steps; at the harness's
/// horizon the same ordering experiment uses these.
fn scaled_target(task: Task) -> f32 {
    match task {
        Task::Mnist => 0.75,
        Task::Emnist => 0.45,
        Task::Cifar10 => 0.22,
        Task::Speech => 0.70,
    }
}

fn fig6_check(reports: &[SweepReport]) -> Vec<Table> {
    let names = Algorithm::figure6().map(|a| a.name);
    let mut tables = Vec::new();
    let mut summary = String::from(
        "task,baseline,target,seeds,speedup_mean,speedup_ci95,tail_gain_mean,tail_gain_ci95\n",
    );
    // MIDDLE against every baseline on every task: speedup to the target
    // minus one, and tail accuracy gained.
    let (mut faster, mut gains) = (Vec::new(), Vec::new());
    for (task, report) in Task::ALL.iter().zip(reports) {
        let cells: Vec<_> = names
            .iter()
            .map(|name| cell_seeds(report, name, |_| true))
            .collect();
        let curve = |(name, cell): (&String, &Vec<&RunRecord>)| {
            (name.clone(), mean_curve(cell, |p| p.global_accuracy))
        };
        let curves: Vec<_> = names.iter().zip(&cells).map(curve).collect();
        tables.push((format!("fig6_{}.csv", task.name()), curves_to_csv(&curves)));

        let (task, target) = (task.name(), scaled_target(*task));
        for (baseline, cell) in names.iter().zip(&cells).skip(1) {
            // Per seed; a baseline that never reaches the target counts
            // at its horizon (a lower bound).
            let per_seed = |(middle, baseline): (&&RunRecord, &&RunRecord)| {
                let speedup = speedup(middle, baseline, target);
                speedup.expect("MIDDLE reaches the scaled target in every seed")
            };
            let per_seed: Vec<f64> = cells[0].iter().zip(cell).map(per_seed).collect();
            let ((speedup, ci95), seeds) = (mean_ci95(&per_seed), SEEDS.len());
            let gain = paired(&tails(&cells[0]), &tails(cell));
            let (g, g95) = gain;
            summary += &format!(
                "{task},{baseline},{target},{seeds},{speedup:.3},{ci95:.3},{g:.4},{g95:.4}\n"
            );
            faster.push((format!("{task} vs {baseline}"), (speedup - 1.0, ci95)));
            gains.push((format!("{task} vs {baseline}"), gain));
        }
    }

    let mut verdicts = Verdicts::default();
    let greedy: Vec<Diff> = faster
        .iter()
        .filter(|(label, _)| label.ends_with("Greedy"))
        .cloned()
        .collect();
    verdicts.reproduced(
        "MIDDLE reaches the scaled target before Greedy on every task",
        "speedup − 1",
        &greedy,
    );
    verdicts.not_reproduced(
        "MIDDLE reaches the scaled target before every baseline on every task (paper: 1.51x-6.85x)",
        "speedup − 1",
        &faster,
    );
    verdicts.not_reproduced(
        "MIDDLE ends more accurate than every baseline on every task",
        "tail accuracy MIDDLE − baseline",
        &gains,
    );
    tables.push(("fig6_speedups.csv".to_string(), summary + &verdicts.0));
    tables
}

// --------------------------------------------------------------------
// fig7: accuracy against the global mobility P
// --------------------------------------------------------------------

const FIG7_PS: [f64; 3] = [0.1, 0.3, 0.5];

/// Two thirds of the harness horizon (100 / 133 steps) and the
/// *unbiased* Markov hop — every relocation picks an edge uniformly —
/// where Figures 6 and 8 keep the home-biased default.
fn fig7_grid(task: Task) -> ScenarioGrid {
    let mut cfg = fig_config(task);
    cfg.steps = cfg.steps * 2 / 3;
    cfg.mobility = MobilitySource::MarkovHop { p: 0.5 };
    ScenarioGrid::new(cfg)
        .with_mobility_ps(FIG7_PS)
        .with_algorithms(Algorithm::figure6())
        .with_seeds(SEEDS)
}

fn fig7_check(reports: &[SweepReport]) -> Vec<Table> {
    let names = Algorithm::figure6().map(|a| a.name);
    let at = |report: &SweepReport, algorithm: &str, p: f64| {
        tails(&cell_seeds(report, algorithm, |s| s.p == Some(p)))
    };
    // `sign`·(`algorithm` − other) for every other algorithm in every cell.
    let versus_all = |algorithm: &str, sign: f64| {
        let mut diffs = Vec::new();
        for (task, report) in Task::ALL.iter().zip(reports) {
            for p in FIG7_PS {
                for other in names.iter().filter(|other| *other != algorithm) {
                    let (mean, ci95) = paired(&at(report, algorithm, p), &at(report, other, p));
                    diffs.push((
                        format!("{} P = {p} vs {other}", task.name()),
                        (sign * mean, ci95),
                    ));
                }
            }
        }
        diffs
    };
    // Per task, `a` at P = `p` minus `b` at P = `q`.
    let between =
        |a: &str, p: f64, b: &str, q: f64| by_task(reports, |r| paired(&at(r, a, p), &at(r, b, q)));

    let mut verdicts = Verdicts::default();
    verdicts.reproduced(
        "MIDDLE is more accurate than Greedy at P = 0.5 on the three image tasks",
        "MIDDLE − Greedy",
        &between("MIDDLE", 0.5, "Greedy", 0.5)[..3],
    );
    verdicts.not_reproduced(
        "Greedy is the least accurate algorithm at every P on every task",
        "other − Greedy",
        &versus_all("Greedy", -1.0),
    );
    verdicts.not_reproduced(
        "Greedy's accuracy falls from P = 0.1 to P = 0.5 on every task",
        "P = 0.1 − P = 0.5",
        &between("Greedy", 0.1, "Greedy", 0.5),
    );
    verdicts.not_reproduced(
        "MIDDLE's accuracy rises from P = 0.1 to P = 0.5",
        "P = 0.5 − P = 0.1",
        &between("MIDDLE", 0.5, "MIDDLE", 0.1),
    );
    verdicts.not_reproduced(
        "MIDDLE is the most accurate algorithm at every P on every task",
        "MIDDLE − other",
        &versus_all("MIDDLE", 1.0),
    );
    let csv = aggregate_table(reports, "p", |a| a.p.expect("P is swept").to_string());
    vec![("fig7_mobility_sweep.csv".to_string(), csv + &verdicts.0)]
}

// --------------------------------------------------------------------
// fig8: the edge-cloud interval T_c
// --------------------------------------------------------------------

const FIG8_TCS: [usize; 3] = [5, 10, 20];

fn fig8_grid(task: Task) -> ScenarioGrid {
    ScenarioGrid::new(fig_config(task))
        .with_sync_periods(FIG8_TCS)
        .with_algorithms([Algorithm::middle(), Algorithm::oort()])
        .with_seeds(SEEDS)
}

fn fig8_check(reports: &[SweepReport]) -> Vec<Table> {
    let mut tables = Vec::new();
    for (task, report) in Task::ALL.iter().zip(reports) {
        let mut curves = Vec::new();
        for algorithm in ["MIDDLE", "OORT"] {
            for tc in FIG8_TCS {
                let cell = cell_seeds(report, algorithm, |s| s.sync_period == tc);
                curves.push((
                    format!("{algorithm}_Tc{tc}"),
                    mean_curve(&cell, |p| p.global_accuracy),
                ));
            }
        }
        tables.push((format!("fig8_{}.csv", task.name()), curves_to_csv(&curves)));
    }

    // Per-seed loss of tail accuracy as T_c grows 5 → 20.
    let loss = |report: &SweepReport, algorithm: &str| -> Vec<f64> {
        let at = |tc| tails(&cell_seeds(report, algorithm, |s| s.sync_period == tc));
        at(5).iter().zip(at(20)).map(|(t5, t20)| t5 - t20).collect()
    };
    let mut emnist_over = Vec::new();
    for algorithm in ["MIDDLE", "OORT"] {
        for (task, report) in Task::ALL.iter().zip(reports) {
            if *task != Task::Emnist {
                let diff = paired(&loss(&reports[1], algorithm), &loss(report, algorithm));
                emnist_over.push((format!("{algorithm} vs {}", task.name()), diff));
            }
        }
    }
    let mut verdicts = Verdicts::default();
    verdicts.not_reproduced(
        "OORT loses accuracy as T_c grows from 5 to 20 on every task",
        "T_c = 5 − T_c = 20",
        &by_task(reports, |r| mean_ci95(&loss(r, "OORT"))),
    );
    verdicts.not_reproduced(
        "MIDDLE loses less than OORT as T_c grows from 5 to 20",
        "OORT's loss − MIDDLE's",
        &by_task(reports, |r| paired(&loss(r, "OORT"), &loss(r, "MIDDLE"))),
    );
    verdicts.not_reproduced(
        "emnist is the task most sensitive to T_c under both algorithms",
        "emnist's loss − the other task's",
        &emnist_over,
    );
    let summary = aggregate_table(reports, "tc", |a| a.sync_period.to_string());
    tables.push(("fig8_summary.csv".to_string(), summary + &verdicts.0));
    tables
}

// --------------------------------------------------------------------
// ablation: the design choices of DESIGN.md §5
// --------------------------------------------------------------------

/// (ablation, variant): the on-device blend under MIDDLE's selection,
/// then the selection rule under Eq. 9's blend. The first variant of
/// each ablation is MIDDLE.
fn ablation_variants() -> Vec<(&'static str, Algorithm)> {
    use OnDevicePolicy::*;
    use SelectionPolicy::*;
    let fixed = |alpha| FixedAlpha { alpha };
    let blend = |name, policy| {
        (
            "on_device",
            Algorithm::custom(name, LeastSimilarUpdate, policy),
        )
    };
    let select = |name, policy| {
        (
            "selection",
            Algorithm::custom(name, policy, SimilarityWeighted),
        )
    };
    vec![
        blend("similarity (Eq.9)", SimilarityWeighted),
        blend("fixed a=0.25", fixed(0.25)),
        blend("fixed a=0.50", fixed(0.5)),
        blend("fixed a=0.75", fixed(0.75)),
        blend("unclipped cos", UnclippedSimilarity),
        blend("plain average", Average),
        blend("none (edge model)", EdgeModel),
        blend("keep local", KeepLocal),
        select("-U (MIDDLE)", LeastSimilarUpdate),
        select("+U (mirror)", MostSimilarUpdate),
        select("random", Random),
        select("oort utility", OortUtility),
    ]
}

/// mnist at fig7's horizon (100 steps), home-biased hop at P = 0.5.
fn ablation_grid() -> ScenarioGrid {
    let mut cfg = fig_config(Task::Mnist);
    cfg.steps = cfg.steps * 2 / 3;
    let variants: Vec<Algorithm> = ablation_variants()
        .into_iter()
        .map(|(_, variant)| variant)
        .collect();
    ScenarioGrid::new(cfg)
        .with_algorithms(variants)
        .with_seeds(SEEDS)
}

fn ablation_check(reports: &[SweepReport]) -> Vec<Table> {
    let report = &reports[0];
    let middle = tails(&cell_seeds(report, "similarity (Eq.9)", |_| true));
    let eq9_minus = |variant: &str| -> Diff {
        let tails = tails(&cell_seeds(report, variant, |_| true));
        (variant.to_string(), paired(&middle, &tails))
    };
    let mut csv =
        format!("ablation,variant,{AGGREGATE_COLUMNS},middle_gain_mean,middle_gain_ci95\n");
    for ((ablation, variant), a) in ablation_variants().iter().zip(&report.aggregates) {
        assert_eq!(
            a.algorithm.as_ref(),
            Some(&variant.name),
            "cells in grid order"
        );
        let (name, (gain, ci95)) = eq9_minus(&variant.name);
        csv += &format!(
            "{ablation},{name},{},{gain:.4},{ci95:.4}\n",
            aggregate_columns(a)
        );
    }

    let mut verdicts = Verdicts::default();
    verdicts.not_reproduced(
        "Eq. 9's similarity-weighted blend is more accurate than every fixed α",
        "Eq. 9 −",
        &["fixed a=0.25", "fixed a=0.50", "fixed a=0.75"].map(eq9_minus),
    );
    verdicts.not_reproduced(
        "clipping the cosine at zero is more accurate than the raw cosine",
        "Eq. 9 −",
        &[eq9_minus("unclipped cos")],
    );
    verdicts.reproduced(
        "Eq. 9's blend is more accurate than keeping the local model (Greedy's rule)",
        "Eq. 9 −",
        &[eq9_minus("keep local")],
    );
    verdicts.not_reproduced(
        "Eq. 9's blend is more accurate than no on-device aggregation",
        "Eq. 9 −",
        &[eq9_minus("none (edge model)")],
    );
    verdicts.not_reproduced(
        "selecting by −U is more accurate than selecting by +U",
        "−U −",
        &[eq9_minus("+U (mirror)")],
    );
    vec![("ablation_report.csv".to_string(), csv + &verdicts.0)]
}

// --------------------------------------------------------------------
// theorem1: the bound, and Remark 1 measured
// --------------------------------------------------------------------

fn theorem1_check(_: &[SweepReport]) -> Vec<Table> {
    let (problem, base, bound) = theorem1_testbed();
    bound.validate().expect("valid Theorem 1 parameters");
    let run = simulate_quadratic_hfl(&problem, &base);
    let mut trajectory = String::from("step,measured_gap,bound\n");
    let mut slack = f32::INFINITY;
    for (t, &gap) in run.gap_trajectory.iter().enumerate() {
        trajectory += &format!("{t},{gap:.6},{:.6}\n", bound.bound(t));
        slack = slack.min(bound.bound(t) - gap);
    }
    let mut bounded = Verdicts::default();
    bounded.reproduced(
        "the analytic bound dominates the measured gap at every step (P = 0.5)",
        "bound − gap",
        &[("smallest".to_string(), (f64::from(slack), 0.0))],
    );

    let rows = remark1_rows();
    let mut mobility = String::from(
        "p,seeds,start_divergence,start_divergence_ci95,measured_gap,measured_gap_ci95,\
         mobility_term,derivative\n",
    );
    for r in &rows {
        let measured =
            [r.divergence.0, r.divergence.1, r.gap.0, r.gap.1].map(|v| format!("{v:.6}"));
        let analytic = [r.mobility_term, r.mobility_derivative].map(|v| format!("{v:.6}"));
        mobility += &format!(
            "{},{},{},{}\n",
            r.p,
            r.seeds,
            measured.join(","),
            analytic.join(",")
        );
    }
    // The fall of `value` from each P to the next.
    let falls = |value: fn(&Remark1Row) -> f64| -> Vec<Diff> {
        let step = |w: &[Remark1Row]| {
            (
                format!("P = {} → {}", w[0].p, w[1].p),
                (value(&w[0]) - value(&w[1]), 0.0),
            )
        };
        rows.windows(2).map(step).collect()
    };
    let mut verdicts = Verdicts::default();
    verdicts.reproduced(
        "Remark 1: the bound's mobility term falls strictly in P",
        "fall",
        &falls(|r| f64::from(r.mobility_term)),
    );
    verdicts.reproduced(
        "the start-point divergence the proof bounds (Eq. 19) falls strictly in P",
        "fall of the 8-seed mean",
        &falls(|r| r.divergence.0),
    );
    vec![
        (
            "theorem1_trajectory.csv".to_string(),
            trajectory + &bounded.0,
        ),
        ("theorem1_mobility.csv".to_string(), mobility + &verdicts.0),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = args
        .first()
        .and_then(|name| PRESETS.iter().find(|p| p.0 == name));
    let Some((name, grids, check)) = preset else {
        let names: Vec<&str> = PRESETS.iter().map(|p| p.0).collect();
        eprintln!("usage: sweeps <{}> [out]", names.join("|"));
        std::process::exit(2);
    };
    let run = |grid: &ScenarioGrid| {
        let report = run_sweep(grid, &SweepOptions::default());
        let report = report.unwrap_or_else(|e| panic!("sweep {name} failed: {e}"));
        assert!(report.complete, "an unlimited sweep runs every scenario");
        report
    };
    let reports: Vec<SweepReport> = grids().iter().map(run).collect();
    let out = |default: &str| Path::new(args.get(1).map_or(default, String::as_str)).to_path_buf();
    let artefacts = match check {
        Check::Report(check) => {
            check(&reports[0]);
            let json = reports[0].deterministic_json();
            vec![(out(&format!("BENCH_{name}.json")), json)]
        }
        Check::Tables(check) => {
            let tables = check(&reports);
            for (file, csv) in &tables {
                println!("== {file}\n{csv}");
            }
            let dir = out("results");
            tables
                .into_iter()
                .map(|(file, csv)| (dir.join(file), csv))
                .collect()
        }
    };
    // A stale artefact would pass the byte-compare gate: every write is fatal.
    for (path, content) in artefacts {
        let dir = path.parent().map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = dir.and_then(|()| std::fs::write(&path, content)) {
            panic!("cannot write {}: {e}", path.display());
        }
        println!("wrote {}", path.display());
    }
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
        let seeds = SEEDS.len();
        for (name, cells, sample) in [
            ("faults", 8, "k3-tc5-stragglers_pareto_tail-s2023"),
            ("algos", 2 * zoo, "k3-tc5-hostile-afedfly-s2023"),
            ("compress", 2 * 8, "k3-tc5-hostile-cq4k05-s2023"),
            (
                "async",
                2 * 5,
                "k3-tc5-hostile_stragglers-xevent-k2-t10-s2023",
            ),
            ("fig1", 0, ""),
            ("fig2", 0, ""),
            ("fig3", 0, ""),
            ("fig6", 4 * 5 * seeds, "k3-tc10-base-aensemble-s2054"),
            ("fig7", 4 * 3 * 5 * seeds, "p0.3-k3-tc10-base-agreedy-s2085"),
            ("fig8", 4 * 3 * 2 * seeds, "k3-tc20-base-aoort-s2023"),
            (
                "ablation",
                (8 + 4) * seeds,
                "k3-tc10-base-afixed a=0.25-s2023",
            ),
            ("theorem1", 0, ""),
        ] {
            let preset = PRESETS.iter().find(|p| p.0 == name).expect("preset");
            let preset_grids = (preset.1)();
            let scenarios: Vec<_> = preset_grids
                .iter()
                .flat_map(|grid| grid.scenarios().unwrap_or_else(|e| panic!("{name}: {e}")))
                .collect();
            assert_eq!(scenarios.len(), cells, "{name}");
            assert!(
                cells == 0 || scenarios.iter().any(|s| s.label == sample),
                "{name}: no scenario labelled {sample}"
            );
            // Figure 7 hops unbiased; Figures 6 and 8 keep the home bias.
            for grid in &preset_grids {
                let homed = matches!(grid.base().mobility, MobilitySource::HomedMarkovHop { .. });
                let unbiased = matches!(grid.base().mobility, MobilitySource::MarkovHop { .. });
                assert!(if name == "fig7" { unbiased } else { homed }, "{name}");
            }
        }
        assert_eq!(PRESETS.len(), 12, "every preset has a row above");
    }
}
