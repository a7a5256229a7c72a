//! The scenario sweep engine: sharded multi-scenario orchestration with
//! shared-input caching and checkpoint/resume.
//!
//! The paper's headline results (Figures 5–8, Remark 1) are *sweeps* —
//! accuracy versus mobility probability `P`, selection size `K`, sync
//! period `T_c` — and every point used to require a hand-rolled binary
//! and a full cold construction of datasets and traces. This module
//! turns the repo into a batch experiment service:
//!
//! * [`ScenarioGrid`] describes a cartesian product over `P`, `K`,
//!   `T_c`, seeds, named [`FaultPreset`]s, named
//!   [`CompressionPreset`]s and named [`AlgorithmConfig`]s (the
//!   algorithm zoo) on top of a base [`SimConfig`];
//!   [`ScenarioGrid::scenarios`] expands and validates it up front, so
//!   a bad axis fails before any work starts.
//! * [`run_sweep`] shards the scenarios across a deterministic
//!   work-stealing pool: workers claim scenarios from a shared atomic
//!   cursor, and every scenario's result is a pure function of its
//!   config — *independent of shard assignment and thread count* —
//!   because each run owns its models and RNG streams and immutable
//!   inputs are shared read-only through an [`InputCache`].
//! * With [`SweepOptions::checkpoint_dir`] set, workers periodically
//!   serialise full simulation state ([`crate::SimCheckpoint`]) and the
//!   sweep's completion ledger (`sweep_state.json`), so a killed sweep
//!   resumes from where it stopped and reproduces the uninterrupted
//!   sweep's [`SweepReport`] bitwise (excluding wall-clock fields;
//!   [`SweepReport::deterministic_json`] is the comparison form).
//!
//! Results aggregate into a versioned, serde-serialisable
//! [`SweepReport`]: one [`ScenarioRecord`] per scenario plus cross-seed
//! mean/std/95%-CI [`AggregatePoint`]s per grid cell. The committed
//! `BENCH_{faults,algos,compress,async}.json` are the
//! [`SweepReport::deterministic_json`] of `middle-bench`'s
//! `sweeps <preset>` grids; what caching and sharding cost and save is
//! `perf`'s `sweep_grid` workload.
//!
//! # Multi-process fleets (`middle-sweepd`)
//!
//! The same ledger scales past one process: [`run_fleet_worker`] and
//! [`run_fleet_coordinator`] turn `sweep_state.json` into a shared
//! lease board. Workers claim scenario *shards* by writing a
//! [`ShardLease`] (worker id, grant time, heartbeat) under a sidecar
//! lockfile mutex, renew the heartbeat while they run, stream each
//! completed [`ScenarioRecord`] as one JSONL line to a per-worker
//! file, and mark it done in the ledger. Leases whose heartbeat goes
//! stale ([`FleetOptions::lease_ms`]) are reclaimed — a SIGKILL'd
//! worker's scenarios re-run from their last checkpoint on whichever
//! worker claims them next. The coordinator tails the worker streams,
//! merges them with the ledger both ways, and returns a final
//! [`SweepReport`] whose [`SweepReport::deterministic_json`] is
//! byte-identical to a single-process [`run_sweep`] of the same grid,
//! kills or no kills — every scenario result is a pure function of its
//! config, so *who* computed it can never show in the report. The
//! `middle-sweepd` binary wraps these entry points as `worker` /
//! `coordinator` subcommands; DESIGN.md §14 specifies the protocol.

use crate::algorithms::AlgorithmConfig;
use crate::builder::{InputCache, SimError, SimulationBuilder};
use crate::checkpoint::{fnv1a, seal_json, unseal_json, SimCheckpoint};
use crate::compress::CompressionConfig;
use crate::config::{MobilitySource, SimConfig};
use crate::faults::FaultConfig;
use crate::metrics::RunRecord;
use crate::sim::StepMode;
use crate::timeline::{ExecutionMode, TimelineConfig};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use std::{fs, thread};

/// Version of the [`SweepReport`] / sweep-state JSON schema.
pub const SWEEP_REPORT_SCHEMA_VERSION: u32 = 1;

/// A named fault configuration for one grid axis entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPreset {
    /// Label used in scenario names and aggregates (e.g. `"clean"`,
    /// `"dropout30"`).
    pub name: String,
    /// The failure models the preset enables.
    pub faults: FaultConfig,
}

impl FaultPreset {
    /// The all-off preset every grid falls back to.
    pub fn clean() -> Self {
        FaultPreset {
            name: "clean".to_string(),
            faults: FaultConfig::default(),
        }
    }
}

/// A named compression configuration for one grid axis entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionPreset {
    /// Label used in scenario names and aggregates (e.g. `"dense"`,
    /// `"q8k25"`).
    pub name: String,
    /// The uplink compression settings the preset applies.
    pub compression: CompressionConfig,
}

impl CompressionPreset {
    /// The compression-off preset (dense uplinks).
    pub fn dense() -> Self {
        CompressionPreset {
            name: "dense".to_string(),
            compression: CompressionConfig::default(),
        }
    }
}

/// A cartesian scenario grid over a base configuration.
///
/// Empty axes inherit the base config's value, so the default grid is
/// the single base scenario; each `with_*` setter replaces one axis.
/// The mobility axis requires the base mobility to be `MarkovHop` or
/// `HomedMarkovHop` (the only sources with a `P` knob).
///
/// Grids serialise (the `middle-sweepd` fleet passes one grid-spec
/// JSON file to every worker and the coordinator; the grid digest
/// guards against two processes disagreeing about the job).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioGrid {
    base: SimConfig,
    mobility_ps: Vec<f64>,
    selection_sizes: Vec<usize>,
    sync_periods: Vec<usize>,
    seeds: Vec<u64>,
    fault_presets: Vec<FaultPreset>,
    compression_presets: Vec<CompressionPreset>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    algorithms: Vec<AlgorithmConfig>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    execution: Vec<TimelineConfig>,
}

impl ScenarioGrid {
    /// A grid holding just the base scenario.
    pub fn new(base: SimConfig) -> Self {
        ScenarioGrid {
            base,
            mobility_ps: Vec::new(),
            selection_sizes: Vec::new(),
            sync_periods: Vec::new(),
            seeds: Vec::new(),
            fault_presets: Vec::new(),
            compression_presets: Vec::new(),
            algorithms: Vec::new(),
            execution: Vec::new(),
        }
    }

    /// The base configuration the grid varies.
    pub fn base(&self) -> &SimConfig {
        &self.base
    }

    /// Sweeps the global mobility probability `P`.
    pub fn with_mobility_ps(mut self, ps: impl Into<Vec<f64>>) -> Self {
        self.mobility_ps = ps.into();
        self
    }

    /// Sweeps the per-edge selection size `K`.
    pub fn with_selection_sizes(mut self, ks: impl Into<Vec<usize>>) -> Self {
        self.selection_sizes = ks.into();
        self
    }

    /// Sweeps the cloud synchronisation period `T_c`.
    pub fn with_sync_periods(mut self, tcs: impl Into<Vec<usize>>) -> Self {
        self.sync_periods = tcs.into();
        self
    }

    /// Sweeps the master seed (the cross-seed axis the aggregates
    /// average over).
    pub fn with_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// Sweeps named fault presets.
    pub fn with_fault_presets(mut self, presets: impl Into<Vec<FaultPreset>>) -> Self {
        self.fault_presets = presets.into();
        self
    }

    /// Sweeps named compression presets. An unset axis inherits the
    /// base config's compression settings and leaves scenario labels
    /// unchanged.
    pub fn with_compression_presets(mut self, presets: impl Into<Vec<CompressionPreset>>) -> Self {
        self.compression_presets = presets.into();
        self
    }

    /// Sweeps named algorithms (e.g. [`AlgorithmConfig::zoo`]). An
    /// unset axis inherits the base config's algorithm and leaves
    /// scenario labels unchanged; swept scenarios gain an
    /// `-a<algorithm>` label segment. Algorithms share cached inputs
    /// across the axis — the algorithm is deliberately not part of the
    /// input cache key.
    pub fn with_algorithms(mut self, algorithms: impl Into<Vec<AlgorithmConfig>>) -> Self {
        self.algorithms = algorithms.into();
        self
    }

    /// Sweeps execution-mode settings ([`TimelineConfig`] — lockstep vs
    /// event-driven, latency model, thresholds, timers). An unset axis
    /// inherits the base config's timeline and leaves scenario labels
    /// unchanged; swept scenarios gain an `-xlock` / `-xevent` label
    /// segment, the latter suffixed `-k<edge_threshold>` and
    /// `-t<cloud_timer>` when those are set (`-xevent-k2-t10`). Entries
    /// that differ only in a field the label does not carry (latency
    /// model, step duration) collide and fail expansion.
    pub fn with_execution_modes(mut self, modes: impl Into<Vec<TimelineConfig>>) -> Self {
        self.execution = modes.into();
        self
    }

    /// Expands the grid into its scenario list (fixed order: `P`
    /// outermost, then `K`, `T_c`, fault preset, compression preset,
    /// algorithm, seed innermost) and validates every derived
    /// configuration.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the mobility axis is set on a
    /// base without a `P` knob, when any derived config fails
    /// [`SimConfig::validate`], or when two scenarios share a label
    /// (an axis lists a value twice, or two presets share a name) —
    /// the cross-seed aggregation would pool them as seeds of one cell.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, SimError> {
        if !self.mobility_ps.is_empty()
            && !matches!(
                self.base.mobility,
                MobilitySource::MarkovHop { .. } | MobilitySource::HomedMarkovHop { .. }
            )
        {
            return Err(SimError::InvalidConfig {
                message: format!(
                    "mobility axis requires a MarkovHop/HomedMarkovHop base, got {:?}",
                    self.base.mobility
                ),
            });
        }
        let ps: Vec<Option<f64>> = if self.mobility_ps.is_empty() {
            vec![None]
        } else {
            self.mobility_ps.iter().copied().map(Some).collect()
        };
        let ks = if self.selection_sizes.is_empty() {
            vec![self.base.devices_per_edge]
        } else {
            self.selection_sizes.clone()
        };
        let tcs = if self.sync_periods.is_empty() {
            vec![self.base.cloud_interval]
        } else {
            self.sync_periods.clone()
        };
        let seeds = if self.seeds.is_empty() {
            vec![self.base.seed]
        } else {
            self.seeds.clone()
        };
        let presets = if self.fault_presets.is_empty() {
            vec![FaultPreset {
                name: "base".to_string(),
                faults: self.base.faults,
            }]
        } else {
            self.fault_presets.clone()
        };
        let comps: Vec<Option<&CompressionPreset>> = if self.compression_presets.is_empty() {
            vec![None]
        } else {
            self.compression_presets.iter().map(Some).collect()
        };
        let algos: Vec<Option<&AlgorithmConfig>> = if self.algorithms.is_empty() {
            vec![None]
        } else {
            self.algorithms.iter().map(Some).collect()
        };
        let execs: Vec<Option<&TimelineConfig>> = if self.execution.is_empty() {
            vec![None]
        } else {
            self.execution.iter().map(Some).collect()
        };
        let mut out = Vec::with_capacity(
            ps.len()
                * ks.len()
                * tcs.len()
                * presets.len()
                * comps.len()
                * algos.len()
                * execs.len()
                * seeds.len(),
        );
        for &p in &ps {
            for &k in &ks {
                for &tc in &tcs {
                    for preset in &presets {
                        for &comp in &comps {
                            for &algo in &algos {
                                for &exec in &execs {
                                    for &seed in &seeds {
                                        let mut config = self.base.clone();
                                        if let Some(p) = p {
                                            config.mobility = match config.mobility {
                                                MobilitySource::MarkovHop { .. } => {
                                                    MobilitySource::MarkovHop { p }
                                                }
                                                MobilitySource::HomedMarkovHop {
                                                    home_bias,
                                                    ..
                                                } => {
                                                    MobilitySource::HomedMarkovHop { p, home_bias }
                                                }
                                                other => other,
                                            };
                                        }
                                        config.devices_per_edge = k;
                                        config.cloud_interval = tc;
                                        config.seed = seed;
                                        config.faults = preset.faults;
                                        if let Some(comp) = comp {
                                            config.compression = comp.compression.clone();
                                        }
                                        if let Some(algo) = algo {
                                            config.algorithm = algo.clone();
                                        }
                                        if let Some(exec) = exec {
                                            config.timeline = *exec;
                                        }
                                        let c = comp
                                            .map(|c| format!("-c{}", c.name))
                                            .unwrap_or_default();
                                        let a = algo
                                            .map(|a| format!("-a{}", a.name.to_lowercase()))
                                            .unwrap_or_default();
                                        let execution = exec.map(execution_label);
                                        let x = execution
                                            .as_ref()
                                            .map(|x| format!("-x{x}"))
                                            .unwrap_or_default();
                                        let label = match p {
                                            Some(p) => {
                                                format!(
                                                    "p{p}-k{k}-tc{tc}-{}{c}{a}{x}-s{seed}",
                                                    preset.name
                                                )
                                            }
                                            None => {
                                                format!(
                                                    "k{k}-tc{tc}-{}{c}{a}{x}-s{seed}",
                                                    preset.name
                                                )
                                            }
                                        };
                                        config.validate().map_err(|message| {
                                            SimError::InvalidConfig {
                                                message: format!("scenario {label}: {message}"),
                                            }
                                        })?;
                                        out.push(Scenario {
                                            index: out.len(),
                                            label,
                                            p,
                                            k,
                                            sync_period: tc,
                                            seed,
                                            preset: preset.name.clone(),
                                            compression: comp.map(|c| c.name.clone()),
                                            algorithm: algo.map(|a| a.name.clone()),
                                            execution,
                                            config,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut seen = HashSet::with_capacity(out.len());
        for s in &out {
            if !seen.insert(s.label.as_str()) {
                return Err(SimError::InvalidConfig {
                    message: format!(
                        "scenario {}: label appears twice (an axis lists one value or \
                         preset name more than once)",
                        s.label
                    ),
                });
            }
        }
        Ok(out)
    }

    /// FNV-1a digest of the expanded scenario list (labels + configs).
    /// Stored in sweep state files so a resume is never applied to a
    /// different grid.
    ///
    /// # Errors
    /// Propagates [`ScenarioGrid::scenarios`] errors.
    pub fn digest(&self) -> Result<u64, SimError> {
        Ok(scenarios_digest(&self.scenarios()?))
    }
}

/// Label segment for a swept execution mode (`-x<label>`), derived from
/// the config: `lock` / `event`, plus `-k<edge_threshold>` and
/// `-t<cloud_timer>` for the event variants that set them.
fn execution_label(t: &TimelineConfig) -> String {
    let mode = match t.mode {
        ExecutionMode::Lockstep => "lock",
        ExecutionMode::EventDriven => "event",
    };
    let k = t
        .edge_threshold
        .map(|k| format!("-k{k}"))
        .unwrap_or_default();
    let timer = t.cloud_timer.map(|s| format!("-t{s}")).unwrap_or_default();
    format!("{mode}{k}{timer}")
}

fn scenarios_digest(scenarios: &[Scenario]) -> u64 {
    let mut bytes = Vec::new();
    for s in scenarios {
        bytes.extend_from_slice(s.label.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(
            serde_json::to_string(&s.config)
                .expect("config serialisation cannot fail")
                .as_bytes(),
        );
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

/// One expanded grid point: the derived config plus the axis values
/// that produced it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the grid's fixed expansion order.
    pub index: usize,
    /// Human-readable scenario name (`p0.5-k3-tc4-clean-s7`).
    pub label: String,
    /// The mobility-axis value (`None` when the axis was not swept).
    pub p: Option<f64>,
    /// Selection size `K`.
    pub k: usize,
    /// Cloud sync period `T_c`.
    pub sync_period: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault preset name.
    pub preset: String,
    /// Compression preset name (`None` when the axis was not swept).
    pub compression: Option<String>,
    /// Algorithm name (`None` when the axis was not swept).
    pub algorithm: Option<String>,
    /// Execution-mode label (`None` when the axis was not swept).
    pub execution: Option<String>,
    /// The fully derived, validated configuration.
    pub config: SimConfig,
}

/// How [`run_sweep`] executes.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` uses the host's available parallelism.
    pub threads: usize,
    /// Step implementation every scenario runs with.
    pub step_mode: StepMode,
    /// Directory for per-scenario checkpoints and the sweep completion
    /// ledger; `None` disables persistence (no resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Steps between mid-run checkpoints of each scenario (`0` = only
    /// the completion ledger, no mid-run snapshots). Ignored without a
    /// `checkpoint_dir`.
    pub checkpoint_every: usize,
    /// Cap on scenarios *completed this invocation* (earliest pending
    /// first — deterministic, used to simulate a killed sweep). `None`
    /// runs everything.
    pub limit: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            step_mode: StepMode::Fast,
            checkpoint_dir: None,
            checkpoint_every: 0,
            limit: None,
        }
    }
}

/// One completed scenario: its axis values plus the full
/// [`RunRecord`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// Position in the grid's expansion order.
    pub index: usize,
    /// Scenario name.
    pub label: String,
    /// Mobility-axis value, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p: Option<f64>,
    /// Selection size `K`.
    pub k: usize,
    /// Cloud sync period `T_c`.
    pub sync_period: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault preset name.
    pub preset: String,
    /// Compression preset name, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub compression: Option<String>,
    /// Algorithm name, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub algorithm: Option<String>,
    /// Execution-mode label, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub execution: Option<String>,
    /// The run's measured output.
    pub record: RunRecord,
}

/// Cross-seed statistics for one grid cell (same `P`, `K`, `T_c` and
/// preset; averaged over the seed axis).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregatePoint {
    /// Cell label without the seed suffix.
    pub label: String,
    /// Mobility-axis value, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p: Option<f64>,
    /// Selection size `K`.
    pub k: usize,
    /// Cloud sync period `T_c`.
    pub sync_period: usize,
    /// Fault preset name.
    pub preset: String,
    /// Compression preset name, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub compression: Option<String>,
    /// Algorithm name, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub algorithm: Option<String>,
    /// Execution-mode label, when swept.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub execution: Option<String>,
    /// Seeds aggregated.
    pub seeds: usize,
    /// Mean final accuracy across seeds.
    pub final_mean: f64,
    /// Sample standard deviation (n−1) of the final accuracy.
    pub final_std: f64,
    /// 95% confidence half-width (`1.96·std/√n`) of the final accuracy.
    pub final_ci95: f64,
    /// Mean tail(3) accuracy across seeds (Figure 7's smoothed bars).
    pub tail_mean: f64,
    /// Sample standard deviation of the tail accuracy.
    pub tail_std: f64,
    /// 95% confidence half-width of the tail accuracy.
    pub tail_ci95: f64,
}

/// One live shard lease in the sweep ledger: which worker currently
/// owns which contiguous block of scenarios, and when it last proved
/// it was alive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLease {
    /// Shard index; the shard covers scenarios
    /// `shard * shard_size .. (shard + 1) * shard_size` (clamped).
    pub shard: usize,
    /// Id of the worker holding the lease.
    pub worker: String,
    /// Unix milliseconds when the lease was granted.
    pub granted_unix_ms: u64,
    /// Unix milliseconds of the last heartbeat renewal. A lease whose
    /// heartbeat is older than [`FleetOptions::lease_ms`] is expired:
    /// any worker or the coordinator may reclaim it, and its scenarios
    /// re-run from their last checkpoint.
    pub heartbeat_unix_ms: u64,
}

fn default_shard_size() -> usize {
    1
}

/// The sweep's completion ledger, persisted as `sweep_state.json` in
/// the checkpoint directory after every scenario completion (atomic
/// tmp-then-rename writes, sealed with an FNV-1a integrity trailer —
/// see [`crate::checkpoint::seal_json`]). Fleet runs extend it with
/// the live [`ShardLease`] table; single-process sweeps leave `leases`
/// empty, and pre-fleet ledgers (no `leases` / `shard_size` fields,
/// no trailer) still parse.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepState {
    schema_version: u32,
    grid_digest: u64,
    records: Vec<Option<ScenarioRecord>>,
    #[serde(default)]
    leases: Vec<ShardLease>,
    #[serde(default = "default_shard_size")]
    shard_size: usize,
}

impl SweepState {
    fn fresh(grid_digest: u64, scenarios: usize, shard_size: usize) -> Self {
        SweepState {
            schema_version: SWEEP_REPORT_SCHEMA_VERSION,
            grid_digest,
            records: vec![None; scenarios],
            leases: Vec::new(),
            shard_size,
        }
    }
}

/// The versioned output of [`run_sweep`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// [`SWEEP_REPORT_SCHEMA_VERSION`] at emission time.
    pub schema_version: u32,
    /// Digest of the grid the report covers.
    pub grid_digest: u64,
    /// Whether every scenario in the grid has completed (a limited or
    /// interrupted sweep reports `false`).
    pub complete: bool,
    /// Completed scenarios in grid order.
    pub scenarios: Vec<ScenarioRecord>,
    /// Cross-seed statistics per grid cell, over the completed
    /// scenarios.
    pub aggregates: Vec<AggregatePoint>,
    /// Wall-clock seconds of this `run_sweep` invocation.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Input-cache hits observed this invocation.
    pub cache_hits: u64,
    /// Input-cache misses observed this invocation.
    pub cache_misses: u64,
}

impl SweepReport {
    /// Serialises the report with every wall-clock-dependent field
    /// zeroed (per-run `wall_seconds`, telemetry latency summaries, the
    /// sweep's own wall clock, thread count and cache counters), so two
    /// reports over the same grid compare bitwise regardless of
    /// scheduling, interruption or host speed.
    pub fn deterministic_json(&self) -> String {
        let mut clean = self.clone();
        clean.wall_seconds = 0.0;
        clean.threads = 0;
        clean.cache_hits = 0;
        clean.cache_misses = 0;
        for s in &mut clean.scenarios {
            s.record.wall_seconds = 0.0;
            s.record.telemetry = None;
        }
        serde_json::to_string(&clean).expect("report serialisation cannot fail")
    }

    /// Serialises the full report.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }
}

fn io_err(path: &Path, e: std::io::Error) -> SimError {
    SimError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Writes `contents` to `path` atomically (tmp file + rename), so a
/// kill mid-write never leaves a truncated state file behind. The tmp
/// name embeds the pid and a process-wide counter: neither fleet
/// processes sharing a directory nor threads of one process writing the
/// same path (two live workers that both reclaimed a shard) may share a
/// tmp file — whoever renamed second would find it gone.
///
/// `unlink_old` removes the old file just before the rename: ext4 pushes
/// a file renamed *onto* an existing one to the block device at once,
/// which a snapshot that lives for milliseconds must not pay for
/// (DESIGN.md §10.4). A kill in between leaves no file, so this is only
/// for files whose absence the reader handles — never for the ledger.
fn write_atomic(path: &Path, contents: &str, unlink_old: bool) -> Result<(), SimError> {
    // `Relaxed`: the counter only has to hand out distinct numbers; it
    // publishes nothing.
    static WRITER: AtomicU64 = AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("json.tmp.{}.{writer}", std::process::id()));
    fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    if unlink_old {
        let _ = fs::remove_file(path);
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Wall-clock milliseconds since the Unix epoch. Lease timestamps must
/// be comparable *across processes*, so they use the system clock; the
/// clock only gates liveness (expiry, heartbeats) — nothing
/// bitwise-relevant ever reads it.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// How long a ledger lockfile may sit untouched before another process
/// presumes its holder was killed inside the (milliseconds-long)
/// critical section and breaks the lock.
const LOCK_STALE_MS: u128 = 5_000;
/// Upper bound on waiting for the ledger lockfile before giving up
/// with an [`SimError::Io`].
const LOCK_WAIT_MS: u128 = 60_000;

/// The shared sweep ledger: `sweep_state.json` plus its sidecar
/// lockfile mutex (`sweep_state.lock`). The lockfile serialises
/// read-modify-write cycles *across processes* (creation with
/// `create_new` is atomic on every platform the repo targets); the
/// data file itself is only ever replaced whole via [`write_atomic`],
/// so readers never observe a torn ledger from our own writers, and
/// [`Ledger::read`] quarantines anything else.
struct Ledger {
    path: PathBuf,
    lock_path: PathBuf,
}

/// Holds the sidecar lockfile; dropping releases it.
struct LedgerGuard<'a>(&'a Ledger);

impl Drop for LedgerGuard<'_> {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0.lock_path);
    }
}

impl Ledger {
    fn in_dir(dir: &Path) -> Ledger {
        Ledger {
            path: dir.join("sweep_state.json"),
            lock_path: dir.join("sweep_state.lock"),
        }
    }

    /// Acquires the cross-process ledger mutex, breaking locks whose
    /// holder died (lockfile older than [`LOCK_STALE_MS`]).
    fn lock(&self) -> Result<LedgerGuard<'_>, SimError> {
        let start = Instant::now();
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&self.lock_path)
            {
                Ok(mut f) => {
                    // Owner breadcrumb for post-mortems; never parsed.
                    let _ = writeln!(f, "{} {}", std::process::id(), unix_ms());
                    return Ok(LedgerGuard(self));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&self.lock_path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| age.as_millis() > LOCK_STALE_MS);
                    if stale {
                        let _ = fs::remove_file(&self.lock_path);
                        continue;
                    }
                    if start.elapsed().as_millis() > LOCK_WAIT_MS {
                        return Err(SimError::Io {
                            path: self.lock_path.display().to_string(),
                            message: "timed out waiting for the ledger lock".to_string(),
                        });
                    }
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err(&self.lock_path, e)),
            }
        }
    }

    /// Reads the ledger. Corrupt content — a torn write simulated or
    /// real, a failed integrity trailer, unparseable JSON — is
    /// quarantined to `sweep_state.json.corrupt` and reported as
    /// absent, so a resume can never start from bogus state; the work
    /// re-runs (and per-scenario results being pure functions of their
    /// configs, re-running reproduces the same report).
    fn read(&self) -> Option<SweepState> {
        let text = fs::read_to_string(&self.path).ok()?;
        let state = unseal_json(&text)
            .ok()
            .and_then(|payload| serde_json::from_str::<SweepState>(payload).ok());
        if state.is_none() {
            let _ = fs::rename(&self.path, self.path.with_extension("json.corrupt"));
        }
        state
    }

    /// Atomically replaces the ledger with `state`, sealed.
    fn write(&self, state: &SweepState) -> Result<(), SimError> {
        let json = serde_json::to_string(state).expect("state serialisation cannot fail");
        write_atomic(&self.path, &seal_json(&json), false)
    }
}

fn mean_std_ci(values: &[f64]) -> (f64, f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    let std = var.sqrt();
    (mean, std, 1.96 * std / n.sqrt())
}

/// Groups the completed scenarios by grid cell (everything but the
/// seed) in first-appearance order and computes cross-seed statistics.
fn aggregate(records: &[ScenarioRecord]) -> Vec<AggregatePoint> {
    let mut cells: Vec<(String, Vec<&ScenarioRecord>)> = Vec::new();
    for r in records {
        // "-<axis><value>" for an axis the grid swept, nothing otherwise.
        let axis = |tag: &str, value: &Option<String>| {
            value
                .as_ref()
                .map_or(String::new(), |v| format!("-{tag}{v}"))
        };
        let (c, x) = (axis("c", &r.compression), axis("x", &r.execution));
        let a = axis("a", &r.algorithm).to_lowercase();
        let key = match r.p {
            Some(p) => format!("p{p}-k{}-tc{}-{}{c}{a}{x}", r.k, r.sync_period, r.preset),
            None => format!("k{}-tc{}-{}{c}{a}{x}", r.k, r.sync_period, r.preset),
        };
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(r),
            None => cells.push((key, vec![r])),
        }
    }
    cells
        .into_iter()
        .map(|(label, members)| {
            let finals: Vec<f64> = members
                .iter()
                .map(|r| f64::from(r.record.final_accuracy()))
                .collect();
            let tails: Vec<f64> = members
                .iter()
                .map(|r| f64::from(r.record.tail_accuracy(3)))
                .collect();
            let (final_mean, final_std, final_ci95) = mean_std_ci(&finals);
            let (tail_mean, tail_std, tail_ci95) = mean_std_ci(&tails);
            let first = members[0];
            AggregatePoint {
                label,
                p: first.p,
                k: first.k,
                sync_period: first.sync_period,
                preset: first.preset.clone(),
                compression: first.compression.clone(),
                algorithm: first.algorithm.clone(),
                execution: first.execution.clone(),
                seeds: members.len(),
                final_mean,
                final_std,
                final_ci95,
                tail_mean,
                tail_std,
                tail_ci95,
            }
        })
        .collect()
}

/// Runs (or resumes) a scenario grid.
///
/// Workers claim pending scenarios from a shared cursor; immutable
/// inputs are shared through one [`InputCache`]; per-scenario results
/// are deterministic functions of their configs, independent of shard
/// assignment and thread count. With a checkpoint directory configured,
/// completed scenarios are recorded in `sweep_state.json` and long runs
/// snapshot mid-flight state every [`SweepOptions::checkpoint_every`]
/// steps, so a killed sweep resumes without redoing finished work and
/// reproduces the uninterrupted report bitwise
/// ([`SweepReport::deterministic_json`]).
///
/// # Errors
/// [`SimError::InvalidConfig`] from grid expansion, or the first
/// builder/checkpoint/[`SimError::Io`] error any worker hits (remaining
/// workers stop claiming new scenarios).
pub fn run_sweep(grid: &ScenarioGrid, opts: &SweepOptions) -> Result<SweepReport, SimError> {
    let start = Instant::now();
    let scenarios = grid.scenarios()?;
    let digest = scenarios_digest(&scenarios);

    let ledger = opts.checkpoint_dir.as_ref().map(|d| Ledger::in_dir(d));
    if let Some(dir) = &opts.checkpoint_dir {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    let mut records: Vec<Option<ScenarioRecord>> = vec![None; scenarios.len()];
    if let Some(ledger) = &ledger {
        if let Some(state) = ledger.read() {
            if state.schema_version == SWEEP_REPORT_SCHEMA_VERSION
                && state.grid_digest == digest
                && state.records.len() == scenarios.len()
            {
                records = state.records;
            }
        }
    }

    let mut todo: Vec<usize> = (0..scenarios.len())
        .filter(|&i| records[i].is_none())
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    let threads = if opts.threads == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    }
    .min(todo.len().max(1));

    let cache = InputCache::new();
    let cursor = AtomicUsize::new(0);
    let results = Mutex::new(records);
    let first_error: Mutex<Option<SimError>> = Mutex::new(None);
    let scenarios = Arc::new(scenarios);

    thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cache = Arc::clone(&cache);
            let scenarios = Arc::clone(&scenarios);
            let (cursor, todo, results, first_error) = (&cursor, &todo, &results, &first_error);
            let ledger = ledger.as_ref();
            workers.push(scope.spawn(move || loop {
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                if claim >= todo.len() || first_error.lock().expect("error slot poisoned").is_some()
                {
                    return;
                }
                let scenario = &scenarios[todo[claim]];
                // Nothing stops an in-process scenario early, so `record`
                // is always `Some`.
                let done = drive_scenario(
                    scenario,
                    &cache,
                    opts.step_mode,
                    opts.checkpoint_dir.as_deref(),
                    opts.checkpoint_every,
                    |_| Ok(true),
                )
                .and_then(|record| {
                    let mut recs = results.lock().expect("result slot poisoned");
                    recs[scenario.index] = record;
                    ledger.map_or(Ok(()), |ledger| {
                        ledger.write(&SweepState {
                            schema_version: SWEEP_REPORT_SCHEMA_VERSION,
                            grid_digest: digest,
                            records: recs.clone(),
                            leases: Vec::new(),
                            shard_size: 1,
                        })
                    })
                });
                if let Err(e) = done {
                    let mut slot = first_error.lock().expect("error slot poisoned");
                    slot.get_or_insert(e);
                    return;
                }
            }));
        }
        // Joined by handle: the scope only waits for the closures, a handle
        // for the OS thread, and not until that is gone can the next
        // sweep's workers reuse its allocator arena (DESIGN.md §10.4).
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    if let Some(e) = first_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let records = results.into_inner().expect("result slot poisoned");
    let complete = records.iter().all(Option::is_some);
    let completed: Vec<ScenarioRecord> = records.into_iter().flatten().collect();
    let aggregates = aggregate(&completed);
    Ok(SweepReport {
        schema_version: SWEEP_REPORT_SCHEMA_VERSION,
        grid_digest: digest,
        complete,
        scenarios: completed,
        aggregates,
        wall_seconds: start.elapsed().as_secs_f64(),
        threads,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    })
}

/// Runs one scenario, for [`run_sweep`] and the fleet worker alike:
/// builds through the shared cache, resumes from the scenario's snapshot
/// in `dir` when one applies, ticks to the end snapshotting every
/// `checkpoint_every` steps (`0` = never), and removes the snapshot.
/// `after_tick` is told whether the tick wrote a snapshot; when it
/// returns `false` the scenario stops where it stands, snapshot kept,
/// and the result is `None`.
fn drive_scenario(
    scenario: &Scenario,
    cache: &Arc<InputCache>,
    step_mode: StepMode,
    dir: Option<&Path>,
    checkpoint_every: usize,
    mut after_tick: impl FnMut(bool) -> Result<bool, SimError>,
) -> Result<Option<ScenarioRecord>, SimError> {
    let build = || {
        SimulationBuilder::new(scenario.config.clone())
            .with_shared_inputs(Arc::clone(cache))
            .build()
            .map_err(|e| match e {
                SimError::InvalidConfig { message } => SimError::InvalidConfig {
                    message: format!("scenario {}: {message}", scenario.label),
                },
                other => other,
            })
    };
    let mut sim = build()?;
    let ckpt = dir.map(|d| d.join(format!("scenario_{}.ckpt.json", scenario.index)));
    let found = ckpt
        .as_ref()
        .and_then(|path| fs::read_to_string(path).ok())
        .and_then(|text| SimCheckpoint::from_json(&text).ok());
    // A snapshot that does not apply (another grid reusing the directory,
    // an older schema, a damaged payload) is ignored and the scenario
    // runs cold — from a fresh build, because a restore that fails while
    // decoding has already overwritten part of the simulation.
    if found.is_some_and(|ck| sim.restore(&ck).is_err()) {
        sim = build()?;
    }
    while !sim.is_finished() {
        sim.tick(step_mode);
        let due = ckpt.as_ref().filter(|_| {
            checkpoint_every > 0 && sim.next_step() % checkpoint_every == 0 && !sim.is_finished()
        });
        if let Some(path) = due {
            write_atomic(path, &sim.checkpoint().to_json(), true)?;
        }
        if !after_tick(due.is_some())? {
            return Ok(None);
        }
    }
    let record = sim.finish();
    if let Some(path) = &ckpt {
        let _ = fs::remove_file(path);
    }
    Ok(Some(ScenarioRecord {
        index: scenario.index,
        label: scenario.label.clone(),
        p: scenario.p,
        k: scenario.k,
        sync_period: scenario.sync_period,
        seed: scenario.seed,
        preset: scenario.preset.clone(),
        compression: scenario.compression.clone(),
        algorithm: scenario.algorithm.clone(),
        execution: scenario.execution.clone(),
        record,
    }))
}

// --------------------------------------------------------------------
// Multi-process fleet: lease-based sharding over the shared ledger
// --------------------------------------------------------------------

/// How fleet workers and the coordinator behave. All time knobs are
/// liveness-only — they can change results' *latency*, never their
/// *bytes* (the bitwise-merge contract in DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Step implementation every scenario runs with.
    pub step_mode: StepMode,
    /// Scenarios per lease shard (≥ 1). Bigger shards amortise ledger
    /// round-trips; smaller shards re-run less work after a kill.
    pub shard_size: usize,
    /// Lease expiry in milliseconds: a lease whose heartbeat is older
    /// than this is presumed dead and reclaimable by anyone.
    pub lease_ms: u64,
    /// Heartbeat renewal cadence while a worker runs a shard. Must be
    /// comfortably below `lease_ms` or live workers lose their leases.
    pub heartbeat_ms: u64,
    /// Idle poll cadence: a worker waiting for claimable work, and the
    /// coordinator waiting for completions, re-check this often.
    pub poll_ms: u64,
    /// Steps between mid-scenario checkpoints (`0` = resume only at
    /// scenario boundaries).
    pub checkpoint_every: usize,
    /// Give-up horizon in milliseconds; `None` waits for grid
    /// completion indefinitely. A worker that hits it returns what it
    /// finished; the coordinator errors (the grid is incomplete).
    pub max_wall_ms: Option<u64>,
    /// Deterministic kill switch for tests: abandon the worker loop
    /// abruptly — leases unreleased, checkpoint files left behind,
    /// exactly the on-disk state a SIGKILL produces — after writing
    /// this many mid-scenario checkpoints. The companion of
    /// [`SweepOptions::limit`] for simulating killed fleets.
    pub kill_after_checkpoints: Option<usize>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            step_mode: StepMode::Fast,
            shard_size: 1,
            lease_ms: 5_000,
            heartbeat_ms: 1_000,
            poll_ms: 25,
            checkpoint_every: 0,
            max_wall_ms: None,
            kill_after_checkpoints: None,
        }
    }
}

/// What one [`run_fleet_worker`] invocation accomplished.
#[derive(Debug, Clone)]
pub struct FleetWorkerReport {
    /// The worker's id (as recorded in its leases and JSONL stream).
    pub worker_id: String,
    /// Scenarios this worker completed and recorded.
    pub completed: usize,
    /// Whether the deterministic kill switch fired (leases were left
    /// unreleased; only tests set the switch).
    pub killed: bool,
}

/// A point-in-time view of a fleet's shared ledger (for progress
/// display and tests).
#[derive(Debug, Clone)]
pub struct FleetStatus {
    /// Scenarios in the grid.
    pub total: usize,
    /// Scenarios completed and recorded in the ledger.
    pub completed: usize,
    /// Scenarios per lease shard.
    pub shard_size: usize,
    /// Live lease table as persisted (expired leases included — expiry
    /// is judged against [`FleetOptions::lease_ms`] at claim time).
    pub leases: Vec<ShardLease>,
}

/// Reads the fleet ledger in `dir`, returning `None` when no sweep has
/// started there (or the ledger was quarantined as corrupt).
///
/// # Errors
/// [`SimError::Io`] when the ledger lock cannot be acquired.
pub fn fleet_status(dir: &Path) -> Result<Option<FleetStatus>, SimError> {
    let ledger = Ledger::in_dir(dir);
    let _guard = ledger.lock()?;
    Ok(ledger.read().map(|state| FleetStatus {
        total: state.records.len(),
        completed: state.records.iter().filter(|r| r.is_some()).count(),
        shard_size: state.shard_size,
        leases: state.leases,
    }))
}

/// Rejects a ledger that belongs to a different job than the caller's
/// grid + options — resuming across grids or disagreeing shard sizes
/// would corrupt the sweep silently.
fn check_state(
    state: &SweepState,
    digest: u64,
    n: usize,
    shard_size: usize,
) -> Result<(), SimError> {
    if state.schema_version != SWEEP_REPORT_SCHEMA_VERSION
        || state.grid_digest != digest
        || state.records.len() != n
    {
        return Err(SimError::InvalidConfig {
            message: format!(
                "sweep ledger belongs to a different grid \
                 (digest {:016x}/{} scenarios vs {:016x}/{n})",
                state.grid_digest,
                state.records.len(),
                digest
            ),
        });
    }
    if state.shard_size != shard_size {
        return Err(SimError::InvalidConfig {
            message: format!(
                "sweep ledger shard size {} disagrees with requested {shard_size}; \
                 every fleet member must use identical FleetOptions::shard_size",
                state.shard_size
            ),
        });
    }
    Ok(())
}

/// Outcome of one claim attempt against the lease board.
enum Claim {
    /// A shard was leased: its index and its still-pending scenarios.
    Shard { shard: usize, pending: Vec<usize> },
    /// Pending work exists but every pending shard is under a live
    /// lease held by someone else (duplicate claims are rejected).
    Busy,
    /// Every scenario in the grid is recorded complete.
    Done,
}

/// One locked read-reclaim-claim-write cycle: expired leases are
/// dropped, then the first shard with pending scenarios and no live
/// lease is leased to `worker_id`.
fn claim_shard(
    ledger: &Ledger,
    digest: u64,
    n: usize,
    worker_id: &str,
    opts: &FleetOptions,
) -> Result<Claim, SimError> {
    let _guard = ledger.lock()?;
    let mut state = match ledger.read() {
        Some(state) => {
            check_state(&state, digest, n, opts.shard_size)?;
            state
        }
        None => SweepState::fresh(digest, n, opts.shard_size),
    };
    let now = unix_ms();
    state
        .leases
        .retain(|l| now.saturating_sub(l.heartbeat_unix_ms) < opts.lease_ms);
    let shards = n.div_ceil(opts.shard_size);
    let mut outcome = Claim::Done;
    for shard in 0..shards {
        let lo = shard * opts.shard_size;
        let hi = (lo + opts.shard_size).min(n);
        let pending: Vec<usize> = (lo..hi).filter(|&i| state.records[i].is_none()).collect();
        if pending.is_empty() {
            continue;
        }
        if state.leases.iter().any(|l| l.shard == shard) {
            outcome = Claim::Busy;
            continue;
        }
        state.leases.push(ShardLease {
            shard,
            worker: worker_id.to_string(),
            granted_unix_ms: now,
            heartbeat_unix_ms: now,
        });
        ledger.write(&state)?;
        return Ok(Claim::Shard { shard, pending });
    }
    // Nothing claimable; still persist the reclamation sweep so a dead
    // worker's leases disappear even when everyone else is idle.
    ledger.write(&state)?;
    Ok(outcome)
}

/// Renews `worker_id`'s heartbeat on `shard`. Returns `false` when the
/// lease is no longer held (it expired and was reclaimed, or the
/// ledger was reset) — the caller must abandon the shard immediately
/// rather than double-run scenarios another worker now owns.
fn renew_lease(ledger: &Ledger, worker_id: &str, shard: usize) -> Result<bool, SimError> {
    let _guard = ledger.lock()?;
    let Some(mut state) = ledger.read() else {
        return Ok(false);
    };
    match state.leases.iter_mut().find(|l| l.shard == shard) {
        Some(lease) if lease.worker == worker_id => {
            lease.heartbeat_unix_ms = unix_ms();
            ledger.write(&state)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Records a completed scenario in the ledger (first writer wins —
/// duplicate completions after a lease reclaim carry bitwise-identical
/// results, so keeping the first is sound) and renews the worker's
/// heartbeat in the same locked cycle.
fn record_completion(
    ledger: &Ledger,
    digest: u64,
    n: usize,
    worker_id: &str,
    shard: usize,
    record: ScenarioRecord,
    opts: &FleetOptions,
) -> Result<(), SimError> {
    let _guard = ledger.lock()?;
    let mut state = match ledger.read() {
        Some(state) => {
            check_state(&state, digest, n, opts.shard_size)?;
            state
        }
        None => SweepState::fresh(digest, n, opts.shard_size),
    };
    let index = record.index;
    if state.records[index].is_none() {
        state.records[index] = Some(record);
    }
    if let Some(lease) = state
        .leases
        .iter_mut()
        .find(|l| l.shard == shard && l.worker == worker_id)
    {
        lease.heartbeat_unix_ms = unix_ms();
    }
    ledger.write(&state)
}

/// Drops `worker_id`'s lease on `shard` after the shard's scenarios
/// are all recorded.
fn release_shard(ledger: &Ledger, worker_id: &str, shard: usize) -> Result<(), SimError> {
    let _guard = ledger.lock()?;
    if let Some(mut state) = ledger.read() {
        state
            .leases
            .retain(|l| !(l.shard == shard && l.worker == worker_id));
        ledger.write(&state)?;
    }
    Ok(())
}

/// A worker id reduced to filesystem-safe characters for its JSONL
/// stream filename.
fn safe_id(worker_id: &str) -> String {
    worker_id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Appends one completed scenario to the worker's JSONL stream (the
/// coordinator tails these files and merges them into the incremental
/// report).
fn append_jsonl(path: &Path, record: &ScenarioRecord) -> Result<(), SimError> {
    let json = serde_json::to_string(record).expect("record serialisation cannot fail");
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    writeln!(file, "{json}").map_err(|e| io_err(path, e))
}

/// Everything a fleet worker threads through its scenario runs.
struct WorkerCtx<'a> {
    ledger: Ledger,
    dir: &'a Path,
    digest: u64,
    n: usize,
    worker_id: &'a str,
    opts: &'a FleetOptions,
    cache: Arc<InputCache>,
    jsonl: PathBuf,
    checkpoints_written: usize,
}

/// How one leased scenario ended.
enum ScenarioOutcome {
    /// Completed, streamed and recorded.
    Done,
    /// The lease was lost mid-run (reclaimed after expiry); the shard
    /// belongs to someone else now.
    Abandoned,
    /// The deterministic kill switch fired.
    Killed,
}

/// Runs one scenario under a lease: [`drive_scenario`] with the fleet's
/// per-tick duties — count snapshots for the kill switch, renew the
/// heartbeat every `heartbeat_ms` — and on completion streams the
/// record (JSONL first, then the ledger — a kill between the two only
/// costs a duplicate line the coordinator deduplicates).
fn run_leased_scenario(
    ctx: &mut WorkerCtx<'_>,
    scenario: &Scenario,
    shard: usize,
) -> Result<ScenarioOutcome, SimError> {
    let opts = ctx.opts;
    let mut last_beat = Instant::now();
    let mut stopped = ScenarioOutcome::Done;
    let record = drive_scenario(
        scenario,
        &ctx.cache,
        opts.step_mode,
        Some(ctx.dir),
        opts.checkpoint_every,
        |snapshot_written| {
            if snapshot_written {
                ctx.checkpoints_written += 1;
                if opts
                    .kill_after_checkpoints
                    .is_some_and(|k| ctx.checkpoints_written >= k)
                {
                    stopped = ScenarioOutcome::Killed;
                    return Ok(false);
                }
            }
            if u64::try_from(last_beat.elapsed().as_millis()).unwrap_or(u64::MAX)
                >= opts.heartbeat_ms
            {
                if !renew_lease(&ctx.ledger, ctx.worker_id, shard)? {
                    stopped = ScenarioOutcome::Abandoned;
                    return Ok(false);
                }
                last_beat = Instant::now();
            }
            Ok(true)
        },
    )?;
    let Some(record) = record else {
        return Ok(stopped);
    };
    append_jsonl(&ctx.jsonl, &record)?;
    record_completion(
        &ctx.ledger,
        ctx.digest,
        ctx.n,
        ctx.worker_id,
        shard,
        record,
        ctx.opts,
    )?;
    Ok(ScenarioOutcome::Done)
}

/// Runs a fleet worker process (or thread) to grid completion.
///
/// The worker loops: claim a shard lease from the shared ledger
/// (`claim_shard` rejects duplicate claims on live leases and
/// reclaims expired ones), run the shard's pending scenarios with
/// heartbeat renewal and periodic checkpoints, stream each completed
/// [`ScenarioRecord`] to `worker_<id>.jsonl`, record it in the ledger,
/// release the lease, repeat. When every pending shard is leased by
/// someone else it polls until work frees up (a lease expiring counts)
/// or the grid completes; [`FleetOptions::max_wall_ms`] bounds the
/// wait.
///
/// # Errors
/// Grid expansion errors, ledger/grid mismatches
/// ([`SimError::InvalidConfig`]), or the first I/O or builder error.
pub fn run_fleet_worker(
    grid: &ScenarioGrid,
    dir: &Path,
    worker_id: &str,
    opts: &FleetOptions,
) -> Result<FleetWorkerReport, SimError> {
    if opts.shard_size == 0 {
        return Err(SimError::InvalidConfig {
            message: "FleetOptions::shard_size must be at least 1".to_string(),
        });
    }
    let scenarios = grid.scenarios()?;
    let digest = scenarios_digest(&scenarios);
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut ctx = WorkerCtx {
        ledger: Ledger::in_dir(dir),
        dir,
        digest,
        n: scenarios.len(),
        worker_id,
        opts,
        cache: InputCache::new(),
        jsonl: dir.join(format!("worker_{}.jsonl", safe_id(worker_id))),
        checkpoints_written: 0,
    };
    let started = Instant::now();
    let mut completed = 0usize;
    loop {
        let out_of_time = opts.max_wall_ms.is_some_and(|ms| {
            u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX) >= ms
        });
        if out_of_time {
            break;
        }
        match claim_shard(&ctx.ledger, digest, scenarios.len(), worker_id, opts)? {
            Claim::Done => break,
            Claim::Busy => thread::sleep(Duration::from_millis(opts.poll_ms)),
            Claim::Shard { shard, pending } => {
                let mut lost = false;
                for index in pending {
                    match run_leased_scenario(&mut ctx, &scenarios[index], shard)? {
                        ScenarioOutcome::Done => completed += 1,
                        ScenarioOutcome::Abandoned => {
                            lost = true;
                            break;
                        }
                        ScenarioOutcome::Killed => {
                            return Ok(FleetWorkerReport {
                                worker_id: worker_id.to_string(),
                                completed,
                                killed: true,
                            });
                        }
                    }
                }
                if !lost {
                    release_shard(&ctx.ledger, worker_id, shard)?;
                }
            }
        }
    }
    Ok(FleetWorkerReport {
        worker_id: worker_id.to_string(),
        completed,
        killed: false,
    })
}

/// Tails every `worker_*.jsonl` stream in `dir`, merging newly
/// completed lines into `records` (first record per scenario wins;
/// duplicates from reclaimed leases are bitwise-identical modulo wall
/// clock). Only whole lines are consumed — a partial last line from a
/// killed worker stays unread until the scenario re-runs elsewhere.
fn tail_worker_streams(
    dir: &Path,
    offsets: &mut HashMap<PathBuf, usize>,
    records: &mut [Option<ScenarioRecord>],
    workers_seen: &mut Vec<String>,
) -> Result<(), SimError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("worker_") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    for path in paths {
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            if !workers_seen.iter().any(|w| w == name) {
                workers_seen.push(name.to_string());
            }
        }
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let start = offsets.get(&path).copied().unwrap_or(0);
        if text.len() <= start {
            continue;
        }
        let chunk = &text[start..];
        let Some(end) = chunk.rfind('\n').map(|e| e + 1) else {
            continue;
        };
        for line in chunk[..end].lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(record) = serde_json::from_str::<ScenarioRecord>(line) else {
                continue;
            };
            let index = record.index;
            if index < records.len() && records[index].is_none() {
                records[index] = Some(record);
            }
        }
        offsets.insert(path, start + end);
    }
    Ok(())
}

/// Runs the fleet coordinator: owns the grid, tails the workers'
/// JSONL streams, merges them with the shared ledger in both
/// directions (a worker killed between its JSONL append and its ledger
/// update is healed here), reclaims expired leases, and returns the
/// final [`SweepReport`] once every scenario is recorded.
///
/// The report's [`SweepReport::deterministic_json`] is byte-identical
/// to a single-process [`run_sweep`] over the same grid — including
/// fleets where workers were SIGKILL'd and replaced mid-sweep — because
/// every scenario result is a pure function of its config and the
/// merge only ever places a scenario's record at its grid index.
///
/// # Errors
/// Grid expansion errors, a ledger belonging to a different grid, I/O
/// errors, or [`SimError::Io`] with a timeout message when
/// [`FleetOptions::max_wall_ms`] elapses before completion.
pub fn run_fleet_coordinator(
    grid: &ScenarioGrid,
    dir: &Path,
    opts: &FleetOptions,
) -> Result<SweepReport, SimError> {
    if opts.shard_size == 0 {
        return Err(SimError::InvalidConfig {
            message: "FleetOptions::shard_size must be at least 1".to_string(),
        });
    }
    let start = Instant::now();
    let scenarios = grid.scenarios()?;
    let digest = scenarios_digest(&scenarios);
    let n = scenarios.len();
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let ledger = Ledger::in_dir(dir);
    let mut records: Vec<Option<ScenarioRecord>> = vec![None; n];
    let mut offsets: HashMap<PathBuf, usize> = HashMap::new();
    let mut workers_seen: Vec<String> = Vec::new();
    loop {
        tail_worker_streams(dir, &mut offsets, &mut records, &mut workers_seen)?;
        let all_done = {
            let _guard = ledger.lock()?;
            let mut state = match ledger.read() {
                Some(state) => {
                    check_state(&state, digest, n, opts.shard_size)?;
                    state
                }
                None => SweepState::fresh(digest, n, opts.shard_size),
            };
            for (ours, theirs) in records.iter_mut().zip(state.records.iter_mut()) {
                match (&ours, &theirs) {
                    (None, Some(r)) => *ours = Some(r.clone()),
                    (Some(r), None) => *theirs = Some(r.clone()),
                    _ => {}
                }
            }
            let now = unix_ms();
            state
                .leases
                .retain(|l| now.saturating_sub(l.heartbeat_unix_ms) < opts.lease_ms);
            ledger.write(&state)?;
            records.iter().all(Option::is_some)
        };
        if all_done {
            break;
        }
        let out_of_time = opts
            .max_wall_ms
            .is_some_and(|ms| u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX) >= ms);
        if out_of_time {
            return Err(SimError::Io {
                path: dir.display().to_string(),
                message: format!(
                    "fleet coordinator timed out with {}/{n} scenarios complete",
                    records.iter().filter(|r| r.is_some()).count()
                ),
            });
        }
        thread::sleep(Duration::from_millis(opts.poll_ms));
    }
    let completed: Vec<ScenarioRecord> = records.into_iter().flatten().collect();
    let aggregates = aggregate(&completed);
    Ok(SweepReport {
        schema_version: SWEEP_REPORT_SCHEMA_VERSION,
        grid_digest: digest,
        complete: true,
        scenarios: completed,
        aggregates,
        wall_seconds: start.elapsed().as_secs_f64(),
        threads: workers_seen.len(),
        cache_hits: 0,
        cache_misses: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::comm::CommStats;
    use crate::metrics::RUN_RECORD_SCHEMA_VERSION;
    use middle_data::Task;

    fn tiny() -> SimConfig {
        SimConfig::tiny(Task::Mnist, Algorithm::middle())
    }

    /// A record of the `k2-tc4-base` cell with no optional axis swept
    /// and an empty run; tests override the fields they exercise.
    fn bare_record(label: &str, seed: u64) -> ScenarioRecord {
        ScenarioRecord {
            index: 0,
            label: label.to_string(),
            p: None,
            k: 2,
            sync_period: 4,
            seed,
            preset: "base".to_string(),
            compression: None,
            algorithm: None,
            execution: None,
            record: RunRecord {
                schema_version: RUN_RECORD_SCHEMA_VERSION,
                algorithm: "MIDDLE".to_string(),
                task: "mnist".to_string(),
                points: Vec::new(),
                empirical_mobility: 0.5,
                wall_seconds: 0.0,
                comm: CommStats::default(),
                syncs: 0,
                active_steps: 0,
                param_count: 0,
                telemetry: None,
                event_seconds: None,
            },
        }
    }

    #[test]
    fn empty_axes_expand_to_the_base_scenario() {
        let grid = ScenarioGrid::new(tiny());
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.k, 2);
        assert_eq!(s.sync_period, 4);
        assert_eq!(s.seed, 7);
        assert_eq!(s.preset, "base");
        assert_eq!(s.p, None);
        assert_eq!(s.label, "k2-tc4-base-s7");
    }

    #[test]
    fn cartesian_expansion_covers_every_combination() {
        let grid = ScenarioGrid::new(tiny())
            .with_mobility_ps([0.1, 0.9])
            .with_selection_sizes([2usize, 3])
            .with_sync_periods([2usize, 4])
            .with_seeds([7u64, 8, 9]);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 2 * 2 * 2 * 3);
        // Labels are unique and indices match positions.
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        let mut labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), scenarios.len());
        // Seed is the innermost axis.
        assert_eq!(scenarios[0].seed, 7);
        assert_eq!(scenarios[1].seed, 8);
        assert_eq!(scenarios[2].seed, 9);
        assert_eq!(scenarios[0].p, Some(0.1));
    }

    #[test]
    fn compression_axis_expands_and_labels_scenarios() {
        let lossy = CompressionConfig {
            enabled: true,
            quantize_bits: 8,
            top_frac: 0.25,
            ..CompressionConfig::default()
        };
        let grid = ScenarioGrid::new(tiny()).with_compression_presets([
            CompressionPreset::dense(),
            CompressionPreset {
                name: "q8k25".to_string(),
                compression: lossy.clone(),
            },
        ]);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].label, "k2-tc4-base-cdense-s7");
        assert_eq!(scenarios[0].compression.as_deref(), Some("dense"));
        assert!(!scenarios[0].config.compression.lossy_active());
        assert_eq!(scenarios[1].label, "k2-tc4-base-cq8k25-s7");
        assert_eq!(scenarios[1].config.compression, lossy);
        // An unset axis leaves labels untouched (pinned elsewhere too).
        let plain = ScenarioGrid::new(tiny()).scenarios().unwrap();
        assert_eq!(plain[0].label, "k2-tc4-base-s7");
        assert_eq!(plain[0].compression, None);
    }

    #[test]
    fn algorithm_axis_expands_and_labels_scenarios() {
        let grid = ScenarioGrid::new(tiny())
            .with_algorithms([Algorithm::middle(), Algorithm::fedfly()])
            .with_seeds([7u64, 8]);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].label, "k2-tc4-base-amiddle-s7");
        assert_eq!(scenarios[0].algorithm.as_deref(), Some("MIDDLE"));
        assert_eq!(scenarios[0].config.algorithm, Algorithm::middle());
        assert_eq!(scenarios[2].label, "k2-tc4-base-afedfly-s7");
        assert_eq!(scenarios[2].algorithm.as_deref(), Some("FedFly"));
        assert!(scenarios[2].config.algorithm.migrate_in_flight);
        // Seed stays the innermost axis, inside the algorithm axis.
        assert_eq!(scenarios[1].label, "k2-tc4-base-amiddle-s8");
        // An unset axis leaves labels and records untouched.
        let plain = ScenarioGrid::new(tiny()).scenarios().unwrap();
        assert_eq!(plain[0].label, "k2-tc4-base-s7");
        assert_eq!(plain[0].algorithm, None);
        assert_eq!(plain[0].config.algorithm, tiny().algorithm);
    }

    #[test]
    fn algorithm_cells_aggregate_separately() {
        let mk = |algo: &str, seed: u64| ScenarioRecord {
            algorithm: Some(algo.to_string()),
            ..bare_record(
                &format!("k2-tc4-base-a{}-s{seed}", algo.to_lowercase()),
                seed,
            )
        };
        let records = vec![mk("MIDDLE", 7), mk("MIDDLE", 8), mk("FedFly", 7)];
        let aggs = aggregate(&records);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].label, "k2-tc4-base-amiddle");
        assert_eq!(aggs[0].seeds, 2);
        assert_eq!(aggs[1].algorithm.as_deref(), Some("FedFly"));
    }

    #[test]
    fn execution_labels_derive_from_the_config() {
        let event = TimelineConfig::event_driven_zero_delay();
        let variant = |edge_threshold, cloud_timer| TimelineConfig {
            edge_threshold,
            cloud_timer,
            ..event
        };
        let grid = ScenarioGrid::new(tiny()).with_execution_modes([
            TimelineConfig::default(),
            event,
            variant(Some(2), None),
            variant(None, Some(10.0)),
            variant(Some(2), Some(10.0)),
        ]);
        let scenarios = grid.scenarios().unwrap();
        let labels: Vec<&str> = scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                // The two default configs keep their pre-derivation labels.
                "k2-tc4-base-xlock-s7",
                "k2-tc4-base-xevent-s7",
                "k2-tc4-base-xevent-k2-s7",
                "k2-tc4-base-xevent-t10-s7",
                "k2-tc4-base-xevent-k2-t10-s7",
            ]
        );
        assert_eq!(scenarios[2].execution.as_deref(), Some("event-k2"));
        assert_eq!(scenarios[2].config.timeline.edge_threshold, Some(2));

        // Two event variants are two aggregate cells, not two seeds of one.
        let records: Vec<ScenarioRecord> = scenarios[1..3]
            .iter()
            .map(|s| ScenarioRecord {
                execution: s.execution.clone(),
                ..bare_record(&s.label, s.seed)
            })
            .collect();
        let aggs = aggregate(&records);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].label, "k2-tc4-base-xevent");
        assert_eq!(aggs[1].label, "k2-tc4-base-xevent-k2");
    }

    #[test]
    fn duplicate_labels_fail_expansion_on_every_axis() {
        let dup = |grid: ScenarioGrid| {
            let err = grid.scenarios().unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
            assert!(err.to_string().contains("label appears twice"), "{err}");
        };
        dup(ScenarioGrid::new(tiny()).with_seeds([7u64, 7]));
        dup(ScenarioGrid::new(tiny()).with_selection_sizes([2usize, 2]));
        dup(ScenarioGrid::new(tiny())
            .with_fault_presets([FaultPreset::clean(), FaultPreset::clean()]));
        dup(ScenarioGrid::new(tiny())
            .with_compression_presets([CompressionPreset::dense(), CompressionPreset::dense()]));
        dup(ScenarioGrid::new(tiny()).with_algorithms([Algorithm::middle(), Algorithm::middle()]));
        // Event configs that differ only in a field the label does not
        // carry are one label, hence rejected rather than pooled.
        let event = TimelineConfig::event_driven_zero_delay();
        dup(ScenarioGrid::new(tiny()).with_execution_modes([
            event,
            TimelineConfig {
                step_duration: 2.0,
                ..event
            },
        ]));
    }

    #[test]
    fn mobility_axis_rejects_bases_without_a_p_knob() {
        let mut cfg = tiny();
        cfg.mobility = MobilitySource::Stationary;
        let err = ScenarioGrid::new(cfg)
            .with_mobility_ps([0.5])
            .scenarios()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn invalid_derived_configs_fail_expansion_with_the_label() {
        let err = ScenarioGrid::new(tiny())
            .with_selection_sizes([1000usize])
            .scenarios()
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("k1000"), "{text}");
    }

    #[test]
    fn digest_tracks_the_grid() {
        let a = ScenarioGrid::new(tiny()).digest().unwrap();
        let b = ScenarioGrid::new(tiny())
            .with_seeds([8u64])
            .digest()
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(a, ScenarioGrid::new(tiny()).digest().unwrap());
    }

    #[test]
    fn sweep_state_with_leases_round_trips() {
        let state = SweepState {
            schema_version: SWEEP_REPORT_SCHEMA_VERSION,
            grid_digest: 0xdead_beef,
            records: vec![None, None],
            leases: vec![ShardLease {
                shard: 1,
                worker: "w0".to_string(),
                granted_unix_ms: 1_786_308_300_853,
                heartbeat_unix_ms: 1_786_308_302_154,
            }],
            shard_size: 2,
        };
        let json = serde_json::to_string(&state).unwrap();
        let back: SweepState = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("state must round-trip: {e}\n{json}"));
        assert_eq!(back.leases, state.leases);
        assert_eq!(back.shard_size, 2);
        // Legacy pre-fleet ledgers (no leases/shard_size) still parse.
        let legacy = r#"{"schema_version":1,"grid_digest":7,"records":[null]}"#;
        let old: SweepState = serde_json::from_str(legacy).unwrap();
        assert!(old.leases.is_empty());
        assert_eq!(old.shard_size, 1);
    }

    #[test]
    fn unswept_axis_records_round_trip_through_the_ledger() {
        // Grids that pin (rather than sweep) the mobility / compression
        // axes produce records with `p: None` / `compression: None`.
        // Those fields are skipped on serialize, so deserialize must
        // default them — a ledger written by one worker has to parse in
        // every other process of the fleet.
        let record = bare_record("k2-tc4-base-s7", 7);
        let state = SweepState {
            schema_version: SWEEP_REPORT_SCHEMA_VERSION,
            grid_digest: 42,
            records: vec![Some(record), None],
            leases: Vec::new(),
            shard_size: 1,
        };
        let json = serde_json::to_string(&state).unwrap();
        let back: SweepState = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("ledger must round-trip: {e}\n{json}"));
        let rec = back.records[0].as_ref().unwrap();
        assert_eq!(rec.p, None);
        assert_eq!(rec.compression, None);
        assert_eq!(rec.label, "k2-tc4-base-s7");
    }

    #[test]
    fn mean_std_ci_handles_single_and_multiple_samples() {
        let (m, s, c) = mean_std_ci(&[0.5]);
        assert_eq!((m, s, c), (0.5, 0.0, 0.0));
        let (m, s, c) = mean_std_ci(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert!((c - 1.96 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn aggregates_group_across_seeds_only() {
        let mk = |k: usize, seed: u64, acc: f32| {
            let mut r = bare_record(&format!("k{k}-tc4-base-s{seed}"), seed);
            r.k = k;
            r.record.points.push(crate::metrics::EvalPoint {
                step: 1,
                global_accuracy: acc,
                global_loss: 0.0,
                edge_accuracy: Vec::new(),
                global_per_class: Vec::new(),
                edge0_per_class: Vec::new(),
            });
            r
        };
        let records = vec![mk(2, 7, 0.4), mk(2, 8, 0.6), mk(3, 7, 0.8)];
        let aggs = aggregate(&records);
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].seeds, 2);
        assert!((aggs[0].final_mean - 0.5).abs() < 1e-6);
        assert_eq!(aggs[1].seeds, 1);
        assert_eq!(aggs[1].k, 3);
    }

    /// Threads of one process replacing one snapshot (two live fleet
    /// workers that both reclaimed a shard) must each own their tmp
    /// file: with a shared one, whoever renames second finds it gone.
    #[test]
    fn write_atomic_survives_concurrent_writers_of_one_path() {
        const WRITERS: usize = 4;
        const ROUNDS: usize = 200;
        let dir = std::env::temp_dir().join(format!("middle_write_atomic_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario_0.ckpt.json");
        // Long enough that a torn file could not pass for a whole one.
        let contents = |writer: usize, round: usize| format!("{writer} {round} ").repeat(4096);
        let barrier = std::sync::Barrier::new(WRITERS);
        // Failures are collected, not panicked on: a writer that left the
        // loop would leave the others waiting at the barrier for ever.
        let failures = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for writer in 0..WRITERS {
                let (path, dir, barrier, contents, failures) =
                    (&path, &dir, &barrier, &contents, &failures);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        if let Err(e) = write_atomic(path, &contents(writer, round), true) {
                            failures.lock().unwrap().push(format!("round {round}: {e}"));
                        }
                        if barrier.wait().is_leader() {
                            let on_disk = fs::read_to_string(path).unwrap_or_default();
                            if !(0..WRITERS).any(|w| on_disk == contents(w, round)) {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("round {round}: not one writer's contents"));
                            }
                            let names: Vec<_> = fs::read_dir(dir)
                                .unwrap()
                                .map(|entry| entry.unwrap().file_name())
                                .collect();
                            if names != ["scenario_0.ckpt.json"] {
                                failures
                                    .lock()
                                    .unwrap()
                                    .push(format!("round {round}: litter {names:?}"));
                            }
                        }
                    }
                });
            }
        });
        let failures = failures.into_inner().unwrap();
        assert!(failures.is_empty(), "{failures:#?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
