//! The telemetry plane: per-phase step tracing, latency histograms and
//! simulation counters.
//!
//! The ROADMAP's north star is a production-scale system, and a
//! production loop must be observable: where does a step spend its
//! time, how are selection/training/aggregation latencies distributed,
//! and do the zero-copy hot paths (DESIGN.md §6) stay fast? This module
//! instruments [`crate::Simulation`] with:
//!
//! * monotonic per-phase timers ([`Phase`]) accumulated into a
//!   [`StepProbe`] during each step;
//! * fixed-bucket log2 [`LatencyHistogram`]s (one per phase plus one for
//!   the whole step) with p50/p95/p99 summaries;
//! * per-run [`StepCounters`] (candidates seen, availability drops,
//!   selections, moved-device inits, downloads, uploads, syncs) whose
//!   totals match the corrected [`crate::CommStats`] accounting exactly;
//! * an optional JSONL per-step event sink (one line per step) behind
//!   `SimConfig::telemetry_jsonl`, so figure runs are replayable.
//!
//! ## Overhead contract
//!
//! When disabled (the default), the recorder is a no-op: no allocation,
//! no `Instant::now` call, no histogram update — every entry point
//! checks one boolean and returns. When enabled, all state lives in
//! fixed-size arrays owned by the [`Telemetry`] value; the only
//! allocation is the buffered JSONL sink, and only when a sink path is
//! configured. `tests/telemetry_plane.rs` holds both halves of the
//! contract (disabled is a no-op, enabled is bitwise non-perturbing);
//! what the enabled recorder costs is `perf`'s `telemetry.overhead_frac`.

use crate::config::SimConfig;
use crate::timeline::{EventKind, EVENT_KIND_COUNT, EVENT_KIND_LABELS};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// The instrumented phases of the simulation loop (Algorithm 1 plus the
/// harness's evaluation pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fault-plane recovery work at step begin: advancing dropout
    /// chains and applying stale similarity-weighted merges for
    /// deadline-missed uploads from the previous step (see
    /// [`crate::faults`]).
    FaultRecovery,
    /// In-edge candidate collection, availability filtering and device
    /// selection (§4.3).
    Selection,
    /// Writing each selected device's initial model: edge-model download
    /// or on-device aggregation for moved devices (§4.2).
    DeviceInit,
    /// Parallel local SGD on the participating devices (Eq. 5).
    LocalTraining,
    /// Edge FedAvg of the uploaded local models (Eq. 6).
    EdgeAggregation,
    /// Compressing uplink deltas and reconstructing them receiver-side
    /// (quantization + top-K + error feedback; see [`crate::compress`]).
    Compress,
    /// Cloud aggregation + broadcast every `T_c` steps (Eq. 7).
    CloudSync,
    /// Held-out evaluation of the (virtual) global model.
    Evaluation,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 8;

    /// Every phase, in loop order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::FaultRecovery,
        Phase::Selection,
        Phase::DeviceInit,
        Phase::LocalTraining,
        Phase::EdgeAggregation,
        Phase::Compress,
        Phase::CloudSync,
        Phase::Evaluation,
    ];

    /// Stable snake_case name (JSONL keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            Phase::FaultRecovery => "fault_recovery",
            Phase::Selection => "selection",
            Phase::DeviceInit => "device_init",
            Phase::LocalTraining => "local_training",
            Phase::EdgeAggregation => "edge_aggregation",
            Phase::Compress => "compress",
            Phase::CloudSync => "cloud_sync",
            Phase::Evaluation => "evaluation",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds, so the histogram spans 1 ns to ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket log2 latency histogram.
///
/// Observations are nanosecond durations; bucket `i` counts values whose
/// floor-log2 is `i` (clamped to the last bucket). Quantiles are
/// resolved to the upper edge of the containing bucket, clamped to the
/// observed min/max, which bounds the quantile error to one octave —
/// plenty for "did p99 regress 2×" questions at zero allocation cost.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn observe(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Largest observed duration (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0 < q <= 1`), resolved to the upper edge of
    /// the containing log2 bucket and clamped to the observed range.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let upper = if i + 1 >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Summarises the histogram under `name`.
    pub fn summary(&self, name: &str) -> PhaseSummary {
        PhaseSummary {
            phase: name.to_string(),
            count: self.count,
            total_ns: self.total_ns,
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            max_ns: self.max_ns,
        }
    }
}

/// Simulation event counters accumulated over a run.
///
/// These mirror the corrected [`crate::CommStats`] bookkeeping: when
/// telemetry is enabled, `downloads == edge_to_device`,
/// `uploads == device_to_edge`, and `syncs × num_edges / num_devices`
/// reproduce the WAN and broadcast counters (asserted by
/// `crates/core/tests/telemetry_plane.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCounters {
    /// Steps observed.
    pub steps: u64,
    /// Steps where at least one edge selected at least one device —
    /// the wireless-round count of [`crate::CommStats::wall_clock`].
    pub active_steps: u64,
    /// Candidate devices seen across all edges before availability
    /// filtering.
    pub candidates_seen: u64,
    /// Candidates dropped by the availability (straggler) filter.
    pub availability_drops: u64,
    /// Devices selected for participation.
    pub selected: u64,
    /// Selected devices that had just moved and ran on-device
    /// aggregation instead of a plain download.
    pub moved_inits: u64,
    /// Edge → device model downloads actually performed (a moved device
    /// under `OnDevicePolicy::KeepLocal` never downloads).
    pub downloads: u64,
    /// Device → edge model uploads, counting every wireless
    /// transmission attempt (retransmissions included, matching
    /// [`crate::CommStats::device_to_edge`]).
    pub uploads: u64,
    /// Cloud synchronisations, counted where the ledger counts them
    /// (`RunRecord::syncs`) — a sync that lands after the final step
    /// closed included.
    pub syncs: u64,
    /// Candidates dropped by the fault-plane dropout process
    /// (on top of `availability_drops`).
    #[serde(default)]
    pub dropout_drops: u64,
    /// Selected devices excluded from edge aggregation by the straggler
    /// deadline; their update lands as a stale merge next step.
    #[serde(default)]
    pub deadline_misses: u64,
    /// Stale similarity-weighted merges applied (one per deadline miss,
    /// one step later).
    #[serde(default)]
    pub stale_merges: u64,
    /// Wireless upload retransmissions caused by fault-plane loss.
    #[serde(default)]
    pub upload_retransmissions: u64,
    /// Uploads abandoned after exhausting the retry budget.
    #[serde(default)]
    pub lost_uploads: u64,
    /// Edges that selected a cohort but received none of its uploads
    /// (edge aggregation skipped, edge model carried forward).
    #[serde(default)]
    pub empty_cohorts: u64,
    /// Edge syncs skipped because the edge's WAN link was down.
    #[serde(default)]
    pub wan_outages: u64,
    /// Device → edge uploads rewritten by the compression plane
    /// (quantized + sparsified, counted once per compressed payload —
    /// retransmissions of the same payload are not recompressed).
    #[serde(default)]
    pub compressed_uploads: u64,
    /// Edge → cloud sync uploads rewritten by the compression plane.
    #[serde(default)]
    pub compressed_syncs: u64,
}

impl StepCounters {
    fn merge(&mut self, other: &StepCounters) {
        self.steps += other.steps;
        self.active_steps += other.active_steps;
        self.candidates_seen += other.candidates_seen;
        self.availability_drops += other.availability_drops;
        self.selected += other.selected;
        self.moved_inits += other.moved_inits;
        self.downloads += other.downloads;
        self.uploads += other.uploads;
        self.syncs += other.syncs;
        self.dropout_drops += other.dropout_drops;
        self.deadline_misses += other.deadline_misses;
        self.stale_merges += other.stale_merges;
        self.upload_retransmissions += other.upload_retransmissions;
        self.lost_uploads += other.lost_uploads;
        self.empty_cohorts += other.empty_cohorts;
        self.wan_outages += other.wan_outages;
        self.compressed_uploads += other.compressed_uploads;
        self.compressed_syncs += other.compressed_syncs;
    }
}

/// Per-step scratch carried through one `step` call: phase durations and
/// event counts, all no-ops while telemetry is disabled.
///
/// Usage inside the step: [`StepProbe::start`] opens a timed segment,
/// [`StepProbe::stop`] closes it into a phase (segments of the same
/// phase accumulate). The probe is consumed by [`Telemetry::end_step`].
#[derive(Debug)]
pub struct StepProbe {
    enabled: bool,
    step_start: Option<Instant>,
    seg_start: Option<Instant>,
    phase_ns: [u64; Phase::COUNT],
    counters: StepCounters,
}

impl StepProbe {
    fn new(enabled: bool) -> Self {
        StepProbe {
            enabled,
            step_start: if enabled { Some(Instant::now()) } else { None },
            seg_start: None,
            phase_ns: [0; Phase::COUNT],
            counters: StepCounters::default(),
        }
    }

    /// Opens a timed segment (no-op when disabled).
    #[inline]
    pub fn start(&mut self) {
        if self.enabled {
            self.seg_start = Some(Instant::now());
        }
    }

    /// Closes the open segment into `phase` (no-op when disabled).
    #[inline]
    pub fn stop(&mut self, phase: Phase) {
        if let Some(s) = self.seg_start.take() {
            self.phase_ns[phase.index()] += s.elapsed().as_nanos() as u64;
        }
    }

    /// Records one edge's candidate set: `seen` before filtering,
    /// `dropped` removed by the availability filter.
    #[inline]
    pub fn candidates(&mut self, seen: usize, dropped: usize) {
        if self.enabled {
            self.counters.candidates_seen += seen as u64;
            self.counters.availability_drops += dropped as u64;
        }
    }

    /// Records one edge's selection outcome. Uploads are counted
    /// separately ([`StepProbe::uploads`]) because the fault plane can
    /// retransmit, delay or lose them.
    #[inline]
    pub fn selected(&mut self, n: usize) {
        if self.enabled {
            self.counters.selected += n as u64;
        }
    }

    /// Records device → edge wireless upload transmissions (every
    /// attempt, mirroring [`crate::CommStats::device_to_edge`]).
    #[inline]
    pub fn uploads(&mut self, n: u64) {
        if self.enabled {
            self.counters.uploads += n;
        }
    }

    /// Records one moved-device on-device init.
    #[inline]
    pub fn moved_init(&mut self) {
        if self.enabled {
            self.counters.moved_inits += 1;
        }
    }

    /// Records edge → device downloads actually performed.
    #[inline]
    pub fn downloads(&mut self, n: u64) {
        if self.enabled {
            self.counters.downloads += n;
        }
    }

    /// Records candidates removed by the fault-plane dropout process.
    #[inline]
    pub fn dropout_drops(&mut self, n: usize) {
        if self.enabled {
            self.counters.dropout_drops += n as u64;
        }
    }

    /// Records one straggler deadline miss.
    #[inline]
    pub fn deadline_miss(&mut self) {
        if self.enabled {
            self.counters.deadline_misses += 1;
        }
    }

    /// Records one stale merge applied this step.
    #[inline]
    pub fn stale_merge(&mut self) {
        if self.enabled {
            self.counters.stale_merges += 1;
        }
    }

    /// Records the retry outcome of one upload: `retries`
    /// retransmissions, plus whether the upload was ultimately lost.
    #[inline]
    pub fn upload_retries(&mut self, retries: u64, lost: bool) {
        if self.enabled {
            self.counters.upload_retransmissions += retries;
            self.counters.lost_uploads += u64::from(lost);
        }
    }

    /// Records one edge whose whole selected cohort failed to deliver.
    #[inline]
    pub fn empty_cohort(&mut self) {
        if self.enabled {
            self.counters.empty_cohorts += 1;
        }
    }

    /// Records one cloud synchronisation, where the ledger counts it.
    #[inline]
    pub fn sync(&mut self) {
        if self.enabled {
            self.counters.syncs += 1;
        }
    }

    /// Records one edge sync skipped by a WAN outage.
    #[inline]
    pub fn wan_outage(&mut self) {
        if self.enabled {
            self.counters.wan_outages += 1;
        }
    }

    /// Records `n` device → edge uploads compressed this step.
    #[inline]
    pub fn compressed_uploads(&mut self, n: u64) {
        if self.enabled {
            self.counters.compressed_uploads += n;
        }
    }

    /// Records `n` edge → cloud sync uploads compressed this step.
    #[inline]
    pub fn compressed_syncs(&mut self, n: u64) {
        if self.enabled {
            self.counters.compressed_syncs += n;
        }
    }
}

/// Latency summary of one phase (or of the whole step).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name (snake_case, [`Phase::name`]).
    pub phase: String,
    /// Number of observations (steps in which the phase ran).
    pub count: u64,
    /// Total time spent in the phase.
    pub total_ns: u64,
    /// Median per-step latency (log2-bucket upper edge).
    pub p50_ns: u64,
    /// 95th-percentile per-step latency.
    pub p95_ns: u64,
    /// 99th-percentile per-step latency.
    pub p99_ns: u64,
    /// Worst per-step latency.
    pub max_ns: u64,
}

/// The serialisable end-of-run telemetry summary attached to
/// [`crate::RunRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Per-phase summaries in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSummary>,
    /// Whole-step latency summary (phase timers excluded from nothing:
    /// this is the wall-clock of one round of `Simulation::tick`, its
    /// evaluation aside).
    pub step: PhaseSummary,
    /// Event counters for the run.
    pub counters: StepCounters,
    /// Per-event-kind host-time summaries (event-driven runs only;
    /// empty — and absent from JSON — for lockstep runs).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub events: Vec<PhaseSummary>,
}

impl TelemetryReport {
    /// The summary for `phase`, when present.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase.name())
    }

    /// Total nanoseconds attributed to in-step phases (everything except
    /// `evaluation`, which `Simulation::tick` runs after the round). The
    /// telemetry tests pin this to the measured step wall-clock.
    pub fn step_phase_total_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.phase != Phase::Evaluation.name())
            .map(|p| p.total_ns)
            .sum()
    }

    /// Renders the report as an aligned text table (bench-bin output).
    pub fn summary_table(&self) -> String {
        let mut out = format!(
            "{:<18} {:>6} {:>12} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total(ms)", "p50(us)", "p95(us)", "p99(us)"
        );
        for p in self
            .phases
            .iter()
            .chain(self.events.iter())
            .chain(std::iter::once(&self.step))
        {
            out.push_str(&format!(
                "{:<18} {:>6} {:>12.2} {:>10.1} {:>10.1} {:>10.1}\n",
                p.phase,
                p.count,
                p.total_ns as f64 / 1e6,
                p.p50_ns as f64 / 1e3,
                p.p95_ns as f64 / 1e3,
                p.p99_ns as f64 / 1e3,
            ));
        }
        let c = &self.counters;
        out.push_str(&format!(
            "steps {} ({} active), candidates {} (-{} dropped), selected {}, \
             moved inits {}, downloads {}, uploads {}, syncs {}",
            c.steps,
            c.active_steps,
            c.candidates_seen,
            c.availability_drops,
            c.selected,
            c.moved_inits,
            c.downloads,
            c.uploads,
            c.syncs,
        ));
        let faults = c.dropout_drops
            + c.deadline_misses
            + c.stale_merges
            + c.upload_retransmissions
            + c.lost_uploads
            + c.empty_cohorts
            + c.wan_outages;
        if faults > 0 {
            out.push_str(&format!(
                "\nfaults: dropout drops {}, deadline misses {}, stale merges {}, \
                 retransmissions {}, lost uploads {}, empty cohorts {}, wan outages {}",
                c.dropout_drops,
                c.deadline_misses,
                c.stale_merges,
                c.upload_retransmissions,
                c.lost_uploads,
                c.empty_cohorts,
                c.wan_outages,
            ));
        }
        if c.compressed_uploads + c.compressed_syncs > 0 {
            out.push_str(&format!(
                "\ncompression: compressed uploads {}, compressed syncs {}",
                c.compressed_uploads, c.compressed_syncs,
            ));
        }
        out
    }
}

/// The per-simulation telemetry recorder.
///
/// Constructed disabled by default; [`SimConfig::telemetry`] (or a
/// configured JSONL path) turns it on. See the module docs for the
/// overhead contract.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    phase_hist: [LatencyHistogram; Phase::COUNT],
    step_hist: LatencyHistogram,
    event_hist: [LatencyHistogram; EVENT_KIND_COUNT],
    counters: StepCounters,
    sink: Option<BufWriter<File>>,
}

impl Telemetry {
    /// A permanently-disabled recorder (every call is a no-op).
    pub fn disabled() -> Self {
        Telemetry::new(false, None)
    }

    /// Creates a recorder; when `jsonl_path` is set the recorder is
    /// enabled regardless of `enabled` and appends one event line per
    /// step to the file (truncating any previous content). A sink that
    /// cannot be opened is reported to stderr and dropped — the run
    /// proceeds with in-memory telemetry only.
    pub fn new(enabled: bool, jsonl_path: Option<&str>) -> Self {
        let sink = jsonl_path.and_then(|path| match File::create(path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                eprintln!("[telemetry] cannot open JSONL sink {path}: {e}");
                None
            }
        });
        Telemetry {
            enabled: enabled || sink.is_some(),
            phase_hist: Default::default(),
            step_hist: LatencyHistogram::default(),
            event_hist: Default::default(),
            counters: StepCounters::default(),
            sink,
        }
    }

    /// Builds the recorder described by a simulation config.
    pub fn from_config(config: &SimConfig) -> Self {
        Telemetry::new(config.telemetry, config.telemetry_jsonl.as_deref())
    }

    /// Whether the recorder is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a per-step probe (records the step start time when
    /// enabled).
    pub fn begin_step(&self) -> StepProbe {
        StepProbe::new(self.enabled)
    }

    /// Closes a step: observes the step + phase histograms, merges the
    /// probe's counters, and emits the JSONL event when a sink is
    /// configured. `synced` is only the JSONL line's `sync` flag; the
    /// sync counter is the probe's ([`StepProbe::sync`]).
    pub fn end_step(&mut self, t: usize, active: bool, synced: bool, mut probe: StepProbe) {
        if !self.enabled {
            return;
        }
        let step_ns = probe
            .step_start
            .take()
            .map_or(0, |s| s.elapsed().as_nanos() as u64);
        self.step_hist.observe(step_ns);
        for (i, &ns) in probe.phase_ns.iter().enumerate() {
            if ns > 0 {
                self.phase_hist[i].observe(ns);
            }
        }
        probe.counters.steps = 1;
        probe.counters.active_steps = u64::from(active);
        self.counters.merge(&probe.counters);
        if let Some(w) = &mut self.sink {
            let c = &probe.counters;
            let p = &probe.phase_ns;
            let line = writeln!(
                w,
                "{{\"step\":{t},\"active\":{active},\"sync\":{synced},\"step_ns\":{step_ns},\
                 \"selection_ns\":{},\"device_init_ns\":{},\"local_training_ns\":{},\
                 \"edge_aggregation_ns\":{},\"compress_ns\":{},\"cloud_sync_ns\":{},\
                 \"fault_recovery_ns\":{},\
                 \"candidates\":{},\"dropped\":{},\"selected\":{},\"moved_inits\":{},\
                 \"downloads\":{},\"uploads\":{},\"dropout_drops\":{},\"deadline_misses\":{},\
                 \"stale_merges\":{},\"retransmissions\":{},\"lost_uploads\":{},\
                 \"empty_cohorts\":{},\"wan_outages\":{},\
                 \"compressed_uploads\":{},\"compressed_syncs\":{}}}",
                p[Phase::Selection.index()],
                p[Phase::DeviceInit.index()],
                p[Phase::LocalTraining.index()],
                p[Phase::EdgeAggregation.index()],
                p[Phase::Compress.index()],
                p[Phase::CloudSync.index()],
                p[Phase::FaultRecovery.index()],
                c.candidates_seen,
                c.availability_drops,
                c.selected,
                c.moved_inits,
                c.downloads,
                c.uploads,
                c.dropout_drops,
                c.deadline_misses,
                c.stale_merges,
                c.upload_retransmissions,
                c.lost_uploads,
                c.empty_cohorts,
                c.wan_outages,
                c.compressed_uploads,
                c.compressed_syncs,
            );
            if let Err(e) = line {
                eprintln!("[telemetry] JSONL sink write failed, disabling: {e}");
                self.sink = None;
            }
        }
    }

    /// Starts an event-processing timer (event-driven mode); pair with
    /// [`Telemetry::observe_event_since`]. `None` while disabled.
    pub fn event_timer(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes an event timer into the per-kind histogram for `kind`.
    pub fn observe_event_since(&mut self, kind: EventKind, start: Option<Instant>) {
        if let Some(s) = start {
            self.event_hist[kind.index()].observe(s.elapsed().as_nanos() as u64);
        }
    }

    /// Merges a probe that ran *between* steps (timer-driven cloud
    /// syncs, late upload arrivals): counters accumulate and any timed
    /// phase segments land in the phase histograms, but no step is
    /// counted — step/active/sync accounting belongs to `end_step`.
    pub fn absorb_probe(&mut self, probe: StepProbe) {
        if !self.enabled {
            return;
        }
        for (i, &ns) in probe.phase_ns.iter().enumerate() {
            if ns > 0 {
                self.phase_hist[i].observe(ns);
            }
        }
        self.counters.merge(&probe.counters);
    }

    /// Starts an out-of-step phase timer (e.g. evaluation inside
    /// `run`); pair with [`Telemetry::observe_since`].
    pub fn phase_timer(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes an out-of-step phase timer into `phase`.
    pub fn observe_since(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(s) = start {
            self.phase_hist[phase.index()].observe(s.elapsed().as_nanos() as u64);
        }
    }

    /// The run's event counters so far.
    pub fn counters(&self) -> &StepCounters {
        &self.counters
    }

    /// Overwrites the event counters from a checkpoint. Counters are
    /// deterministic and resumable; the latency histograms are host
    /// wall-clock measurements and deliberately start empty after a
    /// restore (see [`crate::checkpoint`]).
    pub fn restore_counters(&mut self, counters: StepCounters) {
        self.counters = counters;
    }

    /// The per-phase latency histogram.
    pub fn phase_histogram(&self, phase: Phase) -> &LatencyHistogram {
        &self.phase_hist[phase.index()]
    }

    /// The whole-step latency histogram.
    pub fn step_histogram(&self) -> &LatencyHistogram {
        &self.step_hist
    }

    /// Flushes the JSONL sink (run teardown; buffered lines would
    /// otherwise only land on drop).
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.sink {
            if let Err(e) = w.flush() {
                eprintln!("[telemetry] JSONL sink flush failed: {e}");
            }
        }
    }

    /// The end-of-run report; `None` while disabled.
    pub fn report(&self) -> Option<TelemetryReport> {
        if !self.enabled {
            return None;
        }
        Some(TelemetryReport {
            phases: Phase::ALL
                .iter()
                .map(|&p| self.phase_hist[p.index()].summary(p.name()))
                .collect(),
            step: self.step_hist.summary("step"),
            counters: self.counters,
            events: self
                .event_hist
                .iter()
                .zip(EVENT_KIND_LABELS.iter())
                .filter(|(h, _)| h.count() > 0)
                .map(|(h, &label)| h.summary(label))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        for ns in [3u64, 5, 9, 17, 33, 65, 129, 1025, 4097, 70_000] {
            h.observe(ns);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
        assert!(p99 <= h.max_ns(), "p99 {p99} max {}", h.max_ns());
        assert!(p50 >= 3, "p50 below min");
        assert_eq!(h.count(), 10);
        assert_eq!(
            h.total_ns(),
            3 + 5 + 9 + 17 + 33 + 65 + 129 + 1025 + 4097 + 70_000
        );
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn single_observation_dominates_all_quantiles() {
        let mut h = LatencyHistogram::default();
        h.observe(1_000_000);
        assert_eq!(h.quantile(0.5), 1_000_000);
        assert_eq!(h.quantile(0.99), 1_000_000);
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut tel = Telemetry::disabled();
        let mut probe = tel.begin_step();
        probe.start();
        probe.stop(Phase::Selection);
        probe.candidates(10, 3);
        probe.selected(4);
        tel.end_step(0, true, true, probe);
        assert!(tel.report().is_none());
        assert_eq!(tel.counters().steps, 0);
        assert_eq!(tel.step_histogram().count(), 0);
    }

    #[test]
    fn enabled_probe_accumulates_counters_and_histograms() {
        let mut tel = Telemetry::new(true, None);
        for t in 0..3 {
            let mut probe = tel.begin_step();
            probe.start();
            probe.stop(Phase::Selection);
            probe.candidates(10, 2);
            probe.selected(4);
            probe.uploads(4);
            probe.moved_init();
            probe.downloads(3);
            if t == 2 {
                probe.sync();
            }
            tel.end_step(t, t != 1, t == 2, probe);
        }
        let report = tel.report().expect("enabled recorder reports");
        assert_eq!(report.counters.steps, 3);
        assert_eq!(report.counters.active_steps, 2);
        assert_eq!(report.counters.syncs, 1);
        assert_eq!(report.counters.candidates_seen, 30);
        assert_eq!(report.counters.availability_drops, 6);
        assert_eq!(report.counters.selected, 12);
        assert_eq!(report.counters.uploads, 12);
        assert_eq!(report.counters.moved_inits, 3);
        assert_eq!(report.counters.downloads, 9);
        assert_eq!(report.step.count, 3);
        assert_eq!(report.phases.len(), Phase::COUNT);
        // The selection segments ran; training never did.
        assert_eq!(report.phase(Phase::Selection).unwrap().count, 3);
        assert_eq!(report.phase(Phase::LocalTraining).unwrap().count, 0);
    }

    #[test]
    fn fault_counters_accumulate_and_render() {
        let mut tel = Telemetry::new(true, None);
        let mut probe = tel.begin_step();
        probe.start();
        probe.stop(Phase::FaultRecovery);
        probe.dropout_drops(3);
        probe.deadline_miss();
        probe.stale_merge();
        probe.upload_retries(2, true);
        probe.empty_cohort();
        probe.wan_outage();
        tel.end_step(0, true, false, probe);
        let report = tel.report().unwrap();
        let c = &report.counters;
        assert_eq!(c.dropout_drops, 3);
        assert_eq!(c.deadline_misses, 1);
        assert_eq!(c.stale_merges, 1);
        assert_eq!(c.upload_retransmissions, 2);
        assert_eq!(c.lost_uploads, 1);
        assert_eq!(c.empty_cohorts, 1);
        assert_eq!(c.wan_outages, 1);
        assert_eq!(report.phase(Phase::FaultRecovery).unwrap().count, 1);
        let table = report.summary_table();
        assert!(table.contains("stale merges 1"), "{table}");
        // A fault-free report keeps the legacy single-line footer.
        let clean = Telemetry::new(true, None).report().unwrap().summary_table();
        assert!(!clean.contains("stale merges"), "{clean}");
    }

    #[test]
    fn legacy_counters_json_still_deserialises() {
        let legacy = r#"{"steps":3,"active_steps":2,"candidates_seen":30,
            "availability_drops":6,"selected":12,"moved_inits":3,
            "downloads":9,"uploads":12,"syncs":1}"#;
        let c: StepCounters = serde_json::from_str(legacy).unwrap();
        assert_eq!(c.uploads, 12);
        assert_eq!(c.dropout_drops, 0);
        assert_eq!(c.wan_outages, 0);
    }

    #[test]
    fn event_histograms_and_absorbed_probes_surface_in_report() {
        let mut tel = Telemetry::new(true, None);
        let start = tel.event_timer();
        assert!(start.is_some());
        tel.observe_event_since(
            EventKind::DeviceUpload {
                edge: 0,
                device: 1,
                wave: 1,
            },
            start,
        );
        tel.observe_event_since(EventKind::CloudSync { timer: true }, tel.event_timer());
        // A between-steps probe: counters land, no step is counted.
        let mut probe = tel.begin_step();
        probe.start();
        probe.stop(Phase::CloudSync);
        probe.uploads(2);
        tel.absorb_probe(probe);
        let report = tel.report().unwrap();
        assert_eq!(report.counters.steps, 0);
        assert_eq!(report.counters.uploads, 2);
        assert_eq!(report.events.len(), 2);
        assert!(report.events.iter().any(|e| e.phase == "device_upload"));
        assert!(report.events.iter().any(|e| e.phase == "cloud_sync"));
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Lockstep reports omit the events key entirely.
        let lockstep = Telemetry::new(true, None).report().unwrap();
        assert!(lockstep.events.is_empty());
        assert!(!serde_json::to_string(&lockstep).unwrap().contains("events"));
        // Disabled recorders absorb probes as no-ops.
        let mut off = Telemetry::disabled();
        assert!(off.event_timer().is_none());
        let p = off.begin_step();
        off.absorb_probe(p);
        assert_eq!(off.counters().uploads, 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut tel = Telemetry::new(true, None);
        let mut probe = tel.begin_step();
        probe.start();
        probe.stop(Phase::LocalTraining);
        probe.selected(2);
        tel.end_step(0, true, false, probe);
        let report = tel.report().unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_table_lists_every_phase() {
        let tel = Telemetry::new(true, None);
        let table = tel.report().unwrap().summary_table();
        for p in Phase::ALL {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
        assert!(table.contains("syncs 0"));
    }
}
