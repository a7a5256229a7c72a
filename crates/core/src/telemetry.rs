//! The telemetry plane: per-phase step timing and the run's event
//! counters.
//!
//! The ROADMAP's north star is a production-scale system, and a
//! production loop must be observable: where does a step spend its
//! time, and what happened in it? [`crate::Simulation`] owns one
//! [`Telemetry`] recorder, which holds the open step itself:
//!
//! * monotonic [`Phase`] segments, summed per step and summarised per
//!   run as count, total and worst step — all any reader takes; the
//!   whole step and each event kind of the event engine are summarised
//!   the same way;
//! * per-run [`StepCounters`]: the counts only the recorder keeps
//!   (candidates, drops, selections, misses, outages, compressions)
//!   plus eight fields copied from the simulation's ledger
//!   ([`crate::CommStats`], syncs, active steps, the step cursor) at
//!   every step close — never counted a second time;
//! * an optional JSONL sink behind `SimConfig::telemetry_jsonl`: one line
//!   per step, reporting everything recorded since the previous line, so
//!   the lines sum to the report.
//!
//! ## Overhead contract
//!
//! When disabled (the default), the recorder is a no-op: no allocation,
//! no `Instant::now` call — every entry point checks one boolean or an
//! empty timer and returns. When enabled, all state lives in fixed-size
//! arrays owned by the [`Telemetry`] value; the only allocations are
//! the buffered JSONL sink and its line's counters, and only when a sink
//! path is configured. `crates/core/tests/telemetry_plane.rs` holds both
//! halves of the contract (disabled is a no-op, enabled is bitwise
//! non-perturbing); what the enabled recorder costs is `perf`'s
//! `telemetry.overhead_frac`.

use crate::builder::SimError;
use crate::comm::CommStats;
use crate::config::SimConfig;
use crate::timeline::{EventKind, EVENT_KIND_COUNT, EVENT_KIND_LABELS};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufWriter, Write};
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
    /// In-edge candidate collection, dropout filtering and device
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

/// Count, total and worst of a series of nanosecond durations.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Tally {
    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn summary(&self, name: &str) -> PhaseSummary {
        PhaseSummary {
            phase: name.to_string(),
            count: self.count,
            total_ns: self.total_ns,
            max_ns: self.max_ns,
        }
    }
}

/// Simulation event counters accumulated over a run.
///
/// Eight fields are the simulation's ledger, copied at every step close
/// rather than counted again: `steps` (the step cursor), `active_steps`,
/// `syncs` (`RunRecord::syncs`, a sync that lands in the event engine's
/// tail drain included), and `uploads`, `downloads`,
/// `upload_retransmissions`, `lost_uploads` and `stale_merges`
/// ([`crate::CommStats`]'s `device_to_edge`, `edge_to_device`,
/// `upload_retransmissions`, `lost_uploads` and `stale_uploads`). The
/// rest only the recorder counts. A checkpoint carries the whole struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCounters {
    /// Steps executed.
    pub steps: u64,
    /// Steps where at least one edge selected at least one device —
    /// the wireless-round count of [`crate::CommStats::wall_clock`].
    pub active_steps: u64,
    /// Candidate devices seen across all edges before dropout
    /// filtering.
    pub candidates_seen: u64,
    /// Devices selected for participation.
    pub selected: u64,
    /// Selected devices that had just moved and ran on-device
    /// aggregation instead of a plain download.
    pub moved_inits: u64,
    /// Edge → device model downloads actually performed (a moved device
    /// under `OnDevicePolicy::KeepLocal` never downloads).
    pub downloads: u64,
    /// Device → edge model uploads, counting every wireless
    /// transmission attempt (retransmissions included).
    pub uploads: u64,
    /// Cloud synchronisations.
    pub syncs: u64,
    /// Candidates dropped by the fault-plane dropout process.
    #[serde(default)]
    pub dropout_drops: u64,
    /// Selected devices excluded from edge aggregation by the straggler
    /// deadline; their update lands as a stale merge next step.
    #[serde(default)]
    pub deadline_misses: u64,
    /// Stale similarity-weighted merges applied (one per deadline miss,
    /// one step later; in the event engine, one per late arrival).
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
    /// Field by field, what was counted since `base`.
    fn since(&self, base: &StepCounters) -> StepCounters {
        StepCounters {
            steps: self.steps - base.steps,
            active_steps: self.active_steps - base.active_steps,
            candidates_seen: self.candidates_seen - base.candidates_seen,
            selected: self.selected - base.selected,
            moved_inits: self.moved_inits - base.moved_inits,
            downloads: self.downloads - base.downloads,
            uploads: self.uploads - base.uploads,
            syncs: self.syncs - base.syncs,
            dropout_drops: self.dropout_drops - base.dropout_drops,
            deadline_misses: self.deadline_misses - base.deadline_misses,
            stale_merges: self.stale_merges - base.stale_merges,
            upload_retransmissions: self.upload_retransmissions - base.upload_retransmissions,
            lost_uploads: self.lost_uploads - base.lost_uploads,
            empty_cohorts: self.empty_cohorts - base.empty_cohorts,
            wan_outages: self.wan_outages - base.wan_outages,
            compressed_uploads: self.compressed_uploads - base.compressed_uploads,
            compressed_syncs: self.compressed_syncs - base.compressed_syncs,
        }
    }
}

/// Timing summary of one phase, one event kind or the whole step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name (snake_case, [`Phase::name`]).
    pub phase: String,
    /// Number of observations: steps in which the phase ran (for
    /// `evaluation`, evaluation passes; for an event kind, events).
    pub count: u64,
    /// Total time spent in the phase.
    pub total_ns: u64,
    /// Worst single observation.
    pub max_ns: u64,
}

/// The serialisable end-of-run telemetry summary attached to
/// [`crate::RunRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Per-phase summaries in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSummary>,
    /// Whole-step summary: the wall-clock of each `Simulation::tick`,
    /// its evaluation aside.
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
}

/// The per-simulation telemetry recorder, holding the open step.
///
/// Disabled unless [`SimConfig::telemetry`] (or a configured JSONL
/// path) turns it on. See the module docs for the overhead contract.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    // The open step: when it began (`None` between steps) and the time
    // each phase has taken in it so far.
    step_start: Option<Instant>,
    step_phase_ns: [u64; Phase::COUNT],
    phases: [Tally; Phase::COUNT],
    step: Tally,
    events: [Tally; EVENT_KIND_COUNT],
    // Run totals (the ledger's fields as of the last closed step), and
    // the totals the last JSONL line reported.
    counters: StepCounters,
    line_base: StepCounters,
    sink: Option<BufWriter<File>>,
}

impl Telemetry {
    /// Builds the recorder described by a simulation config; a JSONL
    /// path enables it and is truncated.
    ///
    /// # Errors
    /// [`SimError::Io`] when the JSONL sink cannot be created.
    pub(crate) fn from_config(config: &SimConfig) -> Result<Self, SimError> {
        let sink = match config.telemetry_jsonl.as_deref() {
            Some(path) => Some(BufWriter::new(File::create(path).map_err(|e| {
                SimError::Io {
                    path: path.to_string(),
                    message: e.to_string(),
                }
            })?)),
            None => None,
        };
        Ok(Telemetry {
            enabled: config.telemetry_enabled(),
            step_start: None,
            step_phase_ns: [0; Phase::COUNT],
            phases: Default::default(),
            step: Tally::default(),
            events: Default::default(),
            counters: StepCounters::default(),
            line_base: StepCounters::default(),
            sink,
        })
    }

    /// Whether the recorder is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a timer for [`Telemetry::stop`] or
    /// [`Telemetry::stop_event`]; `None` while disabled.
    #[inline]
    pub(crate) fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Closes a timer into `phase`: a segment of the open step (segments
    /// of one phase add up), or, between steps, one observation of its
    /// own.
    #[inline]
    pub(crate) fn stop(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(s) = start {
            let ns = s.elapsed().as_nanos() as u64;
            if self.step_start.is_some() {
                self.step_phase_ns[phase.index()] += ns;
            } else {
                self.phases[phase.index()].observe(ns);
            }
        }
    }

    /// Closes a timer into the summary of event kind `kind`.
    #[inline]
    pub(crate) fn stop_event(&mut self, kind: EventKind, start: Option<Instant>) {
        if let Some(s) = start {
            self.events[kind.index()].observe(s.elapsed().as_nanos() as u64);
        }
    }

    /// Adds to the counts only the recorder keeps (no-op while
    /// disabled). The ledger's fields are overwritten at every step
    /// close, so they are never counted here.
    #[inline]
    pub(crate) fn count(&mut self, add: impl FnOnce(&mut StepCounters)) {
        if self.enabled {
            add(&mut self.counters);
        }
    }

    /// Opens step timing (no-op while disabled).
    pub(crate) fn open_step(&mut self) {
        if self.enabled {
            self.step_start = Some(Instant::now());
        }
    }

    /// Closes step `t`: observes the step and its phase segments, copies
    /// the ledger's counters in, and writes the JSONL line when a sink
    /// is configured.
    pub(crate) fn close_step(&mut self, t: usize, comm: &CommStats, syncs: u64, active_steps: u64) {
        let Some(start) = self.step_start.take() else {
            return;
        };
        let step_ns = start.elapsed().as_nanos() as u64;
        self.step.observe(step_ns);
        for (tally, &ns) in self.phases.iter_mut().zip(&self.step_phase_ns) {
            if ns > 0 {
                tally.observe(ns);
            }
        }
        let c = &mut self.counters;
        c.steps = t as u64 + 1;
        c.active_steps = active_steps;
        c.syncs = syncs;
        c.uploads = comm.device_to_edge;
        c.downloads = comm.edge_to_device;
        c.upload_retransmissions = comm.upload_retransmissions;
        c.lost_uploads = comm.lost_uploads;
        c.stale_merges = comm.stale_uploads;
        if let Some(w) = &mut self.sink {
            let line = self.counters.since(&self.line_base);
            if let Err(e) = write_line(w, t, step_ns, &self.step_phase_ns, &line) {
                eprintln!("[telemetry] JSONL sink write failed, disabling: {e}");
                self.sink = None;
            }
        }
        self.line_base = self.counters;
        self.step_phase_ns = [0; Phase::COUNT];
    }

    /// The run's event counters as of the last closed step.
    pub fn counters(&self) -> &StepCounters {
        &self.counters
    }

    /// Overwrites the event counters from a checkpoint. Counters are
    /// deterministic and resumable; the timings are host wall-clock
    /// measurements and deliberately start empty after a restore (see
    /// [`crate::checkpoint`]).
    pub(crate) fn restore_counters(&mut self, counters: StepCounters) {
        self.counters = counters;
        self.line_base = counters;
    }

    /// Flushes the JSONL sink (run teardown; buffered lines would
    /// otherwise only land on drop).
    pub(crate) fn flush(&mut self) {
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
                .map(|&p| self.phases[p.index()].summary(p.name()))
                .collect(),
            step: self.step.summary("step"),
            counters: self.counters,
            events: self
                .events
                .iter()
                .zip(EVENT_KIND_LABELS)
                .filter(|(tally, _)| tally.count > 0)
                .map(|(tally, label)| tally.summary(label))
                .collect(),
        })
    }
}

/// One JSONL line: the step, its wall-clock and in-step phase times, and
/// the counters recorded since the previous line.
fn write_line(
    w: &mut impl Write,
    t: usize,
    step_ns: u64,
    phase_ns: &[u64; Phase::COUNT],
    counters: &StepCounters,
) -> io::Result<()> {
    write!(w, "{{\"step\":{t},\"step_ns\":{step_ns}")?;
    for phase in Phase::ALL.into_iter().filter(|&p| p != Phase::Evaluation) {
        write!(w, ",\"{}_ns\":{}", phase.name(), phase_ns[phase.index()])?;
    }
    let counters = serde_json::to_string(counters).map_err(io::Error::other)?;
    writeln!(w, ",\"counters\":{counters}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use middle_data::Task;

    fn recorder(enabled: bool) -> Telemetry {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.telemetry = enabled;
        Telemetry::from_config(&cfg).expect("no sink to open")
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tel = recorder(false);
        tel.open_step();
        let s = tel.start();
        assert!(s.is_none());
        tel.stop(Phase::Selection, s);
        tel.count(|c| c.selected += 4);
        tel.close_step(0, &CommStats::default(), 1, 1);
        assert!(tel.report().is_none());
        assert_eq!(*tel.counters(), StepCounters::default());
    }

    #[test]
    fn ledger_fields_are_copied_and_the_rest_accumulate() {
        let mut tel = recorder(true);
        let mut comm = CommStats::default();
        for t in 0..3 {
            tel.open_step();
            let s = tel.start();
            tel.stop(Phase::Selection, s);
            tel.count(|c| {
                c.candidates_seen += 10;
                c.selected += 4;
            });
            comm.device_to_edge += 4;
            comm.stale_uploads += 1;
            tel.close_step(t, &comm, u64::from(t == 2), 2);
        }
        // Evaluation runs between steps: an observation of its own.
        let s = tel.start();
        tel.stop(Phase::Evaluation, s);
        let report = tel.report().expect("enabled recorder reports");
        let c = &report.counters;
        assert_eq!((c.steps, c.active_steps, c.syncs), (3, 2, 1));
        assert_eq!((c.candidates_seen, c.selected), (30, 12));
        assert_eq!((c.uploads, c.stale_merges), (12, 3));
        assert_eq!(report.step.count, 3);
        assert_eq!(report.phases.len(), Phase::COUNT);
        assert_eq!(report.phase(Phase::Selection).unwrap().count, 3);
        assert_eq!(report.phase(Phase::LocalTraining).unwrap().count, 0);
        assert_eq!(report.phase(Phase::Evaluation).unwrap().count, 1);
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
    fn event_summaries_surface_in_the_report_and_round_trip() {
        let mut tel = recorder(true);
        let upload = EventKind::DeviceUpload {
            edge: 0,
            device: 1,
            wave: 1,
        };
        tel.stop_event(upload, tel.start());
        tel.stop_event(EventKind::CloudSync { timer: true }, tel.start());
        let report = tel.report().unwrap();
        assert_eq!(report.events.len(), 2);
        assert!(report.events.iter().any(|e| e.phase == "device_upload"));
        assert!(report.events.iter().any(|e| e.phase == "cloud_sync"));
        let json = serde_json::to_string(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Lockstep reports omit the events key entirely.
        let lockstep = recorder(true).report().unwrap();
        assert!(lockstep.events.is_empty());
        assert!(!serde_json::to_string(&lockstep).unwrap().contains("events"));
    }
}
