//! Event-driven execution timeline.
//!
//! Lockstep execution advances the simulation one synchronous round at a
//! time: every phase (selection, training, upload, aggregation, sync)
//! completes before the next begins. The event-driven mode replaces that
//! with a timestamped event queue: device uploads, edge aggregations and
//! cloud syncs become events in a deterministic binary heap, edges can
//! aggregate as soon as a threshold of updates arrives, and the cloud can
//! sync on a wall-clock timer instead of a round count.
//!
//! Determinism contract: events are ordered by the total key
//! `(time, kind-rank, edge, device, seq)` with `f64::total_cmp` on time,
//! so replay is bitwise-reproducible regardless of insertion order. The
//! zero-delay / synchronous-timer corner of the event engine reproduces
//! the lockstep `RunRecord` bitwise — lockstep is the oracle, and the
//! zero-delay twins of `crates/core/tests/matrix.rs` enforce that
//! corner, not convention.
//!
//! This module owns the deterministic data structures (event ordering,
//! the scheduler heap, per-edge wave state, checkpoint forms); the event
//! *processing* lives in `sim.rs`, where the handlers schedule the same
//! round bodies (front half, per-cohort aggregation, cloud sync) the
//! lockstep step calls in a plain loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use middle_nn::serialize::Packed;
use serde::{Deserialize, Serialize};

/// How the simulation advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExecutionMode {
    /// Synchronous rounds: one `step()` per tick, analytic wall-clock.
    #[default]
    Lockstep,
    /// Timestamped event queue: uploads, aggregations and syncs are
    /// events with real latencies drained from a deterministic heap.
    EventDriven,
}

/// Where event latencies come from in event-driven mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LatencyModel {
    /// All events fire instantaneously (uploads arrive at the moment
    /// they are sent). This is the lockstep-oracle corner.
    #[default]
    Zero,
    /// Straggler delays from the fault plane (`FaultConfig.straggler`)
    /// become real in-flight upload latencies instead of deadline
    /// checks.
    Faults,
}

/// Event-driven execution knobs. The default value (lockstep mode) is
/// skipped during serialization so existing config JSON and digests are
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineConfig {
    /// Execution mode for the run.
    #[serde(default)]
    pub mode: ExecutionMode,
    /// Latency model applied to device uploads in event-driven mode.
    #[serde(default)]
    pub latency: LatencyModel,
    /// When set, an edge aggregates as soon as this many updates arrive
    /// instead of waiting for the end of the step. Requires
    /// `EventDriven`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub edge_threshold: Option<usize>,
    /// When set, the cloud syncs every `cloud_timer` simulated seconds
    /// instead of every `cloud_interval` rounds. Requires `EventDriven`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cloud_timer: Option<f64>,
    /// Simulated duration of one lockstep round; the step boundary for
    /// step `t` fires at `t * step_duration`.
    #[serde(default = "default_step_duration")]
    pub step_duration: f64,
}

fn default_step_duration() -> f64 {
    1.0
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            mode: ExecutionMode::Lockstep,
            latency: LatencyModel::Zero,
            edge_threshold: None,
            cloud_timer: None,
            step_duration: default_step_duration(),
        }
    }
}

impl TimelineConfig {
    /// True when every field holds its default value; used to skip the
    /// whole block during config serialization.
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// True when the run uses the event engine.
    pub fn event_mode(&self) -> bool {
        self.mode == ExecutionMode::EventDriven
    }

    pub fn validate(&self) -> Result<(), String> {
        if !self.step_duration.is_finite() || self.step_duration <= 0.0 {
            return Err(format!(
                "timeline.step_duration must be finite and positive, got {}",
                self.step_duration
            ));
        }
        if let Some(timer) = self.cloud_timer {
            if !timer.is_finite() || timer <= 0.0 {
                return Err(format!(
                    "timeline.cloud_timer must be finite and positive, got {timer}"
                ));
            }
        }
        if let Some(k) = self.edge_threshold {
            if k == 0 {
                return Err("timeline.edge_threshold must be at least 1".into());
            }
        }
        if self.mode == ExecutionMode::Lockstep {
            if self.latency != LatencyModel::Zero {
                return Err("timeline.latency requires mode = EventDriven".into());
            }
            if self.edge_threshold.is_some() {
                return Err("timeline.edge_threshold requires mode = EventDriven".into());
            }
            if self.cloud_timer.is_some() {
                return Err("timeline.cloud_timer requires mode = EventDriven".into());
            }
        }
        Ok(())
    }
}

/// What an event does when it is popped. Ranks define the tie-break
/// order at equal timestamps; at the zero-delay corner that order is
/// exactly the lockstep phase order within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of round `step`: selection, init, local training, uploads.
    StepBoundary { step: usize },
    /// A device's update arrives at its edge (async latency arm).
    DeviceUpload {
        edge: usize,
        device: usize,
        wave: u64,
    },
    /// An edge aggregates every update that has arrived in wave `wave`.
    EdgeAggregate { edge: usize, wave: u64 },
    /// Cloud sync; `timer` distinguishes self-rescheduling timer syncs
    /// from round-scheduled synchronous syncs.
    CloudSync { timer: bool },
    /// End of round `step`: the tick that popped it is over.
    EndOfStep { step: usize },
}

impl EventKind {
    /// Tie-break rank at equal timestamps (lockstep phase order).
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::StepBoundary { .. } => 0,
            EventKind::DeviceUpload { .. } => 1,
            EventKind::EdgeAggregate { .. } => 2,
            EventKind::CloudSync { .. } => 3,
            EventKind::EndOfStep { .. } => 4,
        }
    }

    /// Edge slot of the ordering key (0 when the kind has no edge).
    pub fn edge(&self) -> usize {
        match self {
            EventKind::DeviceUpload { edge, .. } | EventKind::EdgeAggregate { edge, .. } => *edge,
            _ => 0,
        }
    }

    /// Device slot of the ordering key (0 when the kind has no device).
    pub fn device(&self) -> usize {
        match self {
            EventKind::DeviceUpload { device, .. } => *device,
            _ => 0,
        }
    }

    /// Index into the per-event-kind telemetry summaries.
    pub fn index(&self) -> usize {
        self.rank() as usize
    }
}

/// Number of distinct event kinds (telemetry summary slots).
pub const EVENT_KIND_COUNT: usize = 5;

/// The event kinds' telemetry labels, rank order.
pub const EVENT_KIND_LABELS: [&str; EVENT_KIND_COUNT] = [
    "step_boundary",
    "device_upload",
    "edge_aggregate",
    "cloud_sync",
    "end_of_step",
];

/// A scheduled event. Ordering is the total key
/// `(time, rank, edge, device, seq)`; `seq` is a monotone insertion
/// counter so the order is total even for otherwise-identical events.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub time: f64,
    pub kind: EventKind,
    pub seq: u64,
}

impl Event {
    fn key(&self) -> (u8, usize, usize, u64) {
        (
            self.kind.rank(),
            self.kind.edge(),
            self.kind.device(),
            self.seq,
        )
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.key().cmp(&other.key()))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Outcome of recording an upload arrival at an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// Arrival buffered; the wave has not reached its trigger yet.
    Buffered,
    /// This arrival hit the trigger: schedule an `EdgeAggregate` for
    /// the wave now.
    Ready,
    /// The wave was already aggregated (or superseded): the update is
    /// late and must be blended, not batch-aggregated.
    Late,
}

/// Per-edge aggregation wave: the cohort selected for an edge in one
/// round, which members' updates have arrived, and whether the wave has
/// been aggregated. Async waves carry model snapshots taken at send
/// time; zero-delay waves read live device models instead.
#[derive(Debug, Clone)]
pub struct EdgeWave {
    /// Monotone wave id per edge; stale `DeviceUpload` events from a
    /// superseded wave are detected by id mismatch.
    pub id: u64,
    /// Cohort in original selection order (aggregation iterates this
    /// order, never heap-arrival order, for float-sum determinism).
    pub members: Vec<usize>,
    /// Parallel to `members`: whose update has arrived.
    pub arrived: Vec<bool>,
    /// Count of arrivals so far.
    pub arrivals: usize,
    /// Arrivals needed to schedule the aggregate event.
    pub trigger: usize,
    /// Set once the wave's aggregate has run.
    pub aggregated: bool,
    /// Send-time model snapshots parallel to `members` (async arm only;
    /// `None` entries are members whose upload was lost or, at zero
    /// delay, members read live at aggregation time).
    pub snapshots: Vec<Option<Vec<f32>>>,
}

impl EdgeWave {
    fn empty() -> Self {
        Self {
            id: 0,
            members: Vec::new(),
            arrived: Vec::new(),
            arrivals: 0,
            trigger: 0,
            aggregated: true,
            snapshots: Vec::new(),
        }
    }
}

/// Deterministic event scheduler plus the wave / busy-device state the
/// event engine threads through `sim.rs`.
#[derive(Debug)]
pub struct Timeline {
    heap: BinaryHeap<std::cmp::Reverse<Event>>,
    next_seq: u64,
    /// Simulated clock: timestamp of the most recently popped event.
    clock: f64,
    waves: Vec<EdgeWave>,
    busy: Vec<bool>,
    busy_count: usize,
    /// Per-device send-time model snapshot of the one in-flight upload
    /// (async latency arm; a device is excluded from selection while
    /// busy, so it never has two uploads in flight).
    in_flight: Vec<Option<Vec<f32>>>,
    /// Edge aggregations since the last cloud sync (timer syncs with
    /// nothing new to fold in are skipped but still rescheduled).
    pub aggs_since_sync: usize,
    /// Whether the initial events have been seeded.
    pub started: bool,
}

impl Timeline {
    pub fn new(num_edges: usize, num_devices: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            clock: 0.0,
            waves: (0..num_edges).map(|_| EdgeWave::empty()).collect(),
            busy: vec![false; num_devices],
            busy_count: 0,
            in_flight: (0..num_devices).map(|_| None).collect(),
            aggs_since_sync: 0,
            started: false,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Schedule an event; assigns the next sequence number.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse(Event { time, kind, seq }));
    }

    /// Pop the next event in `(time, rank, edge, device, seq)` order and
    /// advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.heap.pop()?.0;
        self.clock = ev.time;
        Some(ev)
    }

    /// Peek at the next event without popping.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek().map(|r| &r.0)
    }

    /// Remove the next event *without* advancing the clock. Used by the
    /// end-of-run tail drain to discard beyond-horizon timer syncs: the
    /// timer dies with the run, and the simulated clock should read the
    /// time real work finished, not the timer's next would-be firing.
    pub fn discard_next(&mut self) -> Option<Event> {
        self.heap.pop().map(|r| r.0)
    }

    // ---- wave lifecycle ------------------------------------------------

    /// Open a new aggregation wave for `edge` with the given cohort and
    /// trigger count. Returns the *unaggregated remainder* of the
    /// previous wave — members whose updates arrived but whose wave
    /// never hit its trigger — so the caller can flush-aggregate them
    /// before the new wave starts. (Impossible at zero delay, where
    /// every wave aggregates within its own step.)
    #[allow(clippy::type_complexity)]
    pub fn open_wave(
        &mut self,
        edge: usize,
        members: Vec<usize>,
        trigger: usize,
    ) -> Option<(Vec<usize>, Vec<Option<Vec<f32>>>)> {
        let wave = &mut self.waves[edge];
        let flush = if !wave.aggregated && wave.arrivals > 0 {
            let mut cohort = Vec::new();
            let mut snaps = Vec::new();
            for (i, &m) in wave.members.iter().enumerate() {
                if wave.arrived[i] {
                    cohort.push(m);
                    snaps.push(wave.snapshots[i].take());
                }
            }
            Some((cohort, snaps))
        } else {
            None
        };
        let n = members.len();
        wave.id += 1;
        wave.members = members;
        wave.arrived = vec![false; n];
        wave.arrivals = 0;
        wave.trigger = trigger.min(n).max(if n == 0 { 0 } else { 1 });
        wave.aggregated = n == 0;
        wave.snapshots = (0..n).map(|_| None).collect();
        flush
    }

    /// Current wave id for `edge`.
    pub fn wave_id(&self, edge: usize) -> u64 {
        self.waves[edge].id
    }

    /// Whether an arrival for `(edge, device, wave)` would be accepted
    /// into the wave — false means the arrival is late (superseded or
    /// already-aggregated wave, or a duplicate). Lets the caller keep
    /// the snapshot for a late blend instead of handing it to
    /// [`Self::record_arrival`].
    pub fn wave_accepts(&self, edge: usize, device: usize, wave: u64) -> bool {
        let w = &self.waves[edge];
        if w.id != wave || w.aggregated {
            return false;
        }
        match w.members.iter().position(|&m| m == device) {
            Some(i) => !w.arrived[i],
            None => false,
        }
    }

    /// Record an upload arrival for `(edge, device)` in wave `wave`.
    /// `snapshot` is the send-time flat model (async arm) or `None`
    /// (zero-delay arm reads live models at aggregation).
    pub fn record_arrival(
        &mut self,
        edge: usize,
        device: usize,
        wave: u64,
        snapshot: Option<Vec<f32>>,
    ) -> ArrivalOutcome {
        let w = &mut self.waves[edge];
        if w.id != wave || w.aggregated {
            return ArrivalOutcome::Late;
        }
        let Some(i) = w.members.iter().position(|&m| m == device) else {
            return ArrivalOutcome::Late;
        };
        if w.arrived[i] {
            return ArrivalOutcome::Late;
        }
        w.arrived[i] = true;
        w.snapshots[i] = snapshot;
        w.arrivals += 1;
        if w.arrivals == w.trigger {
            ArrivalOutcome::Ready
        } else {
            ArrivalOutcome::Buffered
        }
    }

    /// Consume the arrived portion of `edge`'s wave `wave` for
    /// aggregation. Returns `(cohort, snapshots)` in selection order,
    /// or `None` when the wave is stale or already aggregated.
    #[allow(clippy::type_complexity)]
    pub fn take_ready(
        &mut self,
        edge: usize,
        wave: u64,
    ) -> Option<(Vec<usize>, Vec<Option<Vec<f32>>>)> {
        let w = &mut self.waves[edge];
        if w.id != wave || w.aggregated || w.arrivals == 0 {
            return None;
        }
        w.aggregated = true;
        let mut cohort = Vec::new();
        let mut snaps = Vec::new();
        for (i, &m) in w.members.iter().enumerate() {
            if w.arrived[i] {
                cohort.push(m);
                snaps.push(w.snapshots[i].take());
            }
        }
        Some((cohort, snaps))
    }

    // ---- busy-device tracking -----------------------------------------

    /// Mark a device as having an in-flight upload.
    pub fn mark_busy(&mut self, device: usize) {
        if !self.busy[device] {
            self.busy[device] = true;
            self.busy_count += 1;
        }
    }

    /// Clear a device's in-flight marker (its upload arrived or was
    /// dropped).
    pub fn clear_busy(&mut self, device: usize) {
        if self.busy[device] {
            self.busy[device] = false;
            self.busy_count -= 1;
        }
    }

    pub fn is_busy(&self, device: usize) -> bool {
        self.busy[device]
    }

    /// Records an in-flight upload: the device turns busy and its
    /// send-time snapshot is parked until the arrival event consumes it
    /// ([`Self::take_in_flight`]).
    pub fn send_upload(&mut self, device: usize, snapshot: Vec<f32>) {
        self.mark_busy(device);
        self.in_flight[device] = Some(snapshot);
    }

    /// Consumes a device's in-flight snapshot and clears its busy
    /// marker (the upload arrived).
    pub fn take_in_flight(&mut self, device: usize) -> Option<Vec<f32>> {
        self.clear_busy(device);
        self.in_flight[device].take()
    }

    /// Cheap guard so the zero-delay path never scans the busy vector.
    pub fn busy_any(&self) -> bool {
        self.busy_count > 0
    }

    // ---- checkpointing -------------------------------------------------

    pub fn checkpoint(&self) -> TimelineCheckpoint {
        let mut events: Vec<&Event> = self.heap.iter().map(|r| &r.0).collect();
        events.sort();
        TimelineCheckpoint {
            events: events.into_iter().map(EventCheckpoint::from).collect(),
            next_seq: self.next_seq,
            clock_bits: self.clock.to_bits(),
            waves: self
                .waves
                .iter()
                .map(|w| WaveCheckpoint {
                    id: w.id,
                    members: w.members.clone(),
                    arrived: w.arrived.clone(),
                    trigger: w.trigger,
                    aggregated: w.aggregated,
                    snapshots: pack_planes(&w.snapshots),
                })
                .collect(),
            in_flight: pack_planes(&self.in_flight),
            aggs_since_sync: self.aggs_since_sync,
            started: self.started,
        }
    }

    /// Rebuilds a timeline from its checkpoint for a simulation of
    /// `num_edges` edges, `num_devices` devices and `param_count`
    /// parameters.
    ///
    /// # Errors
    /// A message naming the first part of the checkpoint that does not
    /// fit: wave count, event range, wave shape, or a snapshot whose
    /// length is not `param_count`.
    pub fn restore(
        ck: &TimelineCheckpoint,
        num_edges: usize,
        num_devices: usize,
        param_count: usize,
    ) -> Result<Self, String> {
        if ck.waves.len() != num_edges {
            return Err(format!(
                "timeline checkpoint has {} waves, config has {} edges",
                ck.waves.len(),
                num_edges
            ));
        }
        let mut tl = Self::new(num_edges, num_devices);
        for ev in &ck.events {
            let event = ev.to_event(num_edges, num_devices)?;
            if event.seq >= ck.next_seq {
                return Err(format!(
                    "timeline checkpoint event seq {} >= next_seq {}",
                    event.seq, ck.next_seq
                ));
            }
            // In-flight uploads re-mark their device busy.
            if let EventKind::DeviceUpload { device, .. } = event.kind {
                tl.mark_busy(device);
            }
            tl.heap.push(std::cmp::Reverse(event));
        }
        tl.next_seq = ck.next_seq;
        tl.clock = f64::from_bits(ck.clock_bits);
        for (edge, w) in ck.waves.iter().enumerate() {
            if w.members.len() != w.arrived.len() || w.members.len() != w.snapshots.len() {
                return Err(format!(
                    "timeline checkpoint wave {edge} has inconsistent member/arrived/snapshot lengths"
                ));
            }
            if let Some(&m) = w.members.iter().find(|&&m| m >= num_devices) {
                return Err(format!(
                    "timeline checkpoint wave {edge} references device {m} out of range"
                ));
            }
            check_planes(&w.snapshots, param_count, &format!("wave {edge} snapshot"))?;
            let arrivals = w.arrived.iter().filter(|&&a| a).count();
            tl.waves[edge] = EdgeWave {
                id: w.id,
                members: w.members.clone(),
                arrived: w.arrived.clone(),
                arrivals,
                trigger: w.trigger,
                aggregated: w.aggregated,
                snapshots: unpack_planes(&w.snapshots),
            };
        }
        if ck.in_flight.len() != num_devices {
            return Err(format!(
                "timeline checkpoint has {} in-flight slots, config has {} devices",
                ck.in_flight.len(),
                num_devices
            ));
        }
        check_planes(&ck.in_flight, param_count, "in-flight upload")?;
        tl.in_flight = unpack_planes(&ck.in_flight);
        tl.aggs_since_sync = ck.aggs_since_sync;
        tl.started = ck.started;
        Ok(tl)
    }
}

/// Serialized event. Times ride as raw `f64` bits so the restore is
/// bitwise-exact regardless of JSON float formatting.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct EventCheckpoint {
    pub time_bits: u64,
    /// Rank of the kind (see `EventKind::rank`).
    pub kind: u8,
    #[serde(default)]
    pub step: usize,
    #[serde(default)]
    pub edge: usize,
    #[serde(default)]
    pub device: usize,
    #[serde(default)]
    pub wave: u64,
    #[serde(default)]
    pub timer: bool,
    pub seq: u64,
}

impl From<&Event> for EventCheckpoint {
    fn from(ev: &Event) -> Self {
        let mut ck = EventCheckpoint {
            time_bits: ev.time.to_bits(),
            kind: ev.kind.rank(),
            step: 0,
            edge: 0,
            device: 0,
            wave: 0,
            timer: false,
            seq: ev.seq,
        };
        match ev.kind {
            EventKind::StepBoundary { step } | EventKind::EndOfStep { step } => ck.step = step,
            EventKind::DeviceUpload { edge, device, wave } => {
                ck.edge = edge;
                ck.device = device;
                ck.wave = wave;
            }
            EventKind::EdgeAggregate { edge, wave } => {
                ck.edge = edge;
                ck.wave = wave;
            }
            EventKind::CloudSync { timer } => ck.timer = timer,
        }
        ck
    }
}

impl EventCheckpoint {
    fn to_event(&self, num_edges: usize, num_devices: usize) -> Result<Event, String> {
        let kind = match self.kind {
            0 => EventKind::StepBoundary { step: self.step },
            1 => {
                if self.edge >= num_edges || self.device >= num_devices {
                    return Err(format!(
                        "timeline checkpoint upload event (edge {}, device {}) out of range",
                        self.edge, self.device
                    ));
                }
                EventKind::DeviceUpload {
                    edge: self.edge,
                    device: self.device,
                    wave: self.wave,
                }
            }
            2 => {
                if self.edge >= num_edges {
                    return Err(format!(
                        "timeline checkpoint aggregate event edge {} out of range",
                        self.edge
                    ));
                }
                EventKind::EdgeAggregate {
                    edge: self.edge,
                    wave: self.wave,
                }
            }
            3 => EventKind::CloudSync { timer: self.timer },
            4 => EventKind::EndOfStep { step: self.step },
            k => return Err(format!("timeline checkpoint has unknown event kind {k}")),
        };
        Ok(Event {
            time: f64::from_bits(self.time_bits),
            kind,
            seq: self.seq,
        })
    }
}

/// Send-time snapshots (a wave's, or the in-flight table) as the packed
/// planes a checkpoint stores them as.
fn pack_planes(planes: &[Option<Vec<f32>>]) -> Vec<Option<Packed<f32>>> {
    planes.iter().map(|p| p.clone().map(Packed)).collect()
}

/// The inverse of [`pack_planes`].
fn unpack_planes(planes: &[Option<Packed<f32>>]) -> Vec<Option<Vec<f32>>> {
    planes
        .iter()
        .map(|p| p.as_ref().map(|p| p.0.clone()))
        .collect()
}

/// Rejects a send-time snapshot whose length is not the model's.
fn check_planes(
    planes: &[Option<Packed<f32>>],
    param_count: usize,
    what: &str,
) -> Result<(), String> {
    match planes.iter().flatten().find(|p| p.len() != param_count) {
        Some(p) => Err(format!(
            "timeline checkpoint {what} has {} parameters, model has {param_count}",
            p.len()
        )),
        None => Ok(()),
    }
}

/// Serialized wave state.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WaveCheckpoint {
    pub id: u64,
    pub members: Vec<usize>,
    pub arrived: Vec<bool>,
    pub trigger: usize,
    pub aggregated: bool,
    pub snapshots: Vec<Option<Packed<f32>>>,
}

/// Full timeline state riding `SimCheckpoint` for event-driven runs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TimelineCheckpoint {
    pub events: Vec<EventCheckpoint>,
    pub next_seq: u64,
    pub clock_bits: u64,
    pub waves: Vec<WaveCheckpoint>,
    /// Send-time snapshots of in-flight uploads, indexed by device.
    pub in_flight: Vec<Option<Packed<f32>>>,
    pub aggs_since_sync: usize,
    pub started: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, kind: EventKind, seq: u64) -> Event {
        Event { time, kind, seq }
    }

    #[test]
    fn event_order_is_time_then_rank_then_edge_then_device_then_seq() {
        let a = ev(1.0, EventKind::StepBoundary { step: 1 }, 9);
        let b = ev(
            1.0,
            EventKind::DeviceUpload {
                edge: 0,
                device: 0,
                wave: 1,
            },
            1,
        );
        let c = ev(
            1.0,
            EventKind::DeviceUpload {
                edge: 0,
                device: 3,
                wave: 1,
            },
            0,
        );
        let d = ev(1.0, EventKind::EdgeAggregate { edge: 0, wave: 1 }, 2);
        let e = ev(1.0, EventKind::CloudSync { timer: false }, 3);
        let f = ev(1.0, EventKind::EndOfStep { step: 0 }, 4);
        let g = ev(0.5, EventKind::EndOfStep { step: 0 }, 99);
        assert!(g < a, "earlier time wins regardless of rank/seq");
        assert!(a < b, "boundary before uploads");
        assert!(b < c, "lower device first at equal edge");
        assert!(c < d, "uploads before aggregate");
        assert!(d < e, "aggregate before sync");
        assert!(e < f, "sync before end-of-step");
    }

    #[test]
    fn heap_drains_in_total_order_regardless_of_insertion_order() {
        // Build a reference order, then push a few shuffled copies and
        // assert the drain order is identical each time.
        let kinds = [
            EventKind::StepBoundary { step: 0 },
            EventKind::DeviceUpload {
                edge: 1,
                device: 4,
                wave: 1,
            },
            EventKind::DeviceUpload {
                edge: 0,
                device: 7,
                wave: 1,
            },
            EventKind::EdgeAggregate { edge: 0, wave: 1 },
            EventKind::CloudSync { timer: true },
            EventKind::EndOfStep { step: 0 },
            EventKind::StepBoundary { step: 1 },
        ];
        let times = [0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0];
        let events: Vec<Event> = kinds
            .iter()
            .zip(times.iter())
            .enumerate()
            .map(|(i, (&kind, &time))| ev(time, kind, i as u64))
            .collect();
        let mut expected = events.clone();
        expected.sort();

        // Deterministic permutation family: rotate the insertion order.
        for rot in 0..events.len() {
            let mut tl = Timeline::new(2, 8);
            for i in 0..events.len() {
                let e = &events[(i + rot) % events.len()];
                tl.heap.push(std::cmp::Reverse(e.clone()));
            }
            let mut drained = Vec::new();
            while let Some(e) = tl.pop() {
                drained.push(e);
            }
            assert_eq!(drained, expected, "rotation {rot} drained differently");
        }
    }

    #[test]
    fn clock_follows_pops() {
        let mut tl = Timeline::new(1, 1);
        tl.push(2.0, EventKind::EndOfStep { step: 1 });
        tl.push(1.0, EventKind::EndOfStep { step: 0 });
        assert_eq!(tl.clock(), 0.0);
        tl.pop();
        assert_eq!(tl.clock(), 1.0);
        tl.pop();
        assert_eq!(tl.clock(), 2.0);
    }

    #[test]
    fn wave_trigger_fires_once_and_late_arrivals_are_flagged() {
        let mut tl = Timeline::new(1, 8);
        assert!(tl.open_wave(0, vec![3, 1, 5], 2).is_none());
        let wave = tl.wave_id(0);
        assert_eq!(
            tl.record_arrival(0, 1, wave, None),
            ArrivalOutcome::Buffered
        );
        assert_eq!(tl.record_arrival(0, 3, wave, None), ArrivalOutcome::Ready);
        let (cohort, snaps) = tl.take_ready(0, wave).unwrap();
        // Selection order (3 before 1), not arrival order.
        assert_eq!(cohort, vec![3, 1]);
        assert_eq!(snaps.len(), 2);
        // Post-aggregation arrivals are late; double take is None.
        assert_eq!(tl.record_arrival(0, 5, wave, None), ArrivalOutcome::Late);
        assert!(tl.take_ready(0, wave).is_none());
        // Arrivals for a superseded wave id are late.
        tl.open_wave(0, vec![2], 1);
        assert_eq!(tl.record_arrival(0, 2, wave, None), ArrivalOutcome::Late);
    }

    #[test]
    fn open_wave_flushes_untriggered_remainder() {
        let mut tl = Timeline::new(1, 8);
        tl.open_wave(0, vec![0, 1, 2], 3);
        let wave = tl.wave_id(0);
        tl.record_arrival(0, 2, wave, Some(vec![1.0]));
        // Trigger (3) never reached; opening the next wave surfaces the
        // arrived remainder for flush-aggregation.
        let (cohort, snaps) = tl.open_wave(0, vec![4, 5], 2).unwrap();
        assert_eq!(cohort, vec![2]);
        assert_eq!(snaps, vec![Some(vec![1.0])]);
    }

    #[test]
    fn busy_tracking_is_idempotent() {
        let mut tl = Timeline::new(1, 4);
        assert!(!tl.busy_any());
        tl.mark_busy(2);
        tl.mark_busy(2);
        assert!(tl.busy_any());
        assert!(tl.is_busy(2));
        tl.clear_busy(2);
        assert!(!tl.busy_any());
        tl.clear_busy(2);
        assert!(!tl.busy_any());
    }

    #[test]
    fn checkpoint_roundtrip_is_bitwise() {
        let mut tl = Timeline::new(2, 6);
        tl.started = true;
        tl.push(0.0, EventKind::StepBoundary { step: 0 });
        tl.push(
            0.125,
            EventKind::DeviceUpload {
                edge: 1,
                device: 5,
                wave: 1,
            },
        );
        tl.push(7.5, EventKind::CloudSync { timer: true });
        tl.pop();
        tl.open_wave(1, vec![5, 2], 2);
        let wave = tl.wave_id(1);
        tl.record_arrival(1, 2, wave, Some(vec![0.5, -0.25]));
        tl.send_upload(5, vec![1.5, 2.5]);
        tl.aggs_since_sync = 3;

        let ck = tl.checkpoint();
        let json = serde_json::to_string(&ck).unwrap();
        let back: TimelineCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ck);

        let restored = Timeline::restore(&back, 2, 6, 2).unwrap();
        assert_eq!(restored.clock().to_bits(), tl.clock().to_bits());
        assert_eq!(restored.next_seq, tl.next_seq);
        assert_eq!(restored.aggs_since_sync, 3);
        assert!(restored.started);
        assert!(restored.is_busy(5), "busy rebuilt from pending uploads");
        assert_eq!(restored.wave_id(1), wave);
        let mut restored = restored;
        assert_eq!(restored.take_in_flight(5), Some(vec![1.5, 2.5]));
        restored.send_upload(5, vec![1.5, 2.5]);
        // Drain both heaps; order and times must match bitwise.
        let mut a = tl;
        let mut b = restored;
        loop {
            match (a.pop(), b.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.time.to_bits(), y.time.to_bits());
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.seq, y.seq);
                }
                _ => panic!("heaps drained to different lengths"),
            }
        }
    }

    #[test]
    fn restore_rejects_out_of_range_and_unknown_kinds() {
        let mut tl = Timeline::new(1, 2);
        tl.push(
            0.5,
            EventKind::DeviceUpload {
                edge: 0,
                device: 1,
                wave: 1,
            },
        );
        let ck = tl.checkpoint();
        assert!(
            Timeline::restore(&ck, 1, 1, 2).is_err(),
            "device out of range"
        );
        let mut bad = ck.clone();
        bad.events[0].kind = 9;
        assert!(Timeline::restore(&bad, 1, 2, 2).is_err(), "unknown kind");
        let mut wrong_edges = ck.clone();
        wrong_edges.waves.push(WaveCheckpoint {
            id: 0,
            members: vec![],
            arrived: vec![],
            trigger: 0,
            aggregated: true,
            snapshots: vec![],
        });
        assert!(
            Timeline::restore(&wrong_edges, 1, 2, 2).is_err(),
            "wave count mismatch"
        );
        let mut short = ck.clone();
        short.in_flight[1] = Some(Packed(vec![0.5]));
        assert!(
            Timeline::restore(&short, 1, 2, 2).is_err(),
            "short in-flight snapshot"
        );
        let mut short = ck;
        short.waves[0] = WaveCheckpoint {
            id: 1,
            members: vec![1],
            arrived: vec![true],
            trigger: 1,
            aggregated: false,
            snapshots: vec![Some(Packed(vec![0.5]))],
        };
        assert!(
            Timeline::restore(&short, 1, 2, 2).is_err(),
            "short wave snapshot"
        );
    }

    #[test]
    fn timeline_config_default_roundtrip_and_validation() {
        let cfg = TimelineConfig::default();
        assert!(cfg.is_default());
        assert!(cfg.validate().is_ok());
        assert!(!cfg.event_mode());

        let corner = TimelineConfig {
            mode: ExecutionMode::EventDriven,
            ..TimelineConfig::default()
        };
        assert!(!corner.is_default());
        assert!(corner.validate().is_ok());
        assert!(corner.event_mode());

        let bad = TimelineConfig {
            step_duration: 0.0,
            ..TimelineConfig::default()
        };
        assert!(bad.validate().is_err());

        let lockstep_timer = TimelineConfig {
            cloud_timer: Some(5.0),
            ..TimelineConfig::default()
        };
        assert!(
            lockstep_timer.validate().is_err(),
            "timer needs EventDriven"
        );

        let mut async_cfg = TimelineConfig {
            mode: ExecutionMode::EventDriven,
            ..TimelineConfig::default()
        };
        async_cfg.latency = LatencyModel::Faults;
        async_cfg.edge_threshold = Some(2);
        async_cfg.cloud_timer = Some(4.0);
        assert!(async_cfg.validate().is_ok());
        async_cfg.edge_threshold = Some(0);
        assert!(async_cfg.validate().is_err());
    }
}
