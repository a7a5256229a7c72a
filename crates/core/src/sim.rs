//! The device-edge-cloud simulation loop (paper Algorithm 1).
//!
//! Each time step:
//! 1. every edge selects `K` devices from its current candidate set
//!    (in-edge device selection, §4.3);
//! 2. every selected device initialises its local model — a device that
//!    just moved performs on-device model aggregation (§4.2), otherwise
//!    it downloads the edge model — and runs `I` local SGD steps
//!    (devices train in parallel via Rayon; each owns its model, so
//!    there is no shared mutable state);
//! 3. each edge FedAvg-aggregates the uploaded local models (Eq. 6);
//! 4. every `T_c` steps the cloud aggregates the edge models weighted by
//!    the participating-sample totals `d̂_n` (Eq. 7) and broadcasts the
//!    result back to all edges and devices.

use crate::aggregation::{
    cloud_aggregate, cloud_aggregate_into, edge_aggregate, edge_aggregate_into, on_device_init,
    on_device_init_into,
};
use crate::algorithms::{AlgorithmPolicy, MoveAction};
use crate::builder::{SharedInputs, SimError};
use crate::checkpoint::{
    config_digest, DeviceCheckpoint, EdgeCheckpoint, FaultPlaneCheckpoint, RngStateCheckpoint,
    SimCheckpoint, SIM_CHECKPOINT_SCHEMA_VERSION,
};
use crate::comm::CommStats;
use crate::compress::CompressionPlane;
use crate::config::{MobilitySource, PopulationMode, SimConfig};
use crate::device::Device;
use crate::faults::FaultPlane;
use crate::metrics::{EvalPoint, RunRecord, RUN_RECORD_SCHEMA_VERSION};
use crate::population::{DeviceRef, PendingInit, Population, Reached};
use crate::selection::{
    select_devices_reference_scored, select_devices_scored, update_similarity_reference,
    update_similarity_reference_flat, CandidateScorers, SelectionScratch,
};
use crate::similarity::{aggregation_weights, similarity_utility_cached};
use crate::telemetry::{Phase, StepProbe, Telemetry};
use crate::timeline::{ArrivalOutcome, Event, EventKind, ExecutionMode, LatencyModel, Timeline};
use crate::{OnDevicePolicy, SelectionPolicy};
use middle_data::partition::Partition;
use middle_data::{Confusion, Dataset};
use middle_mobility::{
    generate_geometric, generate_markov_hop, generate_markov_hop_homed, MobilityKind, ServiceArea,
    Trace,
};
use middle_nn::loss::softmax_cross_entropy;
use middle_nn::params::{flatten, FlatView};
use middle_nn::serialize::Checkpoint;
use middle_nn::{NetScratch, Sequential};
use middle_tensor::ops::dot_slices;
use middle_tensor::random::{derive_seed, rng};
use middle_tensor::reduce::argmax_rows;
use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;
use std::time::Instant;

/// Which kernels [`Simulation::tick`] runs.
///
/// The zero-copy fast path and the allocating reference oracle consume
/// every RNG stream in the same order, so a run may interleave modes
/// and the equivalence tests can compare them step for step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StepMode {
    /// The allocation-free production step (DESIGN.md §6).
    #[default]
    Fast,
    /// The clone-based semantic oracle the equivalence tests pin the
    /// fast path against.
    Reference,
}

/// State of one edge server.
///
/// Alongside the model the edge carries a [`FlatView`] cache mirroring
/// the device-side cache: selection and on-device aggregation read the
/// edge's flat parameters every step, and recomputing them per candidate
/// would dominate the hot path. Code that mutates `model` directly must
/// call [`EdgeState::refresh_flat`] afterwards.
pub struct EdgeState {
    /// The edge model `w_n^t`.
    pub model: Sequential,
    /// Participating samples since the last cloud sync (`d̂_n`, Eq. 7).
    ///
    /// `f64`, not `f32`: this accumulates integer sample counts over a
    /// whole sync window, and an `f32` accumulator silently stops
    /// counting past 2^24 participating samples. The value is cast to
    /// `f32` only after normalisation, inside the cloud aggregation.
    pub window_samples: f64,
    flat: FlatView,
}

impl EdgeState {
    /// Creates an edge state with a fresh flat cache.
    pub fn new(model: Sequential) -> Self {
        let flat = FlatView::of(&model);
        EdgeState {
            model,
            window_samples: 0.0,
            flat,
        }
    }

    /// Cached flat parameter vector of the edge model.
    pub fn flat(&self) -> &[f32] {
        self.flat.flat()
    }

    /// Cached squared L2 norm of the edge model's parameters.
    pub fn flat_norm_sq(&self) -> f32 {
        self.flat.norm_sq()
    }

    /// Recomputes the flat cache from the current edge model.
    pub fn refresh_flat(&mut self) {
        self.flat.refresh(&self.model);
    }

    /// Overwrites the edge model from a flat vector with known squared
    /// norm (the cloud-broadcast fast path).
    pub fn load_flat(&mut self, flat: &[f32], norm_sq: f32) {
        middle_nn::params::unflatten(&mut self.model, flat);
        self.flat.set_from_slice(flat, norm_sq);
    }
}

/// The cloud model's cached flat view, and an epoch that counts its
/// refreshes: a device's cached selection score
/// ([`Device::cloud_score`]) is valid only against the epoch it was
/// computed in, so the two move together here and nowhere else. The
/// epoch is derived state — a restore starts a new one — and is never
/// checkpointed.
struct CloudView {
    flat: FlatView,
    epoch: u64,
}

impl CloudView {
    fn of(cloud: &Sequential) -> Self {
        CloudView {
            flat: FlatView::of(cloud),
            epoch: 0,
        }
    }

    fn refresh(&mut self, cloud: &Sequential) {
        self.flat.refresh(cloud);
        self.epoch += 1;
    }

    fn flat(&self) -> &[f32] {
        self.flat.flat()
    }

    fn norm_sq(&self) -> f32 {
        self.flat.norm_sq()
    }
}

/// Per-step inverted device↔edge index, rebuilt once at the top of each
/// step from the mobility trace.
///
/// Cohort construction used to call `Trace::devices_at_into` once per
/// edge — a full O(N·E) population scan every step. The index does one
/// O(N + E) counting sort instead: `cur`/`prev` hold the step's (and
/// previous step's) device→edge rows, and `offsets`/`members` form a
/// CSR edge→devices map whose per-edge slices list device ids in
/// ascending order, exactly matching the order `devices_at_into`
/// produced (so the availability rng stream is consumed identically).
#[derive(Default)]
struct StepIndex {
    cur: Vec<usize>,
    prev: Vec<usize>,
    have_prev: bool,
    offsets: Vec<usize>,
    members: Vec<usize>,
    cursor: Vec<usize>,
}

impl StepIndex {
    /// Rebuilds the index for step `t`.
    fn build(&mut self, trace: &Trace, t: usize, num_edges: usize) {
        self.have_prev = trace.fill_rows_into(t, &mut self.cur, &mut self.prev);
        self.offsets.clear();
        self.offsets.resize(num_edges + 1, 0);
        for &e in &self.cur {
            self.offsets[e + 1] += 1;
        }
        for n in 0..num_edges {
            self.offsets[n + 1] += self.offsets[n];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..num_edges]);
        self.members.clear();
        self.members.resize(self.cur.len(), 0);
        for (m, &e) in self.cur.iter().enumerate() {
            self.members[self.cursor[e]] = m;
            self.cursor[e] += 1;
        }
    }

    /// Whether device `m` moved between the previous step and this one
    /// (always false on step 0, matching `Trace::moved`).
    fn moved(&self, m: usize) -> bool {
        self.have_prev && self.prev[m] != self.cur[m]
    }

    /// Devices attached to edge `n` this step, ascending by id.
    fn devices_at(&self, n: usize) -> &[usize] {
        &self.members[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Number of devices attached to edge `n` this step.
    fn occupancy(&self, n: usize) -> usize {
        self.offsets[n + 1] - self.offsets[n]
    }
}

/// A fully-constructed hierarchical-FL simulation.
pub struct Simulation {
    config: SimConfig,
    population: Population,
    edges: Vec<EdgeState>,
    cloud: Sequential,
    trace: Trace,
    test: Dataset,
    partition: Partition,
    rng: StdRng,
    availability_rng: StdRng,
    comm: CommStats,
    syncs: u64,
    active_steps: u64,
    telemetry: Telemetry,
    faults: FaultPlane,
    // The resolved algorithm-policy object ([`SimConfig::algorithm`]
    // via `AlgorithmConfig::resolve`): selection source, on-move
    // verdicts and any cross-round state. The one round skeleton fires
    // its hooks, so stateful algorithms evolve identically in fast and
    // reference mode, lockstep and event-driven.
    policy: Box<dyn AlgorithmPolicy>,
    // Uplink compression (quantization + top-K sparsification with
    // error feedback) and its aggregation scratch buffer. Inert — no
    // draws, no residuals, dense byte accounting — unless the config
    // makes the plane lossy-active.
    compression: CompressionPlane,
    agg_scratch: Vec<f32>,
    // Hot-path state: the cloud's cached flat view (refreshed only when
    // the cloud model actually changes) and per-step scratch buffers that
    // persist across steps so the steady-state loop never allocates.
    cloud_flat: CloudView,
    selection_scratch: SelectionScratch,
    candidates: Vec<usize>,
    selected_per_edge: Vec<Vec<usize>>,
    // Per-step inverted edge index and the explicit participant id list
    // (strictly ascending after the selection phase) — the training
    // gather walks exactly the K·E participants instead of re-scanning
    // all N devices.
    index: StepIndex,
    participants: Vec<usize>,
    // What phase 1 decided for each participant, consumed by the step's
    // one init region.
    pending_inits: Vec<PendingInit>,
    // Lazy-mode scratch: per-live-version similarity scores against the
    // current cloud model, refilled each step before selection (empty
    // in dense mode or under non-similarity policies).
    version_scores: Vec<f32>,
    // Scratch of the score pre-pass: the devices it found stale.
    stale_scores: Vec<usize>,
    // Round scratch: the per-edge delivered cohorts Eq. 6 aggregates
    // (selected minus lost/late uploads) and the per-edge WAN link state
    // at a sync (empty unless WAN outages are on).
    delivered_per_edge: Vec<Vec<usize>>,
    wan_up: Vec<bool>,
    // Run cursor: the next step `tick` executes, the evaluation points
    // recorded so far, and the accumulated wall-clock — all captured by
    // checkpoints so a resumed run continues bitwise-identically.
    next_step: usize,
    points: Vec<EvalPoint>,
    elapsed_seconds: f64,
    // Event-driven execution state: the deterministic event heap plus
    // wave/busy bookkeeping (untouched in lockstep mode), and the step
    // probe carried across the events of the current step. The probe is
    // host-timing scratch and is deliberately not checkpointed —
    // checkpoints only happen between ticks, where it is `None`.
    timeline: Timeline,
    probe: Option<StepProbe>,
}

impl Simulation {
    /// Assembles the per-run mutable state from validated, possibly
    /// cache-shared immutable inputs. Only [`SimulationBuilder`] calls
    /// this; per-run state is *cloned* out of the inputs, so a cache
    /// hit is bitwise identical to a cold construction.
    pub(crate) fn from_shared(config: SimConfig, inputs: &std::sync::Arc<SharedInputs>) -> Self {
        let seed = config.seed;
        let init = inputs.init.clone();
        let population = match config.population {
            PopulationMode::Dense => Population::dense(
                (0..config.num_devices)
                    .map(|m| Device::new(m, inputs.device_data[m].clone(), init.clone(), seed))
                    .collect(),
            ),
            PopulationMode::Lazy => Population::lazy(inputs.clone(), seed, config.num_devices),
        };
        let edges: Vec<EdgeState> = (0..config.num_edges)
            .map(|_| EdgeState::new(init.clone()))
            .collect();
        let cloud_flat = CloudView::of(&init);
        let selected_per_edge = (0..config.num_edges).map(|_| Vec::new()).collect();
        let delivered_per_edge = (0..config.num_edges).map(|_| Vec::new()).collect();
        let telemetry = Telemetry::from_config(&config);
        let faults = FaultPlane::new(config.faults, config.num_devices, seed);
        let policy = config.algorithm.resolve(config.num_devices);
        let compression = CompressionPlane::new(
            config.compression.clone(),
            config.num_devices,
            config.num_edges,
            cloud_flat.flat().len(),
            seed,
        );
        Simulation {
            cloud: init,
            population,
            edges,
            trace: inputs.trace.clone(),
            test: inputs.test.clone(),
            partition: inputs.partition.clone(),
            rng: rng(derive_seed(seed, 6)),
            availability_rng: rng(derive_seed(seed, 8)),
            comm: CommStats::default(),
            syncs: 0,
            active_steps: 0,
            telemetry,
            faults,
            policy,
            compression,
            agg_scratch: Vec::new(),
            cloud_flat,
            selection_scratch: SelectionScratch::new(),
            candidates: Vec::new(),
            selected_per_edge,
            index: StepIndex::default(),
            participants: Vec::new(),
            pending_inits: Vec::new(),
            version_scores: Vec::new(),
            stale_scores: Vec::new(),
            delivered_per_edge,
            wan_up: Vec::new(),
            next_step: 0,
            points: Vec::new(),
            elapsed_seconds: 0.0,
            timeline: Timeline::new(config.num_edges, config.num_devices),
            probe: None,
            config,
        }
    }

    /// Overwrites the generated trace with a pre-validated one (builder
    /// only; the builder has already checked the shape).
    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The simulation's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The mobility trace in use.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The device-level data partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &Dataset {
        &self.test
    }

    /// Current cloud model.
    pub fn cloud_model(&self) -> &Sequential {
        &self.cloud
    }

    /// Current edge states.
    pub fn edges(&self) -> &[EdgeState] {
        &self.edges
    }

    /// Current devices as a dense slice.
    ///
    /// # Panics
    /// Panics in lazy population mode, where idle devices have no
    /// replica to borrow — use [`Simulation::population`] there.
    pub fn devices(&self) -> &[Device] {
        self.population.dense_slice()
    }

    /// The device population plane (dense replicas or lazy stubs).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Model transmissions performed so far.
    pub fn comm_stats(&self) -> &CommStats {
        &self.comm
    }

    /// Cloud synchronisations performed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Steps so far in which at least one device participated.
    /// Availability filtering can leave whole steps inactive; inactive
    /// steps move no models and cost no communication rounds.
    pub fn active_steps(&self) -> u64 {
        self.active_steps
    }

    /// The run's telemetry recorder (disabled unless the config enables
    /// it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The run's fault plane (disabled unless the config enables a
    /// failure model; see [`crate::faults`]).
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// The run's compression plane (inert unless the config enables a
    /// lossy setting; see [`crate::compress`]).
    pub fn compression_plane(&self) -> &CompressionPlane {
        &self.compression
    }

    /// The *virtual* global model `w̄^t` (Eq. 13): the `d̂`-weighted
    /// average of the current edge models. Equals the cloud model right
    /// after a synchronisation.
    pub fn virtual_global(&self) -> Sequential {
        let models: Vec<&Sequential> = self.edges.iter().map(|e| &e.model).collect();
        let weights: Vec<f64> = self.edges.iter().map(|e| e.window_samples).collect();
        cloud_aggregate(&models, &weights)
    }

    /// Fault-plane work at step begin, run by every execution mode: apply
    /// the stale merges queued by last step's deadline misses (the late
    /// upload finally lands and is blended into its edge with Eq. 9's
    /// similarity weighting — a stale update that still agrees with the
    /// edge keeps weight, a diverged one is discounted), then advance
    /// every device's dropout chain. Draws nothing while the plane is
    /// disabled: the queue is empty and the dropout chain is off.
    fn fault_step_begin(&mut self, probe: &mut StepProbe) {
        probe.start();
        for p in self.faults.take_pending() {
            // The late upload is charged when it arrives, not when it
            // was scheduled — at the (possibly compressed) payload size
            // recorded when the deadline was missed.
            self.comm.device_to_edge += 1;
            self.comm.device_to_edge_bytes += p.payload_bytes;
            probe.uploads(1);
            self.blend_late_upload(p.edge, p.device, p.flat.0, p.norm_sq, probe);
        }
        self.faults.advance_dropout();
        probe.stop(Phase::FaultRecovery);
    }

    /// Blends a late upload into its edge with Eq. 9's
    /// similarity-discounted weighting — the lockstep stale merge and
    /// the event engine's arrival for an already-closed wave. Charging
    /// the transfer is the caller's business (on arrival in lockstep,
    /// at send time in the event engine); only the staleness counter
    /// moves here.
    fn blend_late_upload(
        &mut self,
        edge: usize,
        device: usize,
        mut flat: Vec<f32>,
        norm_sq: f32,
        probe: &mut StepProbe,
    ) {
        let e = &mut self.edges[edge];
        let u = similarity_utility_cached(&flat, norm_sq, e.flat(), e.flat_norm_sq());
        let (edge_w, stale_w) = aggregation_weights(u);
        for (v, &ew) in flat.iter_mut().zip(e.flat()) {
            *v = edge_w * ew + stale_w * *v;
        }
        middle_nn::params::unflatten(&mut e.model, &flat);
        e.refresh_flat();
        self.comm.stale_uploads += 1;
        probe.stale_merge();
        // A stale merge is still an edge aggregation of this device's
        // update, so stateful algorithms observe it.
        self.policy
            .after_edge_aggregate(edge, std::slice::from_ref(&device));
    }

    /// Runs device `m`'s upload to edge `n` through the fault plane's
    /// loss/retry process, charging every transmission attempt to
    /// [`CommStats`]; lost uploads are retried with exponential backoff
    /// and abandoned after the retry budget. Returns whether the upload
    /// was delivered.
    fn attempt_upload(&mut self, n: usize, m: usize, probe: &mut StepProbe) -> bool {
        let o = self.faults.upload_attempts();
        self.comm.device_to_edge += u64::from(o.attempts);
        self.comm.device_to_edge_bytes += u64::from(o.attempts) * self.compression.payload_bytes();
        self.comm.upload_retransmissions += u64::from(o.attempts - 1);
        self.comm.retry_backoff_slots += o.backoff_slots;
        probe.uploads(u64::from(o.attempts));
        probe.upload_retries(u64::from(o.attempts - 1), !o.delivered);
        if !o.delivered {
            self.comm.lost_uploads += 1;
            if self.compression.lossy_active() {
                // Sender-side error feedback: the device did compress
                // and transmit — the loss happens on the wire — so its
                // residual and the RNG advance even though no edge
                // consumes the reconstruction.
                let _ = self.compression.compress_device_upload(
                    m,
                    self.population.get(m).flat(),
                    self.edges[n].flat(),
                );
                probe.compressed_uploads(1);
            }
        }
        o.delivered
    }

    /// Runs every selected device's upload through the fault plane (the
    /// per-device draw order — deadline first, then loss/retry attempts
    /// — is fixed) and charges it. Fills `delivered_per_edge` with the
    /// cohorts that actually reached their edge: deadline-missed uploads
    /// are snapshotted for a stale merge next step, the rest go through
    /// [`Simulation::attempt_upload`]. With the plane disabled nothing
    /// is drawn and every selected upload is delivered on its first
    /// attempt.
    fn upload_pass(&mut self, probe: &mut StepProbe) {
        probe.start();
        let lossy = self.compression.lossy_active();
        let payload = self.compression.payload_bytes();
        let selected_per_edge = std::mem::take(&mut self.selected_per_edge);
        for (n, selected) in selected_per_edge.iter().enumerate() {
            self.delivered_per_edge[n].clear();
            for &m in selected {
                if self.faults.misses_deadline() {
                    probe.deadline_miss();
                    if lossy {
                        // The device compresses at miss time (advancing
                        // its residual and the compression RNG exactly
                        // once, like any other upload); the stale merge
                        // next step lands the *reconstructed* model and
                        // charges the compressed payload.
                        let recon = self.compression.compress_device_upload(
                            m,
                            self.population.get(m).flat(),
                            self.edges[n].flat(),
                        );
                        probe.compressed_uploads(1);
                        let norm_sq = dot_slices(recon, recon);
                        let flat = recon.to_vec();
                        self.faults.push_stale(n, m, flat, norm_sq, payload);
                    } else {
                        let dev = self.population.get(m);
                        self.faults.push_stale(
                            n,
                            m,
                            dev.flat().to_vec(),
                            dev.flat_norm_sq(),
                            payload,
                        );
                    }
                } else if self.attempt_upload(n, m, probe) {
                    self.delivered_per_edge[n].push(m);
                }
            }
            // Graceful degradation: an edge whose whole cohort failed
            // to deliver skips aggregation and carries w_n forward.
            if !selected.is_empty() && self.delivered_per_edge[n].is_empty() {
                probe.empty_cohort();
            }
        }
        self.selected_per_edge = selected_per_edge;
        probe.stop(Phase::FaultRecovery);
    }

    /// Edge aggregation (Eq. 6) of one cohort into edge `n` — the single
    /// phase-3 body, called by the lockstep step for each edge and by
    /// the event engine for each wave. Three arms:
    ///
    /// * async waves (`snapshots` holds send-time payloads) FedAvg the
    ///   snapshots — already compressed when the plane is lossy;
    /// * under a lossy compression plane each member's upload is
    ///   compressed against the edge's pre-aggregation model `w_n^t`
    ///   (one compression-RNG / residual advance per member, in cohort
    ///   order) and the edge FedAvgs the *reconstructions*;
    /// * otherwise the live device models are aggregated by the
    ///   mode-dispatched kernel.
    ///
    /// All three weight by `d_m / d`, with `d_m` read from the partition
    /// (equal to `Device::num_samples` by construction) so the weights
    /// never depend on residency: in lazy mode a cloud broadcast may
    /// have demoted a sender whose upload was still in flight.
    fn aggregate_cohort(
        &mut self,
        n: usize,
        cohort: &[usize],
        snapshots: &[Option<Vec<f32>>],
        mode: StepMode,
        probe: &mut StepProbe,
    ) {
        if cohort.is_empty() {
            return;
        }
        probe.start();
        let in_flight = snapshots.iter().any(|s| s.is_some());
        let lossy = self.compression.lossy_active();
        let partition = &self.partition;
        let total: usize = cohort.iter().map(|&m| partition.device_len(m)).sum();
        if in_flight || lossy {
            let total_f = total as f32;
            self.agg_scratch.clear();
            self.agg_scratch.resize(self.cloud_flat.flat().len(), 0.0);
            for (i, &m) in cohort.iter().enumerate() {
                let w = partition.device_len(m) as f32 / total_f;
                let flat: &[f32] = match snapshots.get(i).and_then(Option::as_ref) {
                    Some(s) => s,
                    None if in_flight => self.population.get(m).flat(),
                    None => {
                        probe.compressed_uploads(1);
                        self.compression.compress_device_upload(
                            m,
                            self.population.get(m).flat(),
                            self.edges[n].flat(),
                        )
                    }
                };
                for (a, &r) in self.agg_scratch.iter_mut().zip(flat) {
                    *a += w * r;
                }
            }
            let norm_sq = dot_slices(&self.agg_scratch, &self.agg_scratch);
            self.edges[n].load_flat(&self.agg_scratch, norm_sq);
        } else {
            let population = &self.population;
            let edge = &mut self.edges[n];
            match mode {
                StepMode::Fast => edge_aggregate_into(
                    &mut edge.model,
                    cohort
                        .iter()
                        .map(|&m| (&population.get(m).model, partition.device_len(m))),
                ),
                StepMode::Reference => {
                    let models: Vec<&Sequential> =
                        cohort.iter().map(|&m| &population.get(m).model).collect();
                    let counts: Vec<usize> =
                        cohort.iter().map(|&m| partition.device_len(m)).collect();
                    edge.model = edge_aggregate(&models, &counts);
                }
            }
            edge.refresh_flat();
        }
        self.edges[n].window_samples += total as f64;
        self.policy.after_edge_aggregate(n, cohort);
        probe.stop(if lossy && !in_flight {
            Phase::Compress
        } else {
            Phase::EdgeAggregation
        });
    }

    /// One lockstep round `t` of Algorithm 1 (0-based; syncs with the
    /// cloud after every `cloud_interval`-th step): the shared front
    /// half, the upload pass, Eq. 6 per edge over the delivered cohorts,
    /// then the cadence sync. `mode` only picks the kernels at the
    /// skeleton's dispatch points (score + select, init, train, Eq. 6,
    /// Eq. 7), so hook order, comm charging and telemetry are the same
    /// code in both modes.
    ///
    /// In [`StepMode::Fast`] the steady-state loop is allocation-free:
    /// candidate sets, scores and winner lists land in persistent scratch
    /// buffers, device inits are written straight into each participating
    /// device's carried model, aggregation runs in place on the edge/cloud
    /// parameter tensors, and the cloud broadcast copies parameters
    /// instead of cloning models. [`StepMode::Reference`] runs the
    /// original clone-based kernels (fresh cloud flatten, full-sort
    /// selection, allocating init / aggregation, clone broadcast) as the
    /// semantic oracle; both consume every rng stream in the same order,
    /// and the equivalence tests pin the two together bit for bit.
    fn tick_lockstep(&mut self, t: usize, mode: StepMode) {
        let mut probe = self.telemetry.begin_step();
        self.begin_step(t, &mut probe);
        let active = self.phase_select_train(t, mode, &mut probe);
        self.upload_pass(&mut probe);
        let cohorts = std::mem::take(&mut self.delivered_per_edge);
        for (n, cohort) in cohorts.iter().enumerate() {
            self.aggregate_cohort(n, cohort, &[], mode, &mut probe);
        }
        self.delivered_per_edge = cohorts;
        let scheduled = (t + 1).is_multiple_of(self.config.cloud_interval);
        let synced = scheduled && self.cloud_sync_now(mode, &mut probe);
        self.telemetry.end_step(t, active, synced, probe);
    }

    /// Step-begin work shared by every execution mode: rebuild the step
    /// index for `t` and run the fault plane's begin-of-step recovery
    /// (stale merges + dropout chains).
    fn begin_step(&mut self, t: usize, probe: &mut StepProbe) {
        assert!(t < self.trace.steps(), "step beyond trace horizon");
        self.index.build(&self.trace, t, self.edges.len());
        self.fault_step_begin(probe);
    }

    /// Whether the selection policy ranks by update similarity — the
    /// only case in which anything keeps `U(w_c, Δw_m)` scores.
    fn ranks_by_similarity(&self) -> bool {
        matches!(
            self.policy.selection(),
            SelectionPolicy::LeastSimilarUpdate | SelectionPolicy::MostSimilarUpdate
        )
    }

    /// Makes every fast-mode selection score of the step a lookup. Lazy
    /// mode scores each live broadcast version against the cloud once
    /// per step; every stub of a version then shares that score bitwise,
    /// exactly as idle dense devices holding the same broadcast would.
    /// Materialised devices cache their own score beside their flat: the
    /// training job fills it, and the pre-pass here scores whatever is
    /// stale regardless. Only the fast scorer reads either; the
    /// reference kernel rescores every candidate from scratch, which
    /// makes fast == reference the caches' oracle.
    fn refresh_selection_scores(&mut self) {
        if self.ranks_by_similarity() {
            let (flat, norm_sq) = (self.cloud_flat.flat(), self.cloud_flat.norm_sq());
            self.population
                .version_scores(flat, norm_sq, &mut self.version_scores);
            self.population.refresh_cloud_scores(
                self.cloud_flat.epoch,
                flat,
                norm_sq,
                &mut self.stale_scores,
            );
        }
    }

    /// Phases 1 + 2 — in-edge device selection, device init, then
    /// Rayon-parallel local training over the participants. `mode` picks
    /// the kernels at three points (score + select, init, train);
    /// everything around them is written once. Fills
    /// `self.selected_per_edge` and returns whether any edge selected a
    /// non-empty cohort (accruing `active_steps`). Shared by the
    /// lockstep step and the event engine's step-boundary handler.
    fn phase_select_train(&mut self, t: usize, mode: StepMode, probe: &mut StepProbe) -> bool {
        probe.start();
        self.refresh_selection_scores();
        probe.stop(Phase::Selection);
        // Phase 1 — in-edge device selection, edge by edge, deciding
        // each selected device's initial model (moved devices aggregate
        // on device, stationary ones download the edge model); the
        // models are written after the last edge, in one region.
        self.participants.clear();
        self.pending_inits.clear();
        for n in 0..self.edges.len() {
            probe.start();
            self.candidates.clear();
            self.candidates.extend_from_slice(self.index.devices_at(n));
            let seen = self.candidates.len();
            // Straggler injection: each device is reachable this step
            // with the configured probability.
            if self.config.availability < 1.0 {
                self.candidates
                    .retain(|_| self.availability_rng.gen::<f64>() < self.config.availability);
            }
            probe.candidates(seen, seen - self.candidates.len());
            if self.faults.dropout_active() {
                let before = self.candidates.len();
                let faults = &self.faults;
                self.candidates.retain(|&m| !faults.is_down(m));
                probe.dropout_drops(before - self.candidates.len());
            }
            // A device whose async upload is still in flight cannot be
            // re-selected (at most one upload in flight per device).
            // Draw-free, so the filter is inert in lockstep mode and at
            // zero delay, where no device is ever busy.
            if self.timeline.busy_any() {
                let timeline = &self.timeline;
                self.candidates.retain(|&m| !timeline.is_busy(m));
            }
            if self.candidates.is_empty() {
                self.selected_per_edge[n].clear();
                probe.stop(Phase::Selection);
                continue;
            }
            {
                let population = &self.population;
                let oort = |m: usize| population.oort_utility(m).unwrap_or(f32::INFINITY);
                let policy = &self.policy;
                let cluster = |m: usize| policy.cluster_of(m);
                match mode {
                    StepMode::Fast => {
                        let version_scores = &self.version_scores;
                        let epoch = self.cloud_flat.epoch;
                        let similarity = |m: usize| match population.view(m) {
                            DeviceRef::Resident(dev) => dev
                                .cloud_score(epoch)
                                .expect("the pre-pass scores every materialised device"),
                            DeviceRef::Stub(v) => version_scores[v as usize],
                        };
                        select_devices_scored(
                            policy.selection(),
                            self.config.devices_per_edge,
                            &self.candidates,
                            &CandidateScorers {
                                similarity: &similarity,
                                oort: &oort,
                                cluster: Some(&cluster),
                            },
                            &mut self.rng,
                            &mut self.selection_scratch,
                            &mut self.selected_per_edge[n],
                        );
                    }
                    StepMode::Reference => {
                        let cloud_flat = flatten(&self.cloud);
                        let similarity = |m: usize| match population.view(m) {
                            DeviceRef::Resident(dev) => {
                                update_similarity_reference(dev, &cloud_flat)
                            }
                            DeviceRef::Stub(v) => update_similarity_reference_flat(
                                population.version_flat(v),
                                &cloud_flat,
                            ),
                        };
                        self.selected_per_edge[n] = select_devices_reference_scored(
                            policy.selection(),
                            self.config.devices_per_edge,
                            &self.candidates,
                            &CandidateScorers {
                                similarity: &similarity,
                                oort: &oort,
                                cluster: Some(&cluster),
                            },
                            &mut self.rng,
                        );
                    }
                }
            }
            probe.stop(Phase::Selection);

            probe.start();
            let selected = &self.selected_per_edge[n];
            probe.selected(selected.len());
            // Downloads are counted only when the edge model is actually
            // consumed (a moved device under KeepLocal never downloads);
            // uploads are charged by the post-training upload pass.
            let mut downloads = 0u64;
            let mut migrations = 0u64;
            for &m in selected {
                // A selected device needs a replica before its init
                // touches the carried model; reserving one is the
                // serial, cheap half of materialisation (no-op when
                // dense or already resident).
                let version = self.population.reserve(m);
                self.participants.push(m);
                // A stationary device downloads the edge model, which
                // is exactly the `EdgeModel` init.
                let init = if self.index.moved(m) {
                    probe.moved_init();
                    match self.policy.on_move(m, self.index.prev[m], n) {
                        MoveAction::Blend(on_device) => Some(on_device),
                        // FedFly hand-off: the carried model continues
                        // untouched while the in-flight update rides the
                        // inter-edge backhaul (charged below).
                        MoveAction::Migrate => {
                            migrations += 1;
                            None
                        }
                    }
                } else {
                    Some(OnDevicePolicy::EdgeModel)
                };
                if init.is_some_and(|on_device| !matches!(on_device, OnDevicePolicy::KeepLocal)) {
                    downloads += 1;
                }
                self.pending_inits.push(PendingInit {
                    device: m,
                    version,
                    edge: n,
                    init,
                });
            }
            self.comm.edge_to_device += downloads;
            self.comm.edge_to_device_bytes += downloads * self.compression.dense_payload_bytes();
            self.comm.edge_to_edge += migrations;
            self.comm.edge_to_edge_bytes += migrations * self.compression.dense_payload_bytes();
            probe.downloads(downloads);
            probe.stop(Phase::DeviceInit);
        }
        let active = self.selected_per_edge.iter().any(|s| !s.is_empty());
        if active {
            self.active_steps += 1;
        }

        // The explicit participant id list (sorted to strictly
        // ascending — a device is attached to exactly one edge per
        // step, so ids are distinct) lets the two regions below split
        // over exactly the K·E participants instead of one no-op task
        // per idle device.
        probe.start();
        self.participants.sort_unstable();
        self.pending_inits.sort_unstable_by_key(|p| p.device);

        // Every selected device's initial model, in one region: load
        // what a replica reserved above still lacks, then the init.
        // Nothing in phase 1 read a selected device's model after its
        // selection (a device sits under exactly one edge per step), so
        // deferring the writes to here changes no value.
        let edges = &self.edges;
        self.population
            .init_participants(&self.participants, &self.pending_inits, |dev, p| {
                let Some(on_device) = p.init else { return };
                let edge = &edges[p.edge];
                match mode {
                    StepMode::Fast => on_device_init_into(
                        on_device,
                        dev,
                        &edge.model,
                        edge.flat(),
                        edge.flat_norm_sq(),
                    ),
                    StepMode::Reference => {
                        dev.model = on_device_init(on_device, &edge.model, &dev.model);
                        dev.invalidate_flat();
                    }
                }
            });
        probe.stop(Phase::DeviceInit);

        // Phase 2 — parallel local training. Each participant owns its
        // slot; no shared mutable state (and its own rng, so the gather
        // order cannot affect numerics). The job ends by scoring the
        // device against the cloud while its flat is hot, so the next
        // step's selection finds the score cached.
        probe.start();
        let (local_steps, batch_size, optimizer) = (
            self.config.local_steps,
            self.config.batch_size,
            self.config.optimizer,
        );
        let scored = self.ranks_by_similarity();
        let cloud = &self.cloud_flat;
        let mut participants = self.population.gather_mut(&self.participants);
        participants.par_iter_mut().for_each(|dev| {
            match mode {
                StepMode::Fast => dev.local_train(local_steps, batch_size, &optimizer, t),
                StepMode::Reference => {
                    dev.local_train_reference(local_steps, batch_size, &optimizer, t)
                }
            };
            if scored {
                dev.refresh_cloud_score(cloud.epoch, cloud.flat(), cloud.norm_sq());
            }
        });
        drop(participants);
        probe.stop(Phase::LocalTraining);
        {
            let population = &self.population;
            let utility = |m: usize| population.oort_utility(m);
            self.policy
                .observe_participants(&self.participants, &utility);
        }
        active
    }

    /// Cloud synchronisation *now* (Eq. 7 + broadcast) — phase 4 without
    /// the lockstep schedule check, the one sync body for every execution
    /// mode and plane setting: the lockstep round calls it on the
    /// `cloud_interval` cadence, the event engine on `CloudSync` events.
    ///
    /// Under WAN outages each edge's link is drawn first; down edges
    /// neither upload nor receive the broadcast (their sample window keeps
    /// accumulating and folds into the next successful sync), devices
    /// parked under a down edge miss the device-level broadcast, and a
    /// sync that finds every edge down is skipped. The up edges aggregate
    /// with the `d̂_n` weighting (uniform when every window is empty): a
    /// lossy compression plane compresses each edge's sync upload against
    /// the current cloud model and aggregates the reconstructions,
    /// otherwise `mode` picks the kernel; `mode` also picks the
    /// broadcast. Returns whether a sync happened.
    fn cloud_sync_now(&mut self, mode: StepMode, probe: &mut StepProbe) -> bool {
        probe.start();
        let mut wan_up = std::mem::take(&mut self.wan_up);
        wan_up.clear();
        if self.faults.wan_active() {
            for _ in 0..self.edges.len() {
                let up = self.faults.wan_is_up();
                if !up {
                    probe.wan_outage();
                }
                wan_up.push(up);
            }
        }
        let mask = self.faults.wan_active().then_some(&wan_up[..]);
        let up = |n: usize| mask.is_none_or(|m| m[n]);
        let up_edges = (0..self.edges.len()).filter(|&n| up(n)).count() as u64;
        if up_edges == 0 {
            probe.stop(Phase::CloudSync);
            self.wan_up = wan_up;
            return false;
        }
        self.syncs += 1;
        let dense = self.compression.dense_payload_bytes();
        self.comm.edge_to_cloud += up_edges;
        self.comm.edge_to_cloud_bytes += up_edges * self.compression.payload_bytes();
        self.comm.cloud_to_edge += up_edges;
        self.comm.cloud_to_edge_bytes += up_edges * dense;

        if self.compression.lossy_active() {
            probe.stop(Phase::CloudSync);
            probe.start();
            let total: f64 = (0..self.edges.len())
                .filter(|&n| up(n))
                .map(|n| self.edges[n].window_samples)
                .sum();
            self.agg_scratch.clear();
            self.agg_scratch.resize(self.cloud_flat.flat().len(), 0.0);
            for n in (0..self.edges.len()).filter(|&n| up(n)) {
                let w = if total > 0.0 {
                    (self.edges[n].window_samples / total) as f32
                } else {
                    (1.0 / up_edges as f64) as f32
                };
                let recon = self.compression.compress_edge_sync(
                    n,
                    self.edges[n].flat(),
                    self.cloud_flat.flat(),
                );
                probe.compressed_syncs(1);
                for (a, &r) in self.agg_scratch.iter_mut().zip(recon) {
                    *a += w * r;
                }
            }
            probe.stop(Phase::Compress);
            probe.start();
            middle_nn::params::unflatten(&mut self.cloud, &self.agg_scratch);
        } else {
            let parts = (self.edges.iter().enumerate())
                .filter(|&(n, _)| up(n))
                .map(|(_, e)| (&e.model, e.window_samples));
            match mode {
                StepMode::Fast => cloud_aggregate_into(&mut self.cloud, parts),
                StepMode::Reference => {
                    let (models, weights): (Vec<&Sequential>, Vec<f64>) = parts.unzip();
                    self.cloud = cloud_aggregate(&models, &weights);
                }
            }
        }
        self.cloud_flat.refresh(&self.cloud);

        let reached = match mask {
            Some(up) => Reached::Mask {
                up,
                edge_of: &self.index.cur,
            },
            None => Reached::All,
        };
        let (flat, norm_sq) = (self.cloud_flat.flat(), self.cloud_flat.norm_sq());
        for (n, edge) in self.edges.iter_mut().enumerate() {
            if up(n) {
                match mode {
                    StepMode::Fast => edge.load_flat(flat, norm_sq),
                    StepMode::Reference => {
                        edge.model = self.cloud.clone();
                        edge.refresh_flat();
                    }
                }
                edge.window_samples = 0.0;
            }
        }
        if mode == StepMode::Reference && self.population.is_dense() {
            // The clone-based broadcast is the reference oracle for dense
            // runs; `refresh_flat` and `load_flat` compute the same dot
            // product, so the flat copy is bitwise equal (pinned by the
            // fast == reference and dense == lazy tests).
            let cloud = &self.cloud;
            self.population
                .dense_slice_mut()
                .par_iter_mut()
                .for_each(|d| {
                    if reached.hits(d.id) {
                        d.model = cloud.clone();
                        d.refresh_flat();
                    }
                });
        } else {
            self.population.apply_broadcast(flat, norm_sq, reached);
        }
        // The devices under an up edge: an O(E) occupancy sum over the
        // step index, every device when no edge is down.
        let receivers = (0..self.edges.len())
            .filter(|&n| up(n))
            .map(|n| self.index.occupancy(n))
            .sum::<usize>() as u64;
        self.comm.charge_broadcast(receivers, dense);
        self.policy.after_cloud_sync(mask, &self.index.cur);
        probe.stop(Phase::CloudSync);
        self.wan_up = wan_up;
        true
    }

    // ------------------------------------------------------------------
    // Event-driven execution (ExecutionMode::EventDriven)
    // ------------------------------------------------------------------

    /// One `tick` of the event engine: drains events in deterministic
    /// `(time, rank, edge, device, seq)` order until the current round's
    /// `EndOfStep` marker has been processed. At the zero-delay /
    /// synchronous-sync corner the pop order within a round is exactly
    /// the lockstep phase order, so the run reproduces the lockstep
    /// `RunRecord` bitwise (pinned by `tests/timeline_plane.rs`).
    fn tick_event(&mut self, mode: StepMode) {
        if !self.timeline.started {
            self.timeline.started = true;
            self.timeline.push(0.0, EventKind::StepBoundary { step: 0 });
            if let Some(period) = self.config.timeline.cloud_timer {
                self.timeline
                    .push(period, EventKind::CloudSync { timer: true });
            }
        }
        while let Some(ev) = self.timeline.pop() {
            let start = self.telemetry.event_timer();
            let end_of_step = self.process_event(&ev, mode);
            self.telemetry.observe_event_since(ev.kind, start);
            if end_of_step {
                if matches!(ev.kind, EventKind::EndOfStep { step } if step + 1 == self.config.steps)
                {
                    self.drain_tail(mode);
                }
                break;
            }
        }
    }

    /// After the final round's `EndOfStep` the heap can still hold the
    /// horizon's tail: in-flight uploads, the wave aggregates they
    /// trigger, and a round-cadence cloud sync scheduled at the round's
    /// last arrival. Drain it so the final evaluation sees every update
    /// the run paid for — without this, a cadence sync landing past the
    /// last `EndOfStep` would silently never fire. Beyond-horizon
    /// *timer* syncs are discarded instead of processed: the timer dies
    /// with the run, and discarding keeps the clock (and with it
    /// `event_seconds`) at the time real work finished. At zero delay
    /// the heap is already empty here, so the lockstep oracle is
    /// untouched.
    fn drain_tail(&mut self, mode: StepMode) {
        while let Some(next) = self.timeline.peek() {
            if matches!(next.kind, EventKind::CloudSync { timer: true }) {
                self.timeline.discard_next();
                continue;
            }
            let ev = self.timeline.pop().expect("peeked event still queued");
            let start = self.telemetry.event_timer();
            self.process_event(&ev, mode);
            self.telemetry.observe_event_since(ev.kind, start);
        }
    }

    /// Dispatch one popped event. Returns true when the event was the
    /// current round's `EndOfStep` (the tick is over). Events that land
    /// between a round's `EndOfStep` and the next boundary (in-flight
    /// arrivals, timer syncs) account their telemetry into a scratch
    /// probe absorbed outside the per-step accounting.
    fn process_event(&mut self, ev: &Event, mode: StepMode) -> bool {
        match ev.kind {
            EventKind::StepBoundary { step } => {
                self.event_step_boundary(step, mode);
                false
            }
            EventKind::DeviceUpload { edge, device, wave } => {
                self.with_event_probe(|s, probe| s.event_upload_arrival(edge, device, wave, probe));
                false
            }
            EventKind::EdgeAggregate { edge, wave } => {
                self.with_event_probe(|s, probe| s.event_edge_aggregate(edge, wave, mode, probe));
                false
            }
            EventKind::CloudSync { timer } => {
                self.with_event_probe(|s, probe| s.event_cloud_sync(timer, mode, probe));
                false
            }
            EventKind::EndOfStep { step } => {
                self.event_end_of_step(step);
                true
            }
        }
    }

    /// Runs `f` against the current step's probe; events that fire
    /// between steps get a scratch probe whose counters are absorbed
    /// into the telemetry without step accounting.
    fn with_event_probe<R>(&mut self, f: impl FnOnce(&mut Self, &mut StepProbe) -> R) -> R {
        let (mut probe, mid_step) = match self.probe.take() {
            Some(p) => (p, true),
            None => (self.telemetry.begin_step(), false),
        };
        let out = f(self, &mut probe);
        if mid_step {
            self.probe = Some(probe);
        } else {
            self.telemetry.absorb_probe(probe);
        }
        out
    }

    /// `StepBoundary { t }`: the synchronous front half of round `t` —
    /// fault recovery, selection, device init, local training — then
    /// schedules the round's uploads as events, the synchronous cloud
    /// sync (when no timer is configured) and the `EndOfStep` marker.
    fn event_step_boundary(&mut self, t: usize, mode: StepMode) {
        let mut probe = self.telemetry.begin_step();
        self.begin_step(t, &mut probe);
        let active = self.phase_select_train(t, mode, &mut probe);
        self.timeline.step_active = active;
        let now = self.timeline.clock();
        let mut sync_at = now;
        match self.config.timeline.latency {
            LatencyModel::Zero => {
                // The lockstep-oracle corner: uploads arrive the moment
                // they are sent. The upload pass runs at the boundary
                // exactly as in lockstep (identical deadline / loss /
                // stale draws); the delivered cohorts then ride the event
                // queue at zero latency. Same-instant rank order (uploads
                // before aggregates) makes any `edge_threshold` provably
                // irrelevant here: every upload of the round pops before
                // its wave's aggregate event.
                self.upload_pass(&mut probe);
                for n in 0..self.edges.len() {
                    let cohort = self.delivered_per_edge[n].clone();
                    let trigger = self.config.timeline.edge_threshold.unwrap_or(cohort.len());
                    // Zero delay: every wave aggregates within its own
                    // round, so there is never a remainder to flush.
                    let flushed = self.timeline.open_wave(n, cohort.clone(), trigger);
                    debug_assert!(flushed.is_none(), "zero-delay wave left a remainder");
                    let wave = self.timeline.wave_id(n);
                    for &m in &cohort {
                        self.timeline.push(
                            now,
                            EventKind::DeviceUpload {
                                edge: n,
                                device: m,
                                wave,
                            },
                        );
                    }
                }
            }
            LatencyModel::Faults => sync_at = self.event_upload_pass(mode, &mut probe),
        }
        // The synchronous sync rides the round count when no timer is
        // configured. It fires when the round's last delivered upload
        // lands (the boundary's own timestamp at zero delay) — rank
        // order then puts it after that wave's aggregates, exactly
        // where lockstep phase 4 sits; scheduling it any earlier would
        // systematically sync a cloud that is one round stale.
        if self.config.timeline.cloud_timer.is_none()
            && (t + 1).is_multiple_of(self.config.cloud_interval)
        {
            self.timeline
                .push(sync_at, EventKind::CloudSync { timer: false });
        }
        self.timeline.push(now, EventKind::EndOfStep { step: t });
        if t + 1 < self.config.steps {
            self.timeline.push(
                (t + 1) as f64 * self.config.timeline.step_duration,
                EventKind::StepBoundary { step: t + 1 },
            );
        }
        self.probe = Some(probe);
    }

    /// Async-latency upload pass (`LatencyModel::Faults`): every
    /// selected device's upload samples its straggler delay from the
    /// same fault-plane stream the lockstep deadline check draws from,
    /// then rides the event queue as a real in-flight latency — there is
    /// no deadline and no stale path; a slow upload simply arrives late
    /// (and blends like a stale merge if its wave has already closed).
    /// Loss/retry draws and comm charges are those of the lockstep pass
    /// ([`Simulation::attempt_upload`]); with the fault plane disabled
    /// every upload arrives at zero delay. Returns the latest scheduled
    /// arrival time of this round's delivered uploads (the boundary's
    /// own timestamp when nothing was delivered), which is where a
    /// round-cadence cloud sync belongs.
    fn event_upload_pass(&mut self, mode: StepMode, probe: &mut StepProbe) -> f64 {
        let now = self.timeline.clock();
        let mut last_arrival = now;
        let lossy = self.compression.lossy_active();
        probe.start();
        for n in 0..self.edges.len() {
            let selected = std::mem::take(&mut self.selected_per_edge[n]);
            let mut delivered: Vec<(usize, f64)> = Vec::with_capacity(selected.len());
            for &m in &selected {
                let delay = self.faults.sample_upload_delay();
                if self.attempt_upload(n, m, probe) {
                    delivered.push((m, delay));
                }
            }
            if !selected.is_empty() && delivered.is_empty() {
                probe.empty_cohort();
            }
            // Open the round's wave with the delivered cohort; an
            // un-triggered remainder of the previous wave is flushed
            // into the edge first so arrived updates are never dropped.
            let members: Vec<usize> = delivered.iter().map(|&(m, _)| m).collect();
            let trigger = self.config.timeline.edge_threshold.unwrap_or(members.len());
            if let Some((cohort, snaps)) = self.timeline.open_wave(n, members, trigger) {
                probe.stop(Phase::FaultRecovery);
                self.aggregate_cohort(n, &cohort, &snaps, mode, probe);
                self.timeline.aggs_since_sync += 1;
                probe.start();
            }
            let wave = self.timeline.wave_id(n);
            for (m, delay) in delivered {
                // The in-flight payload is snapshotted at send time —
                // lossy runs ship the compressed reconstruction
                // (advancing the device residual exactly once).
                let snapshot = if lossy {
                    let recon = self.compression.compress_device_upload(
                        m,
                        self.population.get(m).flat(),
                        self.edges[n].flat(),
                    );
                    probe.compressed_uploads(1);
                    recon.to_vec()
                } else {
                    self.population.get(m).flat().to_vec()
                };
                self.timeline.send_upload(m, snapshot);
                last_arrival = last_arrival.max(now + delay);
                self.timeline.push(
                    now + delay,
                    EventKind::DeviceUpload {
                        edge: n,
                        device: m,
                        wave,
                    },
                );
            }
            self.selected_per_edge[n] = selected;
        }
        probe.stop(Phase::FaultRecovery);
        last_arrival
    }

    /// `DeviceUpload` arrival: record it in its edge's wave; the
    /// trigger-hitting arrival schedules the wave's `EdgeAggregate`.
    /// Arrivals for an already-aggregated (or superseded) wave are
    /// *late*: the update blends into the edge like a lockstep stale
    /// merge ([`Simulation::blend_late_upload`]) — its transfer was
    /// already charged at send time.
    fn event_upload_arrival(
        &mut self,
        edge: usize,
        device: usize,
        wave: u64,
        probe: &mut StepProbe,
    ) {
        let snapshot = self.timeline.take_in_flight(device);
        if !self.timeline.wave_accepts(edge, device, wave) {
            if let Some(flat) = snapshot {
                probe.start();
                let norm_sq = dot_slices(&flat, &flat);
                self.blend_late_upload(edge, device, flat, norm_sq, probe);
                probe.stop(Phase::FaultRecovery);
            }
            return;
        }
        if self.timeline.record_arrival(edge, device, wave, snapshot) == ArrivalOutcome::Ready {
            let now = self.timeline.clock();
            self.timeline
                .push(now, EventKind::EdgeAggregate { edge, wave });
        }
    }

    /// `EdgeAggregate`: consume the wave's arrived cohort and aggregate
    /// it into the edge (Eq. 6) — at zero delay (no snapshots) that is
    /// the lockstep phase-3 call verbatim. A stale wave id (superseded
    /// before the event popped) is a no-op.
    fn event_edge_aggregate(
        &mut self,
        edge: usize,
        wave: u64,
        mode: StepMode,
        probe: &mut StepProbe,
    ) {
        if let Some((cohort, snaps)) = self.timeline.take_ready(edge, wave) {
            self.aggregate_cohort(edge, &cohort, &snaps, mode, probe);
            self.timeline.aggs_since_sync += 1;
        }
    }

    /// `CloudSync`: timer syncs reschedule themselves every
    /// `cloud_timer` simulated seconds and skip the sync entirely when
    /// no edge aggregation has landed since the last one; synchronous
    /// (round-scheduled) syncs always run, like lockstep phase 4. A
    /// successful sync raises the step's synced flag, attributed to the
    /// next `EndOfStep`.
    fn event_cloud_sync(&mut self, timer: bool, mode: StepMode, probe: &mut StepProbe) {
        if timer {
            let period = self
                .config
                .timeline
                .cloud_timer
                .expect("timer sync without cloud_timer");
            let next = self.timeline.clock() + period;
            self.timeline
                .push(next, EventKind::CloudSync { timer: true });
            if self.timeline.aggs_since_sync == 0 {
                return;
            }
        }
        if self.cloud_sync_now(mode, probe) {
            self.timeline.step_synced = true;
            self.timeline.aggs_since_sync = 0;
        }
    }

    /// `EndOfStep`: close the round's telemetry with the active/synced
    /// flags accumulated since its boundary.
    fn event_end_of_step(&mut self, t: usize) {
        let active = std::mem::take(&mut self.timeline.step_active);
        let synced = std::mem::take(&mut self.timeline.step_synced);
        let probe = match self.probe.take() {
            Some(p) => p,
            None => self.telemetry.begin_step(),
        };
        self.telemetry.end_step(t, active, synced, probe);
    }

    /// Evaluates a model on the held-out test set, returning
    /// `(accuracy, mean loss, confusion)`.
    pub fn evaluate(&self, model: &Sequential) -> (f32, f32, Confusion) {
        // One forward pass feeds both metrics (`predict` + `eval_loss`
        // would run inference twice); workspace inference produces
        // logits bitwise-identical to `infer`.
        let mut scratch = NetScratch::new();
        let logits = model.infer_ws(self.test.inputs(), &mut scratch);
        let preds = argmax_rows(logits);
        let loss = softmax_cross_entropy(logits, self.test.labels()).0;
        let conf = Confusion::from_predictions(self.test.labels(), &preds, self.test.classes());
        (conf.accuracy(), loss, conf)
    }

    /// The next step [`Simulation::tick`] will execute; steps
    /// `0..next_step` are done.
    pub fn next_step(&self) -> usize {
        self.next_step
    }

    /// Whether the run cursor has reached the configured horizon.
    pub fn is_finished(&self) -> bool {
        self.next_step >= self.config.steps
    }

    /// Evaluation points recorded so far by [`Simulation::tick`].
    pub fn points(&self) -> &[EvalPoint] {
        &self.points
    }

    /// Executes the next step of the run cursor under the configured
    /// execution mode (recording an [`EvalPoint`] when the step lands on
    /// `eval_interval` or the horizon) and accumulates wall-clock — the
    /// only way to advance a simulation. [`Simulation::run`] is a loop
    /// over `tick`; a sweep worker interleaves `tick` with checkpoint
    /// captures instead.
    ///
    /// # Panics
    /// Panics when the run is already finished.
    pub fn tick(&mut self, mode: StepMode) {
        assert!(!self.is_finished(), "simulation already finished");
        let start = Instant::now();
        let t = self.next_step;
        match self.config.timeline.mode {
            ExecutionMode::Lockstep => self.tick_lockstep(t, mode),
            ExecutionMode::EventDriven => self.tick_event(mode),
        }
        self.next_step = t + 1;
        let is_eval =
            (t + 1).is_multiple_of(self.config.eval_interval) || t + 1 == self.config.steps;
        if is_eval {
            let es = self.telemetry.phase_timer();
            let point = self.eval_point(t);
            self.points.push(point);
            self.telemetry.observe_since(Phase::Evaluation, es);
        }
        self.elapsed_seconds += start.elapsed().as_secs_f64();
    }

    /// Runs the remaining steps, recording an [`EvalPoint`] every
    /// `eval_interval` steps (plus the final step).
    pub fn run(&mut self) -> RunRecord {
        self.run_with(StepMode::Fast)
    }

    /// [`Simulation::run`] with an explicit step implementation.
    pub fn run_with(&mut self, mode: StepMode) -> RunRecord {
        while !self.is_finished() {
            self.tick(mode);
        }
        self.finish()
    }

    /// Flushes telemetry and assembles the run record from the state
    /// accumulated by [`Simulation::tick`]. Callable mid-run, too — the
    /// record then covers the steps executed so far.
    pub fn finish(&mut self) -> RunRecord {
        self.telemetry.flush();
        RunRecord {
            schema_version: RUN_RECORD_SCHEMA_VERSION,
            algorithm: self.config.algorithm.name.clone(),
            task: self.config.task.name().to_string(),
            points: self.points.clone(),
            empirical_mobility: self.trace.empirical_mobility(),
            wall_seconds: self.elapsed_seconds,
            comm: self.comm,
            syncs: self.syncs,
            active_steps: self.active_steps,
            param_count: self.cloud_flat.flat().len() as u64,
            telemetry: self.telemetry.report(),
            event_seconds: if self.config.timeline.event_mode() {
                Some(self.timeline.clock())
            } else {
                None
            },
        }
    }

    /// Captures a complete snapshot of the run: model parameters, every
    /// RNG stream, fault-plane queues, the communication ledger, the
    /// evaluation points and the step cursor (see [`crate::checkpoint`]
    /// for what is deliberately excluded). Restoring it into a freshly
    /// built simulation of the same config resumes bitwise-identically.
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            schema_version: SIM_CHECKPOINT_SCHEMA_VERSION,
            config_digest: config_digest(&self.config),
            next_step: self.next_step,
            elapsed_seconds: self.elapsed_seconds,
            cloud: Checkpoint::capture(&self.cloud),
            edges: self
                .edges
                .iter()
                .map(|e| EdgeCheckpoint {
                    params: Checkpoint::capture(&e.model),
                    window_samples: e.window_samples,
                })
                .collect(),
            devices: match &self.population {
                Population::Dense(devices) => devices
                    .iter()
                    .map(|d| DeviceCheckpoint {
                        params: Checkpoint::capture(&d.model),
                        oort_utility: d.oort_utility,
                        last_participation: d.last_participation,
                        rng: RngStateCheckpoint::capture(d.rng_ref()),
                    })
                    .collect(),
                Population::Lazy(_) => Vec::new(),
            },
            population: self.population.checkpoint(),
            selection_rng: RngStateCheckpoint::capture(&self.rng),
            availability_rng: RngStateCheckpoint::capture(&self.availability_rng),
            faults: FaultPlaneCheckpoint {
                rng: RngStateCheckpoint::capture(self.faults.rng_ref()),
                device_down: self.faults.device_down_states().to_vec(),
                pending: self.faults.pending().to_vec(),
            },
            compression: self.compression.state_checkpoint(),
            algorithm: self.policy.state(),
            comm: self.comm,
            syncs: self.syncs,
            active_steps: self.active_steps,
            points: self.points.clone(),
            telemetry_counters: if self.telemetry.is_enabled() {
                Some(*self.telemetry.counters())
            } else {
                None
            },
            timeline: if self.config.timeline.event_mode() {
                Some(self.timeline.checkpoint())
            } else {
                None
            },
        }
    }

    /// Restores a snapshot captured by [`Simulation::checkpoint`] into
    /// this simulation, which must have been built from the same
    /// configuration.
    ///
    /// # Errors
    /// [`SimError::CheckpointMismatch`] when the schema version, config
    /// digest, population shape, plane state or model architecture
    /// disagree; the simulation is left unmodified in every case but a
    /// payload that fails to decode (architecture, rng, heap contents).
    pub fn restore(&mut self, ck: &SimCheckpoint) -> Result<(), SimError> {
        let mismatch = |message: String| SimError::CheckpointMismatch { message };
        if ck.schema_version != SIM_CHECKPOINT_SCHEMA_VERSION {
            return Err(mismatch(format!(
                "schema version {} (expected {SIM_CHECKPOINT_SCHEMA_VERSION})",
                ck.schema_version
            )));
        }
        let digest = config_digest(&self.config);
        if ck.config_digest != digest {
            return Err(mismatch(format!(
                "config digest {:016x} (this simulation has {digest:016x})",
                ck.config_digest
            )));
        }
        let ck_devices = ck
            .population
            .as_ref()
            .map_or(ck.devices.len(), |p| p.devices.len());
        if ck.edges.len() != self.edges.len() || ck_devices != self.population.len() {
            return Err(mismatch(format!(
                "population {} edges / {} devices (expected {} / {})",
                ck.edges.len(),
                ck_devices,
                self.edges.len(),
                self.population.len()
            )));
        }
        if ck.faults.device_down.len() != self.population.len() {
            return Err(mismatch("fault-plane device count".into()));
        }
        let params = self.cloud_flat.flat().len();
        if let Some(p) = ck.faults.pending.iter().find(|p| {
            p.edge >= self.edges.len()
                || p.device >= self.population.len()
                || p.flat.len() != params
        }) {
            return Err(mismatch(format!(
                "pending stale upload (edge {}, device {}, {} parameters) does not fit \
                 {} edges / {} devices / {params} parameters",
                p.edge,
                p.device,
                p.flat.len(),
                self.edges.len(),
                self.population.len()
            )));
        }
        // Each optional plane's state must be present iff the plane is
        // active here — checked before the first mutation, so a rejected
        // checkpoint leaves the simulation untouched.
        let plane = |active: bool, present: bool, absent: &str, stray: &str| match (active, present)
        {
            (true, false) => Err(mismatch(absent.into())),
            (false, true) => Err(mismatch(stray.into())),
            _ => Ok(()),
        };
        plane(
            self.compression.lossy_active(),
            ck.compression.is_some(),
            "checkpoint lacks compression state but the plane is lossy-active",
            "checkpoint carries compression state but the plane is inert",
        )?;
        plane(
            self.policy.state().is_some(),
            ck.algorithm.is_some(),
            "configured algorithm carries cross-round state but the checkpoint has none",
            "checkpoint carries algorithm state but the configured algorithm is stateless",
        )?;
        plane(
            self.config.timeline.event_mode(),
            ck.timeline.is_some(),
            "checkpoint is from a lockstep run but the simulation is event-driven",
            "checkpoint is from an event-driven run but the simulation is lockstep",
        )?;
        plane(
            !self.population.is_dense(),
            ck.population.is_some(),
            "checkpoint lacks population state but the simulation is lazy-mode",
            "population checkpoint applied to a dense simulation",
        )?;
        ck.cloud.restore(&mut self.cloud).map_err(&mismatch)?;
        self.cloud_flat.refresh(&self.cloud);
        for (edge, eck) in self.edges.iter_mut().zip(&ck.edges) {
            eck.params.restore(&mut edge.model).map_err(&mismatch)?;
            edge.window_samples = eck.window_samples;
            edge.refresh_flat();
        }
        match &ck.population {
            Some(pck) => self.population.restore(pck).map_err(&mismatch)?,
            None => {
                for (dev, dck) in self
                    .population
                    .dense_slice_mut()
                    .iter_mut()
                    .zip(&ck.devices)
                {
                    dck.params.restore(&mut dev.model).map_err(&mismatch)?;
                    dev.refresh_flat();
                    dev.oort_utility = dck.oort_utility;
                    dev.last_participation = dck.last_participation;
                    dev.restore_rng(dck.rng.restore());
                }
            }
        }
        self.rng = ck.selection_rng.restore();
        self.availability_rng = ck.availability_rng.restore();
        self.faults.restore_state(
            ck.faults.rng.restore(),
            ck.faults.device_down.clone(),
            ck.faults.pending.clone(),
        );
        if let Some(c) = &ck.compression {
            self.compression.restore_state(c).map_err(&mismatch)?;
        }
        if let Some(state) = &ck.algorithm {
            self.policy.restore_state(state).map_err(&mismatch)?;
        }
        if let Some(tck) = &ck.timeline {
            self.timeline = Timeline::restore(tck, self.edges.len(), self.population.len())
                .map_err(&mismatch)?;
            // A timer sync can fire before the first post-restore
            // step boundary rebuilds the step index; give it the
            // index of the last executed step so its broadcast mask
            // sees the same occupancy it did pre-checkpoint.
            if self.timeline.started && ck.next_step > 0 {
                self.index
                    .build(&self.trace, ck.next_step - 1, self.edges.len());
            }
        }
        self.comm = ck.comm;
        self.syncs = ck.syncs;
        self.active_steps = ck.active_steps;
        self.points = ck.points.clone();
        self.next_step = ck.next_step;
        self.elapsed_seconds = ck.elapsed_seconds;
        if let Some(counters) = &ck.telemetry_counters {
            self.telemetry.restore_counters(*counters);
        }
        Ok(())
    }

    /// Panics unless the derived state the hot paths trust agrees with
    /// the state it is derived from
    /// ([`Population::check_invariants`]): the lazy plane's slot table,
    /// residents list, version counts and replica pool, and every
    /// device's cached selection score against the current cloud model.
    /// Meant to be called between ticks by test batteries.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.population.check_invariants(
            self.cloud_flat.epoch,
            self.cloud_flat.flat(),
            self.cloud_flat.norm_sq(),
        );
    }

    /// Builds the evaluation point for time step `t`.
    fn eval_point(&self, t: usize) -> EvalPoint {
        let global = self.virtual_global();
        let (acc, loss, conf) = self.evaluate(&global);
        let mut point = EvalPoint {
            step: t + 1,
            global_accuracy: acc,
            global_loss: loss,
            edge_accuracy: Vec::new(),
            global_per_class: Vec::new(),
            edge0_per_class: Vec::new(),
        };
        if self.config.eval_per_class {
            point.global_per_class = conf.per_class_accuracy();
        }
        if self.config.eval_edges {
            for (n, edge) in self.edges.iter().enumerate() {
                let (eacc, _, econf) = self.evaluate(&edge.model);
                point.edge_accuracy.push(eacc);
                if n == 0 && self.config.eval_per_class {
                    point.edge0_per_class = econf.per_class_accuracy();
                }
            }
        }
        point
    }
}

/// Builds the mobility trace described by the config.
///
/// In lazy population mode the Markov-hop sources use the streaming
/// generator — bitwise-identical rows, O(N) resident memory instead of
/// the O(N·T) dense table. The geometric sources (waypoint/walk/
/// stationary) have no streaming backend yet and stay dense in either
/// mode.
pub(crate) fn build_trace(config: &SimConfig, homes: &[usize]) -> Trace {
    let seed = derive_seed(config.seed, 7);
    let lazy = matches!(config.population, PopulationMode::Lazy);
    match config.mobility {
        MobilitySource::MarkovHop { p } if lazy => {
            Trace::markov_hop_streaming(config.num_edges, config.num_devices, config.steps, p, seed)
        }
        MobilitySource::HomedMarkovHop { p, home_bias } if lazy => {
            Trace::markov_hop_homed_streaming(
                config.num_edges,
                homes,
                config.steps,
                p,
                home_bias,
                seed,
            )
        }
        MobilitySource::MarkovHop { p } => {
            generate_markov_hop(config.num_edges, config.num_devices, config.steps, p, seed)
        }
        MobilitySource::HomedMarkovHop { p, home_bias } => {
            generate_markov_hop_homed(config.num_edges, homes, config.steps, p, home_bias, seed)
        }
        MobilitySource::Stationary => {
            let area = ServiceArea::grid(1000.0, 1000.0, config.num_edges);
            let mut model = MobilityKind::Stationary.build();
            generate_geometric(
                &area,
                model.as_mut(),
                config.num_devices,
                config.steps,
                seed,
            )
        }
        MobilitySource::RandomWalk { max_speed } => {
            let area = ServiceArea::grid(1000.0, 1000.0, config.num_edges);
            let mut model = MobilityKind::RandomWalk { max_speed }.build();
            generate_geometric(
                &area,
                model.as_mut(),
                config.num_devices,
                config.steps,
                seed,
            )
        }
        MobilitySource::RandomWaypoint {
            min_speed,
            max_speed,
        } => {
            let area = ServiceArea::grid(1000.0, 1000.0, config.num_edges);
            let mut model = MobilityKind::RandomWaypoint {
                min_speed,
                max_speed,
            }
            .build();
            generate_geometric(
                &area,
                model.as_mut(),
                config.num_devices,
                config.steps,
                seed,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::builder::SimulationBuilder;
    use middle_data::Task;

    fn built(cfg: SimConfig) -> Simulation {
        SimulationBuilder::new(cfg).build().expect("valid config")
    }

    #[test]
    fn construction_partitions_all_devices() {
        let cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        let sim = built(cfg.clone());
        assert_eq!(sim.devices().len(), cfg.num_devices);
        assert_eq!(sim.edges().len(), cfg.num_edges);
        for d in sim.devices() {
            assert_eq!(d.num_samples(), cfg.samples_per_device);
        }
    }

    #[test]
    fn all_models_start_identical() {
        let sim = built(SimConfig::tiny(Task::Mnist, Algorithm::middle()));
        let cloud = flatten(sim.cloud_model());
        for e in sim.edges() {
            assert_eq!(flatten(&e.model), cloud);
        }
        for d in sim.devices() {
            assert_eq!(flatten(&d.model), cloud);
        }
    }

    #[test]
    fn one_step_changes_participating_edge_models() {
        let mut sim = built(SimConfig::tiny(Task::Mnist, Algorithm::middle()));
        let before = flatten(&sim.edges()[0].model);
        sim.tick(StepMode::Fast);
        // At least one edge must have trained (8 devices over 2 edges).
        let changed = sim.edges().iter().any(|e| flatten(&e.model) != before);
        assert!(changed);
    }

    #[test]
    fn cloud_syncs_at_interval() {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.cloud_interval = 2;
        let mut sim = built(cfg);
        let initial_cloud = flatten(sim.cloud_model());
        sim.tick(StepMode::Fast);
        assert_eq!(flatten(sim.cloud_model()), initial_cloud, "no sync yet");
        sim.tick(StepMode::Fast);
        let synced = flatten(sim.cloud_model());
        assert_ne!(synced, initial_cloud, "sync after step 2");
        // Broadcast: edges and devices match the cloud.
        for e in sim.edges() {
            assert_eq!(flatten(&e.model), synced);
        }
        for d in sim.devices() {
            assert_eq!(flatten(&d.model), synced);
        }
    }

    #[test]
    fn run_produces_monotone_step_points() {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.steps = 6;
        cfg.eval_interval = 2;
        let record = built(cfg).run();
        let steps: Vec<usize> = record.points.iter().map(|p| p.step).collect();
        assert_eq!(steps, vec![2, 4, 6]);
        assert!(record.wall_seconds > 0.0);
        assert!((0.0..=1.0).contains(&record.final_accuracy()));
    }

    #[test]
    fn eval_flags_populate_extra_series() {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.steps = 2;
        cfg.eval_interval = 2;
        cfg.eval_edges = true;
        cfg.eval_per_class = true;
        let record = built(cfg.clone()).run();
        let p = &record.points[0];
        assert_eq!(p.edge_accuracy.len(), cfg.num_edges);
        assert_eq!(p.global_per_class.len(), 10);
        assert_eq!(p.edge0_per_class.len(), 10);
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        cfg.steps = 4;
        let a = built(cfg.clone()).run();
        let b = built(cfg.clone()).run();
        let accs = |r: &RunRecord| {
            r.points
                .iter()
                .map(|p| p.global_accuracy)
                .collect::<Vec<_>>()
        };
        assert_eq!(accs(&a), accs(&b));
        cfg.seed = 8;
        let c = built(cfg).run();
        assert_ne!(accs(&a), accs(&c));
    }

    #[test]
    fn all_five_figure6_algorithms_run() {
        for algo in Algorithm::figure6() {
            let mut cfg = SimConfig::tiny(Task::Mnist, algo);
            cfg.steps = 4;
            let record = built(cfg).run();
            assert!(!record.points.is_empty());
            assert!(record.points.iter().all(|p| p.global_accuracy.is_finite()));
        }
    }
}
