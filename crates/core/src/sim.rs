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
    cloud_aggregate, cloud_aggregate_into, edge_aggregate_into, on_device_init_into,
};
use crate::algorithms::{AlgorithmPolicy, MoveAction};
use crate::builder::{PopulationData, SharedInputs, SimError};
use crate::checkpoint::{
    config_digest, EdgeCheckpoint, FaultPlaneCheckpoint, RngStateCheckpoint, SimCheckpoint,
    SIM_CHECKPOINT_SCHEMA_VERSION,
};
use crate::comm::CommStats;
use crate::compress::{CompressJob, CompressionPlane, Sender};
use crate::config::{MobilitySource, SimConfig};
use crate::device::infer_chunk;
use crate::faults::FaultPlane;
use crate::metrics::{EvalPoint, RunRecord, RUN_RECORD_SCHEMA_VERSION};
use crate::population::{DeviceRef, PendingInit, Population, Reached};
use crate::selection::{select_devices_scored, CandidateScorers, SelectionScratch};
use crate::similarity::{aggregation_weights, similarity_utility_cached};
use crate::telemetry::{Phase, Telemetry};
use crate::timeline::{ArrivalOutcome, Event, EventKind, ExecutionMode, LatencyModel, Timeline};
use crate::{OnDevicePolicy, SelectionSignal};
use middle_data::partition::Partition;
use middle_data::{Confusion, Dataset};
use middle_mobility::Trace;
use middle_nn::loss::softmax_cross_entropy;
use middle_nn::params::flatten;
use middle_nn::serialize::Checkpoint;
use middle_nn::Sequential;
use middle_tensor::ops::dot_slices;
use middle_tensor::random::{derive_seed, rng};
use middle_tensor::reduce::argmax_rows;
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

#[cfg(test)]
mod kernel_pairs;

/// Rows per chunk of [`Simulation::evaluate`]'s parallel inference: the
/// kernels' sample tile, so a chunk's activations stay in cache.
const EVAL_CHUNK: usize = 16;

/// The argument of [`Simulation::tick`] and [`crate::SweepOptions`]'s
/// `step_mode`: inert. The round runs one set of kernels; their oracles
/// are test support (DESIGN.md §6). It stays only because the frozen
/// benchmark under `perf/` still names it, and leaves with the
/// perf-only PR of ROADMAP item 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StepMode {
    /// The one round there is.
    #[default]
    Fast,
}

/// State of one edge server.
///
/// Selection and on-device aggregation read the edge's flat parameters
/// every step: that flat is the model's own plane ([`EdgeState::flat`]),
/// and its squared norm is cached beside it. Code that mutates `model`
/// directly must call [`EdgeState::refresh_flat`] afterwards.
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
    norm_sq: f32,
}

impl EdgeState {
    /// Creates an edge state, its norm computed from the model.
    pub fn new(model: Sequential) -> Self {
        let mut edge = EdgeState {
            model,
            window_samples: 0.0,
            norm_sq: 0.0,
        };
        edge.refresh_flat();
        edge
    }

    /// The edge model's flat parameter vector: its parameter plane.
    pub fn flat(&self) -> &[f32] {
        self.model.params()
    }

    /// Cached squared L2 norm of the edge model's parameters.
    pub fn flat_norm_sq(&self) -> f32 {
        self.norm_sq
    }

    /// Recomputes the cached norm from the current edge model.
    pub fn refresh_flat(&mut self) {
        self.norm_sq = dot_slices(self.flat(), self.flat());
    }

    /// Overwrites the edge model from a flat vector with known squared
    /// norm (the cloud-broadcast fast path).
    pub fn load_flat(&mut self, flat: &[f32], norm_sq: f32) {
        middle_nn::params::unflatten(&mut self.model, flat);
        self.norm_sq = norm_sq;
    }
}

/// The cloud model's cached squared norm, and an epoch that counts its
/// refreshes: a device's cached selection score
/// ([`Device::cloud_score`](crate::device::Device::cloud_score)) is
/// valid only against the epoch it was computed in, so the two move
/// together here and nowhere else. The epoch is derived state — a
/// restore starts a new one — and is never checkpointed. The cloud's
/// flat is its model's plane.
struct CloudView {
    norm_sq: f32,
    epoch: u64,
}

impl CloudView {
    fn of(cloud: &Sequential) -> Self {
        let flat = cloud.params();
        CloudView {
            norm_sq: dot_slices(flat, flat),
            epoch: 0,
        }
    }

    fn refresh(&mut self, cloud: &Sequential) {
        let flat = cloud.params();
        self.norm_sq = dot_slices(flat, flat);
        self.epoch += 1;
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
/// produced (so the selection draws see the same candidate order).
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
    // The population's data and initial model, shared read-only with
    // every scenario of the population (and with `population`).
    data: Arc<PopulationData>,
    rng: StdRng,
    comm: CommStats,
    syncs: u64,
    active_steps: u64,
    telemetry: Telemetry,
    faults: FaultPlane,
    // The resolved algorithm-policy object ([`SimConfig::algorithm`]
    // via `Algorithm::resolve`): selection source, on-move
    // verdicts and any cross-round state. The one round skeleton fires
    // its hooks, so stateful algorithms evolve identically lockstep and
    // event-driven.
    policy: Box<dyn AlgorithmPolicy>,
    // Uplink compression (quantization + top-K sparsification with
    // error feedback) and the lossy sync's aggregation scratch buffer.
    // Inert — no draws, no residuals, dense byte accounting — unless the
    // config makes the plane lossy-active.
    compression: CompressionPlane,
    agg_scratch: Vec<f32>,
    // Round scratch of a lossy plane: the uploads the round owes its one
    // compression batch, and the reconstructions of each edge's delivered
    // cohort (parallel to `delivered_per_edge`; empty while the plane is
    // inert).
    pending_uploads: Vec<PendingUpload>,
    delivered_payloads: Vec<Vec<Option<Vec<f32>>>>,
    // Hot-path state: the cloud's cached norm and epoch (refreshed only
    // when the cloud model actually changes) and per-step scratch buffers that
    // persist across steps so the steady-state loop never allocates.
    cloud_view: CloudView,
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
    // one participant region.
    pending_inits: Vec<PendingInit>,
    // Per-live-version similarity scores against the current cloud
    // model, refilled each step before selection (empty under
    // non-similarity policies).
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
    // wave/busy bookkeeping (untouched in lockstep mode).
    timeline: Timeline,
}

impl Simulation {
    /// Assembles the per-run mutable state from validated, possibly
    /// cache-shared immutable inputs. Only [`SimulationBuilder`] calls
    /// this; the population is read through its `Arc` and per-run
    /// state is *cloned* out of the inputs, so a cache hit is bitwise
    /// identical to a cold construction.
    pub(crate) fn from_shared(
        config: SimConfig,
        inputs: &SharedInputs,
        telemetry: Telemetry,
    ) -> Self {
        let seed = config.seed;
        let data = Arc::clone(&inputs.population);
        let init = data.init.clone();
        let population = Population::new(Arc::clone(&data), seed, config.num_devices);
        let edges: Vec<EdgeState> = (0..config.num_edges)
            .map(|_| EdgeState::new(init.clone()))
            .collect();
        let cloud_view = CloudView::of(&init);
        let selected_per_edge = (0..config.num_edges).map(|_| Vec::new()).collect();
        let delivered_per_edge = (0..config.num_edges).map(|_| Vec::new()).collect();
        let delivered_payloads = (0..config.num_edges).map(|_| Vec::new()).collect();
        let faults = FaultPlane::new(config.faults, config.num_devices, seed);
        let policy = config.algorithm.resolve(config.num_devices);
        let compression = CompressionPlane::new(
            config.compression.clone(),
            config.num_devices,
            config.num_edges,
            init.param_count(),
            seed,
        );
        Simulation {
            cloud: init,
            population,
            edges,
            trace: inputs.trace.clone(),
            data,
            rng: rng(derive_seed(seed, 6)),
            comm: CommStats::default(),
            syncs: 0,
            active_steps: 0,
            telemetry,
            faults,
            policy,
            compression,
            agg_scratch: Vec::new(),
            pending_uploads: Vec::new(),
            delivered_payloads,
            cloud_view,
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
        &self.data.partition
    }

    /// The held-out test set.
    pub fn test_set(&self) -> &Dataset {
        &self.data.test
    }

    /// Current cloud model.
    pub fn cloud_model(&self) -> &Sequential {
        &self.cloud
    }

    /// Current edge states.
    pub fn edges(&self) -> &[EdgeState] {
        &self.edges
    }

    /// The device population plane: stubs of broadcast versions and the
    /// replicas of the devices materialised since the last broadcast.
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
    fn fault_step_begin(&mut self) {
        let timer = self.telemetry.start();
        for p in self.faults.take_pending() {
            // The late upload is charged when it arrives, not when it
            // was scheduled — at the (possibly compressed) payload size
            // recorded when the deadline was missed.
            self.comm.device_to_edge += 1;
            self.comm.device_to_edge_bytes += p.payload_bytes;
            self.blend_late_upload(p.edge, p.device, &p.flat, p.norm_sq);
        }
        self.faults.advance_dropout();
        self.telemetry.stop(Phase::FaultRecovery, timer);
    }

    /// Blends a late upload into its edge with Eq. 9's
    /// similarity-discounted weighting — the lockstep stale merge and
    /// the event engine's arrival for an already-closed wave. Charging
    /// the transfer is the caller's business (on arrival in lockstep,
    /// at send time in the event engine); only the staleness counter
    /// moves here.
    fn blend_late_upload(&mut self, edge: usize, device: usize, flat: &[f32], norm_sq: f32) {
        let e = &mut self.edges[edge];
        let u = similarity_utility_cached(flat, norm_sq, e.flat(), e.flat_norm_sq());
        let (edge_w, stale_w) = aggregation_weights(u);
        assert_eq!(flat.len(), e.model.param_count(), "late upload length");
        for (ew, &v) in e.model.params_mut().iter_mut().zip(flat) {
            *ew = edge_w * *ew + stale_w * v;
        }
        e.refresh_flat();
        self.comm.stale_uploads += 1;
        // A stale merge is still an edge aggregation of this device's
        // update, so stateful algorithms observe it.
        self.policy
            .after_edge_aggregate(edge, std::slice::from_ref(&device));
    }

    /// Runs one upload through the fault plane's loss/retry process,
    /// charging every transmission attempt to [`CommStats`]; lost uploads
    /// are retried with exponential backoff and abandoned after the retry
    /// budget. Returns whether the upload was delivered. A lost upload
    /// was still compressed and sent — the loss happens on the wire — so
    /// a lossy plane's caller queues it for the round's batch, where the
    /// sender's residual and the compression RNG advance.
    fn attempt_upload(&mut self) -> bool {
        let o = self.faults.upload_attempts();
        self.comm.device_to_edge += u64::from(o.attempts);
        self.comm.device_to_edge_bytes += u64::from(o.attempts) * self.compression.payload_bytes();
        self.comm.upload_retransmissions += u64::from(o.attempts - 1);
        self.comm.retry_backoff_slots += o.backoff_slots;
        if !o.delivered {
            self.comm.lost_uploads += 1;
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
    /// attempt. A lossy plane then compresses the round's uploads —
    /// misses, losses and the delivered cohorts — as one batch
    /// ([`Simulation::compress_round_uploads`]).
    fn upload_pass(&mut self) {
        let timer = self.telemetry.start();
        let lossy = self.compression.lossy_active();
        let payload = self.compression.payload_bytes();
        self.pending_uploads.clear();
        let selected_per_edge = std::mem::take(&mut self.selected_per_edge);
        for (n, selected) in selected_per_edge.iter().enumerate() {
            self.delivered_per_edge[n].clear();
            for &m in selected {
                if self.faults.misses_deadline() {
                    self.telemetry.count(|c| c.deadline_misses += 1);
                    if lossy {
                        // The device compresses at miss time, against
                        // the edge model it saw; the stale merge next
                        // step lands the *reconstructed* model and
                        // charges the compressed payload.
                        self.pending_uploads
                            .push(PendingUpload::new(n, m, Owed::Stale));
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
                } else if self.attempt_upload() {
                    self.delivered_per_edge[n].push(m);
                } else if lossy {
                    self.pending_uploads
                        .push(PendingUpload::new(n, m, Owed::Lost));
                }
            }
            // Graceful degradation: an edge whose whole cohort failed
            // to deliver skips aggregation and carries w_n forward.
            if !selected.is_empty() && self.delivered_per_edge[n].is_empty() {
                self.telemetry.count(|c| c.empty_cohorts += 1);
            }
        }
        self.selected_per_edge = selected_per_edge;
        self.telemetry.stop(Phase::FaultRecovery, timer);
        if lossy {
            self.compress_round_uploads();
        }
    }

    /// The lossy half of [`Simulation::upload_pass`]: compresses the
    /// round's misses and losses, in upload order, then every delivered
    /// cohort, edge by edge, as one batch against each edge's current
    /// model — the order the plane's stream is drawn in. Stale payloads
    /// join the fault plane's queue in miss order; delivered ones land in
    /// `delivered_payloads`, parallel to `delivered_per_edge`.
    fn compress_round_uploads(&mut self) {
        let timer = self.telemetry.start();
        for (n, cohort) in self.delivered_per_edge.iter().enumerate() {
            (self.pending_uploads).extend(
                cohort
                    .iter()
                    .map(|&m| PendingUpload::new(n, m, Owed::Delivered)),
            );
            self.delivered_payloads[n].resize_with(cohort.len(), || None);
        }
        let misses = (self.pending_uploads.iter())
            .filter(|u| u.owed == Owed::Stale)
            .count();
        let d = self.cloud.param_count();
        let mut stale: Vec<Vec<f32>> = (0..misses).map(|_| Vec::with_capacity(d)).collect();
        let delivered = (self.delivered_payloads.iter_mut().flatten())
            .map(|p| p.get_or_insert_with(|| Vec::with_capacity(d)));
        compress_pending(
            &mut self.compression,
            &self.population,
            &self.edges,
            &self.pending_uploads,
            &[],
            &mut stale,
            delivered,
        );
        let compressed = self.pending_uploads.len() as u64;
        self.telemetry.count(|c| c.compressed_uploads += compressed);
        let payload = self.compression.payload_bytes();
        let misses = self
            .pending_uploads
            .iter()
            .filter(|u| u.owed == Owed::Stale);
        for (u, flat) in misses.zip(stale) {
            let norm_sq = dot_slices(&flat, &flat);
            self.faults
                .push_stale(u.edge, u.device, flat, norm_sq, payload);
        }
        self.telemetry.stop(Phase::Compress, timer);
    }

    /// The serial tail of Eq. 6 at edge `n`, once `cohort` is folded in:
    /// the sample window Eq. 7 weights by, then the policy hook. An empty
    /// cohort has no tail.
    fn after_edge_aggregate(&mut self, n: usize, cohort: &[usize]) {
        if cohort.is_empty() {
            return;
        }
        self.edges[n].window_samples += cohort_samples(&self.data.partition, cohort) as f64;
        self.policy.after_edge_aggregate(n, cohort);
    }

    /// One event wave's Eq. 6 at edge `n`: the per-edge body
    /// ([`aggregate_edge`]), then its tail.
    fn aggregate_cohort(&mut self, n: usize, cohort: &[usize], payloads: &[Option<Vec<f32>>]) {
        if cohort.is_empty() {
            return;
        }
        let timer = self.telemetry.start();
        let population = &self.population;
        aggregate_edge(
            &mut self.edges[n],
            cohort,
            payloads,
            &self.data.partition,
            |m| member_of(population, m),
        );
        self.after_edge_aggregate(n, cohort);
        self.telemetry.stop(Phase::EdgeAggregation, timer);
    }

    /// Lockstep Eq. 6: every edge's delivered cohort in one parallel
    /// region ([`aggregate_edges`]), then the serial tail edge by edge in
    /// ascending order — the hook order of every execution mode.
    fn aggregate_delivered(&mut self) {
        let timer = self.telemetry.start();
        let population = &self.population;
        aggregate_edges(
            &mut self.edges,
            &self.delivered_per_edge,
            &self.delivered_payloads,
            &self.data.partition,
            |m| member_of(population, m),
        );
        let cohorts = std::mem::take(&mut self.delivered_per_edge);
        for (n, cohort) in cohorts.iter().enumerate() {
            self.after_edge_aggregate(n, cohort);
        }
        self.delivered_per_edge = cohorts;
        self.telemetry.stop(Phase::EdgeAggregation, timer);
    }

    /// One lockstep round `t` of Algorithm 1 (0-based; syncs with the
    /// cloud after every `cloud_interval`-th step): the shared front
    /// half, the upload pass, Eq. 6 across edges over the delivered
    /// cohorts, then the cadence sync.
    ///
    /// The steady-state loop is allocation-free: candidate sets, scores
    /// and winner lists land in persistent scratch buffers, device inits
    /// are written straight into each participating device's carried
    /// model, aggregation runs in place on the edge/cloud parameter
    /// tensors, and the cloud broadcast copies parameters instead of
    /// cloning models.
    fn tick_lockstep(&mut self, t: usize) {
        self.begin_step(t);
        self.phase_select_train(t);
        self.upload_pass();
        self.aggregate_delivered();
        if (t + 1).is_multiple_of(self.config.cloud_interval) {
            self.cloud_sync_now();
        }
    }

    /// Step-begin work shared by every execution mode: rebuild the step
    /// index for `t` and run the fault plane's begin-of-step recovery
    /// (stale merges + dropout chains).
    fn begin_step(&mut self, t: usize) {
        assert!(t < self.trace.steps(), "step beyond trace horizon");
        self.index.build(&self.trace, t, self.edges.len());
        self.fault_step_begin();
    }

    /// Makes every selection score of the step a lookup
    /// ([`cached_similarity`]). Each live broadcast version is scored
    /// against the cloud once per step; every stub of a version then
    /// shares that score bitwise, as every device holding the same
    /// parameters would. Materialised devices cache their
    /// own score beside their flat: the training job fills it, and the
    /// pre-pass here scores whatever is stale regardless.
    fn refresh_selection_scores(&mut self) {
        if self.policy.selection().signal() == SelectionSignal::Similarity {
            let (flat, norm_sq) = (self.cloud.params(), self.cloud_view.norm_sq);
            self.population
                .version_scores(flat, norm_sq, &mut self.version_scores);
            self.population.refresh_cloud_scores(
                self.cloud_view.epoch,
                flat,
                norm_sq,
                &mut self.stale_scores,
            );
        }
    }

    /// Phases 1 + 2 — in-edge device selection, then one parallel region
    /// over the participants: device init and local training. Fills
    /// `self.selected_per_edge` and accrues `active_steps` when any edge
    /// selected a non-empty cohort. Shared by the lockstep step and the
    /// event engine's step-boundary handler.
    fn phase_select_train(&mut self, t: usize) {
        let timer = self.telemetry.start();
        self.refresh_selection_scores();
        self.telemetry.stop(Phase::Selection, timer);
        // Phase 1 — in-edge device selection, edge by edge, deciding
        // each selected device's initial model (moved devices aggregate
        // on device, stationary ones download the edge model); the
        // models are written after the last edge, in the participant
        // region.
        self.participants.clear();
        self.pending_inits.clear();
        for n in 0..self.edges.len() {
            let timer = self.telemetry.start();
            self.candidates.clear();
            self.candidates.extend_from_slice(self.index.devices_at(n));
            let seen = self.candidates.len();
            if self.faults.dropout_active() {
                let faults = &self.faults;
                self.candidates.retain(|&m| !faults.is_down(m));
            }
            let up = self.candidates.len();
            self.telemetry.count(|c| {
                c.candidates_seen += seen as u64;
                c.dropout_drops += (seen - up) as u64;
            });
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
                self.telemetry.stop(Phase::Selection, timer);
                continue;
            }
            {
                let population = &self.population;
                let similarity =
                    cached_similarity(population, &self.version_scores, self.cloud_view.epoch);
                let oort = |m: usize| population.oort_utility(m).unwrap_or(f32::INFINITY);
                let policy = &self.policy;
                let cluster = |m: usize| policy.cluster_of(m);
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
            self.telemetry.stop(Phase::Selection, timer);

            let timer = self.telemetry.start();
            let selected = &self.selected_per_edge[n];
            // Downloads are counted only when the edge model is actually
            // consumed (a moved device under KeepLocal never downloads);
            // uploads are charged by the post-training upload pass.
            let mut downloads = 0u64;
            let mut migrations = 0u64;
            let mut moved = 0u64;
            for &m in selected {
                // A selected device needs a replica before its init
                // touches the carried model; reserving one is the
                // serial, cheap half of materialisation (no-op when
                // already resident).
                let reserved = self.population.reserve(m);
                self.participants.push(m);
                // A stationary device downloads the edge model, which
                // is exactly the `EdgeModel` init.
                let init = if self.index.moved(m) {
                    moved += 1;
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
                    reserved,
                    edge: n,
                    init,
                });
            }
            self.comm.edge_to_device += downloads;
            self.comm.edge_to_device_bytes += downloads * self.compression.dense_payload_bytes();
            self.comm.edge_to_edge += migrations;
            self.comm.edge_to_edge_bytes += migrations * self.compression.dense_payload_bytes();
            let selected = selected.len() as u64;
            self.telemetry.count(|c| {
                c.selected += selected;
                c.moved_inits += moved;
            });
            self.telemetry.stop(Phase::DeviceInit, timer);
        }
        if self.selected_per_edge.iter().any(|s| !s.is_empty()) {
            self.active_steps += 1;
        }

        // Phase 2 — the participant region. The explicit participant id
        // list (sorted to strictly ascending — a device is attached to
        // exactly one edge per step, so ids are distinct) splits it over
        // exactly the K·E participants instead of one no-op task per
        // idle device. Each participant's whole job runs on one thread:
        // the rest of its materialisation, its initial model, `I` local
        // steps, and then what the selection policy reads of it — its
        // score against the cloud while its flat is hot, so the next
        // step's selection finds the score cached, or its Oort utility
        // (one inference over its local samples). Nothing in
        // phase 1 read a selected device after its reservation (a device
        // sits under exactly one edge per step), so deferring the writes
        // to here changes no value; each participant owns its slot and
        // its rng, so the split cannot affect numerics either.
        let timer = self.telemetry.start();
        self.participants.sort_unstable();
        self.pending_inits.sort_unstable_by_key(|p| p.device);
        let (local_steps, batch_size, optimizer) = (
            self.config.local_steps,
            self.config.batch_size,
            self.config.optimizer,
        );
        let signal = self.policy.selection().signal();
        let (edges, cloud, cloud_flat) = (&self.edges, &self.cloud_view, self.cloud.params());
        self.population
            .run_participants(&self.participants, &self.pending_inits, |dev, p| {
                if let Some(on_device) = p.init {
                    let edge = &edges[p.edge];
                    on_device_init_into(
                        on_device,
                        dev,
                        &edge.model,
                        edge.flat(),
                        edge.flat_norm_sq(),
                    );
                }
                dev.local_train(local_steps, batch_size, &optimizer, t);
                match signal {
                    SelectionSignal::Similarity => {
                        dev.refresh_cloud_score(cloud.epoch, cloud_flat, cloud.norm_sq);
                    }
                    SelectionSignal::Utility => dev.refresh_oort_utility(),
                    SelectionSignal::Nothing => {}
                }
            });
        self.telemetry.stop(Phase::LocalTraining, timer);
        let population = &self.population;
        let utility = |m: usize| population.oort_utility(m);
        self.policy
            .observe_participants(&self.participants, &utility);
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
    /// otherwise `cloud_aggregate_into` aggregates the edge models in
    /// place. The broadcast copies the cloud's plane. Returns whether
    /// a sync happened.
    fn cloud_sync_now(&mut self) -> bool {
        let mut timer = self.telemetry.start();
        let mut wan_up = std::mem::take(&mut self.wan_up);
        wan_up.clear();
        if self.faults.wan_active() {
            wan_up.extend((0..self.edges.len()).map(|_| self.faults.wan_is_up()));
        }
        let mask = self.faults.wan_active().then_some(&wan_up[..]);
        let up = |n: usize| mask.is_none_or(|m| m[n]);
        let up_edges = (0..self.edges.len()).filter(|&n| up(n)).count() as u64;
        let down = self.edges.len() as u64 - up_edges;
        self.telemetry.count(|c| c.wan_outages += down);
        if up_edges == 0 {
            self.telemetry.stop(Phase::CloudSync, timer);
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
            self.telemetry.stop(Phase::CloudSync, timer);
            let compress = self.telemetry.start();
            let mut payloads: Vec<Vec<f32>> = vec![Vec::new(); self.edges.len()];
            let (edges, cloud) = (&self.edges, self.cloud.params());
            let mut jobs: Vec<CompressJob> = (payloads.iter_mut().enumerate())
                .filter(|&(n, _)| up(n))
                .map(|(n, payload)| CompressJob {
                    sender: Sender::Edge(n),
                    new: edges[n].flat(),
                    reference: cloud,
                    payload: Some(payload),
                })
                .collect();
            self.compression.compress_batch(&mut jobs);
            self.telemetry.count(|c| c.compressed_syncs += up_edges);
            self.telemetry.stop(Phase::Compress, compress);
            timer = self.telemetry.start();
            let total: f64 = (0..self.edges.len())
                .filter(|&n| up(n))
                .map(|n| self.edges[n].window_samples)
                .sum();
            self.agg_scratch.clear();
            self.agg_scratch.resize(self.cloud.param_count(), 0.0);
            for n in (0..self.edges.len()).filter(|&n| up(n)) {
                let w = if total > 0.0 {
                    (self.edges[n].window_samples / total) as f32
                } else {
                    (1.0 / up_edges as f64) as f32
                };
                for (a, &r) in self.agg_scratch.iter_mut().zip(&payloads[n]) {
                    *a += w * r;
                }
            }
            middle_nn::params::unflatten(&mut self.cloud, &self.agg_scratch);
        } else {
            let parts = (self.edges.iter().enumerate())
                .filter(|&(n, _)| up(n))
                .map(|(_, e)| (&e.model, e.window_samples));
            cloud_aggregate_into(&mut self.cloud, parts);
        }
        self.cloud_view.refresh(&self.cloud);

        let reached = match mask {
            Some(up) => Reached::Mask {
                up,
                edge_of: &self.index.cur,
            },
            None => Reached::All,
        };
        let (flat, norm_sq) = (self.cloud.params(), self.cloud_view.norm_sq);
        for (n, edge) in self.edges.iter_mut().enumerate() {
            if up(n) {
                edge.load_flat(flat, norm_sq);
                edge.window_samples = 0.0;
            }
        }
        self.population.apply_broadcast(flat, norm_sq, reached);
        // The devices under an up edge: an O(E) occupancy sum over the
        // step index, every device when no edge is down.
        let receivers = (0..self.edges.len())
            .filter(|&n| up(n))
            .map(|n| self.index.occupancy(n))
            .sum::<usize>() as u64;
        self.comm.charge_broadcast(receivers, dense);
        self.policy.after_cloud_sync(mask, &self.index.cur);
        self.telemetry.stop(Phase::CloudSync, timer);
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
    /// `RunRecord` bitwise (the zero-delay twin of
    /// `crates/core/tests/matrix.rs`'s lockstep cells).
    fn tick_event(&mut self) {
        if !self.timeline.started {
            self.timeline.started = true;
            self.timeline.push(0.0, EventKind::StepBoundary { step: 0 });
            if let Some(period) = self.config.timeline.cloud_timer {
                self.timeline
                    .push(period, EventKind::CloudSync { timer: true });
            }
        }
        while let Some(ev) = self.timeline.pop() {
            let timer = self.telemetry.start();
            let end_of_step = self.process_event(&ev);
            self.telemetry.stop_event(ev.kind, timer);
            if end_of_step {
                if matches!(ev.kind, EventKind::EndOfStep { step } if step + 1 == self.config.steps)
                {
                    self.drain_tail();
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
    fn drain_tail(&mut self) {
        while let Some(next) = self.timeline.peek() {
            if matches!(next.kind, EventKind::CloudSync { timer: true }) {
                self.timeline.discard_next();
                continue;
            }
            let ev = self.timeline.pop().expect("peeked event still queued");
            let timer = self.telemetry.start();
            self.process_event(&ev);
            self.telemetry.stop_event(ev.kind, timer);
        }
    }

    /// Dispatch one popped event. Returns true when the event was the
    /// current round's `EndOfStep` (the tick is over). Everything an
    /// event records lands in the tick's open telemetry step, the
    /// arrivals that pop before the round's boundary included.
    fn process_event(&mut self, ev: &Event) -> bool {
        match ev.kind {
            EventKind::StepBoundary { step } => self.event_step_boundary(step),
            EventKind::DeviceUpload { edge, device, wave } => {
                self.event_upload_arrival(edge, device, wave);
            }
            EventKind::EdgeAggregate { edge, wave } => self.event_edge_aggregate(edge, wave),
            EventKind::CloudSync { timer } => self.event_cloud_sync(timer),
            EventKind::EndOfStep { .. } => return true,
        }
        false
    }

    /// `StepBoundary { t }`: the synchronous front half of round `t` —
    /// fault recovery, selection, device init, local training — then
    /// schedules the round's uploads as events, the synchronous cloud
    /// sync (when no timer is configured) and the `EndOfStep` marker.
    fn event_step_boundary(&mut self, t: usize) {
        self.begin_step(t);
        self.phase_select_train(t);
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
                self.upload_pass();
                for n in 0..self.edges.len() {
                    let cohort = self.delivered_per_edge[n].clone();
                    let trigger = self.config.timeline.edge_threshold.unwrap_or(cohort.len());
                    // Zero delay: every wave aggregates within its own
                    // round, so there is never a remainder to flush.
                    let flushed = self.timeline.open_wave(n, cohort.clone(), trigger);
                    debug_assert!(flushed.is_none(), "zero-delay wave left a remainder");
                    let wave = self.timeline.wave_id(n);
                    // A lossy plane's reconstructions ride their uploads
                    // like the async arm's send-time snapshots.
                    let mut payloads = std::mem::take(&mut self.delivered_payloads[n]).into_iter();
                    for &m in &cohort {
                        if let Some(Some(payload)) = payloads.next() {
                            self.timeline.send_upload(m, payload);
                        }
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
            LatencyModel::Faults => sync_at = self.event_upload_pass(),
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
    fn event_upload_pass(&mut self) -> f64 {
        let now = self.timeline.clock();
        let lossy = self.compression.lossy_active();
        let mut timer = self.telemetry.start();
        self.pending_uploads.clear();
        // Every delivered upload of the round, in send order.
        let mut sends: Vec<(usize, usize, f64)> = Vec::new();
        // Pre-flush copies of the edges whose lost uploads were
        // compressed against the model a flush below then replaces.
        let mut pre_flush: Vec<(usize, Vec<f32>)> = Vec::new();
        for n in 0..self.edges.len() {
            let selected = std::mem::take(&mut self.selected_per_edge[n]);
            let (lost_from, sent_from) = (self.pending_uploads.len(), sends.len());
            for &m in &selected {
                let delay = self.faults.sample_upload_delay();
                if self.attempt_upload() {
                    sends.push((n, m, delay));
                } else if lossy {
                    self.pending_uploads
                        .push(PendingUpload::new(n, m, Owed::Lost));
                }
            }
            if !selected.is_empty() && sends.len() == sent_from {
                self.telemetry.count(|c| c.empty_cohorts += 1);
            }
            // Open the round's wave with the delivered cohort; an
            // un-triggered remainder of the previous wave is flushed
            // into the edge first so arrived updates are never dropped.
            let members: Vec<usize> = sends[sent_from..].iter().map(|&(_, m, _)| m).collect();
            let trigger = self.config.timeline.edge_threshold.unwrap_or(members.len());
            if let Some((cohort, snaps)) = self.timeline.open_wave(n, members, trigger) {
                if self.pending_uploads.len() > lost_from {
                    pre_flush.push((n, self.edges[n].flat().to_vec()));
                }
                self.telemetry.stop(Phase::FaultRecovery, timer);
                self.aggregate_cohort(n, &cohort, &snaps);
                self.timeline.aggs_since_sync += 1;
                timer = self.telemetry.start();
            }
            if lossy {
                (self.pending_uploads).extend(
                    sends[sent_from..]
                        .iter()
                        .map(|&(n, m, _)| PendingUpload::new(n, m, Owed::Delivered)),
                );
            }
            self.selected_per_edge[n] = selected;
        }
        self.telemetry.stop(Phase::FaultRecovery, timer);
        // The in-flight payload is snapshotted at send time — lossy runs
        // ship the compressed reconstruction, compressed as one batch.
        let d = self.cloud.param_count();
        let mut payloads: Vec<Vec<f32>> = (0..sends.len()).map(|_| Vec::with_capacity(d)).collect();
        if lossy {
            let timer = self.telemetry.start();
            compress_pending(
                &mut self.compression,
                &self.population,
                &self.edges,
                &self.pending_uploads,
                &pre_flush,
                &mut [],
                payloads.iter_mut(),
            );
            let compressed = self.pending_uploads.len() as u64;
            self.telemetry.count(|c| c.compressed_uploads += compressed);
            self.telemetry.stop(Phase::Compress, timer);
        }
        let timer = self.telemetry.start();
        let mut last_arrival = now;
        for ((n, m, delay), mut payload) in sends.into_iter().zip(payloads) {
            if !lossy {
                payload.extend_from_slice(self.population.get(m).flat());
            }
            self.timeline.send_upload(m, payload);
            last_arrival = last_arrival.max(now + delay);
            let wave = self.timeline.wave_id(n);
            self.timeline.push(
                now + delay,
                EventKind::DeviceUpload {
                    edge: n,
                    device: m,
                    wave,
                },
            );
        }
        self.telemetry.stop(Phase::FaultRecovery, timer);
        last_arrival
    }

    /// `DeviceUpload` arrival: record it in its edge's wave; the
    /// trigger-hitting arrival schedules the wave's `EdgeAggregate`.
    /// Arrivals for an already-aggregated (or superseded) wave are
    /// *late*: the update blends into the edge like a lockstep stale
    /// merge ([`Simulation::blend_late_upload`]) — its transfer was
    /// already charged at send time.
    fn event_upload_arrival(&mut self, edge: usize, device: usize, wave: u64) {
        let snapshot = self.timeline.take_in_flight(device);
        if !self.timeline.wave_accepts(edge, device, wave) {
            if let Some(flat) = snapshot {
                let timer = self.telemetry.start();
                let norm_sq = dot_slices(&flat, &flat);
                self.blend_late_upload(edge, device, &flat, norm_sq);
                self.telemetry.stop(Phase::FaultRecovery, timer);
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
    fn event_edge_aggregate(&mut self, edge: usize, wave: u64) {
        if let Some((cohort, snaps)) = self.timeline.take_ready(edge, wave) {
            self.aggregate_cohort(edge, &cohort, &snaps);
            self.timeline.aggs_since_sync += 1;
        }
    }

    /// `CloudSync`: timer syncs reschedule themselves every
    /// `cloud_timer` simulated seconds and skip the sync entirely when
    /// no edge aggregation has landed since the last one; synchronous
    /// (round-scheduled) syncs always run, like lockstep phase 4.
    fn event_cloud_sync(&mut self, timer: bool) {
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
        if self.cloud_sync_now() {
            self.timeline.aggs_since_sync = 0;
        }
    }

    /// Evaluates a model on the held-out test set, returning
    /// `(accuracy, mean loss, confusion)`.
    ///
    /// The test set is inferred in 16-row chunks in one parallel
    /// region, each chunk through its thread's evaluation workspace
    /// (`device::infer_chunk`) and into its rows of one logits
    /// buffer. Inference is per sample, so the buffer is bitwise one
    /// `infer` over the whole set; argmax, loss and confusion then read
    /// it whole, as one forward pass feeds all three.
    pub fn evaluate(&self, model: &Sequential) -> (f32, f32, Confusion) {
        let test = &self.data.test;
        let (inputs, classes) = (test.inputs(), test.classes());
        let mut logits = Tensor::zeros([test.len(), classes]);
        (logits.data_mut().par_chunks_mut(EVAL_CHUNK * classes))
            .enumerate()
            .for_each(|(c, out)| {
                let first = c * EVAL_CHUNK;
                infer_chunk(model, inputs, first..first + out.len() / classes, out);
            });
        let preds = argmax_rows(&logits);
        let loss = softmax_cross_entropy(&logits, test.labels()).0;
        let conf = Confusion::from_predictions(test.labels(), &preds, classes);
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
    /// captures instead. The [`StepMode`] argument is inert.
    ///
    /// # Panics
    /// Panics when the run is already finished.
    pub fn tick(&mut self, _mode: StepMode) {
        assert!(!self.is_finished(), "simulation already finished");
        let start = Instant::now();
        let t = self.next_step;
        self.telemetry.open_step();
        match self.config.timeline.mode {
            ExecutionMode::Lockstep => self.tick_lockstep(t),
            ExecutionMode::EventDriven => self.tick_event(),
        }
        self.telemetry
            .close_step(t, &self.comm, self.syncs, self.active_steps);
        self.next_step = t + 1;
        let is_eval =
            (t + 1).is_multiple_of(self.config.eval_interval) || t + 1 == self.config.steps;
        if is_eval {
            let timer = self.telemetry.start();
            let point = self.eval_point(t);
            self.points.push(point);
            self.telemetry.stop(Phase::Evaluation, timer);
        }
        self.elapsed_seconds += start.elapsed().as_secs_f64();
    }

    /// Runs the remaining steps, recording an [`EvalPoint`] every
    /// `eval_interval` steps (plus the final step).
    pub fn run(&mut self) -> RunRecord {
        while !self.is_finished() {
            self.tick(StepMode::Fast);
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
            param_count: self.cloud.param_count() as u64,
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
            population: self.population.checkpoint(),
            selection_rng: RngStateCheckpoint::capture(&self.rng),
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
    /// disagree. Every part is checked — and the population, algorithm
    /// and timeline state decoded — before the first write, so a
    /// rejected checkpoint leaves the simulation untouched.
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
        let ck_devices = ck.population.devices.len();
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
        let params = self.cloud.param_count();
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
        // Eq. 7 weights the next sync by the sample windows: a NaN,
        // infinite or negative one (or wall-clock total) would skew or
        // poison the cloud (the record).
        let windows = ck.edges.iter().map(|e| e.window_samples);
        if let Some(v) = std::iter::once(ck.elapsed_seconds)
            .chain(windows)
            .find(|v| !(v.is_finite() && *v >= 0.0))
        {
            return Err(mismatch(format!("elapsed seconds or sample window {v}")));
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
        if let Some(c) = &ck.compression {
            self.compression.validate_state(c).map_err(&mismatch)?;
        }
        let timeline = match &ck.timeline {
            Some(tck) => Some(
                Timeline::restore(tck, self.edges.len(), self.population.len(), params)
                    .map_err(&mismatch)?,
            ),
            None => None,
        };
        ck.cloud.fits(&self.cloud).map_err(&mismatch)?;
        for (edge, eck) in self.edges.iter().zip(&ck.edges) {
            eck.params.fits(&edge.model).map_err(&mismatch)?;
        }
        let population = (self.population)
            .decode(&ck.population)
            .map_err(&mismatch)?;
        let policy = match &ck.algorithm {
            Some(state) => {
                let mut policy = self.config.algorithm.resolve(self.population.len());
                policy.restore_state(state).map_err(&mismatch)?;
                Some(policy)
            }
            None => None,
        };

        // Everything fits: from here on nothing can fail.
        ck.cloud.restore(&mut self.cloud).map_err(&mismatch)?;
        self.cloud_view.refresh(&self.cloud);
        for (edge, eck) in self.edges.iter_mut().zip(&ck.edges) {
            eck.params.restore(&mut edge.model).map_err(&mismatch)?;
            edge.window_samples = eck.window_samples;
            edge.refresh_flat();
        }
        self.population.install(population);
        self.rng = ck.selection_rng.restore();
        self.faults.restore_state(
            ck.faults.rng.restore(),
            ck.faults.device_down.clone(),
            ck.faults.pending.clone(),
        );
        if let Some(c) = &ck.compression {
            self.compression.restore_state(c).map_err(&mismatch)?;
        }
        if let Some(policy) = policy {
            self.policy = policy;
        }
        if let Some(timeline) = timeline {
            self.timeline = timeline;
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
    /// ([`Population::check_invariants`]): the plane's slot table,
    /// residents list, version counts and replica pool, and every
    /// device's cached selection score against the reference scorer
    /// over the current cloud model. Meant to be called between ticks by
    /// test batteries.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.population
            .check_invariants(self.cloud_view.epoch, &flatten(&self.cloud));
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

/// What an upload's reconstruction is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owed {
    /// A lockstep deadline miss: the stale merge's payload.
    Stale,
    /// Lost on the wire: nobody receives it, but the sender compressed it.
    Lost,
    /// Delivered: the payload its edge aggregates.
    Delivered,
}

/// One upload a round owes its compression batch.
#[derive(Debug, Clone, Copy)]
struct PendingUpload {
    edge: usize,
    device: usize,
    owed: Owed,
}

impl PendingUpload {
    fn new(edge: usize, device: usize, owed: Owed) -> Self {
        PendingUpload { edge, device, owed }
    }
}

/// Compresses `pending` as one batch, each device's upload against its
/// edge's model — or, for a lost upload, the pre-flush copy of that edge
/// in `pre_flush` when there is one. Stale payloads fill `stale` and
/// delivered ones the slots `delivered` yields, both in pending order.
fn compress_pending<'a>(
    compression: &mut CompressionPlane,
    population: &'a Population,
    edges: &'a [EdgeState],
    pending: &[PendingUpload],
    pre_flush: &'a [(usize, Vec<f32>)],
    stale: &'a mut [Vec<f32>],
    mut delivered: impl Iterator<Item = &'a mut Vec<f32>>,
) {
    let mut stale = stale.iter_mut();
    let mut jobs: Vec<CompressJob<'a>> = pending
        .iter()
        .map(|u| {
            let edge = edges[u.edge].flat();
            let (reference, payload) = match u.owed {
                Owed::Stale => (edge, stale.next()),
                Owed::Delivered => (edge, delivered.next()),
                Owed::Lost => {
                    let before = pre_flush.iter().find(|(n, _)| *n == u.edge);
                    (before.map_or(edge, |(_, flat)| &flat[..]), None)
                }
            };
            CompressJob {
                sender: Sender::Device(u.device),
                new: population.get(u.device).flat(),
                reference,
                payload,
            }
        })
        .collect();
    compression.compress_batch(&mut jobs);
}

/// `d` of Eq. 6: the samples a cohort trained on, read from the partition
/// (equal to each device's dataset length by construction) so it never depends
/// on residency — a cloud broadcast may have demoted a sender whose
/// upload was still in flight.
fn cohort_samples(partition: &Partition, cohort: &[usize]) -> usize {
    cohort.iter().map(|&m| partition.device_len(m)).sum()
}

/// A cohort member's live parameters: its model and its plane.
fn member_of(population: &Population, m: usize) -> (&Sequential, &[f32]) {
    let dev = population.get(m);
    (&dev.model, dev.flat())
}

/// Edge aggregation (Eq. 6) of one cohort into its edge — the body every
/// aggregation runs, lockstep edge or event wave, touching nothing but
/// the edge. A non-empty cohort is FedAvg'd with weights `d_m / d`
/// ([`cohort_samples`]); `member` gives a member's live parameters. Two
/// arms:
///
/// * given payloads — an async wave's send-time snapshots, or any
///   round's reconstructions under a lossy plane — are averaged straight
///   into the edge model's plane (a member without one contributes its
///   live flat);
/// * otherwise `edge_aggregate_into` aggregates the live models in
///   place.
fn aggregate_edge<'a>(
    edge: &mut EdgeState,
    cohort: &[usize],
    payloads: &[Option<Vec<f32>>],
    partition: &Partition,
    member: impl Fn(usize) -> (&'a Sequential, &'a [f32]),
) {
    if cohort.is_empty() {
        return;
    }
    let total = cohort_samples(partition, cohort);
    if payloads.iter().any(Option::is_some) {
        let total = total as f32;
        let acc = edge.model.params_mut();
        acc.fill(0.0);
        for (i, &m) in cohort.iter().enumerate() {
            let w = partition.device_len(m) as f32 / total;
            let flat = match payloads.get(i).and_then(Option::as_ref) {
                Some(p) => p,
                None => member(m).1,
            };
            for (a, &r) in acc.iter_mut().zip(flat) {
                *a += w * r;
            }
        }
    } else {
        let member = &member;
        edge_aggregate_into(
            &mut edge.model,
            (cohort.iter()).map(|&m| (member(m).0, partition.device_len(m))),
        );
    }
    edge.refresh_flat();
}

/// Eq. 6 across edges: [`aggregate_edge`] for every edge, over its
/// cohort and payloads, in one parallel region. An edge reads nothing
/// another writes, so the result is the serial loop's bit for bit.
fn aggregate_edges<'a>(
    edges: &mut [EdgeState],
    cohorts: &[Vec<usize>],
    payloads: &[Vec<Option<Vec<f32>>>],
    partition: &Partition,
    member: impl Fn(usize) -> (&'a Sequential, &'a [f32]) + Sync,
) {
    (edges.par_iter_mut())
        .zip(cohorts.par_iter())
        .zip(payloads.par_iter())
        .for_each(|((edge, cohort), payloads)| {
            aggregate_edge(edge, cohort, payloads, partition, &member);
        });
}

/// The round's similarity scorer (`U(w_c, Δw_m)`, Eqs. 10–11): a lookup
/// in the caches [`Simulation::refresh_selection_scores`] filled for the
/// cloud model of `epoch` — a resident's own score, a stub's
/// per-version one.
fn cached_similarity<'a>(
    population: &'a Population,
    version_scores: &'a [f32],
    epoch: u64,
) -> impl Fn(usize) -> f32 + Sync + 'a {
    move |m| match population.view(m) {
        DeviceRef::Resident(dev) => dev
            .cloud_score(epoch)
            .expect("the pre-pass scores every materialised device"),
        DeviceRef::Stub(v) => version_scores[v as usize],
    }
}

/// Builds the mobility trace described by the config.
///
/// Both Markov-hop sources stream: rows bitwise those of
/// `generate_markov_hop{,_homed}`, O(N) resident memory instead of the
/// O(N·T) table.
pub(crate) fn build_trace(config: &SimConfig, homes: &[usize]) -> Trace {
    let seed = derive_seed(config.seed, 7);
    match config.mobility {
        MobilitySource::MarkovHop { p } => {
            Trace::markov_hop_streaming(config.num_edges, config.num_devices, config.steps, p, seed)
        }
        MobilitySource::HomedMarkovHop { p, home_bias } => Trace::markov_hop_homed_streaming(
            config.num_edges,
            homes,
            config.steps,
            p,
            home_bias,
            seed,
        ),
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

    /// Device `m`'s parameters: its replica's model, or its stub's plane.
    fn device_flat(sim: &Simulation, m: usize) -> Vec<f32> {
        match sim.population().view(m) {
            DeviceRef::Resident(dev) => flatten(&dev.model),
            DeviceRef::Stub(v) => sim.population().version_flat(v).to_vec(),
        }
    }

    #[test]
    fn construction_partitions_all_devices() {
        let cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        let sim = built(cfg.clone());
        assert_eq!(sim.population().len(), cfg.num_devices);
        assert_eq!(sim.edges().len(), cfg.num_edges);
        for m in 0..cfg.num_devices {
            assert_eq!(sim.partition().device_len(m), cfg.samples_per_device);
        }
    }

    #[test]
    fn all_models_start_identical() {
        let sim = built(SimConfig::tiny(Task::Mnist, Algorithm::middle()));
        let cloud = flatten(sim.cloud_model());
        for e in sim.edges() {
            assert_eq!(flatten(&e.model), cloud);
        }
        for m in 0..sim.population().len() {
            assert_eq!(device_flat(&sim, m), cloud);
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
        for m in 0..sim.population().len() {
            assert_eq!(device_flat(&sim, m), synced);
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
