//! The kernel-pair harness: the round runs one set of kernels, and each
//! one is held here to its oracle on inputs taken from hostile rounds.
//!
//! Every regime ticks the production round — lockstep and event-driven
//! with real latencies. After each tick the harness
//! reads the round's private state and clones what its kernels consume:
//! the score caches and the step's candidates, the participants with
//! their on-move verdicts, the delivered cohorts, the edges under the
//! last WAN mask and the cloud. On those clones it asserts six pairs
//! bit-equal:
//!
//! * (a) selection — the cached scores ([`cached_similarity`]) into
//!   `select_devices_scored` against fresh `update_similarity_reference`
//!   scores into `select_devices_reference_scored`: winners, and the RNG
//!   afterwards;
//! * (b) Eq. 9 — `on_device_init_into` against `on_device_init`;
//! * (c) Eq. 5 — `Device::local_train` against `local_train_reference`:
//!   parameters, loss and RNG, and then `refresh_oort_utility` against
//!   `refresh_oort_utility_reference` under every policy;
//! * (d) Eq. 6 — the round's region across edges (`aggregate_edges`, on
//!   clones of every edge) against `edge_aggregate` per edge, in the arm
//!   the round took: the live models, or a lossy plane's reconstructions;
//!   and the hook order — every `after_edge_aggregate` call of a lockstep
//!   tick, logged by a delegating policy, is the step's stale merges in
//!   queue order and then its delivered cohorts in ascending edge order;
//! * (e) Eq. 7 — `cloud_aggregate_into` against `cloud_aggregate`, and
//!   the flat-copy broadcast against clone + `refresh_flat`;
//! * (f) compression — one `compress_batch` over every participant's
//!   upload (some lost on the wire) and every edge's sync, against the
//!   sequential reference, one call per job in order: payloads,
//!   residuals and the RNG afterwards.
//!
//! Each pair counts its hits, and a run fails unless every pair its
//! regime can reach was hit. The harness adds nothing to the round:
//! between ticks it calls only the round's own score pre-pass, which
//! fills derived caches the next step would fill identically, and the
//! logging policy hands every hook to the configured one.

use super::*;
use crate::aggregation::{edge_aggregate, on_device_init};
use crate::algorithms::AlgorithmState;
use crate::algorithms::{Algorithm, SelectionPolicy};
use crate::builder::SimulationBuilder;
use crate::compress::{CompressJob, Sender};
use crate::device::Device;
use crate::faults::{DelayModel, DropoutModel, FaultConfig};
use crate::selection::{
    select_devices_reference_scored, update_similarity_reference, update_similarity_reference_flat,
};
use middle_data::Task;
use middle_nn::params::unflatten;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Hits per pair in one run.
#[derive(Debug, Default)]
struct Hits {
    select: usize,
    init: usize,
    train: usize,
    edge_live: usize,
    edge_payload: usize,
    cloud: usize,
    compress: usize,
}

fn bits(model: &Sequential) -> Vec<u32> {
    flatten(model).iter().map(|v| v.to_bits()).collect()
}

/// A device's observable state, for comparing a twin with its oracle.
fn device_bits(dev: &Device) -> (Vec<u32>, u32, Vec<u32>, Option<u32>, [u64; 4]) {
    (
        dev.flat().iter().map(|v| v.to_bits()).collect(),
        dev.flat_norm_sq().to_bits(),
        bits(&dev.model),
        dev.oort_utility.map(f32::to_bits),
        dev.rng_ref().state(),
    )
}

/// An independent copy of a live device: parameters, data, RNG and
/// carried scalars (the score cache is derived and starts empty).
fn twin(dev: &Device) -> Device {
    let mut copy = Device::new(dev.id, dev.data().clone(), dev.model.clone(), 0);
    copy.restore_rng(dev.rng_ref().clone());
    copy.oort_utility = dev.oort_utility;
    copy.last_participation = dev.last_participation;
    copy
}

/// Device `m`'s parameters as a model: its replica's, or its stub's
/// broadcast version on the cloud's architecture.
fn model_of(sim: &Simulation, m: usize) -> Sequential {
    match sim.population.view(m) {
        DeviceRef::Resident(dev) => dev.model.clone(),
        DeviceRef::Stub(v) => {
            let mut model = sim.cloud.clone();
            unflatten(&mut model, sim.population.version_flat(v));
            model
        }
    }
}

/// Pair (a) over every edge of the step just run, in edge order, with
/// each side's RNG chained across edges like the round's.
fn selection_pair(sim: &mut Simulation, what: &str, hits: &mut Hits) {
    sim.refresh_selection_scores();
    let sim = &*sim;
    let population = &sim.population;
    let cloud = flatten(&sim.cloud);
    let cached = cached_similarity(population, &sim.version_scores, sim.cloud_view.epoch);
    let fresh = |m: usize| match population.view(m) {
        DeviceRef::Resident(dev) => update_similarity_reference(dev, &cloud),
        DeviceRef::Stub(v) => update_similarity_reference_flat(population.version_flat(v), &cloud),
    };
    let oort = |m: usize| population.oort_utility(m).unwrap_or(f32::INFINITY);
    let cluster = |m: usize| sim.policy.cluster_of(m);
    let fast = CandidateScorers {
        similarity: &cached,
        oort: &oort,
        cluster: Some(&cluster),
    };
    let oracle = CandidateScorers {
        similarity: &fresh,
        ..fast
    };
    let (policy, k) = (sim.policy.selection(), sim.config.devices_per_edge);
    let (mut fast_rng, mut oracle_rng) = (sim.rng.clone(), sim.rng.clone());
    let (mut scratch, mut winners) = (SelectionScratch::new(), Vec::new());
    for n in 0..sim.edges.len() {
        let candidates: Vec<usize> = (sim.index.devices_at(n).iter().copied())
            .filter(|&m| !sim.faults.is_down(m) && !sim.timeline.is_busy(m))
            .collect();
        select_devices_scored(
            policy,
            k,
            &candidates,
            &fast,
            &mut fast_rng,
            &mut scratch,
            &mut winners,
        );
        let expected =
            select_devices_reference_scored(policy, k, &candidates, &oracle, &mut oracle_rng);
        assert_eq!(winners, expected, "{what}, edge {n}: (a) selection winners");
        hits.select += usize::from(candidates.len() > k);
    }
    assert_eq!(
        fast_rng.state(),
        oracle_rng.state(),
        "{what}: (a) selection RNG"
    );
}

/// Pairs (b) and (c) on a twin of every resident participant of the
/// step just run, under its own verdict and its edge's current model.
/// Returns the verdicts of the participants that moved.
fn participant_pairs(sim: &Simulation, what: &str, hits: &mut Hits) -> Vec<MoveAction> {
    let mut moves = Vec::new();
    let cfg = &sim.config;
    for p in &sim.pending_inits {
        if sim.index.moved(p.device) {
            moves.push(p.init.map_or(MoveAction::Migrate, MoveAction::Blend));
        }
        let DeviceRef::Resident(dev) = sim.population.view(p.device) else {
            continue;
        };
        let what = format!("{what}, device {}", p.device);
        let (mut fast, mut oracle) = (twin(dev), twin(dev));
        if let Some(on_device) = p.init {
            let edge = &sim.edges[p.edge];
            on_device_init_into(
                on_device,
                &mut fast,
                &edge.model,
                edge.flat(),
                edge.flat_norm_sq(),
            );
            oracle.model = on_device_init(on_device, &edge.model, &oracle.model);
            oracle.invalidate_flat();
            assert_eq!(
                bits(&fast.model),
                bits(&oracle.model),
                "{what}: (b) Eq. 9 init"
            );
            hits.init += 1;
        }
        let t = sim.next_step;
        let loss = fast.local_train(cfg.local_steps, cfg.batch_size, &cfg.optimizer, t);
        let oracle_loss =
            oracle.local_train_reference(cfg.local_steps, cfg.batch_size, &cfg.optimizer, t);
        // The Oort pass is held to its oracle under every policy, not
        // only under those whose rounds run it.
        fast.refresh_oort_utility();
        oracle.refresh_oort_utility_reference();
        assert_eq!(
            loss.to_bits(),
            oracle_loss.to_bits(),
            "{what}: (c) Eq. 5 loss"
        );
        assert_eq!(
            device_bits(&fast),
            device_bits(&oracle),
            "{what}: (c) Eq. 5 state"
        );
        hits.train += 1;
    }
    moves
}

/// The `after_edge_aggregate` calls a tick made, in call order.
type HookCalls = Arc<Mutex<Vec<(usize, Vec<usize>)>>>;

/// The configured policy with every hook handed through and each
/// `after_edge_aggregate` call logged.
struct HookLog {
    inner: Box<dyn AlgorithmPolicy>,
    calls: HookCalls,
}

impl AlgorithmPolicy for HookLog {
    fn selection(&self) -> SelectionPolicy {
        self.inner.selection()
    }

    fn on_move(&mut self, m: usize, from_edge: usize, to_edge: usize) -> MoveAction {
        self.inner.on_move(m, from_edge, to_edge)
    }

    fn cluster_of(&self, m: usize) -> u32 {
        self.inner.cluster_of(m)
    }

    fn observe_participants(
        &mut self,
        participants: &[usize],
        utility: &dyn Fn(usize) -> Option<f32>,
    ) {
        self.inner.observe_participants(participants, utility);
    }

    fn after_edge_aggregate(&mut self, edge: usize, cohort: &[usize]) {
        let mut calls = self.calls.lock().expect("no panic holds the log");
        calls.push((edge, cohort.to_vec()));
        self.inner.after_edge_aggregate(edge, cohort);
    }

    fn after_cloud_sync(&mut self, wan_up: Option<&[bool]>, edge_of: &[usize]) {
        self.inner.after_cloud_sync(wan_up, edge_of);
    }

    fn state(&self) -> Option<AlgorithmState> {
        self.inner.state()
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Pair (d) over the cohorts the step's upload pass delivered (filled
/// by lockstep rounds only), then the hook order of the tick: `merged`
/// is the stale-merge queue as the tick found it, `calls` what the
/// logging policy saw.
fn edge_pair(
    sim: &Simulation,
    what: &str,
    merged: &[(usize, Vec<usize>)],
    calls: &HookCalls,
    hits: &mut Hits,
) {
    let calls = std::mem::take(&mut *calls.lock().expect("no panic holds the log"));
    if sim.config.timeline.mode != ExecutionMode::Lockstep {
        return;
    }
    let (cohorts, payloads) = (&sim.delivered_per_edge, &sim.delivered_payloads);
    let members: HashMap<usize, (Sequential, Vec<f32>)> = (cohorts.iter().flatten())
        .map(|&m| {
            let model = model_of(sim, m);
            let flat = flatten(&model);
            (m, (model, flat))
        })
        .collect();
    let mut fast: Vec<EdgeState> = (sim.edges.iter())
        .map(|e| EdgeState::new(e.model.clone()))
        .collect();
    aggregate_edges(&mut fast, cohorts, payloads, &sim.data.partition, |m| {
        let (model, flat) = &members[&m];
        (model, &flat[..])
    });
    let mut expected = merged.to_vec();
    for (n, cohort) in cohorts.iter().enumerate() {
        if cohort.is_empty() {
            continue;
        }
        expected.push((n, cohort.clone()));
        let lossy = payloads[n].iter().any(Option::is_some);
        let models: Vec<Sequential> = (cohort.iter().enumerate())
            .map(
                |(i, &m)| match payloads[n].get(i).and_then(Option::as_ref) {
                    Some(payload) => {
                        let mut model = sim.cloud.clone();
                        unflatten(&mut model, payload);
                        model
                    }
                    None => members[&m].0.clone(),
                },
            )
            .collect();
        let models: Vec<&Sequential> = models.iter().collect();
        let counts: Vec<usize> = cohort
            .iter()
            .map(|&m| sim.data.partition.device_len(m))
            .collect();
        let oracle = edge_aggregate(&models, &counts);
        let edge = &fast[n];
        assert_eq!(
            bits(&edge.model),
            bits(&oracle),
            "{what}, edge {n}: (d) Eq. 6"
        );
        let flat = flatten(&oracle);
        let norm_sq = middle_tensor::ops::dot_slices(&flat, &flat);
        assert_eq!(
            (edge.flat().to_vec(), edge.flat_norm_sq().to_bits()),
            (flat, norm_sq.to_bits()),
            "{what}, edge {n}: (d) Eq. 6 flat view"
        );
        if lossy {
            hits.edge_payload += 1;
        } else {
            hits.edge_live += 1;
        }
    }
    assert_eq!(calls, expected, "{what}: (d) after_edge_aggregate order");
}

/// Pair (e): Eq. 7 on the edges' current models and windows under every
/// mask a WAN draw can give (the last sync's among them), then the
/// broadcast to each edge the last sync reached and to every resident
/// device beneath them.
fn cloud_pair(sim: &Simulation, what: &str, hits: &mut Hits) {
    for mask in 1..1usize << sim.edges.len() {
        let up_edges = (sim.edges.iter().enumerate()).filter(|&(n, _)| mask >> n & 1 == 1);
        let models: Vec<&Sequential> = up_edges.clone().map(|(_, e)| &e.model).collect();
        let windows: Vec<f64> = up_edges.map(|(_, e)| e.window_samples).collect();
        let mut fast = sim.cloud.clone();
        cloud_aggregate_into(
            &mut fast,
            models.iter().copied().zip(windows.iter().copied()),
        );
        let oracle = cloud_aggregate(&models, &windows);
        assert_eq!(
            bits(&fast),
            bits(&oracle),
            "{what}, mask {mask:b}: (e) Eq. 7"
        );
    }

    let up = |n: usize| sim.wan_up.get(n).is_none_or(|&up| up);
    let (flat, norm_sq) = (sim.cloud.params(), sim.cloud_view.norm_sq);
    let edge_bits = |e: &EdgeState| {
        (
            bits(&e.model),
            e.flat().to_vec(),
            e.flat_norm_sq().to_bits(),
        )
    };
    for (_, edge) in sim.edges.iter().enumerate().filter(|&(n, _)| up(n)) {
        let mut copied = EdgeState::new(edge.model.clone());
        copied.load_flat(flat, norm_sq);
        let cloned = EdgeState::new(sim.cloud.clone());
        assert_eq!(
            edge_bits(&copied),
            edge_bits(&cloned),
            "{what}: (e) edge broadcast"
        );
    }
    for m in (0..sim.population.len()).filter(|&m| up(sim.index.cur[m])) {
        let DeviceRef::Resident(dev) = sim.population.view(m) else {
            continue;
        };
        let (mut copied, mut cloned) = (twin(dev), twin(dev));
        copied.load_flat(flat, norm_sq);
        cloned.model = sim.cloud.clone();
        cloned.refresh_flat();
        let what = format!("{what}, device {m}: (e) device broadcast");
        assert_eq!(device_bits(&copied), device_bits(&cloned), "{what}");
    }
    hits.cloud += 1;
}

/// Pair (f) on two clones of the live plane. The jobs come from the
/// state after the tick: each participant's upload against the edge it
/// joined (every third one lost, so it has no payload), then each
/// edge's sync against the cloud.
fn compress_pair(sim: &Simulation, what: &str, hits: &mut Hits) {
    if !sim.compression.lossy_active() {
        return;
    }
    let flat_of = |m: usize| match sim.population.view(m) {
        DeviceRef::Resident(dev) => dev.flat(),
        DeviceRef::Stub(v) => sim.population.version_flat(v),
    };
    let mut uploads: Vec<(Sender, &[f32], &[f32], bool)> = (sim.pending_inits.iter())
        .enumerate()
        .map(|(i, p)| {
            let edge = sim.edges[p.edge].flat();
            (
                Sender::Device(p.device),
                flat_of(p.device),
                edge,
                i % 3 != 2,
            )
        })
        .collect();
    let cloud = sim.cloud.params();
    uploads.extend(
        (sim.edges.iter().enumerate()).map(|(n, e)| (Sender::Edge(n), e.flat(), cloud, true)),
    );
    let mut payloads = vec![Vec::new(); uploads.len()];
    let mut batch = sim.compression.clone();
    let mut jobs: Vec<CompressJob> = (uploads.iter().zip(&mut payloads))
        .map(
            |(&(sender, new, reference, received), payload)| CompressJob {
                sender,
                new,
                reference,
                payload: received.then_some(payload),
            },
        )
        .collect();
    batch.compress_batch(&mut jobs);
    drop(jobs);
    let mut oracle = sim.compression.clone();
    for (&(sender, new, reference, received), payload) in uploads.iter().zip(&payloads) {
        let expected = oracle.compress_reference(sender, new, reference);
        let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
        assert!(
            !received || payload.len() == expected.len() && payload.iter().zip(&expected).all(same),
            "{what}, {sender:?}: (f) payload"
        );
    }
    assert_eq!(
        batch.state_bits(),
        oracle.state_bits(),
        "{what}: (f) residuals and RNG"
    );
    hits.compress += 1;
}

/// Ticks `cfg` to the end with every pair checked after every tick,
/// asserts that each pair the regime can reach was hit, and returns the
/// moved participants' verdicts.
fn run(regime: &str, cfg: SimConfig) -> Vec<MoveAction> {
    let label = format!(
        "{regime} / {} / {:?}",
        cfg.algorithm.name, cfg.timeline.mode
    );
    let lockstep = cfg.timeline.mode == ExecutionMode::Lockstep;
    let lossy = cfg.compression.lossy_active();
    let mut sim = SimulationBuilder::new(cfg).build().expect("valid config");
    let calls = HookCalls::default();
    let placeholder = sim.config.algorithm.resolve(sim.population.len());
    let inner = std::mem::replace(&mut sim.policy, placeholder);
    sim.policy = Box::new(HookLog {
        inner,
        calls: calls.clone(),
    });
    let (mut hits, mut moves) = (Hits::default(), Vec::new());
    while !sim.is_finished() {
        let merged: Vec<(usize, Vec<usize>)> = (sim.faults.pending().iter())
            .map(|p| (p.edge, vec![p.device]))
            .collect();
        sim.tick(StepMode::Fast);
        sim.check_invariants();
        let what = format!("{label}, step {}", sim.next_step - 1);
        selection_pair(&mut sim, &what, &mut hits);
        moves.extend(participant_pairs(&sim, &what, &mut hits));
        edge_pair(&sim, &what, &merged, &calls, &mut hits);
        cloud_pair(&sim, &what, &mut hits);
        compress_pair(&sim, &what, &mut hits);
    }
    assert!(
        hits.select > 0 && hits.init > 0 && hits.train > 0 && hits.cloud > 0,
        "{label}: a pair went unexercised: {hits:?}"
    );
    // Lockstep rounds aggregate in one arm or the other, never both.
    assert_eq!(
        (hits.edge_live > 0, hits.edge_payload > 0),
        (lockstep && !lossy, lockstep && lossy),
        "{label}: Eq. 6 pair: {hits:?}"
    );
    let ticks = if lossy { sim.next_step } else { 0 };
    assert_eq!(hits.compress, ticks, "{label}: compression pair: {hits:?}");
    moves
}

/// Runs one regime: each algorithm lockstep and event-driven with real
/// latencies, and demands that moved participants met every verdict the
/// algorithm can give.
fn regime(name: &str, base: SimConfig, algorithms: Vec<Algorithm>) {
    for algorithm in algorithms {
        let mut moves = Vec::new();
        for event in [false, true] {
            let mut cfg = base.clone();
            cfg.algorithm = algorithm.clone();
            if event {
                cfg.timeline.mode = ExecutionMode::EventDriven;
                cfg.timeline.latency = LatencyModel::Faults;
            }
            moves.extend(run(name, cfg));
        }
        for expected in verdicts(&algorithm) {
            assert!(
                moves.contains(&expected),
                "{name} / {}: no moved participant got {expected:?}",
                algorithm.name
            );
        }
    }
}

/// The verdicts an algorithm's `on_move` can give.
fn verdicts(algorithm: &Algorithm) -> Vec<MoveAction> {
    let mut out = vec![MoveAction::Blend(algorithm.on_device)];
    if algorithm.migrate_in_flight {
        out.push(MoveAction::Migrate);
    }
    out
}

/// Tiny MNIST (the conv kernels train), cloud syncs every third step.
fn base(faults: FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.steps = 8;
    cfg.cloud_interval = 3;
    cfg.eval_interval = 8;
    cfg.faults = faults;
    cfg
}

/// The algorithms of every regime below, which between them select
/// under every [`SelectionPolicy`] and give every [`MoveAction`].
fn algorithms() -> [(&'static str, Algorithm); 6] {
    let mirror = Algorithm::custom(
        "+U mirror",
        SelectionPolicy::MostSimilarUpdate,
        OnDevicePolicy::UnclippedSimilarity,
    );
    let mut fedfly = Algorithm::fedfly();
    fedfly.on_device = OnDevicePolicy::FixedAlpha { alpha: 0.3 };
    [
        ("clean", Algorithm::middle()),
        ("clean", Algorithm::fedmes()),
        ("dropout", mirror),
        ("stragglers", Algorithm::greedy()),
        ("lossy", Algorithm::fedlecc()),
        ("wan", fedfly),
    ]
}

fn of(regime: &str) -> Vec<Algorithm> {
    (algorithms().into_iter())
        .filter(|(r, _)| *r == regime)
        .map(|(_, a)| a)
        .collect()
}

#[test]
fn the_regimes_cover_every_policy_and_verdict() {
    let algorithms: Vec<Algorithm> = algorithms().into_iter().map(|(_, a)| a).collect();
    for policy in [
        SelectionPolicy::LeastSimilarUpdate,
        SelectionPolicy::MostSimilarUpdate,
        SelectionPolicy::OortUtility,
        SelectionPolicy::ClusterGuided { clusters: 3 },
        SelectionPolicy::Random,
    ] {
        assert!(
            algorithms.iter().any(|a| a.selection == policy),
            "{policy:?}"
        );
    }
    let verdicts: Vec<MoveAction> = algorithms.iter().flat_map(verdicts).collect();
    for on_device in [
        OnDevicePolicy::EdgeModel,
        OnDevicePolicy::SimilarityWeighted,
        OnDevicePolicy::UnclippedSimilarity,
        OnDevicePolicy::Average,
        OnDevicePolicy::KeepLocal,
        OnDevicePolicy::FixedAlpha { alpha: 0.3 },
    ] {
        assert!(
            verdicts.contains(&MoveAction::Blend(on_device)),
            "{on_device:?}"
        );
    }
    assert!(verdicts.contains(&MoveAction::Migrate));
}

#[test]
fn kernels_match_their_oracles_clean() {
    regime("clean", base(FaultConfig::default()), of("clean"));
}

#[test]
fn kernels_match_their_oracles_under_markov_dropout() {
    let dropout = DropoutModel::Markov {
        p_fail: 0.3,
        p_recover: 0.5,
    };
    let faults = FaultConfig {
        dropout,
        ..FaultConfig::default()
    };
    regime("dropout", base(faults), of("dropout"));
}

/// Stragglers and loss under a memoryless lossy plane (no error
/// feedback), beside the `lossy` regime's error-feedback one.
#[test]
fn kernels_match_their_oracles_under_stragglers_and_loss() {
    let faults = FaultConfig {
        straggler_delay: DelayModel::Exponential { mean_s: 1.0 },
        deadline_s: 1.2,
        upload_loss: 0.2,
        upload_retries: 2,
        ..FaultConfig::default()
    };
    let mut cfg = base(faults);
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 4;
    cfg.compression.top_frac = 0.2;
    cfg.compression.error_feedback = false;
    regime("stragglers", cfg, of("stragglers"));
}

#[test]
fn kernels_match_their_oracles_under_lossy_compression() {
    let mut cfg = base(FaultConfig::default());
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 8;
    cfg.compression.top_frac = 0.5;
    regime("lossy", cfg, of("lossy"));
}

#[test]
fn kernels_match_their_oracles_under_wan_outages() {
    let mut cfg = base(FaultConfig {
        wan_outage: 0.5,
        ..FaultConfig::default()
    });
    cfg.cloud_interval = 1;
    regime("wan", cfg, of("wan"));
}
