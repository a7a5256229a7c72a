//! Cross-crate integration tests: the full pipeline from synthetic data
//! through mobility traces to federated training, exercised through the
//! `middle` facade exactly as a downstream user would.

use middle::core::checkpoint::DeviceSlotCheckpoint;
use middle::core::quadratic_sim::remark1_rows;
use middle::core::{OnDevicePolicy, SelectionPolicy, SimCheckpoint, StepMode};
use middle::data::partition::{partition, Scheme};
use middle::data::synthetic::SyntheticSource;
use middle::mobility::{generate_markov_hop, Trace};
use middle::nn::params::flatten;
use middle::prelude::*;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::{device_planes, trajectory_fnv};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

fn small_cfg(task: Task, algorithm: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::tiny(task, algorithm);
    cfg.steps = 6;
    cfg.eval_interval = 3;
    cfg
}

#[test]
fn full_pipeline_all_tasks() {
    for task in Task::ALL {
        let record = built(small_cfg(task, Algorithm::middle())).run();
        assert_eq!(record.task, task.name());
        assert!(!record.points.is_empty());
        assert!(record.points.iter().all(|p| p.global_accuracy.is_finite()));
        assert!(record.points.iter().all(|p| p.global_loss.is_finite()));
    }
}

#[test]
fn all_algorithms_run_on_all_selection_aggregation_combos() {
    // Every (selection, on-device) combination must execute.
    let selections = [
        SelectionPolicy::Random,
        SelectionPolicy::LeastSimilarUpdate,
        SelectionPolicy::MostSimilarUpdate,
        SelectionPolicy::OortUtility,
    ];
    let on_devices = [
        OnDevicePolicy::EdgeModel,
        OnDevicePolicy::SimilarityWeighted,
        OnDevicePolicy::UnclippedSimilarity,
        OnDevicePolicy::Average,
        OnDevicePolicy::KeepLocal,
        OnDevicePolicy::FixedAlpha { alpha: 0.3 },
    ];
    for sel in selections {
        for od in on_devices {
            let algo = Algorithm::custom("combo", sel, od);
            let mut cfg = SimConfig::tiny(Task::Mnist, algo);
            cfg.steps = 3;
            cfg.eval_interval = 3;
            let record = built(cfg).run();
            assert!(
                record.final_accuracy().is_finite(),
                "combo {sel:?} + {od:?} produced NaN"
            );
        }
    }
}

#[test]
fn training_beats_random_guessing() {
    // After a real (if short) training run, the global model must beat
    // the 10% random-guess floor with margin. Twelve rounds at a brisk
    // learning rate, syncing every fourth, end at 0.35 — and every
    // horizon from 10 to 20 reaches 0.3, so the bar is not a lucky step.
    let mut cfg = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
    cfg.num_edges = 2;
    cfg.num_devices = 10;
    cfg.devices_per_edge = 3;
    cfg.samples_per_device = 20;
    cfg.optimizer = OptimizerKind::Momentum {
        lr: 0.05,
        momentum: 0.9,
    };
    cfg.cloud_interval = 4;
    cfg.steps = 12;
    cfg.eval_interval = 12;
    cfg.test_samples = 150;
    let record = built(cfg).run();
    assert!(
        record.final_accuracy() > 0.2,
        "final accuracy {} not above chance",
        record.final_accuracy()
    );
}

fn cloud_bits(sim: &Simulation) -> Vec<u32> {
    flatten(sim.cloud_model())
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Two finished runs — record and final cloud parameters — are one
/// trajectory, bit for bit.
fn assert_same(a: &(RunRecord, Vec<u32>), b: &(RunRecord, Vec<u32>), what: &str) {
    let points = |r: &RunRecord| -> Vec<(usize, u32, u32)> {
        r.points
            .iter()
            .map(|p| (p.step, p.global_accuracy.to_bits(), p.global_loss.to_bits()))
            .collect()
    };
    assert_eq!(points(&a.0), points(&b.0), "{what}: eval points diverged");
    assert_eq!(a.0.comm, b.0.comm, "{what}: comm ledger diverged");
    assert_eq!(a.1, b.1, "{what}: cloud parameters diverged");
}

/// The one round skeleton under each of its selectors: the zero-delay
/// event engine must reproduce the default run bit for bit, and the
/// default run must keep the trajectory pinned when every device held a
/// replica of its own — in a fault- and compression-free regime, a
/// hostile one (dropout, stragglers, loss, lossy compression) and under
/// WAN outages with and without lossy compression, so the upload pass
/// and the cloud sync run every arm they have: unmasked and masked,
/// dense and compressed. After every tick of every run the population
/// plane's tables and score caches meet their oracles
/// (`Simulation::check_invariants`).
#[test]
fn round_skeleton_is_one_trajectory_under_every_selector() {
    fn ticked(cfg: SimConfig) -> (Simulation, RunRecord) {
        let mut sim = built(cfg);
        while !sim.is_finished() {
            sim.tick(StepMode::Fast);
            sim.check_invariants();
        }
        let record = sim.finish();
        (sim, record)
    }
    fn run(cfg: SimConfig) -> (RunRecord, Vec<u32>) {
        let (sim, record) = ticked(cfg);
        (record, cloud_bits(&sim))
    }

    // Speech is the conv-free task: twelve debug-build runs stay within
    // a few seconds (the conv kernels meet their oracles in the kernel
    // tests of `middle-nn` and `middle-core`).
    let mut clean = small_cfg(Task::Speech, Algorithm::middle());
    clean.cloud_interval = 3;
    let mut lossy = clean.clone();
    lossy.compression.enabled = true;
    lossy.compression.quantize_bits = 8;
    lossy.compression.top_frac = 0.5;
    let mut hostile = lossy.clone();
    hostile.faults.dropout = DropoutModel::Iid { p: 0.2 };
    hostile.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    hostile.faults.deadline_s = 1.2;
    hostile.faults.upload_loss = 0.2;
    hostile.faults.upload_retries = 2;
    // A sync every round, so some of them run with one edge down.
    let (mut wan, mut wan_lossy) = (clean.clone(), lossy);
    for cfg in [&mut wan, &mut wan_lossy] {
        cfg.faults.wan_outage = 0.4;
        cfg.cloud_interval = 1;
    }

    for (regime, cfg, pin) in [
        ("clean", clean, 0x629541b884b24b0a),
        ("hostile", hostile, 0x341a0756b7f24d8d),
        ("wan", wan, 0x4db4803bf95a1541),
        ("wan lossy", wan_lossy, 0x62df05a69dfee4f0),
    ] {
        let (sim, record) = ticked(cfg.clone());
        let fingerprint = trajectory_fnv(&sim, &record);
        assert_eq!(fingerprint, pin, "{regime}: {fingerprint:#018x}");
        let base = (record, cloud_bits(&sim));
        let comm = &base.0.comm;
        if regime == "hostile" {
            assert!(comm.stale_uploads > 0, "no deadline miss in the run");
        }
        if cfg.faults.wan_outage > 0.0 {
            assert!(
                comm.edge_to_cloud < base.0.syncs * cfg.num_edges as u64,
                "{regime}: no sync ran with an edge down"
            );
        }

        let what = |selector: &str| format!("{regime}, {selector}");
        let mut event = cfg;
        event.timeline.mode = ExecutionMode::EventDriven;
        assert_same(&base, &run(event), &what("zero-delay event"));
    }
}

/// Ticks `cfg` to the first cut where `populated` holds, checkpoint →
/// JSON → parse → restore into a fresh build, and the finish must equal
/// the straight run's, bit for bit.
fn resume_at(what: &str, cfg: SimConfig, populated: impl Fn(&Simulation, &SimCheckpoint) -> bool) {
    let mut straight = built(cfg.clone());
    let reference = straight.run();

    let mut first = built(cfg.clone());
    let json = loop {
        first.tick(StepMode::Fast);
        assert!(!first.is_finished(), "{what}: never reached its cut");
        let ck = first.checkpoint();
        if populated(&first, &ck) {
            break ck.to_json();
        }
    };
    drop(first);
    let ck = SimCheckpoint::from_json(&json).expect("own checkpoint parses");
    let mut second = built(cfg);
    second.restore(&ck).expect("own checkpoint restores");
    assert!(second.next_step() > 0);
    let resumed = second.run();
    assert_eq!(
        reference.event_seconds.map(f64::to_bits),
        resumed.event_seconds.map(f64::to_bits),
        "{what}: simulated clock diverged"
    );
    assert_same(
        &(reference, cloud_bits(&straight)),
        &(resumed, cloud_bits(&second)),
        what,
    );
}

/// A killed run resumes bitwise: tick to a cut, checkpoint → JSON →
/// parse → restore into a fresh build, and the finish equals the
/// straight run's. The three configurations together put a non-empty
/// plane at every packed site of the checkpoint, and each cut is taken
/// only once the planes it is there for are populated.
#[test]
fn checkpoint_json_resume_is_bitwise_on_every_packed_plane() {
    // Speech is the conv-free task, which keeps six debug-build runs
    // within a couple of seconds.
    let mut cfg = small_cfg(Task::Speech, Algorithm::middle());
    cfg.cloud_interval = 2;
    // One step past a sync the devices that trained are resident
    // replicas holding their own planes beside the broadcast's stubs.
    resume_at("lockstep", cfg.clone(), |_, ck| {
        let resident = |slot: &_| matches!(slot, DeviceSlotCheckpoint::Resident { .. });
        ck.next_step == 3 && ck.population.devices.iter().any(resident)
    });

    // Lockstep deadline misses queue stale uploads for the next step.
    let mut stale = cfg.clone();
    stale.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    stale.faults.deadline_s = 1.0;
    resume_at("stale uploads pending", stale, |_, ck| {
        ck.faults.pending.iter().any(|p| !p.flat.is_empty())
    });

    // Event engine × real upload latencies × lossy compression: live
    // broadcast versions, send-time snapshots riding the heap, and
    // error-feedback residuals, all at once. (This latency model has no
    // deadline, hence the lockstep leg above.)
    let mut hostile = cfg;
    hostile.timeline.mode = ExecutionMode::EventDriven;
    hostile.timeline.latency = LatencyModel::Faults;
    hostile.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    hostile.compression.enabled = true;
    hostile.compression.quantize_bits = 8;
    hostile.compression.top_frac = 0.5;
    resume_at("event-driven, lossy", hostile, |_, ck| {
        let versions = &ck.population.versions;
        let timeline = ck.timeline.as_ref().expect("event-driven checkpoint");
        let residuals = ck.compression.as_ref().expect("lossy checkpoint");
        let some_plane = |planes: &[Option<_>]| planes.iter().any(Option::is_some);
        versions.iter().any(|v| !v.flat.is_empty())
            && (some_plane(&timeline.in_flight)
                || timeline.waves.iter().any(|w| some_plane(&w.snapshots)))
            && residuals.device_residuals.iter().any(|r| !r.is_empty())
            && residuals.edge_residuals.iter().any(|r| !r.is_empty())
    });
}

/// The population plane's replica pool and score caches across cloud
/// syncs: derived state that changes no bit — the run keeps the
/// trajectory pinned when every device held a replica of its own — and
/// that a checkpoint does without. Over its syncs the run trains several
/// times more participants than it ever holds replicas, so replicas are
/// re-purposed rather than allocated; WAN outages make the broadcasts
/// partial, so some residents outlive a sync with a score cached against
/// the previous cloud model.
#[test]
fn lazy_pool_and_score_caches_change_no_bit_across_syncs_and_resume() {
    let mut cfg = small_cfg(Task::Speech, Algorithm::middle());
    cfg.num_edges = 3;
    cfg.num_devices = 45;
    cfg.cloud_interval = 2;
    cfg.steps = 12;
    cfg.eval_interval = 4;
    cfg.faults.wan_outage = 0.3;
    let mut sim = built(cfg.clone());
    let record = sim.run();
    let fingerprint = trajectory_fnv(&sim, &record);
    assert_eq!(fingerprint, 0xbdc36e1e3c915ffc, "{fingerprint:#018x}");
    assert!(record.syncs >= 3, "{} syncs", record.syncs);
    let population = sim.population();
    let trained = record.comm.device_to_edge as usize;
    assert!(
        trained >= 3 * population.peak_resident(),
        "{trained} participations against a peak of {} replicas",
        population.peak_resident()
    );
    assert!(
        population.fresh_replicas() <= population.peak_resident(),
        "{} replicas allocated for a peak residency of {}",
        population.fresh_replicas(),
        population.peak_resident()
    );

    // Cut straight after a partial broadcast: the reached replicas wait
    // in the pool, the survivors' cached scores are one cloud model
    // behind. The resumed run starts with neither and must not differ.
    let interval = cfg.cloud_interval;
    resume_at("pooled, stale scores", cfg, |sim, ck| {
        let population = sim.population();
        let survivors = population.resident_count();
        ck.next_step.is_multiple_of(interval)
            && ck.syncs >= 2
            && survivors > 0
            && population.fresh_replicas() > survivors
    });
}

#[test]
fn custom_trace_scripts_device_movement() {
    // A hand-written trace drives exactly the expected moved() pattern.
    let assignments = vec![vec![0, 0, 1, 1]; 3]
        .into_iter()
        .enumerate()
        .map(|(t, mut row)| {
            if t >= 1 {
                row[0] = 1; // device 0 moves to edge 1 at step 1
            }
            row
        })
        .collect();
    let trace = Trace::new(2, assignments);
    assert!(trace.moved(1, 0));
    assert!(!trace.moved(2, 0));

    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.num_devices = 4;
    cfg.num_edges = 2;
    cfg.devices_per_edge = 2;
    cfg.steps = 3;
    let mut sim = SimulationBuilder::new(cfg)
        .with_trace(trace)
        .build()
        .expect("valid trace");
    for _ in 0..3 {
        sim.tick(StepMode::Fast);
    }
}

#[test]
fn mismatched_trace_is_rejected() {
    let trace = generate_markov_hop(2, 99, 8, 0.5, 1);
    let cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    let err = match SimulationBuilder::new(cfg).with_trace(trace).build() {
        Ok(_) => panic!("mismatched trace must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, SimError::TraceMismatch { .. }));
    assert!(err.to_string().contains("trace device count"));
}

#[test]
fn broadcast_resets_all_models_to_cloud() {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::fedmes());
    cfg.cloud_interval = 3;
    cfg.steps = 3;
    let mut sim = built(cfg);
    for _ in 0..3 {
        sim.tick(StepMode::Fast);
    }
    let cloud = flatten(sim.cloud_model());
    for e in sim.edges() {
        assert_eq!(flatten(&e.model), cloud);
    }
    for plane in device_planes(&sim) {
        assert_eq!(plane, cloud);
    }
}

#[test]
fn partition_feeds_devices_with_correct_skew() {
    let src = SyntheticSource::new(Task::Mnist, 9);
    let base = src.generate_balanced(600, 1);
    let p = partition(&base, 12, 30, Scheme::MajorClass { major_frac: 0.8 }, 3);
    for m in 0..12 {
        let counts = p.device_class_counts(m, &base);
        let major = p.major_class[m].expect("major class set");
        assert!(counts[major] as f32 >= 0.8 * 30.0 - 1.0);
    }
}

#[test]
fn mobility_probability_flows_through_config() {
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.num_devices = 40;
    cfg.steps = 40;
    cfg.devices_per_edge = 2;
    for p in [0.1f64, 0.6] {
        cfg.mobility = MobilitySource::MarkovHop { p };
        let sim = built(cfg.clone());
        let emp = sim.trace().empirical_mobility();
        assert!((emp - p).abs() < 0.12, "requested P={p}, trace has {emp}");
    }
}

/// Remark 1, the one claim of the paper this repository reproduces
/// exactly, over the rows the `theorem1` preset commits: both the
/// bound's mobility term and the measured start-point divergence the
/// proof bounds (Eq. 19) fall strictly as P rises from 0.05 to 0.9.
#[test]
fn quadratic_theory_end_to_end() {
    let rows = remark1_rows();
    assert_eq!((rows[0].p, rows[rows.len() - 1].p), (0.05, 0.9));
    assert!(rows.iter().all(|r| r.mobility_derivative < 0.0));
    for pair in rows.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(
            hi.p > lo.p && hi.mobility_term < lo.mobility_term && hi.divergence.0 < lo.divergence.0,
            "Remark 1 breaks between {lo:?} and {hi:?}"
        );
    }
}

#[test]
fn run_record_serialises_end_to_end() {
    let record = built(small_cfg(Task::Mnist, Algorithm::oort())).run();
    let json = serde_json::to_string(&record).unwrap();
    let back: RunRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back.algorithm, record.algorithm);
    assert_eq!(back.points.len(), record.points.len());
    let csv = record.to_csv();
    assert!(csv.lines().count() == record.points.len() + 1);
}

#[test]
fn moved_devices_actually_blend_models_under_middle() {
    // Force a move and verify the on-device init differs from the pure
    // edge model under MIDDLE but equals it under HierFAVG/General.
    use middle::core::aggregation::on_device_init;
    use middle::nn::zoo;
    use middle::tensor::random::rng;

    let spec = Task::Mnist.spec();
    let edge = zoo::logistic(&spec, &mut rng(1));
    // A local model positively correlated with the edge model: blend ≠ edge.
    let mut local = edge.clone();
    for p in local.params_mut() {
        for v in p.value.data_mut() {
            *v *= 1.5;
        }
    }
    let middle_init = on_device_init(OnDevicePolicy::SimilarityWeighted, &edge, &local);
    let general_init = on_device_init(OnDevicePolicy::EdgeModel, &edge, &local);
    assert_eq!(flatten(&general_init), flatten(&edge));
    assert_ne!(flatten(&middle_init), flatten(&edge));
}

/// The workspace train path — the tiled dense kernels, the direct
/// convolutions, the one-pass loss, the skipped input gradient, the
/// optimizer hand-off — trains the zoo's models to the same parameter
/// bits as the allocating path, which runs the per-element oracles:
/// `cnn2` on mnist at the paper's batch under momentum, the speech MLP
/// under Adam at the batches `lazy_100k` and `async_hostile` train it at.
#[test]
fn workspace_training_matches_the_oracle_kernels_bitwise() {
    use middle::nn::{zoo, NetScratch};
    use middle::tensor::random::{rng, uniform};
    let momentum = OptimizerKind::Momentum {
        lr: 0.01,
        momentum: 0.9,
    };
    let adam = OptimizerKind::Adam { lr: 0.001 };
    for (task, batch, kind) in [
        (Task::Mnist, 16, momentum),
        (Task::Speech, 2, adam),
        (Task::Speech, 16, adam),
    ] {
        let spec = task.spec();
        let mut oracle = zoo::model_for_task(task.name(), &spec, &mut rng(3));
        let mut fast = oracle.clone();
        let (mut opt_o, mut opt_f) = (kind.build(), kind.build());
        let mut scratch = NetScratch::new();
        let mut r = rng(4);
        for step in 0..3 {
            let x = uniform(
                [batch, spec.channels, spec.height, spec.width],
                -1.0,
                1.0,
                &mut r,
            );
            let labels: Vec<usize> = (0..batch).map(|i| (i + step) % spec.classes).collect();
            let lo = oracle.train_batch(&x, &labels, opt_o.as_mut());
            let lf = fast.train_batch_ws(&x, &labels, opt_f.as_mut(), &mut scratch);
            let bits = |m: &Sequential| flatten(m).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let what = format!("{} batch {batch} step {step}", task.name());
            assert_eq!(lo.to_bits(), lf.to_bits(), "loss, {what}");
            assert_eq!(bits(&oracle), bits(&fast), "parameters, {what}");
        }
    }
}
