//! Cross-crate integration tests: the full pipeline from synthetic data
//! through mobility traces to federated training, exercised through the
//! `middle` facade exactly as a downstream user would.

use middle::core::checkpoint::DeviceSlotCheckpoint;
use middle::core::quadratic_sim::remark1_rows;
use middle::core::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, DeviceRef, FleetOptions, InputCache,
    OnDevicePolicy, SelectionPolicy, StepMode,
};
use middle::data::partition::{partition, Scheme};
use middle::data::synthetic::SyntheticSource;
use middle::data::Confusion;
use middle::mobility::{generate_markov_hop, Trace};
use middle::nn::params::flatten;
use middle::prelude::*;
use middle::tensor::ops::dot_slices;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::Pin::Trajectory;
use common::{
    assert_same_run, built, device_planes, fleet_grid, fleet_opts, fleet_reference, lossy,
    migration_in_flight, real_latencies, run_to_end, stragglers, tick_n, wan, Cell,
};

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

/// The one round skeleton under each of its selectors: the zero-delay
/// event engine must reproduce the default run bit for bit, and the
/// default run must keep the trajectory pinned when every device held a
/// replica of its own — in a fault- and compression-free regime, a
/// hostile one (dropout, stragglers, loss, lossy compression) and under
/// WAN outages with and without lossy compression, so the upload pass
/// and the cloud sync run every arm they have: unmasked and masked,
/// dense and compressed. Each is a cell of the differential matrix
/// (`common::Cell`): invariants after every tick, ledger identities,
/// pin, twin.
#[test]
fn round_skeleton_is_one_trajectory_under_every_selector() {
    // Speech is the conv-free task: the eight debug-build runs stay
    // within a few seconds (the conv kernels meet their oracles in the
    // kernel tests of `middle-nn` and `middle-core`).
    let clean = SimConfig {
        cloud_interval: 3,
        ..small_cfg(Task::Speech, Algorithm::middle())
    };
    let compressed = SimConfig {
        compression: lossy(8, 0.5),
        ..clean.clone()
    };
    let hostile = SimConfig {
        faults: FaultConfig {
            dropout: DropoutModel::Iid { p: 0.2 },
            ..stragglers()
        },
        ..compressed.clone()
    };
    // A sync every round, so some of them run with one edge down.
    let under_wan = |cfg: &SimConfig| SimConfig {
        faults: wan(0.4),
        cloud_interval: 1,
        ..cfg.clone()
    };

    for (regime, cfg, pin) in [
        ("clean", clean.clone(), 0x629541b884b24b0a),
        ("hostile", hostile, 0x341a0756b7f24d8d),
        ("wan", under_wan(&clean), 0x4db4803bf95a1541),
        ("wan lossy", under_wan(&compressed), 0x62df05a69dfee4f0),
    ] {
        let (wan_outage, edges) = (cfg.faults.wan_outage > 0.0, cfg.num_edges as u64);
        let cell = Cell::new(regime, cfg).pin(Trajectory(pin));
        let (_, record) = cell.zero_delay_twin().run();
        let comm = &record.comm;
        if regime == "hostile" {
            assert!(comm.stale_uploads > 0, "no deadline miss in the run");
        }
        if wan_outage {
            assert!(
                comm.edge_to_cloud < record.syncs * edges,
                "{regime}: no sync ran with an edge down"
            );
        }
    }
}

/// A killed run resumes bitwise: each cell is cut once the planes it is
/// there for are populated, and its checkpoint goes through JSON into a
/// fresh build that must finish as the straight run did. The three
/// configurations together put a non-empty plane at every packed site
/// of the checkpoint.
#[test]
fn checkpoint_json_resume_is_bitwise_on_every_packed_plane() {
    // Speech is the conv-free task, which keeps the debug-build runs
    // within a couple of seconds.
    let cfg = SimConfig {
        cloud_interval: 2,
        ..small_cfg(Task::Speech, Algorithm::middle())
    };
    // One step past a sync the devices that trained are resident
    // replicas holding their own planes beside the broadcast's stubs.
    Cell::new("lockstep", cfg.clone())
        .cut("resident replicas one step past a sync", |sim| {
            let ck = sim.checkpoint();
            let resident = |slot: &_| matches!(slot, DeviceSlotCheckpoint::Resident { .. });
            ck.next_step == 3 && ck.population.devices.iter().any(resident)
        })
        .run();

    // Lockstep deadline misses queue stale uploads for the next step.
    let mut stale = cfg.clone();
    stale.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    stale.faults.deadline_s = 1.0;
    Cell::new("stale uploads pending", stale)
        .cut("a stale upload pending", |sim| {
            let pending = sim.checkpoint().faults.pending;
            pending.iter().any(|p| !p.flat.is_empty())
        })
        .run();

    // Event engine × real upload latencies × lossy compression: live
    // broadcast versions, send-time snapshots riding the heap, and
    // error-feedback residuals, all at once. (This latency model has no
    // deadline, hence the lockstep cell above.)
    let mut hostile = SimConfig {
        timeline: real_latencies(),
        compression: lossy(8, 0.5),
        ..cfg
    };
    hostile.faults.straggler_delay = DelayModel::Exponential { mean_s: 1.0 };
    Cell::new("event-driven, lossy", hostile)
        .cut("every packed plane populated", |sim| {
            let ck = sim.checkpoint();
            let versions = &ck.population.versions;
            let timeline = ck.timeline.as_ref().expect("event-driven checkpoint");
            let residuals = ck.compression.as_ref().expect("lossy checkpoint");
            let some_plane = |planes: &[Option<_>]| planes.iter().any(Option::is_some);
            versions.iter().any(|v| !v.flat.is_empty())
                && (some_plane(&timeline.in_flight)
                    || timeline.waves.iter().any(|w| some_plane(&w.snapshots)))
                && residuals.device_residuals.iter().any(|r| !r.is_empty())
                && residuals.edge_residuals.iter().any(|r| !r.is_empty())
        })
        .run();
}

/// The population plane's replica pool and score caches across cloud
/// syncs: derived state that changes no bit — the run keeps the
/// trajectory pinned when every device held a replica of its own — and
/// that a checkpoint does without. Over its syncs the run trains several
/// times more participants than it ever holds replicas, so replicas are
/// re-purposed rather than allocated; WAN outages make the broadcasts
/// partial, so some residents outlive a sync with a score cached against
/// the previous cloud model. The cut comes straight after a partial
/// broadcast: the reached replicas wait in the pool, the survivors'
/// cached scores are one cloud model behind, and the resumed run starts
/// with neither.
#[test]
fn lazy_pool_and_score_caches_change_no_bit_across_syncs_and_resume() {
    let cfg = SimConfig {
        num_edges: 3,
        num_devices: 45,
        cloud_interval: 2,
        steps: 12,
        eval_interval: 4,
        faults: wan(0.3),
        ..small_cfg(Task::Speech, Algorithm::middle())
    };
    let (sim, record) = Cell::new("pooled, stale scores", cfg)
        .pin(Trajectory(0xbdc36e1e3c915ffc))
        .cut("a full pool and stale scores after a partial sync", |sim| {
            let population = sim.population();
            let survivors = population.resident_count();
            sim.next_step().is_multiple_of(sim.config().cloud_interval)
                && sim.syncs() >= 2
                && survivors > 0
                && population.fresh_replicas() > survivors
        })
        .run();
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
}

/// A replica holds its parameters once. After every tick of a Speech
/// run whose partial syncs pool and recycle replicas, every resident
/// holds exactly its `param_count` parameter floats besides its data —
/// no gradient buffer, no flat copy, no layer cache — its flat is its
/// model's plane itself, read with no refresh in between, and its cached
/// norm is `dot_slices` of that plane bit for bit.
#[test]
fn every_resident_holds_its_parameters_once() {
    let cfg = SimConfig {
        num_edges: 3,
        num_devices: 45,
        cloud_interval: 2,
        steps: 10,
        faults: wan(0.3),
        ..small_cfg(Task::Speech, Algorithm::middle())
    };
    let mut sim = built(cfg);
    let mut checked = 0;
    while !sim.is_finished() {
        sim.tick(StepMode::Fast);
        let population = sim.population();
        for m in 0..population.len() {
            let DeviceRef::Resident(dev) = population.view(m) else {
                continue;
            };
            let params = dev.model.param_count();
            let data = size_of_val(dev.data().inputs().data()) + size_of_val(dev.data().labels());
            assert_eq!(
                dev.held_bytes(),
                4 * params + data,
                "device {m}: bytes held"
            );
            let flat = dev.flat();
            assert!(
                std::ptr::eq(flat, dev.model.params()),
                "device {m}: the flat is the model's plane"
            );
            assert_eq!(
                dev.flat_norm_sq().to_bits(),
                dot_slices(flat, flat).to_bits(),
                "device {m}: cached norm"
            );
            checked += 1;
        }
    }
    // Each sync pools the replicas it demotes, and later materialisations
    // re-use them.
    assert!(sim.syncs() >= 3, "{} syncs", sim.syncs());
    assert!(checked > 0);
}

/// Tier-1's cell for each zoo member no pin here holds: a Speech run
/// resumed mid-run through JSON — FedFly's with an update in flight, so
/// a move would migrate it — and matched by its zero-delay twin.
#[test]
fn every_zoo_member_resumes_and_meets_its_zero_delay_twin() {
    for algorithm in [
        Algorithm::fedmes(),
        Algorithm::greedy(),
        Algorithm::ensemble(),
        Algorithm::hierfavg(),
        Algorithm::fedfly(),
        Algorithm::random_control(),
    ] {
        let migrates = algorithm.migrate_in_flight;
        let cfg = SimConfig {
            cloud_interval: 3,
            ..small_cfg(Task::Speech, algorithm)
        };
        let cell = Cell::new(cfg.algorithm.name.clone(), cfg);
        let cell = if migrates {
            cell.cut("an update in flight", migration_in_flight)
        } else {
            cell.cut_at(4)
        };
        cell.zero_delay_twin().run();
    }
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
    tick_n(&mut sim, 3);
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
    tick_n(&mut sim, 3);
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

/// A mobility sweep varies P over one population: two configs that
/// differ only in P share one synthesised dataset through the input
/// cache, and each still runs bitwise as its own cold build.
#[test]
fn configs_differing_only_in_p_share_one_population() {
    let cache = InputCache::new();
    for (i, p) in [0.2f64, 0.8].into_iter().enumerate() {
        let mut cfg = small_cfg(Task::Speech, Algorithm::middle());
        cfg.mobility = MobilitySource::MarkovHop { p };
        let shared = SimulationBuilder::new(cfg.clone())
            .with_shared_inputs(cache.clone())
            .build()
            .expect("valid config");
        assert_eq!((cache.misses(), cache.hits()), (1, i as u64), "P = {p}");
        assert_same_run(
            &run_to_end(shared),
            &run_to_end(built(cfg)),
            &format!("P = {p}: cache-shared against cold"),
        );
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
    for v in local.params_mut() {
        *v *= 1.5;
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
/// `cnn2` on mnist at the paper's batch under momentum, `cnn3` on cifar10
/// under plain SGD, the speech MLP under Adam at the batches `lazy_100k`
/// and `async_hostile` train it at — every optimizer and every zoo
/// architecture the round trains.
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
        (Task::Cifar10, 8, OptimizerKind::Sgd { lr: 0.01 }),
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

/// Inference runs only where something reads it, and changes no bit:
///
/// * the Oort pass follows the selection policy — after a MIDDLE run no
///   device carries an Oort utility, while OORT and FedLECC (the
///   policies that read it) still carry one, and each trajectory keeps
///   the pin it had when every participant ran the pass;
/// * `Simulation::evaluate`, which infers the test set in parallel
///   16-row chunks, returns the `(accuracy, loss, confusion)` of one
///   whole-batch `infer`, bit for bit, on `cnn2` and the Speech MLP at a
///   ragged 37 samples (two full chunks and a 5-row tail, whose last row
///   takes the dense kernels' short-block path).
#[test]
fn inference_runs_only_where_read_and_changes_no_bit() {
    for (algorithm, reads_utility, pin) in [
        (Algorithm::middle(), false, 0x9651a3976fa2705du64),
        (Algorithm::oort(), true, 0x35dcbc61960ff2f6),
        (Algorithm::fedlecc(), true, 0x0fed06156c460dce),
    ] {
        let name = algorithm.name.clone();
        let cell = Cell::new(name.clone(), small_cfg(Task::Mnist, algorithm));
        let (sim, _) = cell.pin(Trajectory(pin)).run();
        let carried = (0..sim.config().num_devices)
            .filter(|&m| sim.population().oort_utility(m).is_some())
            .count();
        assert_eq!(carried > 0, reads_utility, "{name}: {carried} utilities");
    }

    for task in [Task::Mnist, Task::Speech] {
        let mut cfg = small_cfg(task, Algorithm::middle());
        cfg.test_samples = 37;
        let mut sim = built(cfg);
        sim.tick(StepMode::Fast);
        sim.tick(StepMode::Fast);
        let model = sim.cloud_model();
        let test = sim.test_set();
        assert_eq!(test.len(), 37);
        let logits = model.infer(test.inputs());
        let preds = middle::tensor::reduce::argmax_rows(&logits);
        let loss = middle::nn::loss::softmax_cross_entropy(&logits, test.labels()).0;
        let conf = Confusion::from_predictions(test.labels(), &preds, test.classes());
        let (accuracy, chunked_loss, chunked_conf) = sim.evaluate(model);
        let what = task.name();
        assert_eq!(
            accuracy.to_bits(),
            conf.accuracy().to_bits(),
            "{what}: accuracy"
        );
        assert_eq!(chunked_loss.to_bits(), loss.to_bits(), "{what}: loss");
        assert_eq!(chunked_conf, conf, "{what}: confusion");
    }
}

/// The fleet's lease protocol (DESIGN §14): a worker killed mid-scenario
/// leaves its lease and its checkpoint behind; once the lease expires
/// another worker reclaims it, resumes from the snapshot and finishes
/// the grid; and the coordinator's merged report equals the
/// uninterrupted single-process sweep byte for byte.
#[test]
fn killed_worker_leaves_lease_and_checkpoint_for_reclamation() {
    let dir = common::scratch_dir("kill_reclaim");
    // Worker "victim" dies after its first mid-scenario checkpoint:
    // the lease stays in the ledger and the snapshot stays on disk.
    let killed = run_fleet_worker(
        &fleet_grid(),
        &dir,
        "victim",
        &FleetOptions {
            kill_after_checkpoints: Some(1),
            ..fleet_opts()
        },
    )
    .unwrap();
    assert!(killed.killed);
    assert_eq!(killed.completed, 0);
    let status = fleet_status(&dir).unwrap().expect("ledger must exist");
    assert_eq!(status.total, 4);
    assert_eq!(status.completed, 0);
    assert_eq!(status.leases.len(), 1, "kill must not release the lease");
    assert_eq!(status.leases[0].worker, "victim");
    assert_eq!(status.leases[0].scenario, 0);
    assert!(
        dir.join("scenario_0.ckpt.json").exists(),
        "mid-scenario checkpoint must survive the kill"
    );
    // A second worker reclaims the expired lease (lease_ms = 0) and
    // finishes the grid; the merged report matches the uninterrupted
    // single-process sweep bitwise.
    let rescue = run_fleet_worker(&fleet_grid(), &dir, "rescue", &fleet_opts()).unwrap();
    assert_eq!(rescue.completed, 4);
    let status = fleet_status(&dir).unwrap().unwrap();
    assert_eq!(status.completed, 4);
    assert!(status.leases.is_empty(), "completion must release leases");
    let report = run_fleet_coordinator(&fleet_grid(), &dir, &fleet_opts()).unwrap();
    assert_eq!(report.deterministic_json(), fleet_reference());
    let _ = std::fs::remove_dir_all(&dir);
}
