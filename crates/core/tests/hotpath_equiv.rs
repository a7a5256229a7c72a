//! Equivalence gates for the zero-copy hot path: the fused
//! selection/aggregation/sync kernels must track the original allocating
//! implementations — approximately where a floating-point identity is
//! involved, bit-for-bit where the rewrite only reorders storage.

use middle_core::aggregation::{
    cloud_aggregate, cloud_aggregate_into, edge_aggregate, edge_aggregate_into,
};
use middle_core::selection::{
    select_devices, select_devices_reference, update_similarity, update_similarity_reference,
};
use middle_core::similarity::similarity_utility;
use middle_core::{
    Algorithm, Device, SelectionPolicy, SimConfig, Simulation, SimulationBuilder, StepMode,
};
use middle_data::synthetic::{SyntheticSource, Task};
use middle_data::Task as DataTask;
use middle_nn::params::{flatten, unflatten, weighted_average, weighted_average_into};
use middle_nn::{zoo, Sequential};
use middle_tensor::ops::{cosine_similarity_slices, dot3_slices, dot_slices};
use middle_tensor::random::rng;
use proptest::prelude::*;

mod common;
use common::{bits, fnv, fnv_params};

fn built(cfg: SimConfig) -> Simulation {
    SimulationBuilder::new(cfg).build().expect("valid config")
}

fn model_from(vals: &[f32]) -> Sequential {
    let mut m = Sequential::new().push(middle_nn::layers::Dense::new(3, 2, &mut rng(1)));
    assert_eq!(m.param_count(), vals.len());
    unflatten(&mut m, vals);
    m
}

fn device_from(id: usize, vals: &[f32]) -> Device {
    let src = SyntheticSource::new(Task::Mnist, 3);
    let data = src.generate_balanced(6, id as u64);
    let mut m = zoo::logistic(&Task::Mnist.spec(), &mut rng(id as u64));
    unflatten(&mut m, vals);
    Device::new(id, data, m, 900 + id as u64)
}

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused three-way dot product agrees bitwise with three
    /// separate accumulations (same chunked summation order).
    #[test]
    fn dot3_is_bitwise_three_dots(a in vals(67), b in vals(67)) {
        let (ab, aa, bb) = dot3_slices(&a, &b);
        prop_assert_eq!(ab.to_bits(), dot_slices(&a, &b).to_bits());
        prop_assert_eq!(aa.to_bits(), dot_slices(&a, &a).to_bits());
        prop_assert_eq!(bb.to_bits(), dot_slices(&b, &b).to_bits());
    }

    /// The identity-based delta-free utility tracks the naive
    /// flatten-and-subtract cosine on independent vectors (where the
    /// delta norm is well conditioned) to 1e-5.
    #[test]
    fn fused_update_similarity_matches_naive(
        local in vals(20),
        cloud in vals(20),
    ) {
        let mnist_dim = zoo::logistic(&Task::Mnist.spec(), &mut rng(0)).param_count();
        // Embed the generated prefixes into full-size parameter vectors.
        let mut l = vec![0.15f32; mnist_dim];
        let mut c = vec![-0.2f32; mnist_dim];
        l[..local.len()].copy_from_slice(&local);
        c[..cloud.len()].copy_from_slice(&cloud);
        let device = device_from(0, &l);
        let cloud_norm = dot_slices(&c, &c);
        let fused = update_similarity(&device, &c, cloud_norm);
        let naive = update_similarity_reference(&device, &c);
        prop_assert!((fused - naive).abs() <= 1e-5, "fused {} naive {}", fused, naive);
        // Cross-check the naive path against a from-scratch computation.
        let delta: Vec<f32> = l.iter().zip(&c).map(|(x, y)| x - y).collect();
        let scratch = similarity_utility(&c, &delta);
        prop_assert_eq!(naive.to_bits(), scratch.to_bits());
    }

    /// In-place weighted averaging is bit-identical to the allocating
    /// reference for arbitrary positive weights.
    #[test]
    fn weighted_average_into_matches_reference(
        v1 in vals(8), v2 in vals(8), v3 in vals(8),
        w in prop::collection::vec(0.1f32..20.0, 3),
    ) {
        let (m1, m2, m3) = (model_from(&v1), model_from(&v2), model_from(&v3));
        let models = [&m1, &m2, &m3];
        let reference = weighted_average(&models, &w);
        let mut dst = model_from(&[0.0; 8]);
        weighted_average_into(&mut dst, &models, &w);
        let (fr, fd) = (flatten(&reference), flatten(&dst));
        for (x, y) in fr.iter().zip(&fd) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The O(n) partial-sort selection returns exactly the reference
    /// full-sort ranking for every policy, including heavy score ties.
    #[test]
    fn selection_matches_reference(
        seed in 0u64..500,
        k in 1usize..6,
        tie_fraction in 0.0f32..1.0,
    ) {
        let mnist_dim = zoo::logistic(&Task::Mnist.spec(), &mut rng(0)).param_count();
        let cloud: Vec<f32> = (0..mnist_dim).map(|i| ((i + 3) as f32 * 0.13).sin()).collect();
        let devices: Vec<Device> = (0..8)
            .map(|id| {
                // A tie_fraction of devices share the cloud parameters
                // exactly (utility exactly 0 — the freshly-synced case).
                if (id as f32) < tie_fraction * 8.0 {
                    device_from(id, &cloud)
                } else {
                    let v: Vec<f32> = (0..mnist_dim)
                        .map(|i| ((i * (id + 2)) as f32 * 0.07).cos())
                        .collect();
                    device_from(id, &v)
                }
            })
            .collect();
        let cands: Vec<usize> = (0..8).collect();
        for policy in [
            SelectionPolicy::Random,
            SelectionPolicy::LeastSimilarUpdate,
            SelectionPolicy::MostSimilarUpdate,
            SelectionPolicy::OortUtility,
        ] {
            let fast = select_devices(policy, k, &cands, &devices, &cloud, &mut rng(seed));
            let slow =
                select_devices_reference(policy, k, &cands, &devices, &cloud, &mut rng(seed));
            prop_assert_eq!(&fast, &slow);
        }
    }
}

#[test]
fn in_place_aggregates_match_references_bitwise() {
    let vs: Vec<Vec<f32>> = (0..4)
        .map(|j| {
            (0..8)
                .map(|i| ((i * 3 + j * 7) as f32 * 0.21).sin())
                .collect()
        })
        .collect();
    let models: Vec<Sequential> = vs.iter().map(|v| model_from(v)).collect();
    let refs: Vec<&Sequential> = models.iter().collect();

    let counts = [12usize, 40, 7, 21];
    let reference = edge_aggregate(&refs, &counts);
    let mut dst = model_from(&[9.0; 8]);
    edge_aggregate_into(&mut dst, refs.iter().copied().zip(counts.iter().copied()));
    assert_eq!(flatten(&reference), flatten(&dst));

    for windows in [[5.0f64, 0.0, 2.5, 30.0], [0.0, 0.0, 0.0, 0.0]] {
        let reference = cloud_aggregate(&refs, &windows);
        let mut dst = model_from(&[9.0; 8]);
        cloud_aggregate_into(&mut dst, refs.iter().copied().zip(windows.iter().copied()));
        assert_eq!(flatten(&reference), flatten(&dst));
    }
}

/// The exact-tie invariant behind selection equivalence: a device whose
/// parameters equal the cloud bitwise scores exactly 0 on both the fused
/// identity path and the naive delta path.
#[test]
fn freshly_synced_device_scores_exact_zero_on_both_paths() {
    let mnist_dim = zoo::logistic(&Task::Mnist.spec(), &mut rng(0)).param_count();
    let cloud: Vec<f32> = (0..mnist_dim).map(|i| (i as f32 * 0.011).cos()).collect();
    let device = device_from(3, &cloud);
    let norm = dot_slices(&cloud, &cloud);
    assert_eq!(
        update_similarity(&device, &cloud, norm).to_bits(),
        0.0f32.to_bits()
    );
    assert_eq!(
        update_similarity_reference(&device, &cloud).to_bits(),
        0.0f32.to_bits()
    );
    // Sanity: the shared norm really is the one the identity consumes.
    assert!(cosine_similarity_slices(&cloud, &cloud) > 0.99);
}

/// The end-to-end gate: 20 steps of the zero-copy `StepMode::Fast`
/// produce exactly the same simulation state and evaluation curve as 20
/// steps of the clone-based `StepMode::Reference`, for the full MIDDLE
/// algorithm across
/// train → edge-aggregate → cloud-sync boundaries (`cloud_interval = 4`
/// exercises five sync/broadcast cycles and the cache invalidation in
/// between).
#[test]
fn twenty_step_trace_is_bitwise_identical_to_reference() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 2;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());

    for t in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);

        let (cf, cs) = (flatten(fast.cloud_model()), flatten(slow.cloud_model()));
        assert_eq!(bits(&cf), bits(&cs), "cloud diverged at step {t}");
        for (n, (ef, es)) in fast.edges().iter().zip(slow.edges()).enumerate() {
            assert_eq!(
                bits(&flatten(&ef.model)),
                bits(&flatten(&es.model)),
                "edge {n} diverged at step {t}"
            );
            assert_eq!(ef.window_samples.to_bits(), es.window_samples.to_bits());
        }
        for (df, ds) in fast.devices().iter().zip(slow.devices()) {
            assert_eq!(
                bits(&flatten(&df.model)),
                bits(&flatten(&ds.model)),
                "device {} diverged at step {t}",
                df.id
            );
            assert_eq!(
                df.oort_utility.map(f32::to_bits),
                ds.oort_utility.map(f32::to_bits)
            );
            assert_eq!(df.last_participation, ds.last_participation);
        }
        if (t + 1) % cfg.eval_interval == 0 {
            let gf = fast.evaluate(&fast.virtual_global());
            let gs = slow.evaluate(&slow.virtual_global());
            assert_eq!(
                gf.0.to_bits(),
                gs.0.to_bits(),
                "accuracy diverged at step {t}"
            );
            assert_eq!(gf.1.to_bits(), gs.1.to_bits(), "loss diverged at step {t}");
        }
    }
    assert_eq!(fast.syncs(), slow.syncs());
    assert_eq!(fast.comm_stats(), slow.comm_stats());
    assert_eq!(fast.active_steps(), slow.active_steps());
}

/// Availability filtering drains the same RNG stream on both paths, so a
/// 50%-dropout run must stay bitwise identical step for step — and the
/// corrected comm accounting (downloads counted only when they happen)
/// must agree between the two implementations.
#[test]
fn availability_trace_is_bitwise_identical_to_reference() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 16;
    cfg.cloud_interval = 4;
    cfg.availability = 0.5;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());
    for t in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
        let (cf, cs) = (flatten(fast.cloud_model()), flatten(slow.cloud_model()));
        assert_eq!(bits(&cf), bits(&cs), "cloud diverged at step {t}");
        for (df, ds) in fast.devices().iter().zip(slow.devices()) {
            assert_eq!(
                bits(&flatten(&df.model)),
                bits(&flatten(&ds.model)),
                "device {} diverged at step {t}",
                df.id
            );
        }
    }
    assert_eq!(fast.syncs(), slow.syncs());
    assert_eq!(fast.comm_stats(), slow.comm_stats());
    assert_eq!(fast.active_steps(), slow.active_steps());
    // With 50% dropout some steps can end up fully inactive; either way
    // the count must never exceed the horizon.
    assert!(fast.active_steps() <= cfg.steps as u64);
}

/// `OnDevicePolicy::KeepLocal` — moved devices keep training their own
/// model and never consume the edge download. The corrected accounting
/// must charge strictly fewer downloads than uploads whenever a selected
/// device had moved, identically on both paths.
#[test]
fn keep_local_trace_is_bitwise_identical_to_reference() {
    use middle_core::OnDevicePolicy;
    let algo = Algorithm::custom(
        "KeepLocal",
        SelectionPolicy::Random,
        OnDevicePolicy::KeepLocal,
    );
    let mut cfg = SimConfig::tiny(DataTask::Mnist, algo);
    cfg.steps = 12;
    cfg.cloud_interval = 4;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());
    for t in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
        let (cf, cs) = (flatten(fast.cloud_model()), flatten(slow.cloud_model()));
        assert_eq!(bits(&cf), bits(&cs), "cloud diverged at step {t}");
        for (df, ds) in fast.devices().iter().zip(slow.devices()) {
            assert_eq!(
                bits(&flatten(&df.model)),
                bits(&flatten(&ds.model)),
                "device {} diverged at step {t}",
                df.id
            );
        }
    }
    let (f, s) = (fast.comm_stats(), slow.comm_stats());
    assert_eq!(f, s);
    assert_eq!(fast.active_steps(), slow.active_steps());
    // Every selected device uploads; only non-moved ones download. With
    // P = 0.5 mobility over 12 steps some selected device moved, so the
    // download count must sit strictly below the upload count.
    assert!(
        f.edge_to_device < f.device_to_edge,
        "downloads {} should be < uploads {} under KeepLocal",
        f.edge_to_device,
        f.device_to_edge
    );
}

/// Same gate for the Oort-selection / edge-download configuration, which
/// exercises the load-flat broadcast path (`OnDevicePolicy::EdgeModel`)
/// rather than similarity blending.
#[test]
fn oort_trace_is_bitwise_identical_to_reference() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::oort());
    cfg.steps = 12;
    cfg.cloud_interval = 3;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());
    for _ in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
    }
    assert_eq!(
        bits(&flatten(fast.cloud_model())),
        bits(&flatten(slow.cloud_model()))
    );
    for (df, ds) in fast.devices().iter().zip(slow.devices()) {
        assert_eq!(bits(&flatten(&df.model)), bits(&flatten(&ds.model)));
    }
}

/// The fault-plane no-op gate: with `FaultConfig::default()` (every
/// failure model off) a 20-step MIDDLE run must stay bitwise identical
/// to the pre-fault-plane implementation. The fingerprints below were
/// captured on commit a927eae (the last commit before the fault plane
/// landed) with exactly this FNV-1a-over-parameter-bits scheme; the
/// fault plane draws from its own RNG stream (`derive_seed(seed, 9)`)
/// and a disabled plane draws nothing, so these must never move unless
/// the simulation semantics deliberately change.
///
/// The floats hashed here come from deterministic seeded arithmetic on
/// x86_64 linux (container and CI alike); a different libm/platform
/// could legitimately shift `acc/loss` bits, in which case re-pin from
/// the pre-fault-plane commit on that platform.
#[test]
fn default_fault_config_is_bitwise_identical_to_pre_fault_plane_main() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 2;
    assert_eq!(cfg.faults, middle_core::FaultConfig::default());
    let mut sim = built(cfg);
    for _ in 0..20 {
        sim.tick(StepMode::Fast);
    }

    assert_eq!(fnv_params(&flatten(sim.cloud_model())), 0x75a18b3f9d2c2c47);
    let mut devices_fnv = 0xcbf29ce484222325u64;
    for d in sim.devices() {
        fnv(
            &mut devices_fnv,
            &fnv_params(&flatten(&d.model)).to_le_bytes(),
        );
    }
    assert_eq!(devices_fnv, 0x94105ab3ced3cd05);
    let mut edges_fnv = 0xcbf29ce484222325u64;
    for e in sim.edges() {
        fnv(
            &mut edges_fnv,
            &fnv_params(&flatten(&e.model)).to_le_bytes(),
        );
    }
    assert_eq!(edges_fnv, 0xa901b57d25ac7acd);

    let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
    assert_eq!(acc.to_bits(), 0x3e19999a);
    assert_eq!(loss.to_bits(), 0x4018f3e4);

    let comm = sim.comm_stats();
    assert_eq!(
        (
            comm.edge_to_device,
            comm.device_to_edge,
            comm.edge_to_cloud,
            comm.cloud_to_edge,
            comm.cloud_to_device,
        ),
        (79, 79, 10, 10, 40)
    );
    assert_eq!(comm.upload_retransmissions, 0);
    assert_eq!(comm.lost_uploads, 0);
    assert_eq!(comm.stale_uploads, 0);
    assert_eq!(sim.syncs(), 5);
    assert_eq!(sim.active_steps(), 20);
}

/// The compression no-op gate: with `CompressionConfig::default()`
/// (plane off) a 20-step MIDDLE run must stay bitwise identical to the
/// pre-compression-plane implementation — same fingerprints as the
/// fault-plane gate above (captured on commit a927eae; the compression
/// plane owns RNG stream `derive_seed(seed, 10)` and an inert plane
/// draws nothing). On top of the parameter/accuracy fingerprints this
/// pins the new byte ledger: with dense payloads every per-tier byte
/// counter must equal its transfer count times `4 · param_count`.
#[test]
fn default_compression_config_is_bitwise_identical_to_pre_compression_main() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 2;
    assert_eq!(cfg.compression, middle_core::CompressionConfig::default());
    assert!(!cfg.compression.enabled);
    let mut sim = built(cfg);
    for _ in 0..20 {
        sim.tick(StepMode::Fast);
    }

    assert_eq!(fnv_params(&flatten(sim.cloud_model())), 0x75a18b3f9d2c2c47);
    let mut devices_fnv = 0xcbf29ce484222325u64;
    for d in sim.devices() {
        fnv(
            &mut devices_fnv,
            &fnv_params(&flatten(&d.model)).to_le_bytes(),
        );
    }
    assert_eq!(devices_fnv, 0x94105ab3ced3cd05);
    let (acc, loss, _) = sim.evaluate(&sim.virtual_global());
    assert_eq!(acc.to_bits(), 0x3e19999a);
    assert_eq!(loss.to_bits(), 0x4018f3e4);

    let dense = 4 * flatten(sim.cloud_model()).len() as u64;
    let comm = *sim.comm_stats();
    assert_eq!(
        (
            comm.edge_to_device,
            comm.device_to_edge,
            comm.edge_to_cloud,
            comm.cloud_to_edge,
            comm.cloud_to_device,
        ),
        (79, 79, 10, 10, 40)
    );
    assert_eq!(comm.edge_to_device_bytes, 79 * dense);
    assert_eq!(comm.device_to_edge_bytes, 79 * dense);
    assert_eq!(comm.edge_to_cloud_bytes, 10 * dense);
    assert_eq!(comm.cloud_to_edge_bytes, 10 * dense);
    assert_eq!(comm.cloud_to_device_bytes, 40 * dense);
    assert_eq!(comm.payload_total_bytes(), (79 + 79 + 10 + 10 + 40) * dense);
    assert_eq!(sim.syncs(), 5);

    let record = sim.finish();
    assert_eq!(record.param_count, dense / 4);
}

/// Enabling the plane at a lossless setting (`bits ≥ 32`, `top_frac =
/// 1.0`) short-circuits it entirely, so the run must be bitwise
/// identical to compression-off — including the byte ledger.
#[test]
fn lossless_compression_run_is_bitwise_identical_to_off() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 12;
    cfg.cloud_interval = 4;
    let mut off = built(cfg.clone());
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 32;
    cfg.compression.top_frac = 1.0;
    assert!(!cfg.compression.lossy_active());
    let mut lossless = built(cfg.clone());
    for _ in 0..cfg.steps {
        off.tick(StepMode::Fast);
        lossless.tick(StepMode::Fast);
    }
    assert_eq!(
        bits(&flatten(off.cloud_model())),
        bits(&flatten(lossless.cloud_model()))
    );
    for (a, b) in off.devices().iter().zip(lossless.devices()) {
        assert_eq!(bits(&flatten(&a.model)), bits(&flatten(&b.model)));
    }
    for (a, b) in off.edges().iter().zip(lossless.edges()) {
        assert_eq!(bits(&flatten(&a.model)), bits(&flatten(&b.model)));
    }
    assert_eq!(off.comm_stats(), lossless.comm_stats());
}

/// Lossy compression consumes its RNG stream and rewrites every uplink
/// identically in both step modes (the lossy arms of `aggregate_cohort`
/// and `cloud_sync_now` sit outside the mode dispatch), so a
/// quantized + sparsified run must stay bitwise identical step for
/// step.
#[test]
fn lossy_compression_trace_is_bitwise_identical_to_reference() {
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 6;
    cfg.compression.top_frac = 0.3;
    assert!(cfg.compression.lossy_active());
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());
    for t in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
        let (cf, cs) = (flatten(fast.cloud_model()), flatten(slow.cloud_model()));
        assert_eq!(bits(&cf), bits(&cs), "cloud diverged at step {t}");
        for (n, (ef, es)) in fast.edges().iter().zip(slow.edges()).enumerate() {
            assert_eq!(
                bits(&flatten(&ef.model)),
                bits(&flatten(&es.model)),
                "edge {n} diverged at step {t}"
            );
            assert_eq!(ef.window_samples.to_bits(), es.window_samples.to_bits());
        }
        for (df, ds) in fast.devices().iter().zip(slow.devices()) {
            assert_eq!(
                bits(&flatten(&df.model)),
                bits(&flatten(&ds.model)),
                "device {} diverged at step {t}",
                df.id
            );
        }
    }
    assert_eq!(fast.syncs(), slow.syncs());
    assert_eq!(fast.comm_stats(), slow.comm_stats());
    // Compressed uplinks must actually shrink the ledger: uplink bytes
    // sit strictly below count × dense.
    let comm = fast.comm_stats();
    let dense = 4 * flatten(fast.cloud_model()).len() as u64;
    assert!(comm.device_to_edge_bytes < comm.device_to_edge * dense);
    assert!(comm.edge_to_cloud_bytes < comm.edge_to_cloud * dense);
    // Downlinks stay dense.
    assert_eq!(comm.edge_to_device_bytes, comm.edge_to_device * dense);
    assert_eq!(comm.cloud_to_device_bytes, comm.cloud_to_device * dense);
}

/// The full-interaction gate: lossy compression with *every* failure
/// model enabled at once (i.i.d. dropout, uniform straggler delays
/// with a deadline, lossy retried uploads and WAN outages) must stay
/// bitwise identical between the two step implementations — deadline
/// misses compress at miss time, lost uploads advance the residual and
/// RNG, and masked cloud syncs compress only the up edges, all through
/// the shared helpers.
#[test]
fn lossy_compression_with_all_faults_is_bitwise_identical_to_reference() {
    use middle_core::{DelayModel, DropoutModel};
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 4;
    cfg.compression.top_frac = 0.25;
    cfg.faults.dropout = DropoutModel::Iid { p: 0.2 };
    cfg.faults.straggler_delay = DelayModel::Uniform {
        min_s: 0.0,
        max_s: 2.0,
    };
    cfg.faults.deadline_s = 1.5;
    cfg.faults.upload_loss = 0.15;
    cfg.faults.upload_retries = 2;
    cfg.faults.wan_outage = 0.3;
    let mut fast = built(cfg.clone());
    let mut slow = built(cfg.clone());
    for t in 0..cfg.steps {
        fast.tick(StepMode::Fast);
        slow.tick(StepMode::Reference);
        let (cf, cs) = (flatten(fast.cloud_model()), flatten(slow.cloud_model()));
        assert_eq!(bits(&cf), bits(&cs), "cloud diverged at step {t}");
        for (n, (ef, es)) in fast.edges().iter().zip(slow.edges()).enumerate() {
            assert_eq!(
                bits(&flatten(&ef.model)),
                bits(&flatten(&es.model)),
                "edge {n} diverged at step {t}"
            );
        }
        for (df, ds) in fast.devices().iter().zip(slow.devices()) {
            assert_eq!(
                bits(&flatten(&df.model)),
                bits(&flatten(&ds.model)),
                "device {} diverged at step {t}",
                df.id
            );
        }
    }
    assert_eq!(fast.syncs(), slow.syncs());
    assert_eq!(fast.comm_stats(), slow.comm_stats());
    assert_eq!(fast.active_steps(), slow.active_steps());
}
