//! Turns a traced run into the per-layer metrics: phase totals of the
//! program's telemetry plane, counts, and micro-probes.

use crate::probes;
use crate::runloop::{sweep_dir, Measured};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, threads};
use crate::workloads::{self, Shape, Workload};
use middle_core::telemetry::Phase;
use middle_core::{PopulationMode, SimConfig};
use std::path::Path;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The O(N) term of a lazy step: the median step at N devices against
/// a run at N/10 with the same K x E training jobs, per idle device, in
/// microseconds. The two sizes run as interleaved pairs, each without
/// its first sync period (cold pages), and the median pair counts. The
/// population's own mutators are private to the core crate, so this
/// differential is the view from outside.
fn us_per_idle_device(cfg: &SimConfig, pairs: usize) -> f64 {
    let mut full = cfg.clone();
    full.steps = (5 * cfg.cloud_interval).min(cfg.steps);
    full.eval_interval = full.steps;
    let mut small = full.clone();
    small.num_devices = (cfg.num_devices / 10).max(cfg.num_edges * cfg.devices_per_edge);
    let idle = (full.num_devices - small.num_devices) as f64;
    if idle == 0.0 {
        return 0.0;
    }
    let warm_tick_ms =
        |c: &SimConfig| median(&probes::tick_ms(c)[c.cloud_interval.min(c.steps - 1)..]);
    let gaps: Vec<f64> = (0..pairs)
        .map(|_| warm_tick_ms(&full) - warm_tick_ms(&small))
        .collect();
    median(&gaps) * 1e3 / idle
}

/// Tracing overhead: median tick with telemetry on over median tick
/// with it off, minus one (0 when the window held no episode of one
/// kind).
fn telemetry_overhead(episodes: &[(bool, Vec<f64>)]) -> f64 {
    let pooled = |on: bool| -> Vec<f64> {
        episodes
            .iter()
            .filter(|(telemetry, _)| *telemetry == on)
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect()
    };
    let (on, off) = (pooled(true), pooled(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    median(&on) / median(&off) - 1.0
}

/// Every per-layer metric of `BENCHMARK.json`, for one traced run.
#[allow(clippy::too_many_arguments)]
pub fn layer_metrics(
    w: Workload,
    cfg: &SimConfig,
    shape: Shape,
    m: &Measured,
    out_dir: &Path,
    tracer: &mut Tracer,
    root: SpanId,
) -> Vec<(&'static str, f64)> {
    let p = probes::run(cfg, shape.smoke, tracer, root);
    let t = &m.traced;
    let outcome = m
        .outcome
        .expect("caller checked the first episode completed");
    let threads = threads() as f64;

    let steps = t.steps.max(1) as f64;
    let phase_ms = |phase: Phase| t.phase_ns[phase as usize] as f64 / 1e6 / steps;
    let event_ms = |kind: usize| t.event_ns[kind] as f64 / 1e6 / steps;
    let phases_ns: u64 = t.phase_ns.iter().sum();
    let (us, ms) = (|name: &str| p.ns(name) / 1e3, |name: &str| p.ns(name) / 1e6);
    let per_ns = |amount: f64, name: &str| match p.ns(name) {
        ns if ns > 0.0 => amount / ns,
        _ => 0.0,
    };

    let train_batch_us = us("nn.train_batch");
    let local_train_ms = ms("device.local_train");
    let local_training_ms = phase_ms(Phase::LocalTraining);
    let idle_us = if cfg.population == PopulationMode::Lazy {
        let span = tracer.begin("probe.population.us_per_idle_device", Some(root));
        let v = us_per_idle_device(cfg, if shape.smoke { 1 } else { 3 });
        tracer.end(span);
        v
    } else {
        0.0
    };
    let (resume_ns, report_json_ns) = if w == Workload::SweepGrid {
        let grid = workloads::grid(cfg.clone(), shape);
        probes::run_sweep_probes(&grid, &sweep_dir(out_dir), shape.smoke, tracer, root)
    } else {
        (0.0, 0.0)
    };

    vec![
        ("tensor.gemm_gflops", per_ns(p.gemm_flops, "tensor.gemm")),
        (
            "tensor.im2col_gbps",
            per_ns(p.im2col_bytes, "tensor.im2col"),
        ),
        ("tensor.conv_fwd_bwd_us", us("tensor.conv_fwd_bwd")),
        ("nn.train_batch_us", train_batch_us),
        (
            "nn.infer_us_per_sample",
            us("nn.infer") / cfg.test_samples as f64,
        ),
        ("nn.flat_refresh_us", us("nn.flat_refresh")),
        ("device.local_train_ms", local_train_ms),
        (
            "device.overhead_frac",
            1.0 - cfg.local_steps as f64 * train_batch_us / (local_train_ms * 1e3),
        ),
        (
            "selection.ns_per_candidate",
            p.ns("selection.select") / p.candidates.max(1) as f64,
        ),
        (
            "aggregation.on_device_init_us",
            (us("aggregation.on_device_init+refresh") - us("nn.flat_refresh")).max(0.0),
        ),
        ("aggregation.edge_us", us("aggregation.edge")),
        ("aggregation.cloud_us", us("aggregation.cloud")),
        ("population.peak_resident", t.peak_resident as f64),
        (
            "population.resident_mean",
            mean(&t.resident.iter().map(|&r| r as f64).collect::<Vec<_>>()),
        ),
        (
            "population.version_scores_us",
            us("population.version_scores"),
        ),
        ("population.us_per_idle_device", idle_us),
        (
            "population.setup_us_per_device",
            median(&m.setup_s) * 1e6 / cfg.num_devices as f64,
        ),
        ("mobility.trace_build_ms", ms("mobility.trace_build")),
        ("mobility.fill_rows_us", us("mobility.fill_rows")),
        ("sim.selection_ms", phase_ms(Phase::Selection)),
        ("sim.device_init_ms", phase_ms(Phase::DeviceInit)),
        ("sim.local_training_ms", local_training_ms),
        ("sim.edge_aggregation_ms", phase_ms(Phase::EdgeAggregation)),
        ("sim.compress_ms", phase_ms(Phase::Compress)),
        ("sim.cloud_sync_ms", phase_ms(Phase::CloudSync)),
        ("sim.fault_recovery_ms", phase_ms(Phase::FaultRecovery)),
        ("sim.evaluation_ms", phase_ms(Phase::Evaluation)),
        (
            "sim.unattributed_frac",
            1.0 - phases_ns as f64 / t.tick_wall_ns.max(1) as f64,
        ),
        (
            "sim.train_parallel_eff",
            (t.trained as f64 / steps) * local_train_ms / (threads * local_training_ms),
        ),
        ("sim.evaluate_ms", ms("sim.evaluate")),
        ("sim.final_accuracy", outcome.final_accuracy),
        ("sim.final_loss", outcome.final_loss),
        ("timeline.events", t.episode_events as f64),
        (
            "timeline.events_per_s",
            t.events as f64 / (t.tick_wall_ns.max(1) as f64 / 1e9),
        ),
        ("timeline.push_pop_ns", p.ns("timeline.push_pop")),
        ("timeline.ev_step_boundary_ms", event_ms(0)),
        ("timeline.ev_device_upload_ms", event_ms(1)),
        ("timeline.ev_edge_aggregate_ms", event_ms(2)),
        ("timeline.ev_cloud_sync_ms", event_ms(3)),
        ("faults.draw_ns", p.ns("faults.draw")),
        (
            "faults.stale_merges",
            t.episode_counters.stale_merges as f64,
        ),
        (
            "faults.retransmissions",
            t.episode_counters.upload_retransmissions as f64,
        ),
        (
            "faults.lost_uploads",
            t.episode_counters.lost_uploads as f64,
        ),
        ("compress.delta_us", us("compress.delta")),
        ("compress.uplink_ratio", outcome.uplink_ratio),
        ("checkpoint.capture_ms", ms("checkpoint.capture")),
        ("checkpoint.json_ms", ms("checkpoint.json")),
        ("checkpoint.restore_ms", ms("checkpoint.restore")),
        ("checkpoint.kb", p.checkpoint_bytes as f64 / 1024.0),
        ("builder.shared_inputs_ms", ms("builder.shared_inputs")),
        ("builder.cache_hit_us", us("builder.cache_hit")),
        ("builder.cache_hit_ratio", mean(&t.sweep_hit_ratio)),
        ("data.build_ms", ms("data.build")),
        (
            "sweep.scenarios_per_s",
            if t.sweep_scenarios_per_s.is_empty() {
                0.0
            } else {
                median(&t.sweep_scenarios_per_s)
            },
        ),
        (
            "sweep.engine_overhead_frac",
            if t.sweep_overhead_frac.is_empty() {
                0.0
            } else {
                median(&t.sweep_overhead_frac)
            },
        ),
        ("sweep.resume_ms", resume_ns / 1e6),
        ("sweep.report_json_ms", report_json_ns / 1e6),
        ("telemetry.overhead_frac", telemetry_overhead(&t.episodes)),
    ]
}
