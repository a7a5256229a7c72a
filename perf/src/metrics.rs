//! The benchmark's metric tables — the single source `BENCHMARK.json`
//! is rendered from (`perf manifest`; a test fails when the committed
//! file drifts) — and the prediction each per-layer metric carries:
//! which end-to-end metric it should move, on which workload (a test
//! holds the README's tables to them).

use crate::json::{arr, f, obj, s, u, Json};
use crate::workloads::Workload;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `old` the value `new` is worse (negative when
    /// it is better). Against an `old` of zero any worse value is
    /// infinitely worse, not NaN.
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        let worse_by = match self {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        if worse_by == 0.0 {
            0.0
        } else {
            worse_by / old.abs()
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 20;

/// Host-time metrics come from the untraced run loop, the four
/// throughput and latency ones over every measured block; the two
/// simulated ones (`sim_s`, `MB`) are exact functions of the seed and
/// exist so that a host-speed change proves it left the simulated
/// system alone. The host-time bounds are the widest the driver
/// allows: the shared box drifts by up to ~20 % over minutes (README,
/// "Noise").
pub const END_TO_END: [EndToEnd; 8] = [
    // Median wall of SimulationBuilder::build (sweep_grid: grid
    // expansion, digest, ledger directory and the cold input build the
    // first scenario waits for).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // Simulated time steps per host second of the run loop, median
    // over the blocks (sweep_grid: summed over the scenarios of a
    // kill-and-resume pass).
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    // Devices trained x local steps I per host second, median over the
    // blocks (timescale t1).
    EndToEnd {
        name: "device_train_steps_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    // Median wall of Simulation::tick, timed by perf, pooled over the
    // blocks (sweep_grid: each scenario's wall_seconds / steps).
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // 90th percentile of the same samples (the slow ticks: evaluation
    // or cloud sync).
    EndToEnd {
        name: "step_ms_p90",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // VmHWM of the run's process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    // Simulated wall-clock of one episode: RunRecord::comm_wall_clock,
    // or event_seconds plus the per-sync charge in event mode
    // (simulated, not host, seconds).
    EndToEnd {
        name: "sim_wall_s",
        unit: "sim_s",
        better: Lower,
        bound: 0.01,
    },
    // CommStats::uplink_bytes of one episode (simulated).
    EndToEnd {
        name: "uplink_mb",
        unit: "MB",
        better: Lower,
        bound: 0.02,
    },
];

/// A metric of a single layer, from the traced run: phase totals of the
/// program's telemetry plane, counts, and micro-probes at the
/// workload's own shapes. `moves` and `on` are the prediction recorded
/// before measuring: the end-to-end metric it should move and the
/// workloads where its layer does the work (flat everywhere else).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static str,
}

const TRAIN: &str = "device_train_steps_per_s, step_ms_p50";
const STEP: &str = "step_ms_p50, step_ms_p90";
const POP: &str = "rounds_per_s, step_ms_p90, peak_rss_mb, setup_s";
const ROUND: &str = "rounds_per_s";
const ASYNC: &str = "rounds_per_s, sim_wall_s, uplink_mb";
const SWEEP: &str = "rounds_per_s, setup_s";
const SIMS: &str = "paper_cnn, lazy_100k, async_hostile";
const BUSY: &str = "lazy_100k, async_hostile";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:expr, $on:expr) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            moves: $moves,
            on: $on,
        }
    };
}

pub const PER_LAYER: [PerLayer; 58] = [
    // ---- tensor / nn / device: the t1 timescale ----
    // matmul_into at the model's batched layer shapes (conv GEMMs for the CNN), 2mkn / ns
    layer!("tensor.gemm_gflops", "GFLOP/s", Higher, TRAIN, "paper_cnn"),
    // im2col_batch at the model's conv geometries, computed bytes read + written / ns (0: no conv)
    layer!("tensor.im2col_gbps", "GB/s", Higher, TRAIN, "paper_cnn"),
    // conv2d_forward_into + conv2d_backward_into over the model's conv layers at batch B (0: no conv)
    layer!("tensor.conv_fwd_bwd_us", "us", Lower, TRAIN, "paper_cnn"),
    // one Sequential::train_batch_ws at batch B with the workload's optimizer
    layer!("nn.train_batch_us", "us", Lower, TRAIN, "paper_cnn"),
    // Sequential::infer_ws over the test set, per sample
    layer!(
        "nn.infer_us_per_sample",
        "us",
        Lower,
        "step_ms_p90",
        "paper_cnn"
    ),
    // FlatView::refresh of the model's parameters
    layer!("nn.flat_refresh_us", "us", Lower, TRAIN, "paper_cnn"),
    // one Device::local_train (I steps at batch B, Oort refresh, flat refresh)
    layer!("device.local_train_ms", "ms", Lower, TRAIN, "paper_cnn"),
    // 1 - I x nn.train_batch_us / device.local_train_ms
    layer!("device.overhead_frac", "frac", Lower, TRAIN, "paper_cnn"),
    // ---- selection / aggregation: the t2 and t3 timescales ----
    // select_devices_scored over one edge's candidates mid-run, per candidate
    layer!("selection.ns_per_candidate", "ns", Lower, STEP, BUSY),
    // on_device_init_into with the algorithm's blend policy (Eq. 9)
    layer!("aggregation.on_device_init_us", "us", Lower, STEP, BUSY),
    // edge_aggregate_into over K device models (Eq. 6)
    layer!("aggregation.edge_us", "us", Lower, STEP, BUSY),
    // cloud_aggregate_into over E edge models (Eq. 7)
    layer!("aggregation.cloud_us", "us", Lower, STEP, BUSY),
    // ---- population / mobility ----
    // high-water mark of materialised replicas, sampled per tick
    layer!("population.peak_resident", "count", Lower, POP, "lazy_100k"),
    // mean materialised replicas per tick
    layer!("population.resident_mean", "count", Lower, POP, "lazy_100k"),
    // Population::version_scores over the live broadcast versions mid-run
    layer!(
        "population.version_scores_us",
        "us",
        Lower,
        POP,
        "lazy_100k"
    ),
    // (p50 step at N devices - p50 step at N/10, equal K x E) / 0.9 N: the O(N) term (0: dense)
    layer!(
        "population.us_per_idle_device",
        "us",
        Lower,
        POP,
        "lazy_100k"
    ),
    // SimulationBuilder::build wall per device
    layer!(
        "population.setup_us_per_device",
        "us",
        Lower,
        "setup_s",
        "lazy_100k"
    ),
    // generating the configured mobility trace (streaming constructor when lazy)
    layer!(
        "mobility.trace_build_ms",
        "ms",
        Lower,
        "setup_s",
        "lazy_100k"
    ),
    // Trace::fill_rows_into for the next step (row regeneration when streaming)
    layer!("mobility.fill_rows_us", "us", Lower, POP, "lazy_100k"),
    // ---- sim: the round's phases, from TelemetryReport totals, per step ----
    // selection phase per step
    layer!("sim.selection_ms", "ms", Lower, ROUND, SIMS),
    // device_init phase per step
    layer!("sim.device_init_ms", "ms", Lower, ROUND, SIMS),
    // local_training phase per step
    layer!("sim.local_training_ms", "ms", Lower, ROUND, SIMS),
    // edge_aggregation phase per step
    layer!("sim.edge_aggregation_ms", "ms", Lower, ROUND, SIMS),
    // compress phase per step
    layer!("sim.compress_ms", "ms", Lower, ROUND, "async_hostile"),
    // cloud_sync phase per step
    layer!("sim.cloud_sync_ms", "ms", Lower, ROUND, SIMS),
    // fault_recovery phase per step
    layer!("sim.fault_recovery_ms", "ms", Lower, ROUND, "async_hostile"),
    // evaluation phase per step
    layer!("sim.evaluation_ms", "ms", Lower, ROUND, SIMS),
    // 1 - sum of phase totals / sum of tick wall: step index, trace rows, policy hooks
    layer!("sim.unattributed_frac", "frac", Lower, ROUND, "lazy_100k"),
    // trained per step x device.local_train_ms / (threads x sim.local_training_ms)
    layer!("sim.train_parallel_eff", "frac", Higher, ROUND, "paper_cnn"),
    // one Simulation::evaluate of the global model on the test set
    layer!("sim.evaluate_ms", "ms", Lower, "step_ms_p90", SIMS),
    // last global accuracy of one episode (simulated; exact for a seed)
    layer!("sim.final_accuracy", "frac", Higher, "-", SIMS),
    // last global test loss of one episode (simulated; exact for a seed)
    layer!("sim.final_loss", "nat", Lower, "-", SIMS),
    // ---- timeline / faults / compress: exactly 0 with the planes off ----
    // events processed in one episode
    layer!("timeline.events", "count", Higher, ASYNC, "async_hostile"),
    // events per host second of tick wall
    layer!(
        "timeline.events_per_s",
        "1/s",
        Higher,
        ASYNC,
        "async_hostile"
    ),
    // Timeline::push + pop at a heap depth of K x E in-flight uploads
    layer!("timeline.push_pop_ns", "ns", Lower, ASYNC, "async_hostile"),
    // step_boundary handler per step
    layer!(
        "timeline.ev_step_boundary_ms",
        "ms",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // device_upload handlers per step
    layer!(
        "timeline.ev_device_upload_ms",
        "ms",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // edge_aggregate handlers per step
    layer!(
        "timeline.ev_edge_aggregate_ms",
        "ms",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // cloud_sync handlers per step
    layer!(
        "timeline.ev_cloud_sync_ms",
        "ms",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // FaultPlane::upload_attempts + sample_upload_delay
    layer!("faults.draw_ns", "ns", Lower, ASYNC, "async_hostile"),
    // late uploads merged stale in one episode
    layer!(
        "faults.stale_merges",
        "count",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // upload retransmissions in one episode
    layer!(
        "faults.retransmissions",
        "count",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // uploads abandoned in one episode
    layer!(
        "faults.lost_uploads",
        "count",
        Lower,
        ASYNC,
        "async_hostile"
    ),
    // compress_delta at d = parameter count (0: compression off)
    layer!("compress.delta_us", "us", Lower, ASYNC, "async_hostile"),
    // uplink bytes / dense bytes of the same transfers
    layer!(
        "compress.uplink_ratio",
        "frac",
        Lower,
        "uplink_mb",
        "async_hostile"
    ),
    // ---- checkpoint / builder / data / sweep ----
    // Simulation::checkpoint mid-run
    layer!("checkpoint.capture_ms", "ms", Lower, SWEEP, "sweep_grid"),
    // SimCheckpoint::to_json + from_json
    layer!("checkpoint.json_ms", "ms", Lower, SWEEP, "sweep_grid"),
    // Simulation::restore into a built simulation
    layer!("checkpoint.restore_ms", "ms", Lower, SWEEP, "sweep_grid"),
    // checkpoint JSON size
    layer!("checkpoint.kb", "kB", Lower, SWEEP, "sweep_grid"),
    // cold SharedInputs::build
    layer!(
        "builder.shared_inputs_ms",
        "ms",
        Lower,
        SWEEP,
        "sweep_grid, lazy_100k"
    ),
    // InputCache::get_or_build on a warm key
    layer!("builder.cache_hit_us", "us", Lower, SWEEP, "sweep_grid"),
    // input-cache hits / requests over a kill-and-resume pass (0: no cache)
    layer!(
        "builder.cache_hit_ratio",
        "frac",
        Higher,
        SWEEP,
        "sweep_grid"
    ),
    // synthesising the base data and partitioning it over the devices
    layer!(
        "data.build_ms",
        "ms",
        Lower,
        "setup_s",
        "sweep_grid, lazy_100k"
    ),
    // scenarios completed per host second of run_sweep (0: not a sweep)
    layer!("sweep.scenarios_per_s", "1/s", Higher, SWEEP, "sweep_grid"),
    // 1 - sum of scenario wall / (threads x sweep wall): input builds, checkpoints, ledger
    layer!(
        "sweep.engine_overhead_frac",
        "frac",
        Lower,
        SWEEP,
        "sweep_grid"
    ),
    // run_sweep over a complete ledger: read, verify, skip everything
    layer!("sweep.resume_ms", "ms", Lower, SWEEP, "sweep_grid"),
    // SweepReport::to_json + deterministic_json
    layer!("sweep.report_json_ms", "ms", Lower, SWEEP, "sweep_grid"),
    // median tick with telemetry on / off - 1, episodes alternating within the traced run
    layer!("telemetry.overhead_frac", "frac", Lower, "-", "all"),
];

/// `BENCHMARK.json` as the driver's contract wants it: exactly six
/// keys, and exactly the keys shown for every entry.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), s(name)),
            ("unit".to_string(), s(unit)),
            ("better".to_string(), s(better.as_str())),
        ]
    };
    Json(obj([
        ("command", arr([s("bash"), s("perf/run.sh")])),
        ("paths", arr([s("perf")])),
        ("run_seconds", u(RUN_SECONDS)),
        (
            "workloads",
            arr(Workload::ALL
                .iter()
                .map(|w| obj([("name", s(w.name())), ("why", s(w.why()))]))),
        ),
        (
            "end_to_end",
            arr(END_TO_END.iter().map(|m| {
                let mut e = metric(m.name, m.unit, m.better);
                e.push(("bound".to_string(), f(m.bound)));
                serde::Value::Map(e)
            })),
        ),
        (
            "per_layer",
            arr(PER_LAYER
                .iter()
                .map(|m| serde::Value::Map(metric(m.name, m.unit, m.better)))),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn names_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = HashSet::new();
        let units = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(names_ok(name), "bad name {name}");
            assert!(units(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_layer_prefix_is_a_module_of_the_program() {
        const LAYERS: [&str; 16] = [
            "tensor",
            "nn",
            "data",
            "mobility",
            "device",
            "selection",
            "aggregation",
            "sim",
            "population",
            "timeline",
            "faults",
            "compress",
            "checkpoint",
            "builder",
            "sweep",
            "telemetry",
        ];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{} names no layer", m.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest().pretty(),
            "BENCHMARK.json drifted from perf/src/metrics.rs; run `perf manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn readme_tables_match_the_tables() {
        let readme = include_str!("../README.md");
        for m in &END_TO_END {
            let row = format!(
                "| `{}` | {} | {} | {:.0}% |",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
            assert!(readme.contains(&row), "README.md lacks the row {row}");
        }
        for m in &PER_LAYER {
            let row = format!("| `{}` | {} | {} | {} |", m.name, m.unit, m.moves, m.on);
            assert!(readme.contains(&row), "README.md lacks the row {row}");
        }
    }

    #[test]
    fn worsening_against_zero_is_not_nan() {
        assert_eq!(Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Lower.worsening(0.0, 3.0), f64::INFINITY);
        assert_eq!(Higher.worsening(0.0, 3.0), f64::NEG_INFINITY);
        assert_eq!(Lower.worsening(4.0, 5.0), 0.25);
        assert_eq!(Higher.worsening(4.0, 5.0), -0.25);
    }

    /// The benchmark must never measure a different codegen than
    /// `cargo build --release` of the repository.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap()
                        .split_whitespace()
                        .collect::<String>()
                })
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let dir = env!("CARGO_MANIFEST_DIR");
        let read = |p: String| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let root = release_profile(&read(format!("{dir}/../Cargo.toml")));
        let own = release_profile(&read(format!("{dir}/Cargo.toml")));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(
            own, root,
            "perf/Cargo.toml [profile.release] drifted from the root's"
        );
    }
}
