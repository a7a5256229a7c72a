//! Gates for the telemetry plane: the instrumented run must account for
//! its own time (phase totals ≈ step wall-clock), its per-step JSONL
//! lines must sum to its report, its counters must agree with the
//! simulation's communication accounting, and enabling the recorder
//! must not perturb the simulation itself.

use middle_core::{
    Algorithm, DropoutModel, OnDevicePolicy, Phase, SelectionPolicy, SimConfig, SimError,
    SimulationBuilder, StepCounters, TelemetryReport, TimelineConfig,
};
use middle_data::Task as DataTask;

mod common;
use common::{assert_same_run, built, finished, hostile, lossy, real_latencies, shape, Cell};

/// A config that exercises every counter: i.i.d. dropout (so some
/// candidates are filtered and steps can go inactive) plus `KeepLocal`
/// (so moved devices skip the edge download).
fn instrumented_config() -> SimConfig {
    let algo = Algorithm::custom(
        "KeepLocal",
        SelectionPolicy::Random,
        OnDevicePolicy::KeepLocal,
    );
    let mut cfg = SimConfig::tiny(DataTask::Mnist, algo);
    cfg.steps = 12;
    cfg.cloud_interval = 4;
    cfg.faults.dropout = DropoutModel::Iid { p: 0.3 };
    cfg.telemetry = true;
    cfg
}

/// The event engine with real latencies on Speech under hostile faults,
/// 8-bit top-50 % compression and an edge threshold of one: uploads
/// land between steps, late ones blend as stale merges, and a tick
/// holds several waves per edge.
fn event_config() -> SimConfig {
    SimConfig {
        faults: hostile(),
        compression: lossy(8, 0.5),
        timeline: TimelineConfig {
            edge_threshold: Some(1),
            ..real_latencies()
        },
        telemetry: true,
        ..shape(DataTask::Speech, 12, 3, 4)
    }
}

/// [`instrumented_config`] under the event engine with real latencies.
fn event_mnist_config() -> SimConfig {
    SimConfig {
        faults: hostile(),
        timeline: real_latencies(),
        ..instrumented_config()
    }
}

fn report(cfg: SimConfig) -> TelemetryReport {
    built(cfg).run().telemetry.expect("telemetry enabled")
}

/// A counters struct as its serialised fields, in declaration order.
fn fields(c: &StepCounters) -> Vec<(String, i128)> {
    let value = serde::Serialize::to_value(c);
    let entries = value.as_map().expect("counters serialise as a map");
    (entries.iter())
        .map(|(k, v)| match v {
            serde::Value::Int(n) => (k.clone(), *n),
            other => panic!("counter {k} is {other:?}"),
        })
        .collect()
}

#[test]
fn report_absent_when_disabled() {
    let cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    assert!(!cfg.telemetry_enabled());
    let record = built(cfg).run();
    assert!(record.telemetry.is_none());
    // active_steps is tracked regardless of telemetry.
    assert!(record.active_steps > 0);
}

/// The in-step segments are disjoint subintervals of a step, so their
/// sum can never exceed the step total (plus timer noise), and each
/// phase is observed at most once a step. In lockstep they must also
/// cover the overwhelming majority of the step — the step body is
/// nothing but the instrumented phases; the event engine's step also
/// holds the heap's own work.
#[test]
fn phase_totals_account_for_step_time() {
    for (what, cfg, covered) in [
        ("lockstep", instrumented_config(), Some(0.90)),
        ("event-driven Mnist", event_mnist_config(), None),
        ("event-driven Speech", event_config(), None),
    ] {
        let steps = cfg.steps as u64;
        let report = report(cfg);
        let step_total = report.step.total_ns;
        // Every in-step phase; `Simulation::tick` evaluates after the
        // step closes.
        let phase_total: u64 = (report.phases.iter())
            .filter(|p| p.phase != Phase::Evaluation.name())
            .map(|p| p.total_ns)
            .sum();
        assert_eq!(report.step.count, steps, "{what}: steps observed");
        assert!(step_total > 0, "{what}: step summary empty");
        assert!(
            (phase_total as f64) <= step_total as f64 * 1.02,
            "{what}: phase sum {phase_total} exceeds step total {step_total}"
        );
        if let Some(floor) = covered {
            assert!(
                (phase_total as f64) >= step_total as f64 * floor,
                "{what}: phase sum {phase_total} covers <{floor} of step total {step_total}"
            );
        }
        for p in &report.phases {
            assert!(
                p.count <= steps,
                "{what}: {} observed {} times",
                p.phase,
                p.count
            );
        }
    }
}

/// Uploads equal selections without faults, syncs account for the WAN
/// and broadcast counters, and the harness's ledger identities
/// (`common::assert_ledger`) hold.
#[test]
fn counters_match_comm_stats_exactly() {
    let cfg = instrumented_config();
    let (num_edges, num_devices) = (cfg.num_edges as u64, cfg.num_devices as u64);
    let steps = cfg.steps as u64;
    let (_, record) = Cell::new("instrumented", cfg).run();
    let c = record
        .telemetry
        .as_ref()
        .expect("telemetry enabled")
        .counters;

    assert_eq!(c.steps, steps);
    assert_eq!(c.syncs * num_edges, record.comm.edge_to_cloud);
    assert_eq!(c.syncs * num_edges, record.comm.cloud_to_edge);
    assert_eq!(c.syncs * num_devices, record.comm.cloud_to_device);

    // KeepLocal: every moved selected device skipped its download.
    assert_eq!(c.downloads + c.moved_inits, c.selected);
    assert_eq!(c.selected, c.uploads);
    // Dropout filtering really dropped candidates at p = 0.3.
    assert!(c.dropout_drops > 0, "no drops at dropout p = 0.3");
    // Per edge, seen ≥ dropped + selected; summed over the run likewise.
    assert!(c.candidates_seen >= c.selected + c.dropout_drops);
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    let mut plain = instrumented_config();
    plain.telemetry = false;
    let instrumented = finished(instrumented_config());
    assert_same_run(&instrumented, &finished(plain), "telemetry on and off");
}

/// One line per step, each reporting everything recorded since the
/// previous one: in both execution modes every counter of the lines
/// sums to the report's.
#[test]
fn jsonl_sink_writes_one_line_per_step() {
    #[derive(serde::Deserialize)]
    struct Line {
        step: u64,
        step_ns: u64,
        local_training_ns: u64,
        counters: StepCounters,
    }

    let lockstep = SimConfig {
        steps: 6,
        ..SimConfig::tiny(DataTask::Mnist, Algorithm::middle())
    };
    for (what, mut cfg) in [("lockstep", lockstep), ("event-driven", event_config())] {
        let path = std::env::temp_dir().join(format!(
            "middle_telemetry_{}_{what}.jsonl",
            std::process::id()
        ));
        cfg.telemetry = false;
        cfg.telemetry_jsonl = Some(path.to_string_lossy().into_owned());
        assert!(cfg.telemetry_enabled(), "jsonl path implies telemetry");
        let record = built(cfg.clone()).run();
        let report = record.telemetry.expect("telemetry enabled");

        let text = std::fs::read_to_string(&path).expect("sink file written");
        std::fs::remove_file(&path).ok();
        let lines: Vec<Line> = (text.lines())
            .map(|l| serde_json::from_str(l).expect("parseable JSONL line"))
            .collect();
        assert_eq!(lines.len(), cfg.steps, "{what}: lines");
        let mut sums = fields(&StepCounters::default());
        for (t, line) in lines.iter().enumerate() {
            assert_eq!(line.step, t as u64, "{what}: step index");
            assert!(line.step_ns > 0, "{what}: step {t} is timed");
            assert!(line.step_ns >= line.local_training_ns, "{what}: step {t}");
            if what == "lockstep" {
                assert_eq!(
                    line.counters.active_steps, 1,
                    "{what}: step {t}: tiny config at full availability is never idle"
                );
            }
            for (sum, (_, n)) in sums.iter_mut().zip(fields(&line.counters)) {
                sum.1 += n;
            }
        }
        assert_eq!(
            sums,
            fields(&report.counters),
            "{what}: lines against the report"
        );
        assert_eq!(
            report.counters.uploads, record.comm.device_to_edge,
            "{what}"
        );
        let c = &report.counters;
        if what == "event-driven" {
            assert!(
                c.stale_merges > 0 && c.wan_outages > 0 && c.compressed_syncs > 0,
                "{what}: the config exercises late arrivals, outages and lossy syncs: {c:?}"
            );
        }
    }
}

/// A sink that cannot be created fails the build with a typed error.
#[test]
fn unopenable_jsonl_sink_is_a_typed_error() {
    let path = std::env::temp_dir()
        .join(format!("middle_no_such_dir_{}", std::process::id()))
        .join("events.jsonl");
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.telemetry_jsonl = Some(path.to_string_lossy().into_owned());
    match SimulationBuilder::new(cfg).build() {
        Err(SimError::Io { path: p, .. }) => assert_eq!(p, path.to_string_lossy()),
        Err(other) => panic!("expected an io error, got {other}"),
        Ok(_) => panic!("a sink under a missing directory must not build"),
    }
}
