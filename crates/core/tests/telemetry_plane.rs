//! Gates for the telemetry plane: the instrumented run must account for
//! its own time (phase totals ≈ step wall-clock), its counters must
//! agree exactly with the simulation's communication accounting, and
//! enabling the recorder must not perturb the simulation itself.

use middle_core::{Algorithm, OnDevicePolicy, SelectionPolicy, SimConfig};
use middle_data::Task as DataTask;

mod common;
use common::{assert_same_run, built, finished, Cell};

/// A config that exercises every counter: availability dropout (so some
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
    cfg.availability = 0.7;
    cfg.telemetry = true;
    cfg
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

#[test]
fn phase_totals_account_for_step_time() {
    let record = built(instrumented_config()).run();
    let report = record.telemetry.expect("telemetry enabled");
    let step_total = report.step.total_ns;
    let phase_total = report.step_phase_total_ns();
    assert!(step_total > 0, "step histogram empty");
    // The six in-step segments are disjoint subintervals of each step,
    // so their sum can never exceed the step total (plus timer noise)
    // and must cover the overwhelming majority of it — the step body is
    // nothing but the instrumented phases.
    assert!(
        (phase_total as f64) <= step_total as f64 * 1.02,
        "phase sum {phase_total} exceeds step total {step_total}"
    );
    assert!(
        (phase_total as f64) >= step_total as f64 * 0.90,
        "phase sum {phase_total} covers <90% of step total {step_total}"
    );
}

/// Uploads, downloads, syncs and active steps equal the ledger's: the
/// harness's ledger identities (`common::assert_ledger`).
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
    // Availability filtering really dropped candidates at 0.7.
    assert!(c.availability_drops > 0, "no drops at availability 0.7");
    // Per edge, seen ≥ dropped + selected; summed over the run likewise.
    assert!(c.candidates_seen >= c.selected + c.availability_drops);
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    let mut plain = instrumented_config();
    plain.telemetry = false;
    let instrumented = finished(instrumented_config());
    assert_same_run(&instrumented, &finished(plain), "telemetry on and off");
}

#[test]
fn jsonl_sink_writes_one_line_per_step() {
    let path = std::env::temp_dir().join(format!(
        "middle_telemetry_{}_{}.jsonl",
        std::process::id(),
        line!()
    ));
    let mut cfg = SimConfig::tiny(DataTask::Mnist, Algorithm::middle());
    cfg.steps = 6;
    cfg.telemetry_jsonl = Some(path.to_string_lossy().into_owned());
    assert!(cfg.telemetry_enabled(), "jsonl path implies telemetry");
    let record = built(cfg.clone()).run();
    assert!(record.telemetry.is_some());

    #[derive(serde::Deserialize)]
    struct Event {
        step: u64,
        active: bool,
        step_ns: u64,
        local_training_ns: u64,
        uploads: u64,
    }

    let text = std::fs::read_to_string(&path).expect("sink file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cfg.steps);
    let mut uploads = 0;
    for (t, line) in lines.iter().enumerate() {
        let e: Event = serde_json::from_str(line).expect("parseable JSONL line");
        assert_eq!(e.step, t as u64);
        assert!(e.active, "tiny config at full availability is never idle");
        assert!(e.step_ns > 0);
        assert!(e.step_ns >= e.local_training_ns);
        uploads += e.uploads;
    }
    assert_eq!(uploads, record.comm.device_to_edge);
    std::fs::remove_file(&path).ok();
}

#[test]
fn report_summary_table_names_every_phase() {
    let record = built(instrumented_config()).run();
    let report = record.telemetry.expect("telemetry enabled");
    let table = report.summary_table();
    for phase in [
        "selection",
        "device_init",
        "local_training",
        "edge_aggregation",
        "cloud_sync",
        "evaluation",
        "step",
    ] {
        assert!(table.contains(phase), "summary missing {phase}:\n{table}");
    }
}
