//! Telemetry overhead gate: the disabled recorder must be a no-op.
//!
//! Guards the disabled-telemetry hot path against regression without
//! flaking on machine load. Absolute step times on a shared machine
//! swing far more than any useful tolerance, so the gate compares
//! *ratios*: it re-measures the zero-copy `step` against the
//! clone-based `StepMode::Reference` step interleaved (identical load
//! hits both sides) and fails when the best observed step-to-reference ratio has
//! degraded by more than the tolerance (default 5%, override with
//! `MIDDLE_OVERHEAD_TOL=<fraction>`) relative to the `full_sim_step`
//! ratio recorded in `BENCH_hotpath.json` — i.e. when something made
//! the instrumented fast path slower relative to the same-machine
//! reference implementation. The limit is floored at `1 + tol`: load
//! compresses the fast/slow gap toward 1.0, but the zero-copy step
//! actually exceeding the clone-based reference is a regression under
//! any load.
//!
//! The enabled-vs-disabled telemetry ratio is measured the same
//! interleaved way and gated loosely (25%): the recorder itself must
//! stay cheap even when on.
//!
//! ```sh
//! cargo run -p middle-bench --release --bin telemetry_overhead [BENCH_hotpath.json]
//! ```

use middle_core::{Algorithm, SimConfig, SimulationBuilder, StepMode};
use middle_data::Task as DataTask;
use std::time::Instant;

fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default(DataTask::Mnist, Algorithm::middle());
    cfg.num_edges = 3;
    cfg.num_devices = 12;
    cfg.devices_per_edge = 2;
    cfg.samples_per_device = 16;
    cfg.local_steps = 3;
    cfg.batch_size = 8;
    cfg.steps = 6;
    cfg.test_samples = 60;
    cfg.eval_interval = 6;
    cfg
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// One warmed-up step timing: `step(1)` with the given telemetry
/// switch, or `advance(1, StepMode::Reference)` when `reference` is set.
fn time_step(reference: bool, telemetry: bool) -> f64 {
    let mut cfg = sim_config();
    cfg.telemetry = telemetry;
    let mut sim = SimulationBuilder::new(cfg)
        .build()
        .expect("valid overhead config");
    sim.step(0);
    let t = Instant::now();
    if reference {
        sim.advance(1, StepMode::Reference);
    } else {
        sim.step(1);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(&sim);
    ns
}

/// Pulls `"full_sim_step": {..., "before_ns": B, "after_ns": A, ...}`
/// out of the recorded baseline without a JSON dependency.
fn baseline_ratio(json: &str) -> Option<f64> {
    let obj = json.split("\"full_sim_step\"").nth(1)?;
    let grab = |key: &str| -> Option<f64> {
        let field = obj.split(key).nth(1)?;
        let num: String = field
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        num.parse().ok()
    };
    let before = grab("\"before_ns\"")?;
    let after = grab("\"after_ns\"")?;
    (before > 0.0).then_some(after / before)
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let tol: f64 = std::env::var("MIDDLE_OVERHEAD_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(0.05);

    // Interleaved triples: reference step / disabled step / enabled
    // step, back to back, so load drift cancels in the ratios. The gate
    // uses the *best* (minimum) pairwise disabled/reference ratio: a
    // genuine regression shifts every pair up, while a load spike only
    // inflates the pairs it lands on.
    const SAMPLES: usize = 21;
    let mut reference = Vec::with_capacity(SAMPLES);
    let mut disabled = Vec::with_capacity(SAMPLES);
    let mut enabled = Vec::with_capacity(SAMPLES);
    let mut step_ratio = f64::INFINITY;
    for _ in 0..SAMPLES {
        let r = time_step(true, false);
        let d = time_step(false, false);
        enabled.push(time_step(false, true));
        step_ratio = step_ratio.min(d / r);
        reference.push(r);
        disabled.push(d);
    }
    let (ref_med, dis_med, en_med) = (median(reference), median(disabled), median(enabled));
    let telemetry_ratio = en_med / dis_med;
    println!(
        "reference step:          {ref_med:>12.0} ns\n\
         telemetry disabled step: {dis_med:>12.0} ns   (best vs reference {step_ratio:.3}x)\n\
         telemetry enabled  step: {en_med:>12.0} ns   (vs disabled {telemetry_ratio:.3}x)"
    );

    if telemetry_ratio > 1.25 {
        eprintln!(
            "FAIL: enabled-telemetry step costs {:.0}% over disabled (limit 25%)",
            (telemetry_ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }

    let recorded = std::fs::read_to_string(&path)
        .ok()
        .as_deref()
        .and_then(baseline_ratio);
    let Some(recorded) = recorded else {
        println!("no full_sim_step baseline in {path}; skipping regression gate");
        return;
    };
    // Floor the limit at 1 + tol: under heavy load the fast/slow gap
    // compresses toward 1.0, but the zero-copy step genuinely exceeding
    // the clone-based reference is a regression under any load.
    let limit = (recorded * (1.0 + tol)).max(1.0 + tol);
    println!(
        "recorded step/reference: {recorded:>12.3}x   (limit {limit:.3}x at {:.0}% tolerance)",
        tol * 100.0
    );
    if step_ratio > limit {
        eprintln!(
            "FAIL: step/reference ratio {step_ratio:.3}x exceeds recorded {recorded:.3}x \
             by more than {:.0}%",
            tol * 100.0
        );
        std::process::exit(1);
    }
    println!("OK: disabled-telemetry step within tolerance");
}
