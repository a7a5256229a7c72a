//! The closed measurement loop: one process, one client. A run is a
//! sequence of *episodes* — build the workload from its generated
//! configuration, tick it to its horizon. Episode 0 is the warm-up: it
//! runs to completion in a process whose heap is still cold (a
//! `lazy_100k` tick costs 50 ms there and 37 ms in every later
//! episode), gives the run its simulated result and fingerprint, and
//! is left out of the host-time statistics. Then episodes repeat until
//! `--seconds` have passed; the first of them completes, later ones are
//! cut at the deadline. Every tick is timed here, by `perf`.
//!
//! In a traced run the measured episodes alternate telemetry on and
//! off: the on episodes give the phase totals, the off ones the
//! reference the tracing overhead is measured against, and all
//! fingerprints must agree (telemetry is bitwise non-perturbing).

use crate::spans::{SpanId, Tracer};
use crate::stats::{fnv1a, threads};
use crate::workloads::{self, Shape, Workload, SWEEP_CHECKPOINT_EVERY};
use middle_core::comm::{WAN_SECS_PER_TRANSFER, WIRELESS_SECS_PER_TRANSFER};
use middle_core::telemetry::Phase;
use middle_core::timeline::EVENT_KIND_COUNT;
use middle_core::{
    run_sweep, RunRecord, SharedInputs, SimConfig, Simulation, SimulationBuilder, StepCounters,
    StepMode, SweepOptions, SweepReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups timed before the loop starts, so that `setup_s` is a median
/// of several even when the window holds few episodes: at least
/// `SETUP_MIN`, then more while they are cheap (a 20 ms set-up is too
/// noisy to judge from four samples).
const SETUP_MIN: usize = 4;
const SETUP_MAX: usize = 16;
const SETUP_BUDGET_S: f64 = 1.0;

fn timed_setups(mut set_up: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN
        || (samples.len() < SETUP_MAX && samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        samples.push(set_up()?);
    }
    Ok(samples)
}

/// The simulated, seed-exact outcome of one complete episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub sim_wall_s: f64,
    pub uplink_mb: f64,
    pub final_accuracy: f64,
    pub final_loss: f64,
    /// Uplink bytes over the dense size of the same transfers.
    pub uplink_ratio: f64,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What the program's telemetry plane and `perf`'s own sampling saw in
/// the telemetry-on episodes of a traced run.
#[derive(Default)]
pub struct Traced {
    /// Ticks covered by the totals below.
    pub steps: u64,
    pub tick_wall_ns: u64,
    pub trained: u64,
    pub phase_ns: [u64; Phase::COUNT],
    pub event_ns: [u64; EVENT_KIND_COUNT],
    pub events: u64,
    /// Exact counts of one whole episode (the warm-up).
    pub episode_counters: StepCounters,
    pub episode_events: u64,
    /// Tick walls per episode of a traced run, with whether telemetry
    /// was on.
    pub episodes: Vec<(bool, Vec<f64>)>,
    /// Materialised replicas, sampled after every tick.
    pub resident: Vec<usize>,
    pub peak_resident: usize,
    /// Per kill-and-resume pass (`sweep_grid` only).
    pub sweep_scenarios_per_s: Vec<f64>,
    pub sweep_overhead_frac: Vec<f64>,
    pub sweep_hit_ratio: Vec<f64>,
}

/// One block of measured ticks: one period of the workload's slow
/// ticks (see [`Workload::block`]), so every block holds the same mix
/// of tick kinds. For `sweep_grid`, one kill-and-resume pass.
pub struct Block {
    /// Host seconds the block took.
    pub wall_s: f64,
    /// Simulated time steps in it.
    pub rounds: u64,
    /// Devices trained x local steps.
    pub train_steps: u64,
    /// Wall of each tick (each scenario's `wall_seconds / steps`).
    pub tick_ms: Vec<f64>,
}

impl Block {
    /// Simulated time steps per host second.
    pub fn rate(&self) -> f64 {
        self.rounds as f64 / self.wall_s
    }

    /// The ticks of `blocks`, pooled.
    pub fn pooled_ticks(blocks: &[&Block]) -> Vec<f64> {
        blocks
            .iter()
            .flat_map(|b| b.tick_ms.iter().copied())
            .collect()
    }
}

pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Measured blocks in time order. Ticks after the last whole block
    /// of a cut episode are attempted but not measured.
    pub blocks: Vec<Block>,
    pub outcome: Option<Outcome>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub traced: Traced,
    /// Complete episodes settled so far.
    repeats: usize,
}

impl Measured {
    fn new() -> Self {
        Measured {
            setup_s: Vec::new(),
            blocks: Vec::new(),
            outcome: None,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            traced: Traced::default(),
            repeats: 0,
        }
    }

    /// The quieter half of the measured blocks: ranked by rate, the
    /// faster half (rounded up). Printed beside the metrics, never
    /// gated: the shared box alternates between a quiet and a
    /// contended regime every 5-15 s, and this half estimates the
    /// program's speed without the neighbours' load. The metrics
    /// themselves are taken over every block.
    pub fn quiet_blocks(&self) -> Vec<&Block> {
        let mut ranked: Vec<&Block> = self.blocks.iter().collect();
        ranked.sort_by(|a, b| b.rate().partial_cmp(&a.rate()).expect("finite rates"));
        ranked.truncate(ranked.len().div_ceil(2));
        ranked
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Folds one finished episode's outcome into the run: the first is
    /// the run's result, every later one must reproduce it bitwise.
    fn settle(&mut self, outcome: Outcome, telemetry: bool) {
        let first = *self.outcome.get_or_insert(outcome);
        self.repeats += 1;
        if first.fingerprint != outcome.fingerprint {
            self.check(
                "episodes_repeat",
                false,
                format!(
                    "episode {} (telemetry {}) has fingerprint {:016x}, the first {:016x}",
                    self.repeats,
                    if telemetry { "on" } else { "off" },
                    outcome.fingerprint,
                    first.fingerprint
                ),
            );
        }
    }

    /// A run whose timed set-ups already failed: one op, failed.
    fn failed_setup(mut self, error: String) -> Self {
        self.check("setup", false, error);
        self.attempted = 1;
        self.failed = 1;
        self.finish()
    }

    /// Closes the run's checks once the loop has ended.
    fn finish(mut self) -> Self {
        if self.outcome.is_none() {
            self.check(
                "first_episode_completes",
                false,
                "no complete episode".into(),
            );
        } else if !self.checks.iter().any(|c| c.name == "episodes_repeat") {
            let detail = format!("{} complete episodes, fingerprints equal", self.repeats);
            self.check("episodes_repeat", true, detail);
        }
        self
    }
}

/// FNV fingerprint of a run record with host timing and telemetry
/// stripped — the repo's bitwise comparison form.
pub fn record_fingerprint(record: &RunRecord) -> u64 {
    let mut r = record.clone();
    r.wall_seconds = 0.0;
    r.telemetry = None;
    fnv1a(
        serde_json::to_string(&r)
            .expect("record serialises")
            .as_bytes(),
    )
}

/// Simulated wall-clock of a record under the shared two-tier link
/// model; event-driven runs pay their own clock plus the per-sync
/// charge (the `async_sweep` formula).
pub fn sim_wall_s(record: &RunRecord) -> f64 {
    match record.event_seconds {
        Some(event_s) => {
            event_s
                + record.syncs as f64 * (2.0 * WAN_SECS_PER_TRANSFER + WIRELESS_SECS_PER_TRANSFER)
        }
        None => record.comm_wall_clock(WIRELESS_SECS_PER_TRANSFER, WAN_SECS_PER_TRANSFER),
    }
}

fn dense_uplink_bytes(record: &RunRecord) -> u64 {
    (record.comm.device_to_edge + record.comm.edge_to_cloud) * 4 * record.param_count
}

impl Traced {
    /// Adds one measured record's telemetry report to the totals.
    fn absorb(&mut self, record: &RunRecord, tick_wall_ns: u64, trained: u64) {
        let Some(report) = &record.telemetry else {
            return;
        };
        self.steps += report.step.count;
        self.tick_wall_ns += tick_wall_ns;
        self.trained += trained;
        for (slot, phase) in self.phase_ns.iter_mut().zip(Phase::ALL) {
            *slot += report.phase(phase).map_or(0, |p| p.total_ns);
        }
        for (slot, ev) in self.event_ns.iter_mut().zip(&report.events) {
            *slot += ev.total_ns;
        }
        self.events += report.events.iter().map(|e| e.count).sum::<u64>();
    }

    /// Adds a warm-up record's counts to the whole-episode counts.
    fn absorb_counts(&mut self, record: &RunRecord) {
        let Some(report) = &record.telemetry else {
            return;
        };
        self.episode_events += report.events.iter().map(|e| e.count).sum::<u64>();
        let (c, add) = (&mut self.episode_counters, &report.counters);
        c.stale_merges += add.stale_merges;
        c.upload_retransmissions += add.upload_retransmissions;
        c.lost_uploads += add.lost_uploads;
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Builds `cfg`, timed.
pub fn build(cfg: &SimConfig, telemetry: bool) -> Result<(Simulation, f64), String> {
    let start = Instant::now();
    let sim = SimulationBuilder::new(cfg.clone())
        .telemetry(telemetry)
        .build()
        .map_err(|e| e.to_string())?;
    Ok((sim, start.elapsed().as_secs_f64()))
}

/// Runs one of the three simulation workloads for `seconds`.
pub fn run_sim(
    w: Workload,
    cfg: &SimConfig,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    root: SpanId,
) -> Measured {
    let mut m = Measured::new();
    let span = tracer.begin("setup", Some(root));
    match timed_setups(|| build(cfg, false).map(|(_, s)| s)) {
        Ok(samples) => m.setup_s = samples,
        Err(e) => return m.failed_setup(e),
    }
    tracer.end(span);

    let block = w.block(cfg);
    // Set when the warm-up ends; the warm-up and the first measured
    // episode run to their horizon whatever it says.
    let mut deadline = Instant::now();
    let mut episode = 0usize;
    while episode <= 1 || Instant::now() < deadline {
        let warm_up = episode == 0;
        let telemetry = trace && (warm_up || episode % 2 == 1);
        let span = tracer.begin(format!("repeat[{episode}]"), Some(root));
        let setup_span = tracer.begin("setup", Some(span));
        let (mut sim, setup_s) = match build(cfg, telemetry) {
            Ok(built) => built,
            Err(e) => {
                m.check("build", false, e);
                m.attempted += 1;
                m.failed += 1;
                break;
            }
        };
        tracer.end(setup_span);
        m.setup_s.push(setup_s);

        let mut tick_ms: Vec<f64> = Vec::with_capacity(cfg.steps);
        let mut trained: Vec<u64> = Vec::with_capacity(cfg.steps);
        let ticked = catch_unwind(AssertUnwindSafe(|| {
            while !sim.is_finished() && (episode <= 1 || Instant::now() < deadline) {
                let before = sim.comm_stats().edge_to_device;
                let evals = sim.points().len();
                let start = Instant::now();
                sim.tick(StepMode::Fast);
                let end = Instant::now();
                tracer.record(format!("tick[{}]", sim.next_step() - 1), span, start, end);
                if let Some(p) = sim.points().get(evals) {
                    if !p.global_loss.is_finite() {
                        return Err(format!("non-finite loss at step {}", p.step));
                    }
                }
                tick_ms.push((end - start).as_secs_f64() * 1e3);
                trained.push(sim.comm_stats().edge_to_device - before);
                if trace && !warm_up {
                    m.traced.resident.push(sim.population().resident_count());
                }
            }
            Ok(())
        }))
        .unwrap_or_else(|payload| Err(panic_text(payload)));

        // `tick_ms` holds the ticks that succeeded: a tick that panics
        // or evaluates to a non-finite loss is not recorded.
        m.attempted += tick_ms.len() as u64;
        if let Err(e) = ticked {
            // The failing tick and every remaining one of the episode.
            let remaining = (cfg.steps - tick_ms.len()) as u64;
            m.attempted += remaining;
            m.failed += remaining;
            m.check("ticks", false, e);
            tracer.end(span);
            break;
        }

        let finish_span = tracer.begin("finish", Some(span));
        let complete = sim.is_finished();
        let record = sim.finish();
        tracer.end(finish_span);
        tracer.end(span);
        m.traced.peak_resident = m.traced.peak_resident.max(sim.population().peak_resident());

        if let Some(report) = &record.telemetry {
            let totals: Vec<(String, u64)> = report
                .phases
                .iter()
                .map(|p| (format!("phase.{}", p.phase), p.total_ns))
                .collect();
            tracer.attach_totals(span, &totals);
        }
        if warm_up {
            m.traced.absorb_counts(&record);
            deadline = Instant::now() + Duration::from_secs_f64(seconds);
        } else {
            let wall_ns = (tick_ms.iter().sum::<f64>() * 1e6) as u64;
            m.traced.absorb(&record, wall_ns, trained.iter().sum());
            if trace {
                m.traced.episodes.push((telemetry, tick_ms.clone()));
            }
            for (ms, devices) in tick_ms.chunks_exact(block).zip(trained.chunks_exact(block)) {
                m.blocks.push(Block {
                    wall_s: ms.iter().sum::<f64>() / 1e3,
                    rounds: block as u64,
                    train_steps: devices.iter().sum::<u64>() * cfg.local_steps as u64,
                    tick_ms: ms.to_vec(),
                });
            }
        }

        if complete {
            let last = record.points.last();
            m.settle(
                Outcome {
                    fingerprint: record_fingerprint(&record),
                    sim_wall_s: sim_wall_s(&record),
                    uplink_mb: record.comm.uplink_bytes() as f64 / 1e6,
                    final_accuracy: f64::from(record.final_accuracy()),
                    final_loss: last.map_or(f64::NAN, |p| f64::from(p.global_loss)),
                    uplink_ratio: record.comm.uplink_bytes() as f64
                        / dense_uplink_bytes(&record) as f64,
                },
                telemetry,
            );
        }
        episode += 1;
    }
    if w == Workload::PaperCnn {
        if let Some(o) = m.outcome {
            let chance = 1.0 / cfg.task.spec().classes as f64;
            m.check(
                "accuracy_beats_chance",
                o.final_accuracy > chance,
                format!(
                    "final accuracy {:.4} vs chance {chance:.2}",
                    o.final_accuracy
                ),
            );
        }
    }
    m.finish()
}

/// A fresh checkpoint directory for one kill-and-resume pass, under
/// `out_dir` and unique to this process.
pub fn sweep_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("sweep_ckpt-{}", std::process::id()))
}

pub fn sweep_options(dir: &Path, limit: Option<usize>) -> SweepOptions {
    SweepOptions {
        threads: 0,
        step_mode: StepMode::Fast,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: SWEEP_CHECKPOINT_EVERY,
        limit,
    }
}

/// What a sweep user waits for before the first scenario can tick:
/// grid expansion, digest, the ledger directory and one cold input
/// build (the engine builds inputs lazily inside `run_sweep`, where
/// they cannot be told apart from the scenarios).
fn sweep_setup(base: &SimConfig, shape: Shape, dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let grid = workloads::grid(base.clone(), shape);
    let scenarios = grid.scenarios().map_err(|e| e.to_string())?;
    grid.digest().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::hint::black_box(SharedInputs::build(&scenarios[0].config));
    let elapsed = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok(elapsed)
}

/// Runs `sweep_grid` for about `seconds`: each episode is one pass over
/// the grid, killed after half the scenarios (`limit`) and resumed from
/// the ledger. Pass 0 is the warm-up. A pass cannot be cut short, so a
/// new one starts only while at least half of the previous pass's time
/// is left.
pub fn run_sweep_grid(
    base: &SimConfig,
    shape: Shape,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    tracer: &mut Tracer,
    root: SpanId,
) -> Measured {
    let mut m = Measured::new();
    let dir = sweep_dir(out_dir);
    let span = tracer.begin("setup", Some(root));
    match timed_setups(|| sweep_setup(base, shape, &dir)) {
        Ok(samples) => m.setup_s = samples,
        Err(e) => return m.failed_setup(e),
    }
    tracer.end(span);

    let threads = threads();
    let mut loop_start = Instant::now();
    let mut last_pass = 0.0f64;
    let mut episode = 0usize;
    while episode <= 1 || loop_start.elapsed().as_secs_f64() + last_pass / 2.0 < seconds {
        let warm_up = episode == 0;
        let telemetry = trace && (warm_up || episode % 2 == 1);
        let mut cfg = base.clone();
        cfg.telemetry = telemetry;
        let grid = workloads::grid(cfg, shape);
        let total = grid.scenarios().map_or(0, |s| s.len());
        let span = tracer.begin(format!("repeat[{episode}]"), Some(root));
        let _ = std::fs::remove_dir_all(&dir);

        let pass_start = Instant::now();
        let passed = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            let t0 = Instant::now();
            let killed = run_sweep(&grid, &sweep_options(&dir, Some(total / 2)))
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.record("run_sweep[killed]", span, t0, t1);
            let resumed =
                run_sweep(&grid, &sweep_options(&dir, None)).map_err(|e| e.to_string())?;
            tracer.record("run_sweep[resumed]", span, t1, Instant::now());
            Ok((killed, resumed))
        }))
        .unwrap_or_else(|payload| Err(panic_text(payload)));
        last_pass = pass_start.elapsed().as_secs_f64();
        tracer.end(span);
        let _ = std::fs::remove_dir_all(&dir);

        m.attempted += total as u64;
        let (killed, resumed) = match passed {
            Ok(reports) => reports,
            Err(e) => {
                m.failed += total as u64;
                m.check("run_sweep", false, e);
                break;
            }
        };
        let done = resumed.scenarios.len();
        m.failed += (total - done.min(total)) as u64;
        if !resumed.complete || done != total || killed.complete {
            m.check(
                "resume_completes",
                false,
                format!(
                    "killed pass complete = {}, resumed pass complete = {} with {done} of {total}",
                    killed.complete, resumed.complete
                ),
            );
            break;
        }
        let diverged: Vec<&str> = resumed
            .scenarios
            .iter()
            .filter(|sc| !sc.record.points.iter().all(|p| p.global_loss.is_finite()))
            .map(|sc| sc.label.as_str())
            .collect();
        if !diverged.is_empty() {
            m.failed += diverged.len() as u64;
            m.check(
                "ticks",
                false,
                format!("non-finite loss in {}", diverged.join(", ")),
            );
            break;
        }

        m.settle(sweep_outcome(&resumed), telemetry);
        episode += 1;
        if warm_up {
            for sc in &resumed.scenarios {
                m.traced.absorb_counts(&sc.record);
            }
            loop_start = Instant::now();
            continue;
        }

        let wall_s = killed.wall_seconds + resumed.wall_seconds;
        let mut steps = 0u64;
        let mut trained_steps = 0u64;
        let mut scenario_wall = 0.0f64;
        let mut pass_ms = Vec::with_capacity(done);
        for sc in &resumed.scenarios {
            let r = &sc.record;
            let ticks = base.steps as u64;
            steps += ticks;
            trained_steps += r.comm.edge_to_device * base.local_steps as u64;
            scenario_wall += r.wall_seconds;
            pass_ms.push(r.wall_seconds * 1e3 / ticks as f64);
            m.traced
                .absorb(r, (r.wall_seconds * 1e9) as u64, r.comm.edge_to_device);
        }
        m.traced.sweep_scenarios_per_s.push(total as f64 / wall_s);
        m.traced
            .sweep_overhead_frac
            .push(1.0 - scenario_wall / (threads as f64 * wall_s));
        let (hits, misses) = (
            killed.cache_hits + resumed.cache_hits,
            killed.cache_misses + resumed.cache_misses,
        );
        m.traced
            .sweep_hit_ratio
            .push(hits as f64 / (hits + misses).max(1) as f64);
        if trace {
            m.traced.episodes.push((telemetry, pass_ms.clone()));
        }
        m.blocks.push(Block {
            wall_s,
            rounds: steps,
            train_steps: trained_steps,
            tick_ms: pass_ms,
        });
    }
    m.traced.peak_resident = base.num_devices;
    m.traced.resident = vec![base.num_devices];
    m.finish()
}

fn sweep_outcome(report: &SweepReport) -> Outcome {
    // The grid digest hashes the scenario configs, telemetry flag
    // included; the trajectory fingerprint must not depend on it.
    let mut stripped = report.clone();
    stripped.grid_digest = 0;
    let records = report.scenarios.iter().map(|s| &s.record);
    let n = report.scenarios.len().max(1) as f64;
    let uplink: u64 = records.clone().map(|r| r.comm.uplink_bytes()).sum();
    let dense: u64 = records.clone().map(dense_uplink_bytes).sum();
    Outcome {
        fingerprint: fnv1a(stripped.deterministic_json().as_bytes()),
        sim_wall_s: records.clone().map(sim_wall_s).sum(),
        uplink_mb: uplink as f64 / 1e6,
        final_accuracy: records
            .clone()
            .map(|r| f64::from(r.final_accuracy()))
            .sum::<f64>()
            / n,
        final_loss: records
            .map(|r| {
                r.points
                    .last()
                    .map_or(f64::NAN, |p| f64::from(p.global_loss))
            })
            .sum::<f64>()
            / n,
        uplink_ratio: uplink as f64 / dense as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_nn::OptimizerKind;

    fn run(lr: f32) -> (SimConfig, Measured) {
        let shape = Shape {
            smoke: true,
            ..Shape::default()
        };
        let mut cfg = workloads::sim_config(Workload::PaperCnn, 11, shape);
        cfg.optimizer = OptimizerKind::Sgd { lr };
        let mut tracer = Tracer::new("paper_cnn", false);
        let root = tracer.begin("workload", None);
        let m = run_sim(Workload::PaperCnn, &cfg, 0.1, false, &mut tracer, root);
        (cfg, m)
    }

    /// The failing tick and every later one of the episode fail; the
    /// ticks before it were attempted and succeeded.
    #[test]
    fn a_non_finite_loss_fails_the_rest_of_the_episode() {
        let (cfg, m) = run(f32::MAX);
        let ok = (cfg.eval_interval - 1) as u64;
        assert_eq!(m.attempted, cfg.steps as u64);
        assert_eq!(m.failed, cfg.steps as u64 - ok);
        assert!(m.outcome.is_none());
        assert!(m.checks.iter().any(|c| c.name == "ticks" && !c.ok));
    }

    #[test]
    fn a_panic_on_the_first_tick_fails_every_tick_once() {
        let (cfg, m) = run(f32::NAN);
        assert_eq!(
            (m.attempted, m.failed),
            (cfg.steps as u64, cfg.steps as u64)
        );
        assert!(m.outcome.is_none());
    }
}
