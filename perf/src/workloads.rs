//! The four workloads: what each configures and why it exists.
//!
//! `--seed` becomes `SimConfig.seed` (the grid's seed list for
//! `sweep_grid`); the program under test only ever sees the generated
//! configuration.

use middle_core::{
    Algorithm, CompressionConfig, DelayModel, ExecutionMode, FaultConfig, LatencyModel,
    MobilitySource, PopulationMode, ScenarioGrid, SimConfig,
};
use middle_data::Task;
use middle_nn::OptimizerKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCnn,
    Lazy100k,
    AsyncHostile,
    SweepGrid,
}

/// How a workload is sized: `smoke` shrinks it to well under two
/// seconds for the test suite; `perturb` nudges the configuration so
/// the trajectory (and therefore the fingerprint) must change;
/// `poison` sets a NaN learning rate, which the first tick panics on,
/// so the test suite can exercise the failure accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    pub smoke: bool,
    pub perturb: bool,
    pub poison: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCnn,
        Workload::Lazy100k,
        Workload::AsyncHostile,
        Workload::SweepGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCnn => "paper_cnn",
            Workload::Lazy100k => "lazy_100k",
            Workload::AsyncHostile => "async_hostile",
            Workload::SweepGrid => "sweep_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: the layers the workload puts on
    /// the clock and the ones it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperCnn => {
                "Paper 6.1.2 config (10 edges, 100 devices, K=5, I=10, B=16, CNN): local training is \
                 ~97% of the step, so tensor/nn/device do the work and every other layer is idle"
            }
            Workload::Lazy100k => {
                "100k lazy devices on 100 edges, tiny B=2 training: selection, materialisation, \
                 broadcast and O(N) trace/index work carry the step; the RSS and set-up workload"
            }
            Workload::AsyncHostile => {
                "Event-driven round with stragglers, 10% upload loss and 8-bit top-10% compression: \
                 the only workload with timeline, faults and compress on the clock"
            }
            Workload::SweepGrid => {
                "Checkpointed scenario grid killed half-way and resumed: input cache, checkpoint and \
                 ledger I/O dominate, the simulations are tiny so kernels barely register"
            }
        }
    }

    /// Ticks per throughput block: one period of the workload's slow
    /// ticks (evaluation for `paper_cnn`, cloud sync for the others),
    /// so every block holds the same mix and block rates are
    /// comparable. Unused by `sweep_grid`, whose block is one
    /// kill-and-resume pass.
    pub fn block(self, cfg: &SimConfig) -> usize {
        match self {
            Workload::PaperCnn => cfg.eval_interval,
            _ => cfg.cloud_interval,
        }
    }
}

/// The simulation a sim workload runs for one episode; for
/// `sweep_grid`, the grid's base configuration.
pub fn sim_config(w: Workload, seed: u64, shape: Shape) -> SimConfig {
    let mut c = match w {
        Workload::PaperCnn => paper_cnn(shape.smoke),
        Workload::Lazy100k => lazy_100k(shape.smoke),
        Workload::AsyncHostile => async_hostile(shape.smoke),
        Workload::SweepGrid => sweep_base(shape.smoke),
    };
    c.seed = seed;
    if shape.perturb {
        c.local_steps += 1;
    }
    if shape.poison {
        c.optimizer = OptimizerKind::Sgd { lr: f32::NAN };
    }
    c
}

/// §6.1.2 at paper scale. Ten steps per episode (about five seconds)
/// so that a run holds several episodes; evaluation every fifth step
/// puts 20% of the ticks — not a knife-edge 10% — above `step_ms_p90`.
fn paper_cnn(smoke: bool) -> SimConfig {
    let mut c = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
    c.steps = 10;
    c.eval_interval = 5;
    if smoke {
        c.num_edges = 3;
        c.num_devices = 12;
        c.devices_per_edge = 2;
        c.local_steps = 2;
        c.steps = 4;
        c.eval_interval = 2;
        c.cloud_interval = 2;
        c.test_samples = 60;
    }
    c
}

/// The population-plane workload. 1M devices is excluded: ~4 GB and a
/// 13 s build do not fit a shared 2-core box.
fn lazy_100k(smoke: bool) -> SimConfig {
    let mut c = SimConfig::paper_default(Task::Speech, Algorithm::middle());
    c.population = PopulationMode::Lazy;
    c.num_devices = 100_000;
    c.num_edges = 100;
    c.local_steps = 2;
    c.batch_size = 2;
    c.samples_per_device = 2;
    c.cloud_interval = 5;
    c.mobility = MobilitySource::MarkovHop { p: 0.5 };
    c.steps = 50;
    c.eval_interval = c.steps;
    if smoke {
        c.num_devices = 2_000;
        c.num_edges = 10;
        c.steps = 10;
        c.eval_interval = c.steps;
        c.test_samples = 60;
    }
    c
}

/// The same round as `paper_cnn` driven by the event timeline under a
/// hostile fault regime (`async_sweep`'s stragglers plus upload loss)
/// with uplink compression on.
fn async_hostile(smoke: bool) -> SimConfig {
    let mut c = SimConfig::paper_default(Task::Speech, Algorithm::middle());
    c.num_edges = 20;
    c.num_devices = 400;
    c.cloud_interval = 5;
    c.steps = 100;
    c.eval_interval = 50;
    c.timeline.mode = ExecutionMode::EventDriven;
    c.timeline.latency = LatencyModel::Faults;
    c.timeline.edge_threshold = Some(3);
    c.timeline.step_duration = 2.0;
    c.faults = FaultConfig {
        straggler_delay: DelayModel::Exponential { mean_s: 0.5 },
        deadline_s: 2.0,
        upload_loss: 0.1,
        ..FaultConfig::default()
    };
    c.compression = CompressionConfig {
        enabled: true,
        quantize_bits: 8,
        top_frac: 0.1,
        ..CompressionConfig::default()
    };
    if smoke {
        c.num_edges = 4;
        c.num_devices = 40;
        c.steps = 20;
        c.eval_interval = 10;
        c.test_samples = 60;
    }
    c
}

/// The `sweep` bench bin's base configuration: many devices with small
/// datasets, so input construction outweighs the simulation itself.
fn sweep_base(smoke: bool) -> SimConfig {
    let mut c = SimConfig::tiny(Task::Speech, Algorithm::middle());
    c.num_edges = 3;
    c.num_devices = 120;
    c.samples_per_device = 100;
    c.test_samples = 100;
    c.local_steps = 1;
    c.batch_size = 4;
    c.steps = 12;
    c.eval_interval = 3;
    if smoke {
        c.num_devices = 30;
        c.samples_per_device = 20;
        c.steps = 8;
        c.eval_interval = 4;
    }
    c
}

/// The scenario grid of `sweep_grid`: P x K x T_c x seeds over
/// [`sim_config`]'s base. Two seeds (24 scenarios, ~5 s a pass) instead
/// of three so that a run holds several kill-and-resume passes.
pub fn grid(base: SimConfig, shape: Shape) -> ScenarioGrid {
    let seed = base.seed;
    if shape.smoke {
        return ScenarioGrid::new(base)
            .with_mobility_ps([0.1, 0.5])
            .with_sync_periods([2usize, 4])
            .with_seeds([seed]);
    }
    ScenarioGrid::new(base)
        .with_mobility_ps([0.1, 0.3, 0.5])
        .with_selection_sizes([2usize, 3])
        .with_sync_periods([2usize, 4])
        .with_seeds([seed, seed.wrapping_add(1)])
}

/// Mid-run snapshot period of `sweep_grid`'s scenarios.
pub const SWEEP_CHECKPOINT_EVERY: usize = 4;
