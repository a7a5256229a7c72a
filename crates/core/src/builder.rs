//! Result-based simulation construction: [`SimulationBuilder`], the
//! typed [`SimError`], and the shared-input cache that lets a sweep pay
//! data synthesis, partition and model initialisation once per device
//! population instead of once per scenario.
//!
//! The builder is the only construction path — every example, test and
//! bench bin in-tree goes through it — and an invalid configuration is
//! a typed [`SimError::InvalidConfig`], never a panic:
//!
//! ```
//! use middle_core::{Algorithm, SimConfig, SimulationBuilder};
//! use middle_data::Task;
//!
//! let cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
//! let record = SimulationBuilder::new(cfg)
//!     .build()
//!     .expect("valid config")
//!     .run();
//! println!("final accuracy: {:.3}", record.final_accuracy());
//! ```
//!
//! ## Input sharing
//!
//! Simulation construction splits into the immutable *shared inputs*
//! and the per-run mutable state built from them. The shared inputs are
//! two layers, [`SharedInputs`]:
//!
//! - the *population* — synthetic base data, device partition, test
//!   set and initial model — a function of task, devices, samples per
//!   device, scheme, test size and seed ([`population_key`]), held
//!   behind an `Arc`;
//! - the *placement* built on it — the home-edge assignment (which adds
//!   `num_edges`) and the mobility trace (which adds mobility and
//!   steps).
//!
//! [`InputCache`] memoises the population under its key and places it
//! afresh for every build, so a scenario grid over one population —
//! whatever its mobility `P`, edge count, horizon, `K`, `T_c` or fault
//! preset — synthesises one dataset. A cache-hit build is bitwise
//! identical to a cold build: both layers are deterministic functions
//! of their key fields, and per-run state reads the population through
//! its `Arc` and clones only what it mutates.

use crate::config::SimConfig;
use crate::sim::Simulation;
use crate::telemetry::Telemetry;
use middle_data::partition::{partition, Partition};
use middle_data::synthetic::SyntheticSource;
use middle_data::Dataset;
use middle_mobility::Trace;
use middle_nn::{zoo, Sequential};
use middle_tensor::random::{derive_seed, rng};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Typed construction / checkpoint / sweep errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed [`SimConfig::validate`].
    InvalidConfig {
        /// The first violated constraint.
        message: String,
    },
    /// A caller-supplied trace disagrees with the configuration
    /// (device count, edge count, or horizon).
    TraceMismatch {
        /// What disagreed.
        message: String,
    },
    /// A checkpoint could not be applied to this simulation (schema
    /// version, config digest, or population shape mismatch) or could
    /// not be parsed.
    CheckpointMismatch {
        /// What disagreed.
        message: String,
    },
    /// A sweep filesystem operation failed (checkpoint or state file).
    Io {
        /// The failing path.
        path: String,
        /// The underlying error.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { message } => write!(f, "invalid SimConfig: {message}"),
            SimError::TraceMismatch { message } => write!(f, "trace mismatch: {message}"),
            SimError::CheckpointMismatch { message } => {
                write!(f, "checkpoint mismatch: {message}")
            }
            SimError::Io { path, message } => write!(f, "io error at {path}: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The population a simulation runs over: the data and model every
/// scenario of one device population shares, whatever its placement.
/// A function of the [`population_key`] fields alone.
pub(crate) struct PopulationData {
    /// The base dataset the partition indexes: a device's dataset is
    /// gathered from it whenever the device materialises, so no run
    /// holds a dataset per idle device.
    pub(crate) base: Dataset,
    pub(crate) partition: Partition,
    pub(crate) test: Dataset,
    pub(crate) init: Sequential,
}

impl PopulationData {
    /// Synthesises the base and test data (streams 1–4), partitions the
    /// base over the devices and initialises the model (stream 5).
    fn build(config: &SimConfig) -> Self {
        let seed = config.seed;
        let source = SyntheticSource::new(config.task, derive_seed(seed, 1));
        let base = source.generate_balanced(
            config.num_devices * config.samples_per_device,
            derive_seed(seed, 2),
        );
        let partition = partition(
            &base,
            config.num_devices,
            config.samples_per_device,
            config.scheme,
            derive_seed(seed, 3),
        );
        let test = source.generate_balanced(config.test_samples, derive_seed(seed, 4));
        let spec = config.task.spec();
        let init = zoo::model_for_task(config.task.name(), &spec, &mut rng(derive_seed(seed, 5)));
        PopulationData {
            base,
            partition,
            test,
            init,
        }
    }
}

/// The immutable inputs of a simulation: the shared population and the
/// placement built on it (home edges and mobility trace). Nothing in
/// them mutates during a run.
pub struct SharedInputs {
    pub(crate) population: Arc<PopulationData>,
    pub(crate) homes: Vec<usize>,
    pub(crate) trace: Trace,
}

impl SharedInputs {
    /// Constructs the shared inputs for a *validated* configuration:
    /// the population (streams 1–5), then its placement.
    pub fn build(config: &SimConfig) -> Self {
        SharedInputs::place(Arc::new(PopulationData::build(config)), config)
    }

    /// Places `population` for `config`: home edges from the
    /// partition's major classes, and the mobility trace (stream 7).
    fn place(population: Arc<PopulationData>, config: &SimConfig) -> Self {
        // Home edges: cluster devices by major class so edge-level data
        // distributions are Non-IID (paper §3.2); devices without a
        // defined major class get round-robin homes.
        let homes: Vec<usize> = (0..config.num_devices)
            .map(|m| match population.partition.major_class[m] {
                Some(c) => c % config.num_edges,
                None => m % config.num_edges,
            })
            .collect();
        let trace = crate::sim::build_trace(config, &homes);
        SharedInputs {
            population,
            homes,
            trace,
        }
    }

    /// The mobility trace generated for the configuration.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The home-edge assignment derived from the partition.
    pub fn homes(&self) -> &[usize] {
        &self.homes
    }
}

/// The [`InputCache`] key: exactly the config fields the population
/// (base and test data, partition, initial model) is a function of. Two
/// configs with equal keys share one population; the placement fields
/// (`num_edges`, `steps`, `mobility`) and run-only fields like
/// `devices_per_edge`, `cloud_interval`, `faults` or `telemetry` never
/// enter it.
pub fn population_key(config: &SimConfig) -> String {
    format!(
        "task={};devices={};spd={};scheme={};test={};seed={}",
        config.task.name(),
        config.num_devices,
        config.samples_per_device,
        serde_json::to_string(&config.scheme).unwrap_or_default(),
        config.test_samples,
        config.seed,
    )
}

/// The key of a whole [`SharedInputs`]: the [`population_key`] plus the
/// placement fields (`num_edges`, `steps`, `mobility`). Two configs with
/// equal keys build bitwise-identical inputs; run-only fields never
/// enter it. The cache keys on the population alone and places it per
/// build.
pub fn input_key(config: &SimConfig) -> String {
    format!(
        "{};edges={};steps={};mobility={}",
        population_key(config),
        config.num_edges,
        config.steps,
        serde_json::to_string(&config.mobility).unwrap_or_default(),
    )
}

/// A thread-safe memo of populations keyed by [`population_key`]; every
/// [`InputCache::get_or_build`] places its population afresh.
///
/// Concurrent builders of *different* populations construct in
/// parallel; concurrent builders of the *same* population block on one
/// construction (a per-key [`OnceLock`]) so a 50-scenario grid never
/// duplicates work.
#[derive(Default)]
pub struct InputCache {
    populations: Mutex<HashMap<String, Arc<OnceLock<Arc<PopulationData>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl InputCache {
    /// An empty cache, ready to share across threads.
    pub fn new() -> Arc<InputCache> {
        Arc::new(InputCache::default())
    }

    /// Returns the shared inputs for `config`: its population, built on
    /// the first request for the [`population_key`], placed for
    /// `config`.
    pub fn get_or_build(&self, config: &SimConfig) -> Arc<SharedInputs> {
        let key = population_key(config);
        let cell = {
            // Never poisoned: nothing panics while the map is locked.
            let mut populations = self.populations.lock().expect("input cache poisoned");
            populations.entry(key).or_default().clone()
        };
        let mut built = false;
        let population = cell
            .get_or_init(|| {
                built = true;
                Arc::new(PopulationData::build(config))
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::new(SharedInputs::place(population, config))
    }

    /// Requests served from an existing population.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that constructed a new population.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct populations currently cached.
    pub fn len(&self) -> usize {
        // Never poisoned: nothing panics while the map is locked.
        self.populations.lock().expect("input cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fallible, composable construction of a [`Simulation`].
///
/// The builder owns a config and optional overrides; [`build`] validates
/// everything up front and returns a typed [`SimError`] instead of
/// panicking. See the module docs for an example.
///
/// [`build`]: SimulationBuilder::build
pub struct SimulationBuilder {
    config: SimConfig,
    trace: Option<Trace>,
    cache: Option<Arc<InputCache>>,
    telemetry: Option<bool>,
}

impl SimulationBuilder {
    /// Starts a builder for `config`.
    pub fn new(config: SimConfig) -> Self {
        SimulationBuilder {
            config,
            trace: None,
            cache: None,
            telemetry: None,
        }
    }

    /// Replaces the generated mobility trace with a caller-supplied one
    /// (e.g. the Figure 2 scripted device swap, or an imported
    /// ONE-simulator trace). Validated against the config at build time.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Shares immutable inputs through `cache`: the build takes its
    /// population from the cache (keyed by [`population_key`]) instead
    /// of synthesising data, partition and initial model from scratch.
    pub fn with_shared_inputs(mut self, cache: Arc<InputCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables (or disables) the telemetry plane, overriding
    /// [`SimConfig::telemetry`]. This is the first-class replacement for
    /// the removed `MIDDLE_TELEMETRY` environment variable.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = Some(enabled);
        self
    }

    /// Validates the configuration (and trace, when supplied) and
    /// constructs the simulation.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the config fails
    /// [`SimConfig::validate`]; [`SimError::TraceMismatch`] when a
    /// supplied trace disagrees with the config's device/edge counts or
    /// is shorter than the configured horizon; [`SimError::Io`] when
    /// the config's `telemetry_jsonl` sink cannot be created.
    pub fn build(self) -> Result<Simulation, SimError> {
        let mut config = self.config;
        if let Some(on) = self.telemetry {
            config.telemetry = on;
        }
        config
            .validate()
            .map_err(|message| SimError::InvalidConfig { message })?;
        if let Some(trace) = &self.trace {
            if trace.devices() != config.num_devices {
                return Err(SimError::TraceMismatch {
                    message: format!(
                        "trace device count {} does not match config num_devices {}",
                        trace.devices(),
                        config.num_devices
                    ),
                });
            }
            if trace.num_edges() != config.num_edges {
                return Err(SimError::TraceMismatch {
                    message: format!(
                        "trace edge count {} does not match config num_edges {}",
                        trace.num_edges(),
                        config.num_edges
                    ),
                });
            }
            if trace.steps() < config.steps {
                return Err(SimError::TraceMismatch {
                    message: format!(
                        "trace shorter than the configured horizon ({} < {})",
                        trace.steps(),
                        config.steps
                    ),
                });
            }
        }
        let telemetry = Telemetry::from_config(&config)?;
        let inputs = match &self.cache {
            Some(cache) => cache.get_or_build(&config),
            None => Arc::new(SharedInputs::build(&config)),
        };
        let mut sim = Simulation::from_shared(config, &inputs, telemetry);
        if let Some(trace) = self.trace {
            sim.set_trace(trace);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use middle_data::Task;

    fn tiny() -> SimConfig {
        SimConfig::tiny(Task::Mnist, Algorithm::middle())
    }

    #[test]
    fn build_succeeds_on_valid_config() {
        let sim = SimulationBuilder::new(tiny()).build().unwrap();
        assert_eq!(sim.population().len(), 8);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut cfg = tiny();
        cfg.steps = 0;
        let err = match SimulationBuilder::new(cfg).build() {
            Ok(_) => panic!("zero-step config must not build"),
            Err(e) => e,
        };
        assert!(matches!(err, SimError::InvalidConfig { .. }));
        assert!(err.to_string().starts_with("invalid SimConfig:"));
    }

    #[test]
    fn telemetry_overrides_apply() {
        let sim = SimulationBuilder::new(tiny())
            .telemetry(true)
            .build()
            .unwrap();
        assert!(sim.telemetry().is_enabled());
        assert!(sim.config().telemetry);
    }

    #[test]
    fn input_key_ignores_run_only_fields() {
        let a = tiny();
        let mut b = tiny();
        b.devices_per_edge = 4;
        b.cloud_interval = 2;
        b.telemetry = true;
        b.compression.enabled = true;
        b.compression.quantize_bits = 4;
        b.compression.top_frac = 0.1;
        b.population = crate::config::PopulationMode::Lazy;
        assert_eq!(input_key(&a), input_key(&b));
        let mut c = tiny();
        c.seed = 99;
        assert_ne!(input_key(&a), input_key(&c));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = InputCache::new();
        let cfg = tiny();
        let first = cache.get_or_build(&cfg);
        let second = cache.get_or_build(&cfg);
        assert!(Arc::ptr_eq(&first.population, &second.population));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    /// Every row of `trace`, device by device.
    fn rows(trace: &Trace) -> Vec<Vec<usize>> {
        (0..trace.steps())
            .map(|t| (0..trace.devices()).map(|m| trace.edge_of(t, m)).collect())
            .collect()
    }

    #[test]
    fn placement_fields_share_one_population() {
        let base = tiny();
        let mut p = tiny();
        p.mobility = crate::config::MobilitySource::MarkovHop { p: 0.9 };
        let mut edges = tiny();
        edges.num_edges = 3;
        let mut steps = tiny();
        steps.steps = 12;
        let cache = InputCache::new();
        let first = cache.get_or_build(&base);
        for (what, cfg) in [("mobility P", p), ("num_edges", edges), ("steps", steps)] {
            assert_ne!(input_key(&base), input_key(&cfg), "{what}");
            assert_eq!(population_key(&base), population_key(&cfg), "{what}");
            let placed = cache.get_or_build(&cfg);
            assert!(Arc::ptr_eq(&first.population, &placed.population), "{what}");
            assert!(
                first.homes() != placed.homes() || rows(first.trace()) != rows(placed.trace()),
                "{what}: the placement must follow the config"
            );
        }
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 3, 1));
    }

    #[test]
    fn population_fields_key_their_own_population() {
        let base = tiny();
        let with = |vary: fn(&mut SimConfig)| {
            let mut cfg = tiny();
            vary(&mut cfg);
            cfg
        };
        let variants = [
            ("seed", with(|c| c.seed = 99)),
            ("task", with(|c| c.task = Task::Speech)),
            ("devices", with(|c| c.num_devices = 10)),
            ("samples per device", with(|c| c.samples_per_device = 14)),
            (
                "scheme",
                with(|c| c.scheme = middle_data::partition::Scheme::Iid),
            ),
            ("test size", with(|c| c.test_samples = 40)),
        ];
        let cache = InputCache::new();
        let first = cache.get_or_build(&base);
        for (what, cfg) in variants {
            assert_ne!(population_key(&base), population_key(&cfg), "{what}");
            let other = cache.get_or_build(&cfg);
            assert!(!Arc::ptr_eq(&first.population, &other.population), "{what}");
        }
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (7, 0, 7));
    }
}
