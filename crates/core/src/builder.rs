//! Result-based simulation construction: [`SimulationBuilder`], the
//! typed [`SimError`], and the shared-input cache that lets a sweep pay
//! dataset/partition/trace construction once per unique input key
//! instead of once per scenario.
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
//! Simulation construction splits into two stages: the *shared inputs*
//! (synthetic base data, device partition, test set, initial model,
//! home-edge assignment, mobility trace — everything immutable during a
//! run) and the per-run mutable state built from them. [`SharedInputs`]
//! captures the first stage; [`InputCache`] memoises it behind an `Arc`
//! keyed by the config fields the inputs actually depend on
//! ([`input_key`]), so a scenario grid that varies `K`, `T_c` or fault
//! presets over a fixed population reuses one entry. A cache-hit build
//! is bitwise identical to a cold build: the inputs are deterministic
//! functions of the key fields, and per-run state is cloned from them
//! either way.

use crate::config::{PopulationMode, SimConfig};
use crate::sim::Simulation;
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

/// The immutable inputs of a simulation: everything that depends only
/// on [`input_key`] fields and never mutates during a run.
///
/// Built once (directly or through an [`InputCache`]) and cloned into
/// per-run state by the builder.
pub struct SharedInputs {
    pub(crate) partition: Partition,
    pub(crate) device_data: Vec<Dataset>,
    pub(crate) test: Dataset,
    pub(crate) init: Sequential,
    pub(crate) homes: Vec<usize>,
    pub(crate) trace: Trace,
    /// The shared base dataset, kept only in lazy population mode so
    /// device datasets can be re-gathered on materialisation
    /// (`device_data` stays empty there). Dense mode pre-gathers
    /// `device_data` and drops the base.
    pub(crate) base: Option<Dataset>,
}

impl SharedInputs {
    /// Constructs the shared inputs for a *validated* configuration:
    /// synthesises the base and test data (streams 1–4), partitions the
    /// base into per-device datasets, initialises the model (stream 5),
    /// assigns home edges from the partition's major classes, and
    /// generates the mobility trace (stream 7).
    pub fn build(config: &SimConfig) -> Self {
        let seed = config.seed;
        let source = SyntheticSource::new(config.task, derive_seed(seed, 1));
        let base = source.generate_balanced(
            config.num_devices * config.samples_per_device,
            derive_seed(seed, 2),
        );
        let part = partition(
            &base,
            config.num_devices,
            config.samples_per_device,
            config.scheme,
            derive_seed(seed, 3),
        );
        let test = source.generate_balanced(config.test_samples, derive_seed(seed, 4));
        let spec = config.task.spec();
        let init = zoo::model_for_task(config.task.name(), &spec, &mut rng(derive_seed(seed, 5)));

        // Home edges: cluster devices by major class so edge-level data
        // distributions are Non-IID (paper §3.2); devices without a
        // defined major class get round-robin homes.
        let homes: Vec<usize> = (0..config.num_devices)
            .map(|m| match part.major_class[m] {
                Some(c) => c % config.num_edges,
                None => m % config.num_edges,
            })
            .collect();
        let trace = crate::sim::build_trace(config, &homes);
        // Dense mode gathers each device's samples once here, not once
        // per run: subsetting is a row gather over the base dataset, and
        // a sweep cell that shares these inputs pays it a single time.
        // Lazy mode keeps the base instead and re-gathers per
        // materialisation — N pre-gathered datasets are exactly the O(N)
        // resident cost the mode exists to avoid.
        let (device_data, base) = match config.population {
            PopulationMode::Dense => {
                let device_data: Vec<Dataset> = (0..config.num_devices)
                    .map(|m| base.subset(&part.assignments[m]))
                    .collect();
                (device_data, None)
            }
            PopulationMode::Lazy => (Vec::new(), Some(base)),
        };
        SharedInputs {
            partition: part,
            device_data,
            test,
            init,
            homes,
            trace,
            base,
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

/// The cache key for [`SharedInputs`]: exactly the config fields the
/// inputs are a function of. Two configs with equal keys produce
/// bitwise-identical inputs; fields like `devices_per_edge`,
/// `cloud_interval`, `faults` or `telemetry` never enter the key, so a
/// grid over them shares one entry.
pub fn input_key(config: &SimConfig) -> String {
    format!(
        "task={};edges={};devices={};spd={};scheme={};test={};steps={};mobility={};seed={};pop={:?}",
        config.task.name(),
        config.num_edges,
        config.num_devices,
        config.samples_per_device,
        serde_json::to_string(&config.scheme).unwrap_or_default(),
        config.test_samples,
        config.steps,
        serde_json::to_string(&config.mobility).unwrap_or_default(),
        config.seed,
        config.population,
    )
}

/// A thread-safe memo of [`SharedInputs`] keyed by [`input_key`].
///
/// Concurrent builders of *different* keys construct in parallel;
/// concurrent builders of the *same* key block on one construction (a
/// per-key [`OnceLock`]) so a 50-scenario grid never duplicates work.
#[derive(Default)]
pub struct InputCache {
    entries: Mutex<HashMap<String, Arc<OnceLock<Arc<SharedInputs>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl InputCache {
    /// An empty cache, ready to share across threads.
    pub fn new() -> Arc<InputCache> {
        Arc::new(InputCache::default())
    }

    /// Returns the shared inputs for `config`, constructing them on the
    /// first request for the key.
    pub fn get_or_build(&self, config: &SimConfig) -> Arc<SharedInputs> {
        let key = input_key(config);
        let cell = {
            let mut entries = self.entries.lock().expect("input cache poisoned");
            entries.entry(key).or_default().clone()
        };
        let mut built = false;
        let inputs = cell
            .get_or_init(|| {
                built = true;
                Arc::new(SharedInputs::build(config))
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        inputs
    }

    /// Requests served from an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that constructed a new entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct input keys currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("input cache poisoned").len()
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
    telemetry_jsonl: Option<String>,
}

impl SimulationBuilder {
    /// Starts a builder for `config`.
    pub fn new(config: SimConfig) -> Self {
        SimulationBuilder {
            config,
            trace: None,
            cache: None,
            telemetry: None,
            telemetry_jsonl: None,
        }
    }

    /// Replaces the generated mobility trace with a caller-supplied one
    /// (e.g. the Figure 2 scripted device swap, or an imported
    /// ONE-simulator trace). Validated against the config at build time.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Shares immutable inputs through `cache`: the build consults the
    /// cache (keyed by [`input_key`]) instead of constructing datasets,
    /// partition and trace from scratch.
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

    /// Streams one JSONL telemetry event per step to `path` (implies
    /// [`SimulationBuilder::telemetry`]). First-class replacement for
    /// the removed `MIDDLE_TELEMETRY_JSONL` environment variable.
    pub fn telemetry_jsonl(mut self, path: impl Into<String>) -> Self {
        self.telemetry_jsonl = Some(path.into());
        self
    }

    /// Validates the configuration (and trace, when supplied) and
    /// constructs the simulation.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when the config fails
    /// [`SimConfig::validate`]; [`SimError::TraceMismatch`] when a
    /// supplied trace disagrees with the config's device/edge counts or
    /// is shorter than the configured horizon.
    pub fn build(self) -> Result<Simulation, SimError> {
        let mut config = self.config;
        if let Some(on) = self.telemetry {
            config.telemetry = on;
        }
        if let Some(path) = self.telemetry_jsonl {
            config.telemetry_jsonl = Some(path);
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
        let inputs = match &self.cache {
            Some(cache) => cache.get_or_build(&config),
            None => Arc::new(SharedInputs::build(&config)),
        };
        let mut sim = Simulation::from_shared(config, &inputs);
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
        assert_eq!(sim.devices().len(), 8);
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
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }
}
