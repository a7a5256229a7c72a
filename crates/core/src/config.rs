//! Experiment configuration.

use crate::algorithms::Algorithm;
use crate::compress::CompressionConfig;
use crate::faults::FaultConfig;
use crate::timeline::TimelineConfig;
use middle_data::{Scheme, Task};
use middle_nn::OptimizerKind;
use serde::{Deserialize, Serialize};

/// How the mobility trace is generated. A trace made elsewhere (JSON, or
/// a ONE-simulator report) enters through
/// [`crate::SimulationBuilder::with_trace`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MobilitySource {
    /// Markov edge-hop with the given global mobility probability `P`
    /// (the paper's controlled knob; §6.1.2 default `P = 0.5`).
    MarkovHop {
        /// Global mobility probability.
        p: f64,
    },
    /// Home-biased Markov edge-hop: devices start at a home edge chosen
    /// by their major class and preferentially return to it, so edge
    /// data distributions stay persistently Non-IID — the paper's
    /// "data samples of devices are Non-IID across edges" (§3.2) under
    /// ONE-simulator-like spatial locality.
    HomedMarkovHop {
        /// Global mobility probability.
        p: f64,
        /// Probability that a relocation from away returns home.
        home_bias: f64,
    },
}

/// Inert: which population representation a configuration once chose.
///
/// Every run holds its devices in one representation, the version-table
/// plane of [`crate::population`]: an idle device is a stub of the last
/// broadcast that reached it, and a device is materialised only while it
/// trains. The field still parses and still enters the serialised config,
/// so config digests, ledgers and results written with either value stay
/// valid, but nothing branches on it. It stays only because the `perf`
/// benchmark's workloads and probes name it; its next change removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PopulationMode {
    /// Once: a full replica per device for the whole run.
    #[default]
    Dense,
    /// Once: idle devices virtualized to stubs of broadcast versions.
    Lazy,
}

fn default_availability() -> f64 {
    1.0
}

/// Full configuration of one hierarchical-FL simulation run.
///
/// Paper defaults (§6.1.2): 10 edges, 100 devices, K = 5 selected per
/// edge, I = 10 local steps, T_c = 10, P = 0.5, device data with a >80%
/// major class, SGD+momentum(0.9) at lr 0.01 (Adam at 0.001 for speech).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Learning task (dataset + model family).
    pub task: Task,
    /// The training algorithm under test.
    pub algorithm: Algorithm,
    /// Number of edge servers.
    pub num_edges: usize,
    /// Number of mobile devices.
    pub num_devices: usize,
    /// Training samples held by each device.
    pub samples_per_device: usize,
    /// Label-skew scheme for device data.
    pub scheme: Scheme,
    /// Devices selected per edge per time step (`K`).
    pub devices_per_edge: usize,
    /// Local SGD steps per participation (`I`).
    pub local_steps: usize,
    /// Mini-batch size for local steps.
    pub batch_size: usize,
    /// Cloud synchronisation interval in time steps (`T_c`).
    pub cloud_interval: usize,
    /// Total time steps to simulate (`T`).
    pub steps: usize,
    /// Device mobility.
    pub mobility: MobilitySource,
    /// Local optimizer.
    pub optimizer: OptimizerKind,
    /// Held-out test-set size for accuracy curves.
    pub test_samples: usize,
    /// Evaluate the (virtual) global model every this many steps.
    pub eval_interval: usize,
    /// Also evaluate every edge model at each evaluation (Figures 1–2).
    #[serde(default)]
    pub eval_edges: bool,
    /// Also record per-class accuracies at each evaluation (Figures 1–2).
    #[serde(default)]
    pub eval_per_class: bool,
    /// Per-step probability that a device is reachable (straggler /
    /// dropout injection). 1.0 = always available.
    ///
    /// This is the legacy blunt knob; the fault plane ([`Self::faults`])
    /// supersedes it with structured failure processes. Both compose:
    /// availability filters candidates before selection, faults act on
    /// the selected cohort.
    #[serde(default = "default_availability")]
    pub availability: f64,
    /// Deterministic failure models (dropout, stragglers, upload loss,
    /// WAN outages). All off by default; a default config is bitwise
    /// identical to a fault-free simulation (see [`crate::faults`]).
    #[serde(default)]
    pub faults: FaultConfig,
    /// Uplink compression (quantization + top-K sparsification with
    /// error feedback). Off by default; a default config is bitwise
    /// identical to an uncompressed simulation (see [`crate::compress`]).
    #[serde(default)]
    pub compression: CompressionConfig,
    /// Enable the telemetry plane: per-phase step timers and event
    /// counters, surfaced as
    /// [`crate::telemetry::TelemetryReport`] on the run record. Off by
    /// default; the disabled recorder is a no-op (see
    /// [`crate::telemetry`] for the overhead contract).
    #[serde(default)]
    pub telemetry: bool,
    /// Optional path for a per-step JSONL event log (one line per step,
    /// phase timings + counters). Setting a path implies `telemetry`;
    /// a path that cannot be created fails `SimulationBuilder::build`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry_jsonl: Option<String>,
    /// Inert ([`PopulationMode`]): parsed and digested, never read.
    #[serde(default)]
    pub population: PopulationMode,
    /// Execution timeline ([`TimelineConfig`]): lockstep rounds by
    /// default, or the event-driven scheduler with real upload
    /// latencies, threshold aggregation and timer-driven cloud syncs.
    /// The zero-delay event-driven corner reproduces lockstep bitwise
    /// (the zero-delay twin of `crates/core/tests/matrix.rs`'s cells).
    #[serde(default, skip_serializing_if = "TimelineConfig::is_default")]
    pub timeline: TimelineConfig,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's §6.1.2 configuration for `task`, scaled down
    /// (fewer devices/steps; see DESIGN.md §7) so the full figure suite
    /// regenerates on a laptop.
    pub fn paper_default(task: Task, algorithm: Algorithm) -> Self {
        let optimizer = match task {
            Task::Speech => OptimizerKind::Adam { lr: 0.001 },
            _ => OptimizerKind::Momentum {
                lr: 0.01,
                momentum: 0.9,
            },
        };
        SimConfig {
            task,
            algorithm,
            num_edges: 10,
            num_devices: 100,
            samples_per_device: 40,
            scheme: Scheme::MajorClass { major_frac: 0.8 },
            devices_per_edge: 5,
            local_steps: 10,
            batch_size: 16,
            cloud_interval: 10,
            steps: 120,
            mobility: MobilitySource::HomedMarkovHop {
                p: 0.5,
                home_bias: 0.6,
            },
            optimizer,
            test_samples: 400,
            eval_interval: 2,
            eval_edges: false,
            eval_per_class: false,
            availability: 1.0,
            faults: FaultConfig::default(),
            compression: CompressionConfig::default(),
            telemetry: false,
            telemetry_jsonl: None,
            population: PopulationMode::Dense,
            timeline: TimelineConfig::default(),
            seed: 2023,
        }
    }

    /// A tiny configuration for unit/integration tests: 2 edges, 8
    /// devices, a handful of steps.
    pub fn tiny(task: Task, algorithm: Algorithm) -> Self {
        SimConfig {
            task,
            algorithm,
            num_edges: 2,
            num_devices: 8,
            samples_per_device: 12,
            scheme: Scheme::MajorClass { major_frac: 0.8 },
            devices_per_edge: 2,
            local_steps: 2,
            batch_size: 6,
            cloud_interval: 4,
            steps: 8,
            mobility: MobilitySource::MarkovHop { p: 0.5 },
            optimizer: OptimizerKind::Sgd { lr: 0.05 },
            test_samples: 60,
            eval_interval: 2,
            eval_edges: false,
            eval_per_class: false,
            availability: 1.0,
            faults: FaultConfig::default(),
            compression: CompressionConfig::default(),
            telemetry: false,
            telemetry_jsonl: None,
            population: PopulationMode::Dense,
            timeline: TimelineConfig::default(),
            seed: 7,
        }
    }

    /// Whether the telemetry recorder should collect for this config
    /// (explicitly enabled, or implied by a JSONL sink path).
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry || self.telemetry_jsonl.is_some()
    }

    /// Validates internal consistency; call before running.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_edges == 0 {
            return Err("num_edges must be positive".into());
        }
        if self.num_devices < self.num_edges {
            return Err("need at least one device per edge".into());
        }
        if self.devices_per_edge == 0 {
            return Err("devices_per_edge (K) must be positive".into());
        }
        if self.devices_per_edge > self.num_devices {
            return Err(format!(
                "devices_per_edge (K = {}) exceeds num_devices ({})",
                self.devices_per_edge, self.num_devices
            ));
        }
        if self.samples_per_device == 0 {
            return Err("samples_per_device must be positive".into());
        }
        if self.local_steps == 0 {
            return Err("local_steps (I) must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.cloud_interval == 0 {
            return Err("cloud_interval (T_c) must be positive".into());
        }
        if self.steps == 0 {
            return Err("steps must be positive".into());
        }
        if self.eval_interval == 0 {
            return Err("eval_interval must be positive".into());
        }
        if self.test_samples == 0 {
            return Err("test_samples must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.availability) {
            return Err(format!(
                "availability = {} outside [0, 1]",
                self.availability
            ));
        }
        self.faults.validate()?;
        self.compression.validate()?;
        self.timeline.validate()?;
        if let crate::SelectionPolicy::ClusterGuided { clusters } = self.algorithm.selection {
            if clusters == 0 {
                return Err("ClusterGuided selection needs at least one cluster".into());
            }
        }
        if self.telemetry_jsonl.as_deref() == Some("") {
            return Err("telemetry_jsonl path must be non-empty".into());
        }
        match self.mobility {
            MobilitySource::MarkovHop { p } | MobilitySource::HomedMarkovHop { p, .. }
                if !(0.0..=1.0).contains(&p) =>
            {
                return Err(format!("mobility P = {p} outside [0, 1]"));
            }
            MobilitySource::HomedMarkovHop { home_bias, .. }
                if !(0.0..=1.0).contains(&home_bias) =>
            {
                return Err(format!("home_bias = {home_bias} outside [0, 1]"));
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6_1_2() {
        let c = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
        assert_eq!(c.num_edges, 10);
        assert_eq!(c.num_devices, 100);
        assert_eq!(c.devices_per_edge, 5);
        assert_eq!(c.local_steps, 10);
        assert_eq!(c.cloud_interval, 10);
        assert_eq!(
            c.mobility,
            MobilitySource::HomedMarkovHop {
                p: 0.5,
                home_bias: 0.6
            }
        );
        assert!(matches!(c.optimizer, OptimizerKind::Momentum { .. }));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn speech_uses_adam() {
        let c = SimConfig::paper_default(Task::Speech, Algorithm::oort());
        assert_eq!(c.optimizer, OptimizerKind::Adam { lr: 0.001 });
    }

    #[test]
    fn tiny_config_validates() {
        assert!(SimConfig::tiny(Task::Mnist, Algorithm::middle())
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_catches_violations() {
        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        c.devices_per_edge = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        c.mobility = MobilitySource::MarkovHop { p: 1.5 };
        assert!(c.validate().is_err());
        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        c.num_devices = 1;
        assert!(c.validate().is_err());
        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        c.devices_per_edge = c.num_devices + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn telemetry_flags_default_off_and_jsonl_implies_enabled() {
        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        assert!(!c.telemetry_enabled());
        c.telemetry_jsonl = Some("events.jsonl".into());
        assert!(c.telemetry_enabled());
        assert!(c.validate().is_ok());
        c.telemetry_jsonl = Some(String::new());
        assert!(c.validate().is_err());
        // Old configs without the fields still deserialise (defaults).
        let json = serde_json::to_string(&SimConfig::tiny(Task::Mnist, Algorithm::middle()))
            .unwrap()
            .replace("\"telemetry\":false,", "");
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.telemetry_enabled());
    }

    #[test]
    fn timeline_default_is_skipped_in_json() {
        let c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        let json = serde_json::to_string(&c).unwrap();
        assert!(
            !json.contains("timeline"),
            "default timeline must not change config JSON"
        );
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert!(back.timeline.is_default());

        let mut c = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        c.timeline = crate::timeline::TimelineConfig::event_driven_zero_delay();
        assert!(c.validate().is_ok());
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("EventDriven"));
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert!(back.timeline.event_mode());
    }

    #[test]
    fn config_serialises() {
        let c = SimConfig::paper_default(Task::Cifar10, Algorithm::fedmes());
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.task, Task::Cifar10);
        assert_eq!(back.algorithm.name, "FedMes");
    }
}
