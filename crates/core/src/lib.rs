//! # middle-core
//!
//! MIDDLE — MobIlity-Driven feDerated LEarning (Zhang et al., ICPP 2023)
//! — reproduced in Rust: the similarity utility, on-device model
//! aggregation, in-edge device selection, the full device-edge-cloud
//! simulation loop (Algorithm 1), all four evaluation baselines, and the
//! Theorem 1 convergence theory with a strongly-convex validation
//! test-bed.
//!
//! ## Quick start
//!
//! ```
//! use middle_core::{Algorithm, SimConfig, SimulationBuilder};
//! use middle_data::Task;
//!
//! let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
//! cfg.steps = 4;
//! let record = SimulationBuilder::new(cfg)
//!     .build()
//!     .expect("valid config")
//!     .run();
//! println!("final accuracy: {:.3}", record.final_accuracy());
//! ```
//!
//! To run a whole grid of scenarios (varying mobility `P`, `K`, `T_c`,
//! seeds and fault presets) across threads with shared input
//! construction and checkpoint/resume, see [`sweep`].
//!
//! ## Module map
//!
//! * [`similarity`] — the `U(a, b) = max(cos, 0)` utility (Eq. 8);
//! * [`aggregation`] — on-device aggregation (Eq. 9) + edge/cloud FedAvg
//!   (Eqs. 6–7);
//! * [`selection`] — in-edge device selection (Eqs. 10–12) + baselines;
//! * [`algorithms`] — the algorithm zoo (MIDDLE / OORT / FedMes / Greedy
//!   / Ensemble / HierFAVG / FedFly / FedLECC / Random) behind the
//!   [`Algorithm`] → [`algorithms::AlgorithmPolicy`] policy API;
//! * [`device`], [`sim`] — mobile devices and the Algorithm 1 loop,
//!   Rayon-parallel across devices;
//! * [`config`], [`metrics`] — experiment configs and run records
//!   (time-to-accuracy, speedups);
//! * [`builder`] — Result-based construction ([`SimulationBuilder`],
//!   [`SimError`]) and the shared-input cache behind sweep scenarios;
//! * [`checkpoint`], [`sweep`] — full-state simulation snapshots and the
//!   multi-scenario orchestrator with checkpoint/resume;
//! * [`faults`] — deterministic failure models (dropout, stragglers,
//!   upload loss, WAN outages) with retry/deadline/staleness recovery;
//! * [`compress`] — uplink compression (QSGD-style quantization + top-K
//!   sparsification with error feedback) and byte-accurate accounting;
//! * [`telemetry`] — per-phase step timers and event counters (no-op
//!   unless enabled in the config);
//! * [`timeline`] — the event-driven execution mode: a deterministic
//!   timestamped event heap where straggler delays become real upload
//!   latencies, edges aggregate on arrival thresholds and the cloud
//!   syncs on a timer; the zero-delay corner reproduces lockstep
//!   bitwise;
//! * [`theory`], [`quadratic_sim`] — the Theorem 1 bound, Remark 1, and
//!   numerical validation on strongly-convex quadratics.

pub mod aggregation;
pub mod algorithms;
pub mod builder;
pub mod checkpoint;
pub mod comm;
pub mod compress;
pub mod config;
pub mod device;
pub mod faults;
pub mod metrics;
pub mod population;
pub mod quadratic_sim;
pub mod selection;
pub mod sim;
pub mod similarity;
pub mod sweep;
pub mod telemetry;
pub mod theory;
pub mod timeline;

pub use algorithms::{
    Algorithm, AlgorithmPolicy, AlgorithmState, MoveAction, OnDevicePolicy, SelectionPolicy,
    SelectionSignal,
};
pub use builder::{
    input_key, population_key, InputCache, SharedInputs, SimError, SimulationBuilder,
};
pub use checkpoint::{config_digest, SimCheckpoint, SIM_CHECKPOINT_SCHEMA_VERSION};
pub use checkpoint::{seal_json, unseal_json};
pub use comm::CommStats;
pub use compress::{CompressionConfig, CompressionPlane, RoundingMode};
pub use config::{MobilitySource, PopulationMode, SimConfig};
pub use device::Device;
pub use faults::{DelayModel, DropoutModel, FaultConfig, FaultPlane};
pub use metrics::{speedup, EvalPoint, RunRecord, RUN_RECORD_SCHEMA_VERSION};
pub use population::{DeviceRef, Population, Reached};
pub use selection::SelectionScratch;
pub use sim::{EdgeState, Simulation, StepMode};
pub use similarity::{model_similarity_utility, similarity_utility};
pub use sweep::{
    fleet_status, run_fleet_coordinator, run_fleet_worker, run_sweep, AggregatePoint,
    CompressionPreset, FaultPreset, FleetOptions, FleetStatus, FleetWorkerReport, Lease, Scenario,
    ScenarioGrid, ScenarioRecord, SweepOptions, SweepReport, SWEEP_REPORT_SCHEMA_VERSION,
};
pub use telemetry::{Phase, StepCounters, Telemetry, TelemetryReport};
pub use theory::{BoundParams, QuadraticProblem};
pub use timeline::{ExecutionMode, LatencyModel, Timeline, TimelineCheckpoint, TimelineConfig};
