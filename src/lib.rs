//! # middle
//!
//! Facade crate for the Rust reproduction of **MIDDLE — "Learning From
//! Your Neighbours: Mobility-Driven Device-Edge-Cloud Federated
//! Learning"** (Zhang, Zheng, Wu, Li, Shao, Chen — ICPP 2023).
//!
//! Re-exports the five workspace crates:
//!
//! * [`tensor`] (= `middle-tensor`) — dense f32 tensors, parallel matmul,
//!   direct (patch-matrix-free) convolution;
//! * [`nn`] (= `middle-nn`) — layers, losses, optimizers, the
//!   [`nn::Sequential`] model and its flat parameter view;
//! * [`data`] (= `middle-data`) — synthetic MNIST/EMNIST/CIFAR10/Speech
//!   stand-ins and Non-IID partitioners;
//! * [`mobility`] (= `middle-mobility`) — edge-cell geometry, mobility
//!   models and device→edge traces;
//! * [`core`] (= `middle-core`) — the MIDDLE algorithm, baselines,
//!   Algorithm 1 simulation loop and the Theorem 1 theory.
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for
//! the experiment index.

pub use middle_core as core;
pub use middle_data as data;
pub use middle_mobility as mobility;
pub use middle_nn as nn;
pub use middle_tensor as tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use middle_core::{
        Algorithm, AlgorithmConfig, AlgorithmPolicy, AlgorithmState, CompressionConfig, DelayModel,
        DropoutModel, ExecutionMode, FaultConfig, LatencyModel, MobilitySource, MoveAction,
        OnDevicePolicy, PopulationMode, RunRecord, SelectionPolicy, SimConfig, SimError,
        Simulation, SimulationBuilder, StepMode, TimelineConfig,
    };
    pub use middle_data::{Scheme, Task};
    pub use middle_mobility::Trace;
    pub use middle_nn::{OptimizerKind, Sequential};
}
