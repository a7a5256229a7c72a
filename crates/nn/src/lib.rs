//! # middle-nn
//!
//! From-scratch neural-network stack for the MIDDLE (ICPP 2023)
//! reproduction, built on [`middle_tensor`].
//!
//! The paper trains small CNNs under PyTorch; Rust has no mature
//! equivalent, so this crate implements exactly the training machinery the
//! evaluation needs:
//!
//! * layers ([`layers`]): dense, conv2d, max-pool, ReLU/tanh, dropout,
//!   flatten — each with hand-derived backward passes validated against
//!   finite differences;
//! * losses ([`loss`]): softmax cross-entropy (batch and per-sample) and
//!   MSE;
//! * optimizers ([`optim`]): SGD, momentum SGD (paper: lr 0.01, μ 0.9) and
//!   Adam (paper: lr 0.001 for speech);
//! * the [`model::Sequential`] container and the flat parameter view
//!   ([`params`]) that federated aggregation operates on;
//! * paper model builders ([`zoo`]): 2-conv and 3-conv CNNs, an MLP and a
//!   strongly-convex logistic model for the theory experiments;
//! * parameter checkpoints ([`serialize`]).

pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod params;
pub mod schedule;
pub mod scratch;
pub mod serialize;
pub mod zoo;

pub use layer::{Layer, LayerWs, Param};
pub use model::Sequential;
pub use optim::{Optimizer, OptimizerKind, ParamSet};
pub use schedule::Schedule;
pub use scratch::NetScratch;
pub use zoo::InputSpec;
