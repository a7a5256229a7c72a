//! # middle-nn
//!
//! From-scratch neural-network stack for the MIDDLE (ICPP 2023)
//! reproduction, built on [`middle_tensor`].
//!
//! The paper trains small CNNs under PyTorch; Rust has no mature
//! equivalent, so this crate implements exactly the training machinery the
//! evaluation needs:
//!
//! * layers ([`layers`]): dense, conv2d, max-pool, ReLU and flatten —
//!   each with hand-derived backward passes validated against finite
//!   differences;
//! * losses ([`loss`]): softmax cross-entropy (batch and per-sample);
//! * optimizers ([`optim`]): SGD, momentum SGD (paper: lr 0.01, μ 0.9) and
//!   Adam (paper: lr 0.001 for speech);
//! * the [`model::Sequential`] container, which owns its parameters as
//!   one plane, and the plane primitives ([`params`]) that federated
//!   aggregation operates on;
//! * paper model builders ([`zoo`]): 2-conv and 3-conv CNNs, an MLP and a
//!   strongly-convex logistic model for the theory experiments;
//! * parameter checkpoints ([`serialize`]).

pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod params;
pub mod scratch;
pub mod serialize;
pub mod zoo;

pub use layer::{Layer, LayerWs};
pub use model::Sequential;
pub use optim::{Optimizer, OptimizerKind};
pub use scratch::NetScratch;
pub use zoo::InputSpec;
