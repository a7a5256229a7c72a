//! # middle-data
//!
//! Datasets, Non-IID partitioners and evaluation metrics for the MIDDLE
//! (ICPP 2023) reproduction.
//!
//! The paper evaluates on MNIST, EMNIST-Letters, CIFAR10 and
//! SpeechCommands; those corpora are unavailable in this environment, so
//! [`synthetic`] provides seeded class-conditional stand-ins with matching
//! shape signatures and a controlled hardness ordering (see DESIGN.md §2
//! for why this substitution preserves the phenomena under study).
//! [`mod@partition`] reproduces the paper's label-skew settings: per-device
//! major class (>80%), single-class devices, the Figure-1 70/30 edge
//! skew, and Dirichlet(α) as the standard FL knob.

pub mod batch;
pub mod dataset;
pub mod metrics;
pub mod partition;
pub mod synthetic;

pub use dataset::Dataset;
pub use metrics::{accuracy, Confusion};
pub use partition::{partition, Partition, Scheme};
pub use synthetic::{SyntheticSource, Task};
