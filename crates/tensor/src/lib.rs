//! # middle-tensor
//!
//! Dense `f32` tensor substrate for the MIDDLE (ICPP 2023) reproduction.
//!
//! The paper's evaluation trains small CNNs with a deep-learning framework;
//! no mature equivalent exists in Rust, so this crate provides the minimal
//! but complete numerical kernel set the training stack needs:
//!
//! * [`Tensor`] — owned, contiguous, row-major storage ([`tensor`]);
//! * inner products and cosine similarity over slices ([`ops`]) — the
//!   reductions behind model similarity and cached parameter norms;
//! * blocked, Rayon-parallel matrix multiplication ([`matmul`]);
//! * direct 2-D convolution (forward, weight and input gradients off
//!   zero-bordered planes, no patch matrix) and max pooling, each held
//!   bitwise to an im2col + GEMM oracle ([`conv`]);
//! * seeded random initialisation with decorrelated child streams
//!   ([`random`]);
//! * axis reductions and numerically-stable softmax ([`reduce`]).
//!
//! Everything is deterministic given a seed, and every kernel is covered by
//! unit tests (including finite-difference gradient checks) plus
//! property-based tests in `tests/`.

pub mod conv;
pub mod matmul;
pub mod ops;
pub mod random;
pub mod reduce;
pub mod shape;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
