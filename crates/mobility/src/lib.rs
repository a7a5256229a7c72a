//! # middle-mobility
//!
//! Mobility traces for the MIDDLE (ICPP 2023) reproduction. The paper
//! needs no trajectories, only each device's edge per step and the global
//! mobility probability `P` (§3.2), so a trace is either generated by a
//! Markov edge-hop process — plain, or biased towards a home edge — or
//! imported (JSON, or a ONE-simulator report for real ONE output).
//!
//! * [`trace`]: per-step device→edge assignments, dense or streamed;
//!   the Markov edge-hop generators with a controlled `P` (the knob of
//!   Figure 7), empirical-mobility measurement and import/export.

pub mod trace;

pub use trace::{generate_markov_hop, generate_markov_hop_homed, MarkovStreamSpec, Trace};
