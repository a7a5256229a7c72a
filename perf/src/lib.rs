//! `perf` — the repository's benchmark: absolute, layer-attributed
//! numbers for the MIDDLE round on four workloads.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measured run (the driver's form)
//! perf run [--seed N] [--smoke]                                   every workload, medians, checks, traces
//! perf compare <old.json> <new.json>                               regression verdict between two `run` results
//! perf manifest                                                    BENCHMARK.json, rendered from the tables
//! ```
//!
//! A measured run prints every metric by name with its unit, the
//! checks it ran, and as the last line of standard output one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1` (which also writes `<out-dir>/<workload>.trace.json`).

pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod runloop;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
