//! Mobility-trace tooling: generate Markov edge-hop traces, inspect
//! them, export/import the ONE-simulator-style report format, and feed
//! the imported trace into a simulation.
//!
//! ```sh
//! cargo run --release --example trace_tooling
//! ```

use middle::mobility::{generate_markov_hop, generate_markov_hop_homed, Trace};
use middle::prelude::*;

fn describe(name: &str, t: &Trace) {
    println!("{name}:");
    println!(
        "  devices {}  edges {}  steps {}",
        t.devices(),
        t.num_edges(),
        t.steps()
    );
    println!("  empirical mobility  {:.3}", t.empirical_mobility());
    println!("  final occupancy     {:?}", t.occupancy(t.steps() - 1));
}

fn main() {
    let homes: Vec<usize> = (0..60).map(|m| m % 4).collect();

    let uniform = generate_markov_hop(4, 60, 200, 0.5, 11);
    describe("uniform Markov hop (P = 0.5)", &uniform);

    let homed = generate_markov_hop_homed(4, &homes, 200, 0.5, 0.6, 11);
    describe("\nhome-biased Markov hop (P = 0.5, bias 0.6)", &homed);

    // Round-trip through the ONE-style report format.
    let report = homed.to_one_report();
    let parsed = Trace::from_one_report(&report, 4).expect("roundtrip");
    assert_eq!(parsed, homed);
    println!(
        "\nONE-report round trip OK ({} lines, {} bytes)",
        report.lines().count(),
        report.len()
    );

    // Drive a short simulation with the imported trace.
    let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    cfg.num_devices = 60;
    cfg.num_edges = 4;
    cfg.steps = 10;
    let record = SimulationBuilder::new(cfg)
        .with_trace(parsed)
        .build()
        .expect("trace matches the config")
        .run();
    println!(
        "simulation on the imported trace: final accuracy {:.3}",
        record.final_accuracy()
    );
}
