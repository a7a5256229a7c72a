//! The paper's Figure 1 motivation case study: with Non-IID data across
//! two edges, the global model improves while edge 1's accuracy on its
//! *minor* classes collapses.
//!
//! ```sh
//! cargo run --release --example edge_skew_casestudy
//! ```

use middle::data::partition::edge_skew_counts;
use middle::prelude::*;

fn main() {
    // 70/30 skew across 2 edges, as in §2 Question 1.
    let [edge0_counts, edge1_counts] = edge_skew_counts(10, 100, 0.7);
    println!("edge 0 class counts: {edge0_counts:?}");
    println!("edge 1 class counts: {edge1_counts:?}");

    let mut cfg = SimConfig::paper_default(Task::Mnist, Algorithm::hierfavg());
    cfg.num_edges = 2;
    cfg.num_devices = 20;
    cfg.devices_per_edge = 5;
    cfg.samples_per_device = 30;
    cfg.scheme = Scheme::MajorClass { major_frac: 0.8 };
    cfg.steps = 40;
    cfg.cloud_interval = 10;
    cfg.eval_interval = 4;
    cfg.eval_edges = true;
    cfg.eval_per_class = true;
    cfg.test_samples = 300;
    cfg.mobility = MobilitySource::MarkovHop { p: 0.0 }; // Figure 1 has no movement

    println!("\ntraining hierarchical FedAvg with stationary devices ...\n");
    let record = SimulationBuilder::new(cfg)
        .build()
        .expect("valid config")
        .run();

    println!("step | global | edge0 | edge0 major(0-4) | edge0 minor(5-9)");
    for p in &record.points {
        let major: Vec<f32> = p.edge0_per_class[..5].iter().flatten().copied().collect();
        let minor: Vec<f32> = p.edge0_per_class[5..].iter().flatten().copied().collect();
        let mean = |v: &[f32]| {
            if v.is_empty() {
                f32::NAN
            } else {
                v.iter().sum::<f32>() / v.len() as f32
            }
        };
        println!(
            "{:>4} | {:.3}  | {:.3} | {:.3}            | {:.3}",
            p.step,
            p.global_accuracy,
            p.edge_accuracy[0],
            mean(&major),
            mean(&minor)
        );
    }
    println!("\nExpected shape (paper Fig. 1): global rises; the edge's major classes");
    println!("track it while minor-class accuracy lags or decays between cloud syncs.");
}
