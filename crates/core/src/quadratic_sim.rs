//! Mobility-driven HFL on the strongly-convex quadratic test-bed —
//! the setting of Theorem 1 (full participation, fixed α), used to
//! validate the bound numerically and to draw Figure 3's parameter-space
//! trajectories.

use crate::theory::{BoundParams, QuadraticProblem};
use middle_mobility::{generate_markov_hop, generate_markov_hop_homed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Configuration of a quadratic HFL run.
#[derive(Debug, Clone, Copy)]
pub struct QuadraticHflConfig {
    /// Number of edges.
    pub edges: usize,
    /// Time steps to simulate.
    pub steps: usize,
    /// Local SGD steps per time step (`I`).
    pub local_steps: usize,
    /// Cloud sync interval (`T_c`).
    pub cloud_interval: usize,
    /// Fixed on-device aggregation coefficient `α` (weight on the edge
    /// model), per the Theorem 1 simplification.
    pub alpha: f32,
    /// Global mobility probability `P`.
    pub p: f64,
    /// Additive gradient-noise standard deviation `σ` (Assumption 3).
    pub noise_std: f32,
    /// Theorem 1 learning-rate schedule when `true`; otherwise a fixed
    /// small step `1/(4β)`.
    pub theorem_lr: bool,
    /// RNG seed.
    pub seed: u64,
    /// Cluster devices by home edge (cluster A on the first half of the
    /// edges, cluster B on the second) with home-biased movement, so
    /// edge-level objectives are persistently Non-IID. `false` = uniform
    /// memoryless hopping.
    pub homed: bool,
    /// Algorithm-1 semantics when `true`: every participating device
    /// downloads the edge model each step. When `false`, the dynamics
    /// match the Theorem 1 analysis: devices continue from their own
    /// local models, and *the on-device blend upon movement is the only
    /// cross-device homogenization between cloud syncs* — this is what
    /// makes the divergence term scale like `1/(α(1−α)P)`.
    pub download_each_step: bool,
}

impl Default for QuadraticHflConfig {
    fn default() -> Self {
        QuadraticHflConfig {
            edges: 4,
            steps: 200,
            local_steps: 5,
            cloud_interval: 10,
            alpha: 0.5,
            p: 0.5,
            noise_std: 0.1,
            theorem_lr: true,
            seed: 42,
            homed: false,
            download_each_step: true,
        }
    }
}

/// Result of a quadratic HFL run.
#[derive(Debug, Clone)]
pub struct QuadraticHflResult {
    /// Optimality gap `F(w̄^t) − F(w*)` of the virtual global model per
    /// time step.
    pub gap_trajectory: Vec<f32>,
    /// Final gap.
    pub final_gap: f32,
    /// Per-step positions of the virtual global model (for Figure 3's
    /// 2-D parameter-space plots; only the first two coordinates).
    pub global_path: Vec<[f32; 2]>,
    /// Per-step dispersion `Σ h_m ‖w_m − w̄‖²` of local models around the
    /// virtual global — the divergence term of Lemma 1 that on-device
    /// aggregation provably shrinks.
    pub dispersion: Vec<f32>,
    /// Per-step *start-point* divergence `Σ h_m ‖ŵ_m − w̄‖²` — the unique
    /// term `E[Σ h_m ‖ŵ^{t−1}_m − w̄^{t−1}‖²]` of the Theorem 1 proof
    /// sketch (Eq. 19), bounded by the `α(1−α)P` mobility term.
    pub start_dispersion: Vec<f32>,
}

/// Simulates Theorem 1's setting: full device participation, fixed-α
/// on-device aggregation for moved devices, FedAvg edge/cloud
/// aggregation, noisy quadratic gradients.
pub fn simulate_quadratic_hfl(
    problem: &QuadraticProblem,
    cfg: &QuadraticHflConfig,
) -> QuadraticHflResult {
    assert!(cfg.edges > 0 && cfg.steps > 0 && cfg.local_steps > 0);
    assert!((0.0..=1.0).contains(&cfg.alpha), "alpha in [0, 1]");
    let devices = problem.devices();
    let dim = problem.dim();
    let trace = if cfg.homed {
        let half = (cfg.edges / 2).max(1);
        let homes: Vec<usize> = (0..devices)
            .map(|m| {
                let cluster = m % 2;
                let slot = (m / 2) % half;
                (cluster * half + slot).min(cfg.edges - 1)
            })
            .collect();
        generate_markov_hop_homed(cfg.edges, &homes, cfg.steps, cfg.p, 0.6, cfg.seed)
    } else {
        generate_markov_hop(cfg.edges, devices, cfg.steps, cfg.p, cfg.seed)
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E3779B97F4A7C15);
    let noise = Normal::new(0.0f32, cfg.noise_std).expect("valid noise std");

    let bound = BoundParams {
        beta: problem.beta(),
        mu: problem.mu(),
        b: 0.0,
        g2: 0.0,
        local_steps: cfg.local_steps,
        alpha: cfg.alpha.clamp(1e-3, 1.0 - 1e-3),
        p: cfg.p.max(1e-3) as f32,
        initial_gap: 0.0,
    };

    // All models start at the origin.
    let mut cloud = vec![0.0f32; dim];
    let mut edge_models = vec![cloud.clone(); cfg.edges];
    let mut local_models = vec![cloud.clone(); devices];

    let mut gap_trajectory = Vec::with_capacity(cfg.steps);
    let mut global_path = Vec::with_capacity(cfg.steps);
    let mut dispersion = Vec::with_capacity(cfg.steps);
    let mut grad = vec![0.0f32; dim];

    let mut start_dispersion = Vec::with_capacity(cfg.steps);
    for t in 0..cfg.steps {
        let eta = if cfg.theorem_lr {
            bound.learning_rate(t)
        } else {
            1.0 / (4.0 * problem.beta())
        };

        // Full participation: every device trains within its edge.
        let mut start_points: Vec<Vec<f32>> = Vec::with_capacity(devices);
        for (m, lm) in local_models.iter_mut().enumerate() {
            let n = trace.edge_of(t, m);
            let mut w: Vec<f32> = if trace.moved(t, m) {
                edge_models[n]
                    .iter()
                    .zip(lm.iter())
                    .map(|(e, l)| cfg.alpha * e + (1.0 - cfg.alpha) * l)
                    .collect()
            } else if cfg.download_each_step {
                edge_models[n].clone()
            } else {
                lm.clone()
            };
            start_points.push(w.clone());
            for _ in 0..cfg.local_steps {
                problem.device_grad(m, &w, &mut grad);
                for (x, g) in w.iter_mut().zip(&grad) {
                    *x -= eta * (g + noise.sample(&mut rng));
                }
            }
            *lm = w;
        }

        // Start-point divergence around the mean start point (Eq. 19).
        let mut sbar = vec![0.0f32; dim];
        for (m, sp) in start_points.iter().enumerate() {
            for (a, x) in sbar.iter_mut().zip(sp) {
                *a += problem.weights[m] * x;
            }
        }
        let sdisp: f32 = start_points
            .iter()
            .enumerate()
            .map(|(m, sp)| {
                let d2: f32 = sp.iter().zip(&sbar).map(|(x, g)| (x - g) * (x - g)).sum();
                problem.weights[m] * d2
            })
            .sum();
        start_dispersion.push(sdisp);

        // Edge aggregation: weighted mean of member locals.
        for (n, em) in edge_models.iter_mut().enumerate() {
            let members = trace.devices_at(t, n);
            if members.is_empty() {
                continue;
            }
            let mut acc = vec![0.0f32; dim];
            let mut wsum = 0.0f32;
            for &m in &members {
                let hw = problem.weights[m];
                wsum += hw;
                for (a, x) in acc.iter_mut().zip(&local_models[m]) {
                    *a += hw * x;
                }
            }
            for a in &mut acc {
                *a /= wsum;
            }
            *em = acc;
        }

        // Cloud sync.
        if (t + 1) % cfg.cloud_interval == 0 {
            let mut acc = vec![0.0f32; dim];
            for em in &edge_models {
                for (a, x) in acc.iter_mut().zip(em) {
                    *a += x / cfg.edges as f32;
                }
            }
            cloud = acc;
            for em in &mut edge_models {
                em.clone_from(&cloud);
            }
            for lm in &mut local_models {
                lm.clone_from(&cloud);
            }
        }

        // Virtual global = weighted mean of all locals (Eq. 13).
        let mut vg = vec![0.0f32; dim];
        for (m, lm) in local_models.iter().enumerate() {
            for (a, x) in vg.iter_mut().zip(lm) {
                *a += problem.weights[m] * x;
            }
        }
        gap_trajectory.push(problem.gap(&vg));
        global_path.push([vg[0], if dim > 1 { vg[1] } else { 0.0 }]);
        let disp: f32 = (0..devices)
            .map(|m| {
                let d2: f32 = local_models[m]
                    .iter()
                    .zip(&vg)
                    .map(|(x, g)| (x - g) * (x - g))
                    .sum();
                problem.weights[m] * d2
            })
            .sum();
        dispersion.push(disp);
    }

    QuadraticHflResult {
        final_gap: *gap_trajectory.last().expect("at least one step"),
        gap_trajectory,
        global_path,
        dispersion,
        start_dispersion,
    }
}

/// Builds the two-cluster Non-IID quadratic problem used by the theory
/// experiments: half the devices centred at `+c`, half at `−c`, with
/// mild curvature heterogeneity. Global optimum ≈ origin; edge optima
/// differ, so mobility genuinely transports information.
pub fn two_cluster_problem(devices: usize, dim: usize, spread: f32) -> QuadraticProblem {
    assert!(devices >= 2 && dim >= 1);
    let mut curvatures = Vec::with_capacity(devices);
    let mut centers = Vec::with_capacity(devices);
    for m in 0..devices {
        curvatures.push(if m % 3 == 0 { 1.5 } else { 1.0 });
        let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
        let mut c = vec![0.0f32; dim];
        c[0] = sign * spread;
        if dim > 1 {
            c[1] = sign * spread * 0.5;
        }
        centers.push(c);
    }
    QuadraticProblem::new(curvatures, centers, vec![1.0; devices])
}

/// The test-bed of the Theorem 1 experiment: the two-cluster problem on
/// 20 devices, Algorithm 1's dynamics on 4 edges at `P = 0.5`, and the
/// bound constants matched to them.
pub fn theorem1_testbed() -> (QuadraticProblem, QuadraticHflConfig, BoundParams) {
    let problem = two_cluster_problem(20, 2, 3.0);
    let base = QuadraticHflConfig {
        cloud_interval: 20,
        ..Default::default()
    };
    let bound = BoundParams {
        beta: problem.beta(),
        mu: problem.mu(),
        b: base.noise_std * base.noise_std,
        g2: 25.0,
        local_steps: base.local_steps,
        alpha: base.alpha,
        p: base.p as f32,
        initial_gap: 20.0,
    };
    (problem, base, bound)
}

/// Mean and 95 % confidence half-width of per-seed values the sweep
/// report does not aggregate itself: [`crate::sweep::mean_std_ci95`]
/// without the deviation.
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    let (mean, _, ci95) = crate::sweep::mean_std_ci95(values);
    (mean, ci95)
}

/// One mobility level of the Remark 1 experiment ([`remark1_rows`]).
#[derive(Debug, Clone, Copy)]
pub struct Remark1Row {
    /// Global mobility probability `P`.
    pub p: f64,
    /// Seeds averaged.
    pub seeds: usize,
    /// Post-warm-up start-point divergence `Σ h_m‖ŵ_m − w̄‖²` (the
    /// proof's Eq. 19 term): mean over seeds and CI95 half-width.
    pub divergence: (f64, f64),
    /// Post-warm-up optimality gap: mean over seeds and CI95 half-width.
    pub gap: (f64, f64),
    /// The bound's mobility term `8βI²G²/(μ²γ²α(1−α)P)`.
    pub mobility_term: f32,
    /// Its derivative in `P` (negative everywhere: Remark 1).
    pub mobility_derivative: f32,
}

/// Remark 1 measured: for each `P`, the start-point divergence and gap
/// of the [`theorem1_testbed`] under the dynamics the proof analyses —
/// devices keep their local models between cloud syncs (`T_c = 30`),
/// clustered by home edge, so the on-device blend upon movement is the
/// only cross-device homogenisation — averaged over the steps after a
/// 20-step warm-up and over 8 seeds, beside the analytic mobility term.
pub fn remark1_rows() -> Vec<Remark1Row> {
    const SEEDS: u64 = 8;
    const WARM_UP: usize = 20;
    let (problem, base, bound) = theorem1_testbed();
    let settled = |series: &[f32]| {
        f64::from(series[WARM_UP..].iter().sum::<f32>() / (series.len() - WARM_UP) as f32)
    };
    [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        .into_iter()
        .map(|p| {
            let (divergence, gap): (Vec<f64>, Vec<f64>) = (0..SEEDS)
                .map(|s| {
                    let cfg = QuadraticHflConfig {
                        p,
                        seed: 1000 + s,
                        steps: 150,
                        cloud_interval: 30,
                        theorem_lr: false,
                        download_each_step: false,
                        homed: true,
                        ..base
                    };
                    let run = simulate_quadratic_hfl(&problem, &cfg);
                    (settled(&run.start_dispersion), settled(&run.gap_trajectory))
                })
                .unzip();
            let at_p = BoundParams {
                p: p as f32,
                ..bound
            };
            Remark1Row {
                p,
                seeds: SEEDS as usize,
                divergence: mean_ci95(&divergence),
                gap: mean_ci95(&gap),
                mobility_term: at_p.mobility_term(),
                mobility_derivative: at_p.mobility_derivative(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_toward_optimum() {
        let q = two_cluster_problem(10, 2, 2.0);
        let cfg = QuadraticHflConfig {
            steps: 300,
            ..Default::default()
        };
        let res = simulate_quadratic_hfl(&q, &cfg);
        let early = res.gap_trajectory[5];
        assert!(
            res.final_gap < early * 0.5,
            "gap {early} -> {}",
            res.final_gap
        );
    }

    #[test]
    fn higher_mobility_gives_lower_final_gap() {
        // Remark 1's prediction, averaged over seeds to kill noise.
        let q = two_cluster_problem(20, 2, 3.0);
        let mean_gap = |p: f64| -> f32 {
            (0..5)
                .map(|s| {
                    let cfg = QuadraticHflConfig {
                        p,
                        steps: 150,
                        cloud_interval: 30,
                        seed: 100 + s,
                        ..Default::default()
                    };
                    simulate_quadratic_hfl(&q, &cfg).final_gap
                })
                .sum::<f32>()
                / 5.0
        };
        let lo = mean_gap(0.05);
        let hi = mean_gap(0.8);
        assert!(hi < lo, "P=0.8 gap {hi} should beat P=0.05 gap {lo}");
    }

    #[test]
    fn measured_gap_respects_theorem_bound_shape() {
        // The bound is loose, but the measured gap must sit below it for
        // matched constants.
        let q = two_cluster_problem(10, 2, 1.0);
        let cfg = QuadraticHflConfig {
            steps: 200,
            noise_std: 0.05,
            ..Default::default()
        };
        let res = simulate_quadratic_hfl(&q, &cfg);
        let params = BoundParams {
            beta: q.beta(),
            mu: q.mu(),
            b: 0.05 * 0.05,
            g2: 25.0,
            local_steps: cfg.local_steps,
            alpha: cfg.alpha,
            p: cfg.p as f32,
            initial_gap: q.gap(&[0.0; 2]) * 2.0 / q.mu(),
        };
        for (t, &gap) in res.gap_trajectory.iter().enumerate().skip(20) {
            assert!(
                gap <= params.bound(t),
                "step {t}: measured {gap} exceeds bound {}",
                params.bound(t)
            );
        }
    }

    #[test]
    fn global_path_has_expected_length() {
        let q = two_cluster_problem(4, 2, 1.0);
        let cfg = QuadraticHflConfig {
            steps: 50,
            ..Default::default()
        };
        let res = simulate_quadratic_hfl(&q, &cfg);
        assert_eq!(res.global_path.len(), 50);
        assert_eq!(res.gap_trajectory.len(), 50);
    }

    #[test]
    fn two_cluster_optimum_is_near_origin() {
        let q = two_cluster_problem(10, 2, 2.0);
        let w = q.optimum();
        assert!(w[0].abs() < 0.5, "{w:?}");
    }

    #[test]
    fn zero_noise_deterministic_run_reaches_tiny_gap() {
        let q = two_cluster_problem(6, 2, 1.0);
        let cfg = QuadraticHflConfig {
            noise_std: 0.0,
            steps: 400,
            cloud_interval: 5,
            p: 0.5,
            ..Default::default()
        };
        let res = simulate_quadratic_hfl(&q, &cfg);
        assert!(res.final_gap < 0.05, "final gap {}", res.final_gap);
    }
}
