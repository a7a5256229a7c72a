//! The fault-injection plane: deterministic, seeded failure models for
//! the device-edge-cloud loop.
//!
//! The paper's Algorithm 1 assumes every selected device trains and
//! uploads every step; real fleets lose devices mid-round (FedFly is
//! built around devices migrating or vanishing during training, and the
//! vehicular HFL analyses show convergence is governed by which updates
//! *arrive*, not which were scheduled). This module replaces the blunt
//! `SimConfig::availability` scalar with first-class failure processes:
//!
//! * **Dropout** ([`DropoutModel`]) — per-device reachability as an
//!   i.i.d. coin or a sticky two-state (Gilbert–Elliott) Markov chain
//!   producing bursty outages;
//! * **Stragglers** ([`DelayModel`] + [`FaultConfig::deadline_s`]) — a
//!   per-upload delay draw compared against a per-step deadline; late
//!   devices are excluded from this step's edge aggregation and their
//!   update is applied next step as a *stale* similarity-weighted blend
//!   (Eq. 9 reused for stale merges);
//! * **Upload loss** ([`FaultConfig::upload_loss`]) — each wireless
//!   upload attempt is lost (or received corrupted and discarded, which
//!   is the same thing once integrity-checked) with this probability,
//!   and retried with exponential backoff up to
//!   [`FaultConfig::upload_retries`] times, every attempt charged to
//!   [`crate::CommStats`];
//! * **WAN outages** ([`FaultConfig::wan_outage`]) — at each cloud
//!   sync, every edge's edge↔cloud link is independently down with this
//!   probability; down edges neither upload nor receive the broadcast
//!   (their sample window keeps accumulating and folds into the next
//!   successful sync), and devices parked under a down edge miss the
//!   device-level broadcast.
//!
//! All processes draw from one dedicated RNG stream
//! (`derive_seed(seed, 9)`) owned by [`FaultPlane`], never from the
//! selection or availability streams — so a config with every fault
//! disabled is *bitwise identical* to a simulation without the plane,
//! and `StepMode::Fast` / `StepMode::Reference` stay interchangeable
//! under faults (every fault draw sits in the round skeleton they
//! share, outside its kernel dispatch points). The round runs the same
//! upload pass and cloud sync whatever the config; the disabled plane
//! only makes them draw nothing and allocate nothing, so the hot-path
//! contract of DESIGN.md §6 is untouched.

use middle_nn::serialize::Packed;
use middle_tensor::random::{derive_seed, rng};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-device reachability process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DropoutModel {
    /// Every device is always reachable.
    None,
    /// Each device is independently down each step with probability `p`
    /// (memoryless churn).
    Iid {
        /// Per-step down probability.
        p: f64,
    },
    /// Sticky Gilbert–Elliott chain: an up device goes down with
    /// probability `p_fail`, a down device recovers with probability
    /// `p_recover`. Small `p_recover` produces the bursty multi-step
    /// outages i.i.d. dropout cannot express.
    Markov {
        /// Up → down transition probability per step.
        p_fail: f64,
        /// Down → up transition probability per step.
        p_recover: f64,
    },
}

/// Straggler delay distribution for one upload, in seconds. Sampled
/// once per selected device per step; compared against
/// [`FaultConfig::deadline_s`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// No delay: every upload meets any positive deadline.
    None,
    /// Uniform on `[min_s, max_s]`.
    Uniform {
        /// Minimum delay.
        min_s: f64,
        /// Maximum delay.
        max_s: f64,
    },
    /// Exponential with the given mean (inverse-CDF sampled).
    Exponential {
        /// Mean delay.
        mean_s: f64,
    },
    /// Heavy-tailed Pareto: `scale_s · (1−u)^(−1/shape)`; small `shape`
    /// gives the long tail that makes deadline exclusion interesting.
    Pareto {
        /// Scale (minimum) delay.
        scale_s: f64,
        /// Tail index; delays are finite-mean for `shape > 1`.
        shape: f64,
    },
}

/// Deterministic failure-model configuration, carried on
/// [`crate::SimConfig::faults`]. The default disables every model; the
/// simulation is then bitwise identical to one without a fault plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-device reachability process.
    #[serde(default = "default_dropout")]
    pub dropout: DropoutModel,
    /// Straggler delay distribution per upload.
    #[serde(default = "default_delay")]
    pub straggler_delay: DelayModel,
    /// Per-step upload deadline in seconds. An upload whose sampled
    /// delay exceeds the deadline misses the step and is merged stale
    /// next step. Only consulted when `straggler_delay` is active.
    #[serde(default = "default_deadline")]
    pub deadline_s: f64,
    /// Probability that one upload attempt is lost (or corrupted and
    /// discarded) on the device→edge wireless link.
    #[serde(default)]
    pub upload_loss: f64,
    /// Bounded retries after a lost upload attempt (exponential
    /// backoff: retry `k` waits `2^(k−1)` backoff slots first). `0`
    /// means a lost first attempt is final.
    #[serde(default = "default_retries")]
    pub upload_retries: u32,
    /// Probability that an edge's WAN link is down at a cloud sync.
    #[serde(default)]
    pub wan_outage: f64,
}

fn default_dropout() -> DropoutModel {
    DropoutModel::None
}

fn default_delay() -> DelayModel {
    DelayModel::None
}

fn default_deadline() -> f64 {
    1.0
}

fn default_retries() -> u32 {
    2
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            dropout: DropoutModel::None,
            straggler_delay: DelayModel::None,
            deadline_s: default_deadline(),
            upload_loss: 0.0,
            upload_retries: default_retries(),
            wan_outage: 0.0,
        }
    }
}

impl FaultConfig {
    /// Whether the dropout process is active.
    pub fn dropout_active(&self) -> bool {
        !matches!(self.dropout, DropoutModel::None)
    }

    /// Whether the straggler delay/deadline process is active.
    pub fn straggler_active(&self) -> bool {
        !matches!(self.straggler_delay, DelayModel::None)
    }

    /// Whether upload loss (and therefore retry) is active.
    pub fn upload_loss_active(&self) -> bool {
        self.upload_loss > 0.0
    }

    /// Whether WAN outages are active.
    pub fn wan_active(&self) -> bool {
        self.wan_outage > 0.0
    }

    /// Validates the configuration; mirrored by
    /// [`crate::SimConfig::validate`].
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self.dropout {
            DropoutModel::None => {}
            DropoutModel::Iid { p } => {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("dropout p = {p} outside [0, 1]"));
                }
            }
            DropoutModel::Markov { p_fail, p_recover } => {
                if !(0.0..=1.0).contains(&p_fail) {
                    return Err(format!("dropout p_fail = {p_fail} outside [0, 1]"));
                }
                if !(0.0..=1.0).contains(&p_recover) {
                    return Err(format!("dropout p_recover = {p_recover} outside [0, 1]"));
                }
            }
        }
        match self.straggler_delay {
            DelayModel::None => {}
            DelayModel::Uniform { min_s, max_s } => {
                if !(min_s.is_finite() && max_s.is_finite() && 0.0 <= min_s && min_s <= max_s) {
                    return Err(format!("uniform delay [{min_s}, {max_s}] invalid"));
                }
            }
            DelayModel::Exponential { mean_s } => {
                if !(mean_s.is_finite() && mean_s > 0.0) {
                    return Err(format!("exponential delay mean {mean_s} must be positive"));
                }
            }
            DelayModel::Pareto { scale_s, shape } => {
                if !(scale_s.is_finite() && scale_s > 0.0) {
                    return Err(format!("pareto scale {scale_s} must be positive"));
                }
                if !(shape.is_finite() && shape > 0.0) {
                    return Err(format!("pareto shape {shape} must be positive"));
                }
            }
        }
        if self.straggler_active() && !(self.deadline_s.is_finite() && self.deadline_s > 0.0) {
            return Err(format!("deadline_s = {} must be positive", self.deadline_s));
        }
        if !(0.0..=1.0).contains(&self.upload_loss) {
            return Err(format!("upload_loss = {} outside [0, 1]", self.upload_loss));
        }
        if self.upload_retries > 16 {
            return Err(format!(
                "upload_retries = {} exceeds the backoff bound of 16",
                self.upload_retries
            ));
        }
        if !(0.0..=1.0).contains(&self.wan_outage) {
            return Err(format!("wan_outage = {} outside [0, 1]", self.wan_outage));
        }
        Ok(())
    }
}

/// Outcome of one device's upload (first attempt plus bounded retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadOutcome {
    /// Wireless transmission attempts performed (≥ 1).
    pub attempts: u32,
    /// Whether any attempt was received intact.
    pub delivered: bool,
    /// Exponential-backoff slots waited before retries
    /// (retry `k` waits `2^(k−1)` slots).
    pub backoff_slots: u64,
}

/// A deadline-missed update awaiting its stale merge at the next step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingStale {
    /// Edge the late upload was addressed to.
    pub edge: usize,
    /// Device that produced the update.
    pub device: usize,
    /// Snapshot of the trained parameters at upload time (the device
    /// may retrain before the merge lands). When the compression plane
    /// is lossy-active this is the *reconstructed* model the edge
    /// decodes, compressed once at upload time.
    pub flat: Packed<f32>,
    /// Cached squared L2 norm of `flat`.
    pub norm_sq: f32,
    /// Wire bytes the late delivery occupies (compressed size under a
    /// lossy-active compression plane, dense otherwise). Charged to
    /// [`crate::CommStats::device_to_edge_bytes`] when the merge lands.
    #[serde(default)]
    pub payload_bytes: u64,
}

/// Runtime state of the fault plane for one simulation: the failure
/// config, a dedicated RNG stream, the per-device dropout chain state
/// and the queue of pending stale updates.
///
/// The plane is deliberately *outside* the telemetry/comm planes: it
/// decides what fails; the simulation loop owns how failures are
/// recovered and accounted.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: StdRng,
    device_down: Vec<bool>,
    pending: Vec<PendingStale>,
}

impl FaultPlane {
    /// Builds the plane for `num_devices` devices from the simulation
    /// master seed (stream 9 — disjoint from every other stream the
    /// simulation derives).
    pub fn new(cfg: FaultConfig, num_devices: usize, seed: u64) -> Self {
        FaultPlane {
            cfg,
            rng: rng(derive_seed(seed, 9)),
            device_down: vec![false; num_devices],
            pending: Vec::new(),
        }
    }

    /// A permanently-disabled plane (used by `Default`-free callers).
    pub fn disabled(num_devices: usize) -> Self {
        FaultPlane::new(FaultConfig::default(), num_devices, 0)
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether the dropout process is active.
    pub fn dropout_active(&self) -> bool {
        self.cfg.dropout_active()
    }

    /// Whether the straggler process is active.
    pub fn straggler_active(&self) -> bool {
        self.cfg.straggler_active()
    }

    /// Whether WAN outages are active.
    pub fn wan_active(&self) -> bool {
        self.cfg.wan_active()
    }

    /// Advances every device's reachability process by one step. Draws
    /// exactly one uniform per device when dropout is active (i.i.d.
    /// and Markov alike), zero otherwise — the draw count never depends
    /// on the chain state, so every execution mode stays in lockstep on
    /// the fault stream.
    pub fn advance_dropout(&mut self) {
        match self.cfg.dropout {
            DropoutModel::None => {}
            DropoutModel::Iid { p } => {
                for d in &mut self.device_down {
                    *d = self.rng.gen::<f64>() < p;
                }
            }
            DropoutModel::Markov { p_fail, p_recover } => {
                for d in &mut self.device_down {
                    let u = self.rng.gen::<f64>();
                    *d = if *d { u >= p_recover } else { u < p_fail };
                }
            }
        }
    }

    /// Whether device `m` is unreachable this step.
    pub fn is_down(&self, m: usize) -> bool {
        self.device_down[m]
    }

    /// Samples one upload delay from the straggler model. Draws exactly
    /// one uniform when the straggler model is active, zero otherwise
    /// (returning 0.0). Lockstep compares the sample against the
    /// deadline ([`Self::misses_deadline`]); the event-driven timeline
    /// uses it directly as the upload's in-flight latency — both consume
    /// the fault stream identically.
    pub fn sample_upload_delay(&mut self) -> f64 {
        match self.cfg.straggler_delay {
            DelayModel::None => 0.0,
            DelayModel::Uniform { min_s, max_s } => self.rng.gen_range(min_s..=max_s),
            DelayModel::Exponential { mean_s } => {
                let u: f64 = self.rng.gen();
                -mean_s * (1.0 - u).ln()
            }
            DelayModel::Pareto { scale_s, shape } => {
                let u: f64 = self.rng.gen();
                scale_s * (1.0 - u).powf(-1.0 / shape)
            }
        }
    }

    /// Samples one upload delay and compares it against the deadline.
    /// Draws exactly one uniform when the straggler model is active,
    /// zero otherwise.
    pub fn misses_deadline(&mut self) -> bool {
        if matches!(self.cfg.straggler_delay, DelayModel::None) {
            return false;
        }
        self.sample_upload_delay() > self.cfg.deadline_s
    }

    /// Runs one device's upload through the loss/retry process: the
    /// first attempt plus up to `upload_retries` retries, each preceded
    /// by exponentially growing backoff. Draws one uniform per attempt
    /// when upload loss is active; zero draws (instant success)
    /// otherwise.
    pub fn upload_attempts(&mut self) -> UploadOutcome {
        if !self.cfg.upload_loss_active() {
            return UploadOutcome {
                attempts: 1,
                delivered: true,
                backoff_slots: 0,
            };
        }
        let mut attempts = 0u32;
        let mut backoff_slots = 0u64;
        loop {
            attempts += 1;
            if self.rng.gen::<f64>() >= self.cfg.upload_loss {
                return UploadOutcome {
                    attempts,
                    delivered: true,
                    backoff_slots,
                };
            }
            if attempts > self.cfg.upload_retries {
                return UploadOutcome {
                    attempts,
                    delivered: false,
                    backoff_slots,
                };
            }
            // Retry k (1-based) waits 2^(k-1) slots before resending.
            backoff_slots += 1u64 << (attempts - 1);
        }
    }

    /// Draws one edge's WAN link state for the current sync. One
    /// uniform when WAN outages are active, zero otherwise.
    pub fn wan_is_up(&mut self) -> bool {
        if !self.cfg.wan_active() {
            return true;
        }
        self.rng.gen::<f64>() >= self.cfg.wan_outage
    }

    /// Queues a deadline-missed update for its stale merge next step.
    /// `payload_bytes` is the wire size of the late delivery.
    pub fn push_stale(
        &mut self,
        edge: usize,
        device: usize,
        flat: Vec<f32>,
        norm_sq: f32,
        payload_bytes: u64,
    ) {
        self.pending.push(PendingStale {
            edge,
            device,
            flat: Packed(flat),
            norm_sq,
            payload_bytes,
        });
    }

    /// Drains the stale updates queued during the previous step.
    pub fn take_pending(&mut self) -> Vec<PendingStale> {
        std::mem::take(&mut self.pending)
    }

    /// Stale updates currently awaiting their merge.
    pub fn pending(&self) -> &[PendingStale] {
        &self.pending
    }

    /// The dedicated fault RNG stream, for checkpoint capture.
    pub fn rng_ref(&self) -> &StdRng {
        &self.rng
    }

    /// Per-device dropout chain state, for checkpoint capture.
    pub fn device_down_states(&self) -> &[bool] {
        &self.device_down
    }

    /// Overwrites the plane's mutable state (RNG stream, dropout chain
    /// state and pending stale queue) from a checkpoint. The config is
    /// construction-time state and stays.
    pub fn restore_state(
        &mut self,
        rng: StdRng,
        device_down: Vec<bool>,
        pending: Vec<PendingStale>,
    ) {
        assert_eq!(
            device_down.len(),
            self.device_down.len(),
            "fault-plane device count mismatch"
        );
        self.rng = rng;
        self.device_down = device_down;
        self.pending = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_disables_everything() {
        let cfg = FaultConfig::default();
        assert!(cfg.validate().is_ok());
        let mut plane = FaultPlane::new(cfg, 8, 7);
        // The disabled plane never draws: identical planes stay
        // identical through arbitrary call sequences.
        plane.advance_dropout();
        assert!(!plane.misses_deadline());
        assert_eq!(
            plane.upload_attempts(),
            UploadOutcome {
                attempts: 1,
                delivered: true,
                backoff_slots: 0
            }
        );
        assert!(plane.wan_is_up());
        assert!((0..8).all(|m| !plane.is_down(m)));
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut cfg = FaultConfig {
            upload_loss: 1.5,
            ..FaultConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.upload_loss = 0.0;
        cfg.wan_outage = -0.1;
        assert!(cfg.validate().is_err());
        cfg.wan_outage = 0.0;
        cfg.dropout = DropoutModel::Markov {
            p_fail: 0.5,
            p_recover: 2.0,
        };
        assert!(cfg.validate().is_err());
        cfg.dropout = DropoutModel::None;
        cfg.straggler_delay = DelayModel::Uniform {
            min_s: 2.0,
            max_s: 1.0,
        };
        assert!(cfg.validate().is_err());
        cfg.straggler_delay = DelayModel::Exponential { mean_s: 0.5 };
        cfg.deadline_s = 0.0;
        assert!(cfg.validate().is_err());
        cfg.deadline_s = 1.0;
        assert!(cfg.validate().is_ok());
        cfg.upload_retries = 64;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn iid_dropout_tracks_probability() {
        let cfg = FaultConfig {
            dropout: DropoutModel::Iid { p: 0.3 },
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(cfg, 100, 11);
        let mut down = 0u32;
        for _ in 0..200 {
            plane.advance_dropout();
            down += (0..100).filter(|&m| plane.is_down(m)).count() as u32;
        }
        let rate = down as f64 / 20_000.0;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn markov_dropout_is_sticky() {
        // Same marginal down-rate (~0.5) but wildly different burst
        // lengths: the Markov chain with slow recovery must produce
        // longer down runs than i.i.d. at the same rate.
        let run_lengths = |cfg: FaultConfig| {
            let mut plane = FaultPlane::new(cfg, 1, 13);
            let mut runs = Vec::new();
            let mut current = 0u32;
            for _ in 0..4000 {
                plane.advance_dropout();
                if plane.is_down(0) {
                    current += 1;
                } else if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            }
            let total: u32 = runs.iter().sum();
            total as f64 / runs.len().max(1) as f64
        };
        let sticky = run_lengths(FaultConfig {
            dropout: DropoutModel::Markov {
                p_fail: 0.1,
                p_recover: 0.1,
            },
            ..FaultConfig::default()
        });
        let iid = run_lengths(FaultConfig {
            dropout: DropoutModel::Iid { p: 0.5 },
            ..FaultConfig::default()
        });
        assert!(
            sticky > 2.0 * iid,
            "sticky mean run {sticky} vs iid {iid}: bursts not sticky"
        );
    }

    #[test]
    fn deadline_splits_uniform_delays() {
        let cfg = FaultConfig {
            straggler_delay: DelayModel::Uniform {
                min_s: 0.0,
                max_s: 2.0,
            },
            deadline_s: 1.0,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(cfg, 1, 17);
        let misses = (0..10_000).filter(|_| plane.misses_deadline()).count();
        assert!((4500..5500).contains(&misses), "misses {misses}");
    }

    #[test]
    fn pareto_is_heavier_tailed_than_exponential() {
        let miss_rate = |delay: DelayModel| {
            let cfg = FaultConfig {
                straggler_delay: delay,
                deadline_s: 5.0,
                ..FaultConfig::default()
            };
            let mut plane = FaultPlane::new(cfg, 1, 19);
            (0..20_000).filter(|_| plane.misses_deadline()).count() as f64 / 20_000.0
        };
        let exp = miss_rate(DelayModel::Exponential { mean_s: 1.0 });
        let pareto = miss_rate(DelayModel::Pareto {
            scale_s: 1.0,
            shape: 1.1,
        });
        assert!(
            pareto > 3.0 * exp.max(1e-4),
            "pareto {pareto} vs exponential {exp}"
        );
    }

    #[test]
    fn upload_retries_are_bounded_with_exponential_backoff() {
        let cfg = FaultConfig {
            upload_loss: 1.0,
            upload_retries: 3,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(cfg, 1, 23);
        let o = plane.upload_attempts();
        assert_eq!(o.attempts, 4, "1 try + 3 retries");
        assert!(!o.delivered);
        // Backoff before retries 1..=3: 1 + 2 + 4 slots.
        assert_eq!(o.backoff_slots, 7);

        let cfg = FaultConfig {
            upload_loss: 0.5,
            upload_retries: 8,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(cfg, 1, 29);
        let mut total_attempts = 0u64;
        let mut delivered = 0u64;
        for _ in 0..2000 {
            let o = plane.upload_attempts();
            assert!(o.attempts <= 9);
            total_attempts += o.attempts as u64;
            delivered += u64::from(o.delivered);
        }
        // Mean attempts for p=0.5 ≈ 2; essentially everything delivers
        // within 9 attempts.
        assert!((3500..4500).contains(&total_attempts), "{total_attempts}");
        assert!(delivered > 1950, "{delivered}");
    }

    #[test]
    fn wan_outage_tracks_probability() {
        let cfg = FaultConfig {
            wan_outage: 0.25,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(cfg, 1, 31);
        let down = (0..10_000).filter(|_| !plane.wan_is_up()).count();
        assert!((2000..3000).contains(&down), "down {down}");
    }

    #[test]
    fn stale_queue_drains_in_fifo_order() {
        let mut plane = FaultPlane::disabled(4);
        plane.push_stale(1, 2, vec![1.0], 1.0, 4);
        plane.push_stale(0, 3, vec![2.0], 4.0, 4);
        assert_eq!(plane.pending().len(), 2);
        let drained = plane.take_pending();
        assert_eq!(drained.len(), 2);
        assert_eq!((drained[0].edge, drained[0].device), (1, 2));
        assert_eq!((drained[1].edge, drained[1].device), (0, 3));
        assert!(plane.pending().is_empty());
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let cfg = FaultConfig {
            dropout: DropoutModel::Iid { p: 0.4 },
            upload_loss: 0.3,
            ..FaultConfig::default()
        };
        let mut a = FaultPlane::new(cfg, 16, 99);
        let mut b = FaultPlane::new(cfg, 16, 99);
        for _ in 0..50 {
            a.advance_dropout();
            b.advance_dropout();
            assert!((0..16).all(|m| a.is_down(m) == b.is_down(m)));
            assert_eq!(a.upload_attempts(), b.upload_attempts());
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = FaultConfig {
            dropout: DropoutModel::Markov {
                p_fail: 0.2,
                p_recover: 0.4,
            },
            straggler_delay: DelayModel::Pareto {
                scale_s: 0.5,
                shape: 1.5,
            },
            deadline_s: 2.0,
            upload_loss: 0.1,
            upload_retries: 5,
            wan_outage: 0.05,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
