//! Run records and convergence metrics: accuracy curves,
//! time-to-accuracy and speedups — the quantities behind Figures 6–8 and
//! the paper's 1.51×–6.85× claim.

use crate::comm::CommStats;
use crate::telemetry::TelemetryReport;
use serde::{Deserialize, Serialize};

/// One evaluation point of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Time step of the evaluation.
    pub step: usize,
    /// Accuracy of the (virtual) global model on the held-out test set.
    pub global_accuracy: f32,
    /// Test loss of the global model.
    pub global_loss: f32,
    /// Per-edge-model accuracies, when edge evaluation was enabled.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub edge_accuracy: Vec<f32>,
    /// Per-class accuracy of the global model, when enabled
    /// (`None` entries = class absent from the test set).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub global_per_class: Vec<Option<f32>>,
    /// Per-class accuracy of edge model 0, when enabled (Figure 1b/2b).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub edge0_per_class: Vec<Option<f32>>,
}

/// Version of the [`RunRecord`] JSON schema. Bump on any
/// breaking field change so sweep and checkpoint files stay
/// forward-parseable.
pub const RUN_RECORD_SCHEMA_VERSION: u32 = 1;

/// The complete measured output of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// [`RUN_RECORD_SCHEMA_VERSION`] at the time the record was
    /// produced (0 when parsed from a pre-versioned file).
    #[serde(default)]
    pub schema_version: u32,
    /// Algorithm display name.
    pub algorithm: String,
    /// Task name.
    pub task: String,
    /// Evaluation points in step order.
    pub points: Vec<EvalPoint>,
    /// Empirical global mobility of the trace actually used.
    pub empirical_mobility: f64,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Model transmissions performed by the run.
    #[serde(default)]
    pub comm: CommStats,
    /// Cloud synchronisations performed.
    #[serde(default)]
    pub syncs: u64,
    /// Steps in which at least one device participated (the wireless
    /// round count of [`CommStats::wall_clock`]); dropout
    /// filtering can leave steps fully inactive.
    #[serde(default)]
    pub active_steps: u64,
    /// Number of f32 parameters in the model the run trained (0 when
    /// parsed from a pre-compression record). Lets byte-exact wall
    /// clocks be recomputed from the record alone.
    #[serde(default)]
    pub param_count: u64,
    /// Telemetry summary, when the run was instrumented
    /// (`SimConfig::telemetry` / `telemetry_jsonl`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub telemetry: Option<TelemetryReport>,
    /// Final simulated-clock reading of an event-driven run (the
    /// timestamp of the last processed event). `None` for lockstep
    /// runs. Deterministic — unlike `wall_seconds`, which is host
    /// timing — but still excluded from bitwise record comparisons,
    /// which contrast lockstep and event-driven runs whose clocks
    /// legitimately differ.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub event_seconds: Option<f64>,
}

impl RunRecord {
    /// Final global accuracy (0.0 for an empty record).
    pub fn final_accuracy(&self) -> f32 {
        self.points.last().map_or(0.0, |p| p.global_accuracy)
    }

    /// Best global accuracy seen.
    pub fn best_accuracy(&self) -> f32 {
        self.points
            .iter()
            .map(|p| p.global_accuracy)
            .fold(0.0, f32::max)
    }

    /// Mean of the last `n` evaluation accuracies — the "final accuracy"
    /// bars of Figure 7 (smoothed, per §6.1.3's smoothing note).
    ///
    /// # Panics
    /// Panics when `n == 0`, mirroring [`RunRecord::smoothed`] — a zero
    /// window is a caller bug, not "the last 1 point".
    pub fn tail_accuracy(&self, n: usize) -> f32 {
        assert!(n > 0, "tail window must be positive");
        if self.points.is_empty() {
            return 0.0;
        }
        let k = n.min(self.points.len());
        let tail = &self.points[self.points.len() - k..];
        // Accumulate in f64 so long tails don't drift: summing thousands
        // of f32 accuracies loses low bits well before the window ends
        // (same failure mode as the edge `window_samples` counter).
        let sum: f64 = tail.iter().map(|p| f64::from(p.global_accuracy)).sum();
        (sum / k as f64) as f32
    }

    /// Simulated communication wall-clock of this run under the
    /// two-tier link model, charging wireless rounds only for the steps
    /// that actually moved models. When the record carries byte-exact
    /// payload counters (every run since the compression plane), rounds
    /// scale with the bytes actually moved
    /// ([`CommStats::wall_clock_bytes`]); older records fall back to
    /// the dense rounds model ([`CommStats::wall_clock`]), which the
    /// byte model reproduces exactly for dense payloads.
    pub fn comm_wall_clock(&self, wireless_s: f64, wan_s: f64) -> f64 {
        if self.param_count > 0 && self.comm.payload_total_bytes() > 0 {
            self.comm.wall_clock_bytes(
                self.active_steps,
                self.syncs,
                wireless_s,
                wan_s,
                self.param_count,
            )
        } else {
            self.comm
                .wall_clock(self.active_steps, self.syncs, wireless_s, wan_s)
        }
    }

    /// First time step whose *smoothed* accuracy reaches `target`
    /// (window-3 moving average, matching the paper's smoothed
    /// presentation). `None` when never reached.
    pub fn time_to_accuracy(&self, target: f32) -> Option<usize> {
        let smooth = self.smoothed(3);
        self.points
            .iter()
            .zip(smooth)
            .find(|(_, s)| *s >= target)
            .map(|(p, _)| p.step)
    }

    /// Moving-average smoothing of the global-accuracy series.
    pub fn smoothed(&self, window: usize) -> Vec<f32> {
        assert!(window > 0, "window must be positive");
        let acc: Vec<f32> = self.points.iter().map(|p| p.global_accuracy).collect();
        (0..acc.len())
            .map(|i| {
                let lo = i.saturating_sub(window - 1);
                let s: f64 = acc[lo..=i].iter().map(|&a| f64::from(a)).sum();
                (s / (i - lo + 1) as f64) as f32
            })
            .collect()
    }

    /// The accuracy series as `(step, accuracy)` pairs.
    pub fn curve(&self) -> Vec<(usize, f32)> {
        self.points
            .iter()
            .map(|p| (p.step, p.global_accuracy))
            .collect()
    }

    /// Dumps the record as CSV (`step,accuracy,loss`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("step,accuracy,loss\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.6},{:.6}\n",
                p.step, p.global_accuracy, p.global_loss
            ));
        }
        out
    }
}

/// Convergence speedup of `fast` over `slow` toward `target` accuracy:
/// `steps(slow) / steps(fast)`.
///
/// Returns `None` when `fast` never reaches the target; when only `slow`
/// fails, the speedup is computed against `slow`'s horizon (a lower
/// bound), matching how the paper reports baselines that never converge.
pub fn speedup(fast: &RunRecord, slow: &RunRecord, target: f32) -> Option<f64> {
    let tf = fast.time_to_accuracy(target)? as f64;
    let ts = match slow.time_to_accuracy(target) {
        Some(t) => t as f64,
        None => slow.points.last().map(|p| p.step)? as f64,
    };
    // A time-to-accuracy of step 0 means the initial model already meets
    // the target; treat as 1 step to keep the ratio finite.
    Some(ts.max(1.0) / tf.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(accs: &[f32]) -> RunRecord {
        RunRecord {
            schema_version: RUN_RECORD_SCHEMA_VERSION,
            algorithm: "test".into(),
            task: "mnist".into(),
            points: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| EvalPoint {
                    step: i * 2,
                    global_accuracy: a,
                    global_loss: 1.0 - a,
                    edge_accuracy: Vec::new(),
                    global_per_class: Vec::new(),
                    edge0_per_class: Vec::new(),
                })
                .collect(),
            empirical_mobility: 0.5,
            wall_seconds: 1.0,
            comm: CommStats::default(),
            syncs: 0,
            active_steps: 0,
            param_count: 0,
            telemetry: None,
            event_seconds: None,
        }
    }

    #[test]
    fn final_best_tail() {
        let r = record(&[0.1, 0.5, 0.9, 0.7]);
        assert_eq!(r.final_accuracy(), 0.7);
        assert_eq!(r.best_accuracy(), 0.9);
        assert!((r.tail_accuracy(2) - 0.8).abs() < 1e-6);
        assert!((r.tail_accuracy(100) - 0.55).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "tail window must be positive")]
    fn tail_accuracy_rejects_zero_window() {
        record(&[0.5, 0.6]).tail_accuracy(0);
    }

    #[test]
    fn long_constant_series_is_exact() {
        // 100k points of a constant whose f32 running sum drifts badly
        // (0.1 is inexact in binary). With f64 accumulation the mean of a
        // constant series must come back as exactly that constant.
        let accs = vec![0.1f32; 100_000];
        let r = record(&accs);
        assert_eq!(r.tail_accuracy(accs.len()).to_bits(), 0.1f32.to_bits());
        let smooth = r.smoothed(1000);
        assert!(
            smooth.iter().all(|&s| s.to_bits() == 0.1f32.to_bits()),
            "smoothed series drifted from the constant input"
        );
    }

    #[test]
    fn comm_wall_clock_uses_active_steps() {
        let mut r = record(&[0.5]);
        r.syncs = 1;
        r.active_steps = 4;
        // 2·4 + 1 wireless rounds, 2 WAN rounds.
        assert!((r.comm_wall_clock(1.0, 10.0) - 29.0).abs() < 1e-9);
    }

    #[test]
    fn comm_wall_clock_uses_byte_model_when_counters_present() {
        let mut r = record(&[0.5]);
        r.syncs = 1;
        r.active_steps = 4;
        r.param_count = 100;
        // Dense byte counters must reproduce the rounds model exactly.
        r.comm.edge_to_device = 8;
        r.comm.device_to_edge = 8;
        r.comm.edge_to_cloud = 2;
        r.comm.cloud_to_edge = 2;
        r.comm.cloud_to_device = 8;
        r.comm.edge_to_device_bytes = 8 * 400;
        r.comm.device_to_edge_bytes = 8 * 400;
        r.comm.edge_to_cloud_bytes = 2 * 400;
        r.comm.cloud_to_edge_bytes = 2 * 400;
        r.comm.cloud_to_device_bytes = 8 * 400;
        assert!((r.comm_wall_clock(1.0, 10.0) - 29.0).abs() < 1e-9);
        // Halving uplink bytes shrinks the clock.
        r.comm.device_to_edge_bytes = 8 * 200;
        assert!(r.comm_wall_clock(1.0, 10.0) < 29.0 - 1.0);
    }

    #[test]
    fn time_to_accuracy_uses_smoothing() {
        // Raw series spikes to 0.9 once at index 1 then collapses; the
        // window-3 smoothed series must not trigger on the spike.
        let r = record(&[0.0, 0.9, 0.0, 0.0, 0.8, 0.85, 0.9]);
        let t = r.time_to_accuracy(0.8).unwrap();
        assert!(t >= 8, "triggered too early at {t}");
    }

    #[test]
    fn time_to_accuracy_none_when_unreached() {
        assert_eq!(record(&[0.1, 0.2]).time_to_accuracy(0.9), None);
    }

    #[test]
    fn smoothing_window_one_is_identity() {
        let r = record(&[0.3, 0.6, 0.2]);
        assert_eq!(r.smoothed(1), vec![0.3, 0.6, 0.2]);
    }

    #[test]
    fn speedup_ratios() {
        let fast = record(&[0.5, 0.8, 0.9, 0.9, 0.9]);
        let slow = record(&[0.1, 0.2, 0.3, 0.8, 0.9]);
        // smoothed(3) fast reaches 0.85 around index 3 (step 6); slow at
        // index 4 (step 8) or never — just check ordering > 1.
        let s = speedup(&fast, &slow, 0.8).unwrap();
        assert!(s > 1.0, "speedup {s}");
    }

    #[test]
    fn speedup_none_when_fast_fails() {
        let fast = record(&[0.1, 0.1]);
        let slow = record(&[0.9, 0.9]);
        assert_eq!(speedup(&fast, &slow, 0.8), None);
    }

    #[test]
    fn speedup_uses_horizon_when_slow_fails() {
        let fast = record(&[0.9, 0.9, 0.9, 0.9, 0.9]);
        let slow = record(&[0.1, 0.1, 0.1, 0.1, 0.1]);
        let s = speedup(&fast, &slow, 0.8).unwrap();
        assert!(s >= 8.0, "horizon-bound speedup {s}");
    }

    #[test]
    fn legacy_record_json_parses_as_version_zero() {
        let json = serde_json::to_string(&record(&[0.5])).unwrap();
        let stripped = json.replace("\"schema_version\":1,", "");
        assert_ne!(json, stripped, "schema_version missing from JSON");
        let back: RunRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.schema_version, 0);
        assert_eq!(back.final_accuracy(), 0.5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = record(&[0.5]).to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("step,accuracy,loss"));
        assert_eq!(lines.next(), Some("0,0.500000,0.500000"));
    }
}
