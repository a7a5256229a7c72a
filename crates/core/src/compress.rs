//! The compression plane: quantized + sparsified uplinks with error
//! feedback.
//!
//! The paper motivates the device-edge-cloud hierarchy by wireless and
//! WAN communication cost (§1, §7), and the hierarchical-FL literature
//! treats uplink volume as the binding constraint. This module lets the
//! simulator trade uplink bytes against accuracy: update *deltas* on
//! device→edge uploads and edge→cloud syncs are top-K sparsified and
//! uniformly quantized (QSGD-style, configurable bits), and the mass a
//! compressed upload drops is kept in a per-sender error-feedback
//! residual so it re-enters later rounds instead of vanishing.
//! Downlinks (edge→device and cloud→edge/device broadcasts) stay dense:
//! the paper's cost model, like most deployments, is uplink-bound.
//!
//! Determinism contract, mirroring [`crate::faults`]:
//!
//! * all stochastic rounding draws come from one dedicated RNG stream
//!   (`derive_seed(seed, 10)`) owned by [`CompressionPlane`], never from
//!   the selection / availability / fault streams;
//! * a disabled or lossless configuration performs **no** draw, **no**
//!   delta computation and **no** allocation — the simulation is bitwise
//!   identical to one without the plane (gated by
//!   `tests/hotpath_equiv.rs`);
//! * the compressed aggregation arms live in [`crate::Simulation`]'s
//!   one round skeleton, outside its `StepMode` dispatch points, so
//!   fast and reference mode stay interchangeable under compression.
//!
//! Conservation contract: for every coordinate, the transmitted grid
//! value `t` and the sender-side residual `r` satisfy `t + r == delta`
//! *bitwise* in `f64`. A plain `r = delta − t` cannot guarantee this
//! (when `|t| ≫ |delta|` the subtraction rounds and `t + r` lands on a
//! neighbouring float), so [`compress_delta`] verifies the identity per
//! coordinate and falls back to transmitting the exact value (`t =
//! delta`, `r = 0`) when the grid value is not exactly recoverable —
//! the escape-code analogue of lossless coders. The fallback only
//! triggers for coordinates whose quantized value drowns the true delta,
//! where quantization was pointless anyway.

use crate::checkpoint::{CompressionPlaneCheckpoint, RngStateCheckpoint};
use middle_nn::serialize::Packed;
use middle_tensor::random::{derive_seed, rng};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RNG stream index of the compression plane (see DESIGN.md §4).
pub const COMPRESSION_STREAM: u64 = 10;

/// Wire-format overhead of one compressed payload: the dequantization
/// grid origin and step, each an `f64`.
pub const COMPRESSED_HEADER_BYTES: u64 = 16;

fn default_bits() -> u32 {
    32
}

fn default_top_frac() -> f64 {
    1.0
}

fn default_rounding() -> RoundingMode {
    RoundingMode::Stochastic
}

fn default_error_feedback() -> bool {
    true
}

/// How a value between two quantization grid points is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Round to the nearest grid point: worst-case error `step / 2`,
    /// but biased towards the grid.
    Nearest,
    /// QSGD-style stochastic rounding: round up with probability equal
    /// to the fractional position between the two neighbouring grid
    /// points. Unbiased (`E[dequant] == value`), worst-case error
    /// `< step`.
    Stochastic,
}

/// Uplink compression configuration. Off by default; a default-valued
/// config is bitwise inert (no draws, no delta computation, dense
/// payload accounting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Master switch. `false` (the default) bypasses the plane entirely.
    #[serde(default)]
    pub enabled: bool,
    /// Quantization bit-width for transmitted delta values, in
    /// `1..=32`. `32` (the default) transmits values losslessly.
    #[serde(default = "default_bits")]
    pub quantize_bits: u32,
    /// Fraction of coordinates kept by top-K sparsification, in
    /// `(0, 1]`. The kept count is `ceil(top_frac · d)`, at least 1.
    /// `1.0` (the default) keeps every coordinate.
    #[serde(default = "default_top_frac")]
    pub top_frac: f64,
    /// Rounding mode for quantization. Stochastic (the default) is the
    /// unbiased QSGD estimator; nearest halves the worst-case error.
    #[serde(default = "default_rounding")]
    pub rounding: RoundingMode,
    /// Keep the untransmitted mass (quantization error + dropped
    /// coordinates) in a per-sender residual added to the next delta.
    /// On by default; disabling it turns the plane into memoryless
    /// lossy compression.
    #[serde(default = "default_error_feedback")]
    pub error_feedback: bool,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            enabled: false,
            quantize_bits: default_bits(),
            top_frac: default_top_frac(),
            rounding: default_rounding(),
            error_feedback: default_error_feedback(),
        }
    }
}

impl CompressionConfig {
    /// `true` when the configured operators cannot change any payload:
    /// full-width values and every coordinate kept.
    pub fn is_lossless(&self) -> bool {
        self.quantize_bits >= 32 && self.top_frac >= 1.0
    }

    /// `true` when the plane actually rewrites uploads: enabled *and*
    /// configured with a lossy operator. An enabled-but-lossless plane
    /// short-circuits so off-vs-lossless runs are bitwise identical by
    /// construction (an `f32` wire format cannot round-trip
    /// `reference + (new − reference)` exactly; skipping the delta
    /// arithmetic entirely can).
    pub fn lossy_active(&self) -> bool {
        self.enabled && !self.is_lossless()
    }

    /// Validates field ranges (checked even while disabled, so a bad
    /// config cannot hide behind `enabled: false`).
    ///
    /// # Errors
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=32).contains(&self.quantize_bits) {
            return Err(format!(
                "compression.quantize_bits must be in 1..=32, got {}",
                self.quantize_bits
            ));
        }
        if !self.top_frac.is_finite() || self.top_frac <= 0.0 || self.top_frac > 1.0 {
            return Err(format!(
                "compression.top_frac must be a finite value in (0, 1], got {}",
                self.top_frac
            ));
        }
        Ok(())
    }
}

/// Number of coordinates top-K keeps out of `d` at fraction `frac`:
/// `ceil(frac · d)` clamped to `1..=d` (`0` only when `d == 0`).
pub fn keep_count(d: usize, frac: f64) -> usize {
    if d == 0 {
        return 0;
    }
    ((frac * d as f64).ceil() as usize).clamp(1, d)
}

/// Analytic wire size in bytes of one compressed payload of dimension
/// `d` with `k` kept coordinates at `bits` bits per value.
///
/// Dense payloads (every coordinate kept at full width) cost the
/// classic `4 · d` (f32 per parameter). Lossy payloads cost a
/// [`COMPRESSED_HEADER_BYTES`] grid header plus `k` packed records of
/// `bits` value bits and, when `k < d`, `ceil(log2(d))` index bits.
/// The size depends only on the configuration and dimension — not on
/// the data — which is what lets retransmissions and stale uploads be
/// charged without re-running the compressor.
pub fn compressed_payload_bytes(d: usize, k: usize, bits: u32) -> u64 {
    if d == 0 {
        return 0;
    }
    let k = k.min(d);
    if k == d && bits >= 32 {
        return 4 * d as u64;
    }
    let value_bits = u64::from(bits.min(32));
    let idx_bits = if k == d {
        0
    } else {
        u64::from(usize::BITS - (d - 1).leading_zeros())
    };
    COMPRESSED_HEADER_BYTES + (k as u64 * (value_bits + idx_bits)).div_ceil(8)
}

/// Pushes the coordinate exactly: transmitted value is the raw delta and
/// the residual is a zero that reconstructs bitwise (`-0.0` for a
/// negative-zero delta, since `-0.0 + 0.0 == +0.0` would flip the sign
/// bit).
#[inline]
fn exact_coordinate(v: f64) -> (f64, f64) {
    (v, if v == 0.0 { v } else { 0.0 })
}

/// Compresses one update delta: top-`k` sparsification followed by
/// uniform quantization of the kept values onto a `2^bits`-point grid
/// spanning their range.
///
/// Outputs, all overwritten:
/// * `kept` — the surviving coordinate indices, ascending;
/// * `sent` — the transmitted (dequantized) values, parallel to `kept`;
/// * `residual` — the full-dimension sender-side remainder, satisfying
///   `sent + residual == delta` bitwise per coordinate (dropped
///   coordinates carry their entire delta).
///
/// Stochastic rounding draws exactly one uniform per kept coordinate
/// from `rng`; nearest rounding, `bits >= 32`, and degenerate grids
/// (all kept values equal, or non-finite range) draw nothing.
#[allow(clippy::too_many_arguments)] // scratch outputs, not options
pub fn compress_delta(
    delta: &[f64],
    bits: u32,
    k: usize,
    mode: RoundingMode,
    rng: &mut StdRng,
    kept: &mut Vec<u32>,
    sent: &mut Vec<f64>,
    residual: &mut Vec<f64>,
) {
    let d = delta.len();
    let k = k.min(d);
    residual.clear();
    residual.extend_from_slice(delta);
    kept.clear();
    sent.clear();
    if d == 0 || k == 0 {
        return;
    }
    debug_assert!(
        d <= u32::MAX as usize,
        "delta dimension exceeds u32 indices"
    );
    kept.extend(0..d as u32);
    if k < d {
        // Total order (|v| descending, index ascending) makes the
        // partition deterministic even across equal magnitudes and NaNs.
        let by_magnitude = |a: &u32, b: &u32| {
            let fa = delta[*a as usize].abs();
            let fb = delta[*b as usize].abs();
            fb.total_cmp(&fa).then_with(|| a.cmp(b))
        };
        kept.select_nth_unstable_by(k - 1, by_magnitude);
        kept.truncate(k);
        kept.sort_unstable();
    }
    sent.reserve(k);

    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &i in kept.iter() {
        let v = delta[i as usize];
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let levels = if bits >= 32 { 0 } else { 1u64 << bits };
    let step = if levels >= 2 {
        (hi - lo) / (levels - 1) as f64
    } else {
        0.0
    };
    if bits >= 32 || step <= 0.0 || !step.is_finite() {
        // Lossless width or a degenerate grid: transmit kept values
        // exactly, no draws.
        for &i in kept.iter() {
            let (t, r) = exact_coordinate(delta[i as usize]);
            sent.push(t);
            residual[i as usize] = r;
        }
        return;
    }
    let max_q = (levels - 1) as f64;
    for &i in kept.iter() {
        let v = delta[i as usize];
        let x = ((v - lo) / step).clamp(0.0, max_q);
        let base = x.floor().min(max_q - 1.0);
        let frac = (x - base).clamp(0.0, 1.0);
        let up = match mode {
            RoundingMode::Nearest => frac >= 0.5,
            // Always draw so the stream advances exactly once per kept
            // coordinate regardless of the value.
            RoundingMode::Stochastic => rng.gen::<f64>() < frac,
        };
        let q = base + if up { 1.0 } else { 0.0 };
        let mut t = lo + q * step;
        let mut r = v - t;
        if (t + r).to_bits() != v.to_bits() {
            // The grid value is not exactly recoverable from a single
            // f64 residual; transmit the exact value instead.
            (t, r) = exact_coordinate(v);
        }
        sent.push(t);
        residual[i as usize] = r;
    }
}

/// Applies a sparse compressed delta to a dense `f32` reference:
/// `out[i] = f32(f64(reference[i]) + sent[i])` on kept coordinates,
/// `out[i] = reference[i]` bitwise elsewhere.
pub fn apply_sparse_delta(reference: &[f32], kept: &[u32], sent: &[f64], out: &mut Vec<f32>) {
    assert_eq!(kept.len(), sent.len(), "kept/sent length mismatch");
    out.clear();
    out.extend_from_slice(reference);
    for (&i, &t) in kept.iter().zip(sent.iter()) {
        let i = i as usize;
        out[i] = (f64::from(reference[i]) + t) as f32;
    }
}

/// Runtime state of the compression plane for one simulation: the
/// dedicated RNG stream, per-sender error-feedback residuals, and the
/// scratch buffers that keep the hot path allocation-free after warmup.
#[derive(Debug)]
pub struct CompressionPlane {
    cfg: CompressionConfig,
    lossy: bool,
    param_count: usize,
    keep: usize,
    payload: u64,
    rng: StdRng,
    /// Per-device residuals, lazily sized on first use; an empty vec
    /// means all-zero. Unused (always empty) when error feedback is off
    /// or the plane is not lossy-active.
    device_residuals: Vec<Vec<f64>>,
    /// Per-edge residuals for edge→cloud syncs, same convention.
    edge_residuals: Vec<Vec<f64>>,
    delta: Vec<f64>,
    kept: Vec<u32>,
    sent: Vec<f64>,
    residual_out: Vec<f64>,
    recon: Vec<f32>,
}

impl CompressionPlane {
    /// Builds the plane for a simulation with the given population and
    /// model size, deriving its RNG from stream [`COMPRESSION_STREAM`].
    pub fn new(
        cfg: CompressionConfig,
        num_devices: usize,
        num_edges: usize,
        param_count: usize,
        seed: u64,
    ) -> Self {
        let lossy = cfg.lossy_active();
        let keep = keep_count(param_count, cfg.top_frac);
        let payload = if lossy {
            compressed_payload_bytes(param_count, keep, cfg.quantize_bits)
        } else {
            4 * param_count as u64
        };
        CompressionPlane {
            rng: rng(derive_seed(seed, COMPRESSION_STREAM)),
            cfg,
            lossy,
            param_count,
            keep,
            payload,
            device_residuals: vec![Vec::new(); num_devices],
            edge_residuals: vec![Vec::new(); num_edges],
            delta: Vec::new(),
            kept: Vec::new(),
            sent: Vec::new(),
            residual_out: Vec::new(),
            recon: Vec::new(),
        }
    }

    /// The configuration the plane was built from.
    pub fn config(&self) -> &CompressionConfig {
        &self.cfg
    }

    /// `true` when uploads are actually rewritten (see
    /// [`CompressionConfig::lossy_active`]).
    pub fn lossy_active(&self) -> bool {
        self.lossy
    }

    /// Wire bytes of one uplink payload (device→edge upload or
    /// edge→cloud sync) under the current configuration: the analytic
    /// compressed size when lossy-active, the dense `4 · d` otherwise.
    pub fn payload_bytes(&self) -> u64 {
        self.payload
    }

    /// Wire bytes of one dense (uncompressed) model transfer.
    pub fn dense_payload_bytes(&self) -> u64 {
        4 * self.param_count as u64
    }

    /// Compresses a device→edge upload and returns the model the edge
    /// reconstructs: `reference + decompress(compress(delta))` where
    /// `delta = new − reference (+ residual)`. Updates the device's
    /// error-feedback residual. Must only be called when
    /// [`Self::lossy_active`].
    pub fn compress_device_upload(
        &mut self,
        device: usize,
        new_flat: &[f32],
        reference_flat: &[f32],
    ) -> &[f32] {
        debug_assert!(self.lossy, "compress called on an inert plane");
        let Self {
            cfg,
            keep,
            param_count,
            rng,
            device_residuals,
            delta,
            kept,
            sent,
            residual_out,
            recon,
            ..
        } = self;
        compress_pass(
            cfg,
            *keep,
            *param_count,
            new_flat,
            reference_flat,
            &mut device_residuals[device],
            rng,
            delta,
            kept,
            sent,
            residual_out,
            recon,
        );
        recon
    }

    /// Compresses an edge→cloud sync upload, same contract as
    /// [`Self::compress_device_upload`] with the edge's residual.
    pub fn compress_edge_sync(
        &mut self,
        edge: usize,
        new_flat: &[f32],
        reference_flat: &[f32],
    ) -> &[f32] {
        debug_assert!(self.lossy, "compress called on an inert plane");
        let Self {
            cfg,
            keep,
            param_count,
            rng,
            edge_residuals,
            delta,
            kept,
            sent,
            residual_out,
            recon,
            ..
        } = self;
        compress_pass(
            cfg,
            *keep,
            *param_count,
            new_flat,
            reference_flat,
            &mut edge_residuals[edge],
            rng,
            delta,
            kept,
            sent,
            residual_out,
            recon,
        );
        recon
    }

    /// The plane's RNG stream, for checkpointing.
    pub fn rng_ref(&self) -> &StdRng {
        &self.rng
    }

    /// Captures the plane's mutable state (RNG + residuals) for a
    /// checkpoint. Returns `None` when the plane is inert — there is
    /// nothing to capture.
    pub fn state_checkpoint(&self) -> Option<CompressionPlaneCheckpoint> {
        if !self.lossy {
            return None;
        }
        Some(CompressionPlaneCheckpoint {
            rng: RngStateCheckpoint::capture(&self.rng),
            device_residuals: self.device_residuals.iter().cloned().map(Packed).collect(),
            edge_residuals: self.edge_residuals.iter().cloned().map(Packed).collect(),
        })
    }

    /// Restores the plane's mutable state from a checkpoint previously
    /// produced by [`Self::state_checkpoint`] on an identically
    /// configured plane.
    ///
    /// # Errors
    /// Rejects residual shapes that do not match this plane's
    /// population or parameter count.
    pub fn restore_state(&mut self, ck: &CompressionPlaneCheckpoint) -> Result<(), String> {
        if ck.device_residuals.len() != self.device_residuals.len() {
            return Err(format!(
                "checkpoint has {} device residuals, simulation has {}",
                ck.device_residuals.len(),
                self.device_residuals.len()
            ));
        }
        if ck.edge_residuals.len() != self.edge_residuals.len() {
            return Err(format!(
                "checkpoint has {} edge residuals, simulation has {}",
                ck.edge_residuals.len(),
                self.edge_residuals.len()
            ));
        }
        for r in ck.device_residuals.iter().chain(ck.edge_residuals.iter()) {
            if !r.is_empty() && r.len() != self.param_count {
                return Err(format!(
                    "checkpoint residual has {} coordinates, model has {}",
                    r.len(),
                    self.param_count
                ));
            }
        }
        self.rng = ck.rng.restore();
        self.device_residuals = ck.device_residuals.iter().map(|r| r.0.clone()).collect();
        self.edge_residuals = ck.edge_residuals.iter().map(|r| r.0.clone()).collect();
        Ok(())
    }
}

/// Shared body of the two `compress_*` entry points: forms the
/// error-feedback-augmented delta, compresses it, stores the new
/// residual, and reconstructs the receiver-side model into `recon`.
#[allow(clippy::too_many_arguments)]
fn compress_pass(
    cfg: &CompressionConfig,
    keep: usize,
    param_count: usize,
    new_flat: &[f32],
    reference_flat: &[f32],
    residual_slot: &mut Vec<f64>,
    rng: &mut StdRng,
    delta: &mut Vec<f64>,
    kept: &mut Vec<u32>,
    sent: &mut Vec<f64>,
    residual_out: &mut Vec<f64>,
    recon: &mut Vec<f32>,
) {
    assert_eq!(new_flat.len(), param_count, "upload dimension mismatch");
    assert_eq!(
        reference_flat.len(),
        param_count,
        "reference dimension mismatch"
    );
    delta.clear();
    if cfg.error_feedback && !residual_slot.is_empty() {
        delta.extend(
            new_flat
                .iter()
                .zip(reference_flat.iter())
                .zip(residual_slot.iter())
                .map(|((&n, &r), &e)| f64::from(n) - f64::from(r) + e),
        );
    } else {
        delta.extend(
            new_flat
                .iter()
                .zip(reference_flat.iter())
                .map(|(&n, &r)| f64::from(n) - f64::from(r)),
        );
    }
    compress_delta(
        delta,
        cfg.quantize_bits,
        keep,
        cfg.rounding,
        rng,
        kept,
        sent,
        residual_out,
    );
    if cfg.error_feedback {
        std::mem::swap(residual_slot, residual_out);
    }
    apply_sparse_delta(reference_flat, kept, sent, recon);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn compress_once(
        delta: &[f64],
        bits: u32,
        k: usize,
        mode: RoundingMode,
        seed: u64,
    ) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut kept, mut sent, mut residual) = (Vec::new(), Vec::new(), Vec::new());
        compress_delta(
            delta,
            bits,
            k,
            mode,
            &mut rng,
            &mut kept,
            &mut sent,
            &mut residual,
        );
        (kept, sent, residual)
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = CompressionConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.is_lossless());
        assert!(!cfg.lossy_active());
        cfg.validate().unwrap();
    }

    #[test]
    fn enabled_lossless_is_not_lossy_active() {
        let cfg = CompressionConfig {
            enabled: true,
            ..CompressionConfig::default()
        };
        assert!(!cfg.lossy_active());
        let lossy = CompressionConfig {
            enabled: true,
            quantize_bits: 8,
            ..CompressionConfig::default()
        };
        assert!(lossy.lossy_active());
    }

    #[test]
    fn validate_catches_violations() {
        let mut cfg = CompressionConfig {
            quantize_bits: 0,
            ..CompressionConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.quantize_bits = 33;
        assert!(cfg.validate().is_err());
        cfg = CompressionConfig::default();
        cfg.top_frac = 0.0;
        assert!(cfg.validate().is_err());
        cfg.top_frac = 1.5;
        assert!(cfg.validate().is_err());
        cfg.top_frac = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = CompressionConfig {
            enabled: true,
            quantize_bits: 6,
            top_frac: 0.25,
            rounding: RoundingMode::Nearest,
            error_feedback: false,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: CompressionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Absent fields take the documented defaults.
        let defaults: CompressionConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(defaults, CompressionConfig::default());
    }

    #[test]
    fn keep_count_bounds() {
        assert_eq!(keep_count(0, 0.5), 0);
        assert_eq!(keep_count(10, 1.0), 10);
        assert_eq!(keep_count(10, 0.25), 3); // ceil(2.5)
        assert_eq!(keep_count(10, 1e-9), 1);
        assert_eq!(keep_count(7850, 0.05), 393);
    }

    #[test]
    fn payload_bytes_formula() {
        // Dense: classic 4 bytes per f32 parameter, no header.
        assert_eq!(compressed_payload_bytes(7850, 7850, 32), 4 * 7850);
        // 7850 coordinates need 13 index bits.
        let k = 1963;
        assert_eq!(
            compressed_payload_bytes(7850, k, 8),
            16 + (k as u64 * (8 + 13)).div_ceil(8)
        );
        // Full-K but narrow values: no index bits, but still a header.
        assert_eq!(
            compressed_payload_bytes(100, 100, 4),
            16 + (100u64 * 4).div_ceil(8)
        );
        assert_eq!(compressed_payload_bytes(0, 0, 8), 0);
    }

    #[test]
    fn tier1_grid_has_a_4x_cell() {
        let dense = compressed_payload_bytes(7850, 7850, 32);
        let k = keep_count(7850, 0.25);
        let c = compressed_payload_bytes(7850, k, 8);
        assert!(dense as f64 / c as f64 >= 4.0, "{dense} / {c}");
    }

    #[test]
    fn nearest_rounding_error_bounded_by_half_step() {
        let delta: Vec<f64> = (0..64)
            .map(|i| ((i * 37 % 64) as f64 - 31.0) * 0.11)
            .collect();
        let bits = 5;
        let (kept, sent, _) = compress_once(&delta, bits, delta.len(), RoundingMode::Nearest, 1);
        let lo = delta.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = delta.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let step = (hi - lo) / ((1u64 << bits) - 1) as f64;
        for (&i, &t) in kept.iter().zip(&sent) {
            let err = (t - delta[i as usize]).abs();
            assert!(err <= step / 2.0 + 1e-12, "err {err} step {step}");
        }
    }

    #[test]
    fn conservation_is_bitwise_even_for_drowned_coordinates() {
        // 1e-20 between −1 and 1 at 1 bit: the grid value 1.0 drowns the
        // delta; the exact fallback must still reconstruct bitwise.
        let delta = [-1.0, 1e-20, 1.0];
        for mode in [RoundingMode::Nearest, RoundingMode::Stochastic] {
            let (kept, sent, residual) = compress_once(&delta, 1, 3, mode, 9);
            let mut recon = residual.clone();
            for (&i, &t) in kept.iter().zip(&sent) {
                recon[i as usize] = t + residual[i as usize];
            }
            for (r, d) in recon.iter().zip(&delta) {
                assert_eq!(r.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn negative_zero_survives_conservation() {
        let delta = [-0.0, 5.0, -3.0];
        let (kept, sent, residual) = compress_once(&delta, 2, 3, RoundingMode::Nearest, 3);
        for (&i, &t) in kept.iter().zip(&sent) {
            let r = t + residual[i as usize];
            assert_eq!(r.to_bits(), delta[i as usize].to_bits(), "coord {i}");
        }
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let delta = [0.1, -5.0, 0.0, 3.0, -0.2, 4.0];
        let (kept, _, residual) = compress_once(&delta, 32, 3, RoundingMode::Nearest, 4);
        assert_eq!(kept, vec![1, 3, 5]);
        // Dropped coordinates carry their whole delta in the residual.
        assert_eq!(residual[0], 0.1);
        assert_eq!(residual[2], 0.0);
        assert_eq!(residual[4], -0.2);
    }

    #[test]
    fn lossless_settings_round_trip_bitwise() {
        let delta: Vec<f64> = (0..33).map(|i| (f64::from(i) * 0.37).sin() * 1e3).collect();
        let (kept, sent, residual) =
            compress_once(&delta, 32, delta.len(), RoundingMode::Stochastic, 5);
        assert_eq!(kept.len(), delta.len());
        for (&i, &t) in kept.iter().zip(&sent) {
            assert_eq!(t.to_bits(), delta[i as usize].to_bits());
            assert_eq!(residual[i as usize], 0.0);
        }
    }

    #[test]
    fn stochastic_draws_once_per_kept_coordinate() {
        let delta: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.5).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut kept, mut sent, mut residual) = (Vec::new(), Vec::new(), Vec::new());
        compress_delta(
            &delta,
            4,
            7,
            RoundingMode::Stochastic,
            &mut rng,
            &mut kept,
            &mut sent,
            &mut residual,
        );
        // Reference stream: 7 draws exactly.
        let mut expected = StdRng::seed_from_u64(11);
        for _ in 0..7 {
            expected.gen::<f64>();
        }
        assert_eq!(rng.state(), expected.state());
        // Nearest mode and lossless width draw nothing.
        let mut rng = StdRng::seed_from_u64(11);
        compress_delta(
            &delta,
            4,
            7,
            RoundingMode::Nearest,
            &mut rng,
            &mut kept,
            &mut sent,
            &mut residual,
        );
        compress_delta(
            &delta,
            32,
            7,
            RoundingMode::Stochastic,
            &mut rng,
            &mut kept,
            &mut sent,
            &mut residual,
        );
        assert_eq!(rng.state(), StdRng::seed_from_u64(11).state());
    }

    #[test]
    fn apply_sparse_delta_leaves_untouched_coordinates_bitwise() {
        let reference = [1.5f32, -2.25, 0.75, 8.0];
        let kept = [1u32, 3];
        let sent = [0.25f64, -1.0];
        let mut out = Vec::new();
        apply_sparse_delta(&reference, &kept, &sent, &mut out);
        assert_eq!(out[0].to_bits(), reference[0].to_bits());
        assert_eq!(out[2].to_bits(), reference[2].to_bits());
        assert_eq!(out[1], -2.0);
        assert_eq!(out[3], 7.0);
    }

    #[test]
    fn error_feedback_residual_reenters_next_upload() {
        let d = 8;
        let mut plane = CompressionPlane::new(
            CompressionConfig {
                enabled: true,
                quantize_bits: 2,
                top_frac: 0.5,
                rounding: RoundingMode::Nearest,
                error_feedback: true,
            },
            1,
            1,
            d,
            42,
        );
        let reference = vec![0.0f32; d];
        let new: Vec<f32> = (0..d).map(|i| i as f32 * 0.125).collect();
        plane.compress_device_upload(0, &new, &reference);
        let residual_mass: f64 = plane.device_residuals[0].iter().map(|r| r.abs()).sum();
        assert!(residual_mass > 0.0, "lossy compression must leave residual");
        // Uploading an unchanged model now transmits the stored residual.
        let recon2 = plane
            .compress_device_upload(0, &reference, &reference)
            .to_vec();
        assert!(
            recon2.iter().any(|&v| v != 0.0),
            "residual mass must re-enter"
        );
    }

    #[test]
    fn plane_checkpoint_round_trips() {
        let cfg = CompressionConfig {
            enabled: true,
            quantize_bits: 6,
            top_frac: 0.5,
            rounding: RoundingMode::Stochastic,
            error_feedback: true,
        };
        let d = 16;
        let mut plane = CompressionPlane::new(cfg.clone(), 3, 2, d, 7);
        let reference = vec![0.5f32; d];
        let new: Vec<f32> = (0..d).map(|i| (i as f32).sin()).collect();
        plane.compress_device_upload(1, &new, &reference);
        plane.compress_edge_sync(0, &new, &reference);
        let ck = plane.state_checkpoint().expect("lossy plane checkpoints");
        let json = serde_json::to_string(&ck).unwrap();
        let back: CompressionPlaneCheckpoint = serde_json::from_str(&json).unwrap();
        let mut restored = CompressionPlane::new(cfg, 3, 2, d, 999);
        restored.restore_state(&back).unwrap();
        // Both planes must now produce identical compressions.
        let a = plane.compress_device_upload(1, &new, &reference).to_vec();
        let b = restored
            .compress_device_upload(1, &new, &reference)
            .to_vec();
        assert_eq!(a, b);
        assert_eq!(plane.rng.state(), restored.rng.state());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let cfg = CompressionConfig {
            enabled: true,
            quantize_bits: 4,
            top_frac: 0.5,
            rounding: RoundingMode::Nearest,
            error_feedback: true,
        };
        let plane = CompressionPlane::new(cfg.clone(), 2, 1, 8, 1);
        let ck = plane.state_checkpoint().unwrap();
        let mut wrong_pop = CompressionPlane::new(cfg.clone(), 3, 1, 8, 1);
        assert!(wrong_pop.restore_state(&ck).is_err());
        let mut wrong_dim = CompressionPlane::new(cfg, 2, 1, 4, 1);
        let mut bad = ck.clone();
        bad.device_residuals[0] = Packed(vec![0.0; 8]);
        assert!(wrong_dim.restore_state(&bad).is_err());
    }
}
