//! The sequential compressor the batch kernels replaced, kept as their
//! oracle: a comparator top-K over an index vector, then one pass that
//! draws each stochastic-rounding uniform as it quantizes.
//!
//! The file is self-contained (it names only `super::RoundingMode`), so
//! the kernel oracle battery of `crates/core/tests/compress_plane.rs`
//! includes it by path beside the crate's own test build.

use super::RoundingMode;
use rand::rngs::StdRng;
use rand::Rng;

/// Transmits `v` exactly, with a zero residual that keeps `−0.0`'s sign.
fn exact_coordinate(v: f64) -> (f64, f64) {
    (v, if v == 0.0 { v } else { 0.0 })
}

/// The reference `compress_delta`: same signature, outputs and draws.
#[allow(clippy::too_many_arguments)] // scratch outputs, not options
pub fn compress_delta_reference(
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
    kept.extend(0..d as u32);
    if k < d {
        // Total order (|v| descending, index ascending).
        let by_magnitude = |a: &u32, b: &u32| {
            let fa = delta[*a as usize].abs();
            let fb = delta[*b as usize].abs();
            fb.total_cmp(&fa).then_with(|| a.cmp(b))
        };
        kept.select_nth_unstable_by(k - 1, by_magnitude);
        kept.truncate(k);
        kept.sort_unstable();
    }
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
            RoundingMode::Stochastic => rng.gen::<f64>() < frac,
        };
        let q = base + if up { 1.0 } else { 0.0 };
        let mut t = lo + q * step;
        let mut r = v - t;
        if (t + r).to_bits() != v.to_bits() {
            (t, r) = exact_coordinate(v);
        }
        sent.push(t);
        residual[i as usize] = r;
    }
}
