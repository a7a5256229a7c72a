//! Flat parameter-vector view of a model.
//!
//! Federated aggregation treats a whole model as one vector `w ∈ R^d`:
//! cosine similarity (paper Eq. 8), convex blends (Eq. 9), accumulated
//! updates `Δw = w_m − w_c` (Eq. 10) and FedAvg means (Eqs. 6–7) all
//! operate on this view. A [`Sequential`] holds its parameters as one
//! plane in canonical order ([`Sequential::params`]), so the view is the
//! model's own storage: reading it copies nothing.
//!
//! Two families of primitives coexist:
//!
//! * *allocating* reference functions ([`flatten`], [`blend`],
//!   [`weighted_average`], [`delta`]) — one fresh vector / model clone
//!   per call, kept as the numerical oracle for equivalence tests;
//! * *in-place* hot-path primitives ([`zero_params`], [`axpy`],
//!   [`axpy2`], [`blend_into`]) — one loop over the planes, zero
//!   allocations per call, element-for-element bit-identical to the
//!   reference family (same per-element arithmetic and accumulation
//!   order).

use crate::model::Sequential;
use middle_tensor::ops::dot_slices;

/// A standalone copy of a model's parameters with its squared L2 norm.
///
/// No model, device, edge or cloud holds one: each reads its own plane
/// ([`Sequential::params`]) and caches the norm beside it. The copy
/// stays for callers outside the workspace that time a flatten-and-norm
/// pass.
#[derive(Clone, Debug, Default)]
pub struct FlatView {
    buf: Vec<f32>,
    norm_sq: f32,
}

impl FlatView {
    /// A copy of `model`'s current parameters and their squared norm.
    pub fn of(model: &Sequential) -> Self {
        let mut v = FlatView::default();
        v.refresh(model);
        v
    }

    /// Kept for callers that mark a copy stale before refreshing it. A
    /// copy has no state to mark: this does nothing, and the copy keeps
    /// the values of its last [`FlatView::refresh`].
    pub fn invalidate(&mut self) {}

    /// Re-copies `model`'s parameters and recomputes the norm, reusing
    /// the buffer's allocation.
    pub fn refresh(&mut self, model: &Sequential) {
        flatten_into(model, &mut self.buf);
        self.norm_sq = dot_slices(&self.buf, &self.buf);
    }

    /// The copied parameter vector.
    pub fn flat(&self) -> &[f32] {
        &self.buf
    }

    /// Its squared L2 norm `‖w‖²` ([`dot_slices`] of the vector with
    /// itself).
    pub fn norm_sq(&self) -> f32 {
        self.norm_sq
    }
}

/// Copies all parameters of `model` into a new flat vector.
pub fn flatten(model: &Sequential) -> Vec<f32> {
    model.params().to_vec()
}

/// Copies all parameters of `model` into `buf`, reusing its allocation.
pub fn flatten_into(model: &Sequential, buf: &mut Vec<f32>) {
    buf.clear();
    buf.extend_from_slice(model.params());
}

/// Writes a flat vector into `model`'s parameter plane.
///
/// # Panics
/// Panics when `flat.len() != model.param_count()`.
pub fn unflatten(model: &mut Sequential, flat: &[f32]) {
    assert_eq!(
        flat.len(),
        model.param_count(),
        "flat parameter vector length mismatch"
    );
    model.params_mut().copy_from_slice(flat);
}

/// Convex blend `alpha * a + (1 - alpha) * b` written into a fresh clone
/// of `a` (on-device model aggregation's arithmetic core).
///
/// # Panics
/// Panics when the architectures differ or `alpha` is outside `[0, 1]`.
pub fn blend(a: &Sequential, b: &Sequential, alpha: f32) -> Sequential {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    let (fa, fb) = (flatten(a), flatten(b));
    assert_eq!(fa.len(), fb.len(), "model architecture mismatch");
    let blended: Vec<f32> = fa
        .iter()
        .zip(&fb)
        .map(|(&x, &y)| alpha * x + (1.0 - alpha) * y)
        .collect();
    let mut out = a.clone();
    unflatten(&mut out, &blended);
    out
}

/// Weighted FedAvg of several models' parameters (weights are raw sample
/// counts; normalised internally), written into a clone of the first.
///
/// # Panics
/// Panics when `models` is empty, architectures differ, or weights are not
/// positive-summing non-negative finite values.
pub fn weighted_average(models: &[&Sequential], weights: &[f32]) -> Sequential {
    assert!(!models.is_empty(), "weighted_average of no models");
    assert_eq!(models.len(), weights.len(), "weights length mismatch");
    let total: f32 = weights.iter().sum();
    assert!(
        total > 0.0 && weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be non-negative with positive sum"
    );
    let d = models[0].param_count();
    let mut acc = vec![0.0f32; d];
    let mut buf = Vec::with_capacity(d);
    for (m, &w) in models.iter().zip(weights) {
        flatten_into(m, &mut buf);
        assert_eq!(buf.len(), d, "model architecture mismatch");
        let s = w / total;
        for (a, &x) in acc.iter_mut().zip(&buf) {
            *a += s * x;
        }
    }
    let mut out = models[0].clone();
    unflatten(&mut out, &acc);
    out
}

/// Panics unless `a` and `b` cut their planes alike.
fn check_same(a: &Sequential, b: &Sequential) {
    assert_eq!(a.layout(), b.layout(), "model architecture mismatch");
}

/// Zeroes all parameter values of `dst` (accumulator reset for in-place
/// FedAvg).
pub fn zero_params(dst: &mut Sequential) {
    dst.params_mut().fill(0.0);
}

/// `dst += s · src` over the planes — the in-place FedAvg accumulation
/// step.
///
/// # Panics
/// Panics when the architectures differ.
pub fn axpy(dst: &mut Sequential, s: f32, src: &Sequential) {
    check_same(dst, src);
    for (a, &x) in dst.params_mut().iter_mut().zip(src.params()) {
        *a += s * x;
    }
}

/// `dst += s0 · m0` then `dst += s1 · m1`, fused over the planes. The
/// per-element accumulation stays two sequential adds in model order, so
/// the result is bit-identical to two [`axpy`] calls — but `dst` is read
/// and written once per pair instead of once per model, which matters on
/// the memory-bound FedAvg accumulation.
///
/// # Panics
/// Panics when the architectures differ.
pub fn axpy2(dst: &mut Sequential, s0: f32, m0: &Sequential, s1: f32, m1: &Sequential) {
    check_same(dst, m0);
    check_same(dst, m1);
    for ((y, &x0), &x1) in dst
        .params_mut()
        .iter_mut()
        .zip(m0.params())
        .zip(m1.params())
    {
        *y += s0 * x0;
        *y += s1 * x1;
    }
}

/// In-place convex blend `dst ← alpha · a + (1 − alpha) · dst` — the
/// allocation-free counterpart of [`blend`] with `b = dst` (paper Eq. 9:
/// `dst` is the carried local model, `a` the downloaded edge model).
///
/// # Panics
/// Panics when the architectures differ or `alpha` is outside `[0, 1]`.
pub fn blend_into(dst: &mut Sequential, a: &Sequential, alpha: f32) {
    assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
    check_same(dst, a);
    for (y, &x) in dst.params_mut().iter_mut().zip(a.params()) {
        *y = alpha * x + (1.0 - alpha) * *y;
    }
}

/// Elementwise difference `a − b` of two models' flat parameters
/// (the accumulated update `Δw_m = w_m − w_c` of Eq. 10).
pub fn delta(a: &Sequential, b: &Sequential) -> Vec<f32> {
    let (fa, fb) = (flatten(a), flatten(b));
    assert_eq!(fa.len(), fb.len(), "model architecture mismatch");
    fa.iter().zip(&fb).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use middle_tensor::random::rng;

    fn model(seed: u64) -> Sequential {
        let mut r = rng(seed);
        Sequential::new()
            .push(Dense::new(3, 4, &mut r))
            .push(Relu::new())
            .push(Dense::new(4, 2, &mut r))
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mut m = model(1);
        let flat = flatten(&m);
        assert_eq!(flat.len(), m.param_count());
        let mut doubled = flat.clone();
        for x in &mut doubled {
            *x *= 2.0;
        }
        unflatten(&mut m, &doubled);
        assert_eq!(flatten(&m), doubled);
    }

    #[test]
    fn blend_endpoints() {
        let a = model(3);
        let b = model(4);
        assert_eq!(flatten(&blend(&a, &b, 1.0)), flatten(&a));
        assert_eq!(flatten(&blend(&a, &b, 0.0)), flatten(&b));
        let half = blend(&a, &b, 0.5);
        let (fa, fb, fh) = (flatten(&a), flatten(&b), flatten(&half));
        for ((x, y), z) in fa.iter().zip(&fb).zip(&fh) {
            assert!((0.5 * (x + y) - z).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_average_of_clones_is_identity() {
        let a = model(5);
        let avg = weighted_average(&[&a, &a, &a], &[1.0, 2.0, 3.0]);
        let (fa, fv) = (flatten(&a), flatten(&avg));
        for (x, y) in fa.iter().zip(&fv) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn weighted_average_respects_weights() {
        let mut a = model(6);
        let mut b = model(6);
        let d = a.param_count();
        unflatten(&mut a, &vec![0.0; d]);
        unflatten(&mut b, &vec![4.0; d]);
        let avg = weighted_average(&[&a, &b], &[3.0, 1.0]);
        for &x in &flatten(&avg) {
            assert!((x - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn delta_is_antisymmetric() {
        let a = model(7);
        let b = model(8);
        let dab = delta(&a, &b);
        let dba = delta(&b, &a);
        for (x, y) in dab.iter().zip(&dba) {
            assert!((x + y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unflatten_wrong_length_panics() {
        let mut m = model(11);
        unflatten(&mut m, &[1.0, 2.0]);
    }

    #[test]
    fn flat_view_is_a_copy_with_its_norm() {
        let mut m = model(12);
        let mut v = FlatView::of(&m);
        assert_eq!(v.flat(), m.params());
        let f = flatten(&m);
        assert_eq!(v.norm_sq().to_bits(), dot_slices(&f, &f).to_bits());
        let d = m.param_count();
        unflatten(&mut m, &vec![2.0; d]);
        v.invalidate();
        assert_eq!(v.flat(), f.as_slice(), "a copy keeps its values");
        v.refresh(&m);
        assert_eq!(v.flat(), vec![2.0; d].as_slice());
        assert_eq!(v.norm_sq(), 4.0 * d as f32);
    }

    #[test]
    fn flatten_reads_the_plane() {
        let m = model(14);
        assert_eq!(flatten(&m), m.params());
        let mut buf = vec![9.0; 3];
        flatten_into(&m, &mut buf);
        assert_eq!(buf, m.params());
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut dst = model(17);
        let src = model(18);
        let expect: Vec<f32> = flatten(&dst)
            .iter()
            .zip(&flatten(&src))
            .map(|(&a, &x)| a + 0.5 * x)
            .collect();
        axpy(&mut dst, 0.5, &src);
        assert_eq!(flatten(&dst), expect);
    }

    #[test]
    fn blend_into_matches_reference_blend_bitwise() {
        let a = model(19);
        let b = model(20);
        for alpha in [0.0f32, 0.25, 0.5, 1.0] {
            let reference = blend(&a, &b, alpha);
            let mut dst = b.clone();
            blend_into(&mut dst, &a, alpha);
            let (fr, fd) = (flatten(&reference), flatten(&dst));
            for (x, y) in fr.iter().zip(&fd) {
                assert_eq!(x.to_bits(), y.to_bits(), "alpha {alpha}");
            }
        }
    }
}
