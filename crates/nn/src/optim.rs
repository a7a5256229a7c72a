//! First-order optimizers: SGD, SGD with momentum, and Adam.
//!
//! An optimizer steps a model's parameter plane from a gradient plane of
//! the same layout ([`crate::model::Sequential::params`]). Its state
//! (momentum, Adam moments) is one plane of that length too, lazily
//! zero-filled on the first step, so an optimizer can be constructed
//! before the model.
//!
//! `Sgd`, `MomentumSgd` and `Adam` each step in one pass over the planes
//! that also zeroes the gradient, compiled per vector width
//! ([`middle_tensor::simd_dispatch!`]): every lane is a parameter of its
//! own, so the width moves no bit.

use middle_tensor::simd_dispatch;
use serde::{Deserialize, Serialize};

/// A first-order optimizer updating a parameter plane from a gradient
/// plane.
///
/// `Send + Sync` so a device can cache its optimizer while remaining
/// shareable across threads during read-only phases (selection scoring).
pub trait Optimizer: Send + Sync {
    /// Applies one update step to `params` from `grads`, two planes of
    /// one length, and zeroes `grads` (`+0.0` everywhere, ready for the
    /// next backward pass to add into).
    fn step(&mut self, params: &mut [f32], grads: &mut [f32]);

    /// Restores the freshly-built state (no momentum/moment plane, step
    /// counter 0) while keeping their allocations.
    ///
    /// After `reset()` an optimizer behaves bitwise-identically to a new
    /// [`OptimizerKind::build`] of the same kind — including for a model
    /// of a different size than the one it last stepped: the state planes
    /// are emptied here and zero-filled to the plane's length on the next
    /// step either way. This is what lets the zero-alloc train path keep
    /// one optimizer per training thread across devices and
    /// participations while matching the fresh-optimizer-per-participation
    /// semantics.
    fn reset(&mut self) {}
}

/// Declarative optimizer choice, serialisable inside experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with classical (heavy-ball) momentum.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (paper: 0.9).
        momentum: f32,
    },
    /// Adam with standard bias correction.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerKind {
    /// Instantiates the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerKind::Sgd { lr } => Box::new(Sgd::new(lr)),
            OptimizerKind::Momentum { lr, momentum } => Box::new(MomentumSgd::new(lr, momentum)),
            OptimizerKind::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }
}

/// The optimizer state plane `s` for a parameter plane of `len`
/// values: zero-filled first when it is empty (fresh, or emptied by
/// `reset`) or sized for another model. Capacity is kept, so steady
/// state allocates nothing.
fn state_plane(s: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if s.len() != len {
        s.clear();
        s.resize(len, 0.0);
    }
    s
}

/// Panics unless the two planes agree on the length.
fn check_planes(params: &[f32], grads: &[f32]) {
    assert_eq!(params.len(), grads.len(), "gradient plane length");
}

/// Plain SGD: `w ← w − lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &mut [f32]) {
        check_planes(params, grads);
        sgd_pass_dispatch(params, grads, self.lr);
    }
}

/// Heavy-ball momentum: `v ← μ v + g; w ← w − lr · v`.
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl MomentumSgd {
    /// Creates momentum SGD (paper defaults: lr 0.01, momentum 0.9).
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        MomentumSgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for MomentumSgd {
    fn step(&mut self, params: &mut [f32], grads: &mut [f32]) {
        check_planes(params, grads);
        let v = state_plane(&mut self.velocity, params.len());
        momentum_pass_dispatch(params, grads, v, self.lr, self.momentum);
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// Adam (Kingma & Ba) with bias-corrected first/second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The scalars of step `t`.
    fn scalars(&self, t: u64) -> AdamStep {
        AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            inv_bc1: reciprocal(bias_correction(self.beta1, t)),
            inv_bc2: reciprocal(bias_correction(self.beta2, t)),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &mut [f32]) {
        check_planes(params, grads);
        // Moments for another model (or none yet) restart the count.
        if self.m.len() != params.len() {
            self.t = 0;
        }
        self.t += 1;
        let scalars = self.scalars(self.t);
        let m = state_plane(&mut self.m, params.len());
        let v = state_plane(&mut self.v, params.len());
        adam_pass_dispatch(params, grads, m, v, scalars);
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

/// `1 − βᵗ`, Adam's bias correction after `t` steps, in `f32`.
fn bias_correction(beta: f32, t: u64) -> f32 {
    1.0 - beta.powi(t as i32)
}

/// `1 / bc` in `f64`, so that [`times`]`(x, reciprocal(bc))` is `x / bc`
/// for every `f32` `x`, bit for bit. The true quotient `x / bc` of two
/// `f32`s is an `f32` or lies at least 2⁻⁴⁹ (relative) from every `f32`
/// rounding midpoint: its distance to one is a nonzero multiple of
/// `ulp / 2B`, `B < 2²⁴` the divisor's integer significand. The `f64`
/// reciprocal and product are off by at most 2⁻⁵² (relative), so the
/// product rounds to the `f32` the quotient rounds to — infinities,
/// signed zeros, subnormals and NaN payloads included (the tests check
/// every `t` up to 64 on sampled bit patterns, and every `f32` for
/// `t ≤ 3` when run with `--ignored`). A vector multiply has several
/// times a vector division's throughput.
fn reciprocal(bc: f32) -> f64 {
    1.0 / f64::from(bc)
}

/// `x · r` rounded once to `f32`: `x / bc` when `r` is
/// `reciprocal(bc)`.
#[inline(always)]
fn times(x: f32, r: f64) -> f32 {
    (f64::from(x) * r) as f32
}

/// One Adam step's scalars: the learning rate, the betas, `eps` and the
/// two bias corrections' [`reciprocal`]s.
#[derive(Debug, Clone, Copy)]
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    inv_bc1: f64,
    inv_bc2: f64,
}

/// `w ← w − lr · g; g ← +0.0`.
#[inline(always)]
fn sgd_pass(params: &mut [f32], grads: &mut [f32], lr: f32) {
    for (w, g) in params.iter_mut().zip(grads.iter_mut()) {
        *w -= lr * *g;
        *g = 0.0;
    }
}

simd_dispatch!(sgd_pass_dispatch, sgd_pass, (params: &mut [f32], grads: &mut [f32], lr: f32));

/// `v ← μ v + g; w ← w − lr · v; g ← +0.0`.
#[inline(always)]
fn momentum_pass(params: &mut [f32], grads: &mut [f32], velocity: &mut [f32], lr: f32, mu: f32) {
    for ((w, g), vel) in params.iter_mut().zip(grads.iter_mut()).zip(velocity) {
        *vel = mu * *vel + *g;
        *w -= lr * *vel;
        *g = 0.0;
    }
}

simd_dispatch!(
    momentum_pass_dispatch,
    momentum_pass,
    (params: &mut [f32], grads: &mut [f32], velocity: &mut [f32], lr: f32, mu: f32)
);

/// Adam's update of every parameter, its moments `m` and `v`, and the
/// gradient's `+0.0`. The two bias corrections are `f64` multiplies by
/// their reciprocals, which round as the divisions do ([`reciprocal`]);
/// the third division and the square root are as written.
#[inline(always)]
fn adam_pass(params: &mut [f32], grads: &mut [f32], m: &mut [f32], v: &mut [f32], h: AdamStep) {
    let (b1, b2) = (h.beta1, h.beta2);
    for (((w, g), mi), vi) in params.iter_mut().zip(grads.iter_mut()).zip(m).zip(v) {
        *mi = b1 * *mi + (1.0 - b1) * *g;
        *vi = b2 * *vi + (1.0 - b2) * *g * *g;
        let mhat = times(*mi, h.inv_bc1);
        let vhat = times(*vi, h.inv_bc2);
        *w -= h.lr * mhat / (vhat.sqrt() + h.eps);
        *g = 0.0;
    }
}

simd_dispatch!(
    adam_pass_dispatch,
    adam_pass,
    (params: &mut [f32], grads: &mut [f32], m: &mut [f32], v: &mut [f32], h: AdamStep)
);

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::call_clone;
    use middle_tensor::matmul::host_clones;

    /// The steps as the textbook writes them — the oracles of the
    /// dispatched passes: Adam divides by its bias corrections.
    fn textbook(kind: OptimizerKind, planes: &mut Planes, t: u64) {
        let Planes { w, g, s1, s2 } = planes;
        match kind {
            OptimizerKind::Sgd { lr } => {
                for (w, g) in w.iter_mut().zip(g.iter()) {
                    *w -= lr * g;
                }
            }
            OptimizerKind::Momentum { lr, momentum } => {
                for ((w, g), vel) in w.iter_mut().zip(g.iter()).zip(s1.iter_mut()) {
                    *vel = momentum * *vel + g;
                    *w -= lr * *vel;
                }
            }
            OptimizerKind::Adam { lr } => {
                let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
                let bc1 = 1.0 - b1.powi(t as i32);
                let bc2 = 1.0 - b2.powi(t as i32);
                for (((w, g), mi), vi) in w.iter_mut().zip(g.iter()).zip(s1).zip(s2) {
                    *mi = b1 * *mi + (1.0 - b1) * g;
                    *vi = b2 * *vi + (1.0 - b2) * g * g;
                    let mhat = *mi / bc1;
                    let vhat = *vi / bc2;
                    *w -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
        g.fill(0.0);
    }

    /// A parameter plane, its gradient and up to two state planes.
    #[derive(Clone)]
    struct Planes {
        w: Vec<f32>,
        g: Vec<f32>,
        s1: Vec<f32>,
        s2: Vec<f32>,
    }

    impl Planes {
        fn bits(&self) -> [Vec<u32>; 4] {
            [&self.w, &self.g, &self.s1, &self.s2].map(|p| p.iter().map(|x| x.to_bits()).collect())
        }
    }

    /// `len` values of every kind a step can meet: `±0.0`, subnormals,
    /// magnitudes near `f32::MAX` and from 2⁻⁶⁰ to 2⁶⁰, and, where
    /// `nan`, NaNs of either sign and several payloads; nonnegative
    /// where `abs` (a second moment).
    fn mixed(len: usize, seed: u64, nan: bool, abs: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = (state >> 32) as u32;
                let sign = if abs { 0 } else { r & 0x8000_0000 };
                f32::from_bits(match i % 12 {
                    0 => sign,
                    1 => sign | (r & 0x007f_ffff),
                    2 => sign | (0x7f7f_ff00 + (r & 0xff)),
                    3 if nan => sign | 0x7fc0_0000 | (r & 0x3f_ffff),
                    3 => sign | 0x3f80_0000,
                    _ => sign | (127 - 60 + (r >> 8) % 121) << 23 | (r & 0x007f_ffff),
                })
            })
            .collect()
    }

    fn planes(len: usize, seed: u64) -> Planes {
        Planes {
            w: mixed(len, seed, false, false),
            g: mixed(len, seed ^ 1, true, false),
            s1: mixed(len, seed ^ 2, false, false),
            s2: mixed(len, seed ^ 3, false, true),
        }
    }

    /// Every host clone of each optimizer's pass leaves the parameters,
    /// the state planes and the zeroed gradient bit-equal to the
    /// textbook step's, at every step count Adam's bias corrections take
    /// up to 64 and at 10³ and 10⁴, on planes of every kind of value.
    #[test]
    fn every_clone_of_every_optimizer_pass_matches_the_textbook_bitwise() {
        let (lr, mu) = (0.01f32, 0.9f32);
        let kinds = [
            OptimizerKind::Sgd { lr },
            OptimizerKind::Momentum { lr, momentum: mu },
            OptimizerKind::Adam { lr },
        ];
        for t in (1..=64).chain([1_000, 10_000]) {
            let start = planes(203, t);
            for kind in kinds {
                let mut want = start.clone();
                textbook(kind, &mut want, t);
                for clone in host_clones() {
                    let mut got = start.clone();
                    let Planes { w, g, s1, s2 } = &mut got;
                    match kind {
                        OptimizerKind::Sgd { .. } => call_clone!(sgd_pass, clone, (w, g, lr)),
                        OptimizerKind::Momentum { .. } => {
                            call_clone!(momentum_pass, clone, (w, g, s1, lr, mu))
                        }
                        OptimizerKind::Adam { .. } => {
                            let h = Adam::new(lr).scalars(t);
                            call_clone!(adam_pass, clone, (w, g, s1, s2, h))
                        }
                    }
                    assert_eq!(got.bits(), want.bits(), "{kind:?} {clone} t = {t}");
                }
            }
        }
    }

    /// The optimizers as a trainer holds them: 64 steps on one plane,
    /// each against the textbook's, the state carried between steps.
    #[test]
    fn optimizer_steps_match_the_textbook_over_a_run() {
        for kind in [
            OptimizerKind::Sgd { lr: 0.05 },
            OptimizerKind::Momentum {
                lr: 0.05,
                momentum: 0.9,
            },
            OptimizerKind::Adam { lr: 0.05 },
        ] {
            let mut opt = kind.build();
            let start = planes(77, 9);
            let (mut got, mut want) = (start.clone(), start);
            want.s1.fill(0.0);
            want.s2.fill(0.0);
            for t in 1..=64 {
                let g = mixed(77, 100 + t, true, false);
                got.g.clone_from(&g);
                want.g.clone_from(&g);
                opt.step(&mut got.w, &mut got.g);
                textbook(kind, &mut want, t);
                assert_eq!(got.bits()[..2], want.bits()[..2], "{kind:?} t = {t}");
            }
        }
    }

    /// Every bias correction Adam takes up to `t = 64`, of both betas.
    fn corrections() -> Vec<f32> {
        let adam = Adam::new(0.1);
        (1..=64)
            .flat_map(|t| [adam.beta1, adam.beta2].map(|b| bias_correction(b, t)))
            .collect()
    }

    /// `x / bc` and `times(x, reciprocal(bc))` differ in a bit.
    fn differs(x: f32, bc: f32) -> bool {
        (x / bc).to_bits() != times(x, reciprocal(bc)).to_bits()
    }

    /// The reciprocal lemma on 2²⁰ bit patterns — every exponent of
    /// either sign with 2¹¹ significands each — plus `±inf` and NaNs, for
    /// every bias correction up to `t = 64`.
    #[test]
    fn reciprocal_multiply_rounds_as_the_division() {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]
            .into_iter()
            .chain([0x7f80_0001, 0xffbf_ffff, 0x7fc0_1234].map(f32::from_bits));
        let xs: Vec<f32> = (0u32..1 << 20)
            .map(|i| f32::from_bits(i << 12 | (i.wrapping_mul(0x9E37_79B9) >> 20)))
            .chain(specials)
            .collect();
        for bc in corrections() {
            let bad = xs.iter().filter(|&&x| differs(x, bc)).count();
            assert_eq!(bad, 0, "bc = {bc}");
        }
    }

    /// The lemma over every `f32`, for the bias corrections of the first
    /// three steps (the largest reciprocals): 25 s in release, so run
    /// with `--ignored` (`scripts/check.sh --ci` does).
    #[test]
    #[ignore]
    fn reciprocal_multiply_rounds_as_the_division_on_every_f32() {
        for bc in corrections().into_iter().take(6) {
            let bad = (0..=u32::MAX)
                .filter(|&b| differs(f32::from_bits(b), bc))
                .count();
            assert_eq!(bad, 0, "bc = {bc}");
        }
    }

    /// One step of `opt` on a parameter plane `w` with gradient `g`,
    /// which must come back zeroed.
    fn step(opt: &mut dyn Optimizer, w: &mut [f32], g: &[f32]) {
        let mut grads = g.to_vec();
        opt.step(w, &mut grads);
        assert!(grads.iter().all(|v| v.to_bits() == 0), "grads zeroed");
    }

    #[test]
    fn sgd_takes_gradient_step_and_clears() {
        let mut w = [1.0, 2.0];
        let mut g = [0.5, -0.5];
        Sgd::new(0.1).step(&mut w, &mut g);
        assert_eq!(w, [0.95, 2.05]);
        assert_eq!(g, [0.0, 0.0]);
    }

    #[test]
    fn momentum_accelerates_constant_gradient() {
        let mut w = [0.0];
        let mut opt = MomentumSgd::new(0.1, 0.9);
        step(&mut opt, &mut w, &[1.0]);
        let step1 = -w[0];
        let before = w[0];
        step(&mut opt, &mut w, &[1.0]);
        let step2 = before - w[0];
        assert!(
            step2 > step1,
            "momentum must grow the step: {step1} vs {step2}"
        );
        assert!((step2 - 0.1 * 1.9).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction the first Adam step is ~lr regardless of
        // gradient scale.
        for scale in [0.001f32, 1.0, 1000.0] {
            let mut w = [0.0];
            step(&mut Adam::new(0.01), &mut w, &[scale]);
            assert!((w[0] + 0.01).abs() < 1e-4, "scale {scale}: {}", w[0]);
        }
    }

    #[test]
    fn optimizers_converge_on_quadratic() {
        // Minimise f(w) = (w-3)^2 with each optimizer.
        for kind in [
            OptimizerKind::Sgd { lr: 0.1 },
            OptimizerKind::Momentum {
                lr: 0.05,
                momentum: 0.9,
            },
            OptimizerKind::Adam { lr: 0.2 },
        ] {
            let mut opt = kind.build();
            let mut w = [0.0];
            for _ in 0..200 {
                let g = 2.0 * (w[0] - 3.0);
                step(opt.as_mut(), &mut w, &[g]);
            }
            assert!((w[0] - 3.0).abs() < 0.05, "{kind:?} ended at {}", w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lr_panics() {
        Sgd::new(0.0);
    }
}
