//! First-order optimizers: SGD, SGD with momentum, and Adam.
//!
//! Optimizer state (momentum buffers, Adam moments) is keyed by parameter
//! position in the model's canonical parameter order, matching
//! [`crate::model::Sequential::params_mut`]. State is lazily initialised on
//! the first step, so an optimizer can be constructed before the model.

use crate::layer::Param;
use serde::{Deserialize, Serialize};

/// The parameters one optimizer step updates, visited in canonical model
/// order without being collected — a step allocates nothing.
/// [`crate::model::Sequential`] is one; a lone [`Param`] is another.
pub trait ParamSet {
    /// Number of parameter tensors.
    fn count(&self) -> usize;

    /// Calls `f` on every parameter tensor, in canonical order, with its
    /// index in that order.
    fn visit(&mut self, f: &mut dyn FnMut(usize, &mut Param));
}

impl ParamSet for Param {
    fn count(&self) -> usize {
        1
    }

    fn visit(&mut self, f: &mut dyn FnMut(usize, &mut Param)) {
        f(0, self);
    }
}

/// A first-order optimizer updating parameters from accumulated gradients.
///
/// `Send + Sync` so a device can cache its optimizer while remaining
/// shareable across threads during read-only phases (selection scoring).
pub trait Optimizer: Send + Sync {
    /// Applies one update step to `params` and clears their gradients.
    fn step(&mut self, params: &mut dyn ParamSet);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used for decay schedules such as the
    /// `η_t = 2/(μ(γ+t))` schedule of Theorem 1).
    fn set_learning_rate(&mut self, lr: f32);

    /// Restores the freshly-built state (no momentum/moment buffers, step
    /// counter 0) while keeping their allocations.
    ///
    /// After `reset()` an optimizer behaves bitwise-identically to a new
    /// [`OptimizerKind::build`] of the same kind — including for a model
    /// of a different shape than the one it last stepped: the state
    /// vectors are emptied here and zero-filled to the parameters' sizes
    /// on the next step either way. This is what lets the zero-alloc
    /// train path keep one optimizer per training thread across devices
    /// and participations while matching the
    /// fresh-optimizer-per-participation semantics.
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

/// Sizes lazily-initialised optimizer `state` for `count` parameters: one
/// vector per parameter, each zero-filled by [`param_state`] when its
/// parameter is stepped. A different parameter count restarts all of
/// them. Capacity is kept, so steady state allocates nothing.
fn size_state(state: &mut Vec<Vec<f32>>, count: usize) {
    if state.len() != count {
        state.iter_mut().for_each(Vec::clear);
        state.resize_with(count, Vec::new);
    }
}

/// `p`'s state vector, an empty one (fresh, or emptied by `reset`)
/// zero-filled to `p`'s length first.
fn param_state<'s>(s: &'s mut Vec<f32>, p: &Param) -> &'s mut [f32] {
    if s.is_empty() {
        s.resize(p.len(), 0.0);
    }
    assert_eq!(s.len(), p.len(), "parameter shape changed under optimizer");
    s
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
    fn step(&mut self, params: &mut dyn ParamSet) {
        let lr = self.lr;
        params.visit(&mut |_, p| {
            for (w, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                *w -= lr * g;
            }
            p.zero_grad();
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Heavy-ball momentum: `v ← μ v + g; w ← w − lr · v`.
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
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
    fn step(&mut self, params: &mut dyn ParamSet) {
        size_state(&mut self.velocity, params.count());
        let (lr, mu) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        params.visit(&mut |i, p| {
            let v = param_state(&mut velocity[i], p);
            for ((w, g), vel) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(v.iter_mut())
            {
                *vel = mu * *vel + g;
                *w -= lr * *vel;
            }
            p.zero_grad();
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.velocity.iter_mut().for_each(Vec::clear);
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
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
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
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut dyn ParamSet) {
        let count = params.count();
        if self.m.len() != count {
            self.t = 0;
        }
        size_state(&mut self.m, count);
        size_state(&mut self.v, count);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        params.visit(&mut |i, p| {
            let m = param_state(&mut ms[i], p);
            let v = param_state(&mut vs[i], p);
            for (((w, g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.zero_grad();
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.m.iter_mut().for_each(Vec::clear);
        self.v.iter_mut().for_each(Vec::clear);
        self.t = 0;
    }
}

/// Decoupled weight decay (AdamW-style): shrinks parameters by
/// `lr · decay` before delegating to the inner optimizer. With plain SGD
/// this equals adding an L2 penalty `decay/2 · ‖w‖²` to the loss — the
/// regulariser that makes logistic regression strongly convex
/// (Assumption 2 of the paper's Theorem 1).
pub struct WeightDecay {
    inner: Box<dyn Optimizer>,
    decay: f32,
}

impl WeightDecay {
    /// Wraps `inner` with decay coefficient `decay ≥ 0`.
    pub fn new(inner: Box<dyn Optimizer>, decay: f32) -> Self {
        assert!(
            decay >= 0.0 && decay.is_finite(),
            "decay must be non-negative"
        );
        WeightDecay { inner, decay }
    }
}

impl Optimizer for WeightDecay {
    fn step(&mut self, params: &mut dyn ParamSet) {
        let shrink = 1.0 - self.inner.learning_rate() * self.decay;
        params.visit(&mut |_, p| {
            for w in p.value.data_mut() {
                *w *= shrink;
            }
        });
        self.inner.step(params);
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Global-norm gradient clipping: rescales all gradients so their joint
/// L2 norm is at most `max_norm` before delegating to the inner
/// optimizer — the standard guard against the gradient spikes that
/// Non-IID local training produces.
pub struct GradClip {
    inner: Box<dyn Optimizer>,
    max_norm: f32,
}

impl GradClip {
    /// Wraps `inner` with the given global-norm ceiling.
    pub fn new(inner: Box<dyn Optimizer>, max_norm: f32) -> Self {
        assert!(
            max_norm > 0.0 && max_norm.is_finite(),
            "max_norm must be positive"
        );
        GradClip { inner, max_norm }
    }
}

impl Optimizer for GradClip {
    fn step(&mut self, params: &mut dyn ParamSet) {
        // `Iterator::sum` over the per-parameter sums, from its own start.
        let mut total: f32 = std::iter::empty::<f32>().sum();
        params.visit(&mut |_, p| total += p.grad.data().iter().map(|g| g * g).sum::<f32>());
        let norm = total.sqrt();
        if norm > self.max_norm {
            let scale = self.max_norm / norm;
            params.visit(&mut |_, p| {
                for g in p.grad.data_mut() {
                    *g *= scale;
                }
            });
        }
        self.inner.step(params);
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::Tensor;

    fn param(vals: &[f32], grads: &[f32]) -> Param {
        let mut p = Param::new(Tensor::from_vec([vals.len()], vals.to_vec()));
        p.grad.data_mut().copy_from_slice(grads);
        p
    }

    #[test]
    fn sgd_takes_gradient_step_and_clears() {
        let mut p = param(&[1.0, 2.0], &[0.5, -0.5]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut p);
        assert_eq!(p.value.data(), &[0.95, 2.05]);
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn momentum_accelerates_constant_gradient() {
        let mut p = param(&[0.0], &[1.0]);
        let mut opt = MomentumSgd::new(0.1, 0.9);
        opt.step(&mut p);
        let step1 = -p.value.data()[0];
        p.grad.data_mut()[0] = 1.0;
        let before = p.value.data()[0];
        opt.step(&mut p);
        let step2 = before - p.value.data()[0];
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
            let mut p = param(&[0.0], &[scale]);
            let mut opt = Adam::new(0.01);
            opt.step(&mut p);
            assert!(
                (p.value.data()[0] + 0.01).abs() < 1e-4,
                "scale {scale}: {}",
                p.value.data()[0]
            );
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
            let mut p = Param::new(Tensor::from_vec([1], vec![0.0]));
            for _ in 0..200 {
                let w = p.value.data()[0];
                p.grad.data_mut()[0] = 2.0 * (w - 3.0);
                opt.step(&mut p);
            }
            let w = p.value.data()[0];
            assert!((w - 3.0).abs() < 0.05, "{kind:?} ended at {w}");
        }
    }

    #[test]
    fn set_learning_rate_applies() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.5);
        let mut p = param(&[1.0], &[1.0]);
        opt.step(&mut p);
        assert_eq!(p.value.data(), &[0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lr_panics() {
        Sgd::new(0.0);
    }

    #[test]
    fn weight_decay_shrinks_before_stepping() {
        // Zero gradient: only the decay acts.
        let mut p = param(&[2.0], &[0.0]);
        let mut opt = WeightDecay::new(Box::new(Sgd::new(0.1)), 0.5);
        opt.step(&mut p);
        assert!((p.value.data()[0] - 2.0 * (1.0 - 0.05)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_origin_at_stationarity() {
        // Minimise 0 loss with decay: w -> 0.
        let mut p = param(&[1.0], &[0.0]);
        let mut opt = WeightDecay::new(Box::new(Sgd::new(0.1)), 1.0);
        for _ in 0..200 {
            p.grad.data_mut()[0] = 0.0;
            opt.step(&mut p);
        }
        assert!(p.value.data()[0].abs() < 1e-4);
    }

    #[test]
    fn grad_clip_caps_global_norm() {
        let mut p = param(&[0.0, 0.0], &[30.0, 40.0]); // norm 50
        let mut opt = GradClip::new(Box::new(Sgd::new(1.0)), 5.0);
        opt.step(&mut p);
        // Clipped gradient = (3, 4); step of lr 1 moves to (-3, -4).
        assert!((p.value.data()[0] + 3.0).abs() < 1e-5);
        assert!((p.value.data()[1] + 4.0).abs() < 1e-5);
    }

    #[test]
    fn grad_clip_passes_small_gradients_through() {
        let mut p = param(&[0.0], &[0.5]);
        let mut opt = GradClip::new(Box::new(Sgd::new(1.0)), 5.0);
        opt.step(&mut p);
        assert!((p.value.data()[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn wrappers_forward_learning_rate() {
        let mut opt = WeightDecay::new(Box::new(Sgd::new(0.3)), 0.1);
        assert!((opt.learning_rate() - 0.3).abs() < 1e-7);
        opt.set_learning_rate(0.7);
        assert!((opt.learning_rate() - 0.7).abs() < 1e-7);
    }
}
