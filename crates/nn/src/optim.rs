//! First-order optimizers: SGD, SGD with momentum, and Adam.
//!
//! An optimizer steps a model's parameter plane from a gradient plane of
//! the same layout ([`crate::model::Sequential::params`]). Its state
//! (momentum, Adam moments) is one plane of that length too, lazily
//! zero-filled on the first step, so an optimizer can be constructed
//! before the model.

use serde::{Deserialize, Serialize};

/// A first-order optimizer updating a parameter plane from a gradient
/// plane.
///
/// `Send + Sync` so a device can cache its optimizer while remaining
/// shareable across threads during read-only phases (selection scoring).
pub trait Optimizer: Send + Sync {
    /// Applies one update step to `params` from `grads` — two planes of
    /// one length, cut into the model's parameter tensors as `layout`
    /// says (their lengths, in canonical order) — and zeroes `grads`
    /// (`+0.0` everywhere, ready for the next backward pass to add into).
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used for decay schedules such as the
    /// `η_t = 2/(μ(γ+t))` schedule of Theorem 1).
    fn set_learning_rate(&mut self, lr: f32);

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

/// Panics unless the two planes and the layout agree on the length.
fn check_planes(params: &[f32], grads: &[f32], layout: &[usize]) {
    assert_eq!(params.len(), grads.len(), "gradient plane length");
    debug_assert_eq!(layout.iter().sum::<usize>(), params.len(), "layout");
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
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]) {
        check_planes(params, grads, layout);
        let lr = self.lr;
        for (w, g) in params.iter_mut().zip(grads.iter()) {
            *w -= lr * g;
        }
        grads.fill(0.0);
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
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]) {
        check_planes(params, grads, layout);
        let (lr, mu) = (self.lr, self.momentum);
        let v = state_plane(&mut self.velocity, params.len());
        for ((w, g), vel) in params.iter_mut().zip(grads.iter()).zip(v.iter_mut()) {
            *vel = mu * *vel + g;
            *w -= lr * *vel;
        }
        grads.fill(0.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
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
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]) {
        check_planes(params, grads, layout);
        // Moments for another model (or none yet) restart the count.
        if self.m.len() != params.len() {
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let m = state_plane(&mut self.m, params.len());
        let v = state_plane(&mut self.v, params.len());
        for (((w, g), mi), vi) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = b1 * *mi + (1.0 - b1) * g;
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
        grads.fill(0.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
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
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]) {
        let shrink = 1.0 - self.inner.learning_rate() * self.decay;
        for w in params.iter_mut() {
            *w *= shrink;
        }
        self.inner.step(params, grads, layout);
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
    fn step(&mut self, params: &mut [f32], grads: &mut [f32], layout: &[usize]) {
        check_planes(params, grads, layout);
        // One partial sum per parameter tensor, then `Iterator::sum` over
        // the partials from its own start: the norm's rounding follows
        // the model's tensors, not the plane.
        let mut total: f32 = std::iter::empty::<f32>().sum();
        let mut rest = &grads[..];
        for &len in layout {
            let (tensor, tail) = rest.split_at(len);
            total += tensor.iter().map(|g| g * g).sum::<f32>();
            rest = tail;
        }
        let norm = total.sqrt();
        if norm > self.max_norm {
            let scale = self.max_norm / norm;
            for g in grads.iter_mut() {
                *g *= scale;
            }
        }
        self.inner.step(params, grads, layout);
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

    /// One step of `opt` on a lone parameter tensor `w` with gradient
    /// `g`, which must come back zeroed.
    fn step(opt: &mut dyn Optimizer, w: &mut [f32], g: &[f32]) {
        let mut grads = g.to_vec();
        opt.step(w, &mut grads, &[w.len()]);
        assert!(grads.iter().all(|v| v.to_bits() == 0), "grads zeroed");
    }

    #[test]
    fn sgd_takes_gradient_step_and_clears() {
        let mut w = [1.0, 2.0];
        let mut g = [0.5, -0.5];
        Sgd::new(0.1).step(&mut w, &mut g, &[2]);
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
    fn set_learning_rate_applies() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.5);
        let mut w = [1.0];
        step(&mut opt, &mut w, &[1.0]);
        assert_eq!(w, [0.5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lr_panics() {
        Sgd::new(0.0);
    }

    #[test]
    fn weight_decay_shrinks_before_stepping() {
        // Zero gradient: only the decay acts.
        let mut w = [2.0];
        step(
            &mut WeightDecay::new(Box::new(Sgd::new(0.1)), 0.5),
            &mut w,
            &[0.0],
        );
        assert!((w[0] - 2.0 * (1.0 - 0.05)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_origin_at_stationarity() {
        // Minimise 0 loss with decay: w -> 0.
        let mut w = [1.0];
        let mut opt = WeightDecay::new(Box::new(Sgd::new(0.1)), 1.0);
        for _ in 0..200 {
            step(&mut opt, &mut w, &[0.0]);
        }
        assert!(w[0].abs() < 1e-4);
    }

    #[test]
    fn grad_clip_caps_global_norm() {
        let mut w = [0.0, 0.0];
        // norm 50
        step(
            &mut GradClip::new(Box::new(Sgd::new(1.0)), 5.0),
            &mut w,
            &[30.0, 40.0],
        );
        // Clipped gradient = (3, 4); step of lr 1 moves to (-3, -4).
        assert!((w[0] + 3.0).abs() < 1e-5);
        assert!((w[1] + 4.0).abs() < 1e-5);
    }

    #[test]
    fn grad_clip_norm_sums_per_tensor() {
        // The partial sums follow the layout: 2^24 + 1 + 1 + 1 + 1 stays
        // 2^24 summed in one chain, but is 2^24 + 4 as [2^24] + [4].
        let big = 4096.0f32; // big² = 2^24
        let grads = [big, 1.0, 1.0, 1.0, 1.0];
        let clip_at = |layout: &[usize]| {
            let mut w = [0.0f32; 5];
            let mut g = grads;
            // max_norm just under 2^12: the clip scale reveals the norm.
            GradClip::new(Box::new(Sgd::new(1.0)), 4095.0).step(&mut w, &mut g, layout);
            w[0].to_bits()
        };
        assert_ne!(clip_at(&[5]), clip_at(&[1, 4]));
    }

    #[test]
    fn grad_clip_passes_small_gradients_through() {
        let mut w = [0.0];
        step(
            &mut GradClip::new(Box::new(Sgd::new(1.0)), 5.0),
            &mut w,
            &[0.5],
        );
        assert!((w[0] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn wrappers_forward_learning_rate() {
        let mut opt = WeightDecay::new(Box::new(Sgd::new(0.3)), 0.1);
        assert!((opt.learning_rate() - 0.3).abs() < 1e-7);
        opt.set_learning_rate(0.7);
        assert!((opt.learning_rate() - 0.7).abs() < 1e-7);
    }
}
