//! Inverted dropout with a layer-owned deterministic RNG.

use crate::layer::Layer;
use middle_tensor::random::rng;
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Inverted dropout: at train time each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation
/// needs no rescaling. Each layer instance owns a seeded RNG, keeping
/// whole-simulation runs reproducible.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    seed: u64,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and RNG seed.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: rng(seed),
            seed,
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = input.clone();
        for (x, &m) in out.data_mut().iter_mut().zip(&mask) {
            *x *= m;
        }
        self.mask = Some(mask);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        // Inverted dropout is the identity at evaluation time.
        input.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                let mut out = grad_out.clone();
                for (g, &m) in out.data_mut().iter_mut().zip(mask) {
                    *g *= m;
                }
                out
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Dropout::new(self.p, self.seed))
    }

    fn reset_state(&mut self) {
        self.rng = rng(self.seed);
        self.mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec([4], vec![1., 2., 3., 4.]);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn train_mode_preserves_expectation_roughly() {
        let mut d = Dropout::new(0.3, 42);
        let x = Tensor::ones([10_000]);
        let y = d.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones([100]);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::ones([100]));
        // Gradient passes exactly where the forward passed.
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            assert_eq!(yv, dv);
        }
    }

    #[test]
    fn zero_probability_never_drops() {
        let mut d = Dropout::new(0.0, 9);
        let x = Tensor::from_vec([5], vec![1., 2., 3., 4., 5.]);
        assert_eq!(d.forward(&x, true), x);
    }
}
