//! Model builders matching the paper's evaluation section (§6.1.2).
//!
//! * MNIST / EMNIST: CNN with 2 convolutional + 2 fully connected layers.
//! * CIFAR10 / SpeechCommands: CNN with 3 convolutional + 2 fully
//!   connected layers.
//! * A plain MLP and a logistic-regression (single affine) model for the
//!   motivation experiments and the strongly-convex theory validation.

use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use crate::model::Sequential;
use middle_tensor::conv::ConvGeometry;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Input signature of a classification task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Channels (1 grayscale, 3 colour; 1 for flat vectors).
    pub channels: usize,
    /// Spatial height (1 for flat vectors).
    pub height: usize,
    /// Spatial width (vector length for flat vectors).
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
}

impl InputSpec {
    /// Total features per sample.
    pub fn features(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// The paper's 2-conv + 2-fc CNN (MNIST / EMNIST track).
///
/// conv(k3,p1,c8) → relu → pool2 → conv(k3,p1,c16) → relu → pool2 →
/// flatten → dense(64) → relu → dense(classes).
pub fn cnn2(spec: &InputSpec, rng: &mut StdRng) -> Sequential {
    assert!(
        spec.height.is_multiple_of(4) && spec.width.is_multiple_of(4),
        "cnn2 needs spatial dims divisible by 4 (two 2x pools)"
    );
    let g1 = ConvGeometry {
        in_c: spec.channels,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: spec.height,
        in_w: spec.width,
    };
    let g2 = ConvGeometry {
        in_c: 8,
        out_c: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: spec.height / 2,
        in_w: spec.width / 2,
    };
    let feat = 16 * (spec.height / 4) * (spec.width / 4);
    Sequential::new()
        .push(Conv2d::new(g1, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(g2, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(feat, 64, rng))
        .push(Relu::new())
        .push(Dense::new(64, spec.classes, rng))
}

/// The paper's 3-conv + 2-fc CNN (CIFAR10 / SpeechCommands track).
pub fn cnn3(spec: &InputSpec, rng: &mut StdRng) -> Sequential {
    assert!(
        spec.height.is_multiple_of(4) && spec.width.is_multiple_of(4),
        "cnn3 needs spatial dims divisible by 4"
    );
    let g1 = ConvGeometry {
        in_c: spec.channels,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: spec.height,
        in_w: spec.width,
    };
    let g2 = ConvGeometry {
        in_c: 8,
        out_c: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: spec.height / 2,
        in_w: spec.width / 2,
    };
    let g3 = ConvGeometry {
        in_c: 16,
        out_c: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: spec.height / 4,
        in_w: spec.width / 4,
    };
    let feat = 16 * (spec.height / 4) * (spec.width / 4);
    Sequential::new()
        .push(Conv2d::new(g1, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(g2, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(g3, rng))
        .push(Relu::new())
        .push(Flatten::new())
        .push(Dense::new(feat, 64, rng))
        .push(Relu::new())
        .push(Dense::new(64, spec.classes, rng))
}

/// Two-hidden-layer MLP over flattened inputs — used for the flat-vector
/// "speech" task and as a cheaper stand-in where CNNs are overkill.
pub fn mlp(spec: &InputSpec, hidden: usize, rng: &mut StdRng) -> Sequential {
    Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(spec.features(), hidden, rng))
        .push(Relu::new())
        .push(Dense::new(hidden, hidden / 2, rng))
        .push(Relu::new())
        .push(Dense::new(hidden / 2, spec.classes, rng))
}

/// Multinomial logistic regression (single affine layer): μ-strongly
/// convex with L2 regularisation, satisfying the assumptions of
/// Theorem 1. Used by the theory-validation experiments.
pub fn logistic(spec: &InputSpec, rng: &mut StdRng) -> Sequential {
    Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(spec.features(), spec.classes, rng))
}

/// Builds the model the paper pairs with each named task
/// (§6.1.2: cnn2 for mnist/emnist, cnn3 for cifar10/speech).
pub fn model_for_task(task: &str, spec: &InputSpec, rng: &mut StdRng) -> Sequential {
    match task {
        "mnist" | "emnist" => cnn2(spec, rng),
        "cifar10" => cnn3(spec, rng),
        // The speech stand-in is a flat vector; the paper's conv stack
        // degenerates to an MLP of comparable capacity.
        "speech" => mlp(spec, 64, rng),
        other => panic!("unknown task {other:?} (expected mnist|emnist|cifar10|speech)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::random::rng;
    use middle_tensor::Tensor;

    const MNIST: InputSpec = InputSpec {
        channels: 1,
        height: 16,
        width: 16,
        classes: 10,
    };
    const CIFAR: InputSpec = InputSpec {
        channels: 3,
        height: 16,
        width: 16,
        classes: 10,
    };
    const SPEECH: InputSpec = InputSpec {
        channels: 1,
        height: 1,
        width: 64,
        classes: 10,
    };

    #[test]
    fn cnn2_shapes() {
        let mut m = cnn2(&MNIST, &mut rng(1));
        let y = m.forward(&Tensor::zeros([2, 1, 16, 16]));
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn cnn3_shapes() {
        let mut m = cnn3(&CIFAR, &mut rng(2));
        let y = m.forward(&Tensor::zeros([2, 3, 16, 16]));
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn mlp_handles_flat_vectors() {
        let mut m = mlp(&SPEECH, 32, &mut rng(3));
        let y = m.forward(&Tensor::zeros([4, 1, 1, 64]));
        assert_eq!(y.shape().dims(), &[4, 10]);
    }

    #[test]
    fn logistic_is_single_affine() {
        let m = logistic(&MNIST, &mut rng(4));
        assert_eq!(m.param_count(), 256 * 10 + 10);
    }

    #[test]
    fn task_dispatch() {
        assert_eq!(model_for_task("mnist", &MNIST, &mut rng(5)).depth(), 10);
        assert_eq!(model_for_task("cifar10", &CIFAR, &mut rng(5)).depth(), 12);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn unknown_task_panics() {
        model_for_task("imagenet", &MNIST, &mut rng(6));
    }

    #[test]
    fn same_seed_same_model() {
        let a = cnn2(&MNIST, &mut rng(7));
        let b = cnn2(&MNIST, &mut rng(7));
        assert_eq!(crate::params::flatten(&a), crate::params::flatten(&b));
    }
}
