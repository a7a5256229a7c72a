//! Property-based tests for the NN stack: gradient correctness on random
//! inputs, algebraic invariants of the parameter-vector view, and bitwise
//! equivalence of the workspace (zero-alloc) train path — with its one
//! gradient plane per scratch — against the allocating oracle path.

use middle_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use middle_nn::loss::softmax_cross_entropy;
use middle_nn::optim::OptimizerKind;
use middle_nn::params::{blend, delta, flatten, unflatten, weighted_average};
use middle_nn::serialize::{Checkpoint, Packed};
use middle_nn::{zoo, InputSpec, Layer, NetScratch, Optimizer, Sequential};
use middle_tensor::conv::ConvGeometry;
use middle_tensor::ops::cosine_similarity_slices;
use middle_tensor::random::rng;
use middle_tensor::Tensor;
use proptest::prelude::*;

fn mk_model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new()
        .push(Dense::new(4, 6, &mut r))
        .push(Relu::new())
        .push(Dense::new(6, 3, &mut r))
}

/// Whether some ReLU of [`mk_model`]`(seed)` fires on one of `xp`, `xm`
/// and not on the other: a finite difference across a kink measures no
/// derivative.
fn straddles_a_kink(seed: u64, xp: &Tensor, xm: &Tensor) -> bool {
    // The same first draws of the same rng: `mk_model`'s first layer.
    let first = Sequential::new().push(Dense::new(4, 6, &mut rng(seed)));
    let (hp, hm) = (first.infer(xp), first.infer(xm));
    hp.data()
        .iter()
        .zip(hm.data())
        .any(|(&a, &b)| (a > 0.0) != (b > 0.0))
}

/// A small CNN exercising every layer with a workspace kernel override:
/// conv2d, relu, maxpool, flatten, dense.
fn mk_cnn(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new()
        .push(Conv2d::new(
            ConvGeometry {
                in_c: 1,
                out_c: 3,
                kernel: 3,
                stride: 1,
                pad: 1,
                in_h: 6,
                in_w: 6,
            },
            &mut r,
        ))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Flatten::new())
        .push(Dense::new(27, 4, &mut r))
        .push(Relu::new())
        .push(Dense::new(4, 3, &mut r))
}

fn param_bits(m: &Sequential) -> Vec<u32> {
    flatten(m).iter().map(|v| v.to_bits()).collect()
}

/// The speech task's input: a flat 64-vector, ten classes.
const SPEECH: InputSpec = InputSpec {
    channels: 1,
    height: 1,
    width: 64,
    classes: 10,
};

/// Trains `ma` through `train_batch` and `mb` through `train_batch_ws` on
/// the same batches of `bs[step]` samples of `shape` (behind the batch
/// dimension), demanding equal losses and parameter bits after every
/// step and equal inference afterwards.
fn ws_matches_allocating(
    ma: &mut Sequential,
    mb: &mut Sequential,
    (oa, ob): (&mut dyn Optimizer, &mut dyn Optimizer),
    shape: [usize; 3],
    classes: usize,
    bs: &[usize],
    data_seed: u64,
) -> Result<(), String> {
    let mut scratch = NetScratch::new();
    let mut r = rng(data_seed);
    let [c, h, w] = shape;
    for &b in bs {
        let x = middle_tensor::random::uniform([b, c, h, w], -1.0, 1.0, &mut r);
        let labels: Vec<usize> = (0..b).map(|i| i % classes).collect();
        let la = ma.train_batch(&x, &labels, oa);
        let lb = mb.train_batch_ws(&x, &labels, ob, &mut scratch);
        prop_assert_eq!(la.to_bits(), lb.to_bits());
        prop_assert_eq!(param_bits(ma), param_bits(mb));
    }
    let x = middle_tensor::random::uniform([7, c, h, w], -1.0, 1.0, &mut r);
    let via_infer = ma.infer(&x);
    let via_ws = mb.infer_ws(&x, &mut scratch);
    prop_assert_eq!(via_infer.shape(), via_ws.shape());
    for (a, b) in via_infer.data().iter().zip(via_ws.data()) {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

/// The zoo's four models, each at its task's input (MNIST and CIFAR at
/// the synthetic tasks' 16×16).
fn zoo_model(which: usize, seed: u64) -> (Sequential, InputSpec) {
    let mnist = InputSpec {
        channels: 1,
        height: 16,
        width: 16,
        classes: 10,
    };
    let cifar = InputSpec {
        channels: 3,
        ..mnist
    };
    let mut r = rng(seed);
    match which {
        0 => (zoo::cnn2(&mnist, &mut r), mnist),
        1 => (zoo::cnn3(&cifar, &mut r), cifar),
        2 => (zoo::mlp(&SPEECH, 64, &mut r), SPEECH),
        _ => (zoo::logistic(&mnist, &mut r), mnist),
    }
}

/// SGD, momentum and Adam.
fn optimizer(which: usize) -> Box<dyn Optimizer> {
    match which {
        0 => OptimizerKind::Sgd { lr: 0.05 }.build(),
        1 => OptimizerKind::Momentum {
            lr: 0.05,
            momentum: 0.9,
        }
        .build(),
        _ => OptimizerKind::Adam { lr: 0.01 }.build(),
    }
}

/// Whether every value of `plane` is `+0.0`.
fn all_positive_zero(plane: &[f32]) -> bool {
    plane.iter().all(|v| v.to_bits() == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The full model gradient w.r.t. the input matches finite differences
    /// for random inputs and labels.
    #[test]
    fn model_input_gradient_matches_fd(
        seed in 0u64..1000,
        vals in prop::collection::vec(-1.0f32..1.0, 8),
        l0 in 0usize..3,
        l1 in 0usize..3,
    ) {
        let mut m = mk_model(seed);
        let x = Tensor::from_vec([2, 4], vals.clone());
        let labels = [l0, l1];
        let logits = m.forward(&x);
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        let mut grads = vec![0.0; m.param_count()];
        let dx = m.backward(&dlogits, &mut grads);

        let eps = 1e-2;
        let mut loss_at = |x: &Tensor| {
            let logits = m.forward(x);
            softmax_cross_entropy(&logits, &labels).0
        };
        for i in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            if straddles_a_kink(seed, &xp, &xm) {
                continue;
            }
            let fd = (loss_at(&xp) - loss_at(&xm)) / (2.0 * eps);
            prop_assert!(
                (fd - dx.data()[i]).abs() < 2e-2 + 0.1 * fd.abs(),
                "dx[{}]: fd={} analytic={}", i, fd, dx.data()[i]
            );
        }
    }

    #[test]
    fn blend_interpolates_cosine(seed_a in 0u64..100, seed_b in 100u64..200) {
        let a = mk_model(seed_a);
        let b = mk_model(seed_b);
        let mid = blend(&a, &b, 0.5);
        // The midpoint can't be *less* similar to a than b is (triangle-ish
        // sanity, holds for random init vectors with high probability).
        let ca = cosine_similarity_slices(mid.params(), a.params());
        let cb = cosine_similarity_slices(a.params(), b.params());
        prop_assert!(ca >= cb - 1e-4, "cos(mid,a)={} cos(a,b)={}", ca, cb);
    }

    #[test]
    fn weighted_average_is_permutation_invariant(
        sa in 0u64..50, sb in 50u64..100, sc in 100u64..150,
        w1 in 0.1f32..5.0, w2 in 0.1f32..5.0, w3 in 0.1f32..5.0,
    ) {
        let (a, b, c) = (mk_model(sa), mk_model(sb), mk_model(sc));
        let m1 = weighted_average(&[&a, &b, &c], &[w1, w2, w3]);
        let m2 = weighted_average(&[&c, &a, &b], &[w3, w1, w2]);
        for (x, y) in flatten(&m1).iter().zip(flatten(&m2)) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn delta_plus_base_recovers_model(sa in 0u64..50, sb in 50u64..100) {
        let a = mk_model(sa);
        let b = mk_model(sb);
        let d = delta(&a, &b);
        let fb = flatten(&b);
        let rebuilt: Vec<f32> = fb.iter().zip(&d).map(|(x, y)| x + y).collect();
        let mut back = b.clone();
        unflatten(&mut back, &rebuilt);
        for (x, y) in flatten(&a).iter().zip(flatten(&back)) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// Training on a batch reduces that batch's loss for a small enough
    /// learning rate (descent property).
    #[test]
    fn sgd_step_descends(seed in 0u64..200) {
        let mut m = mk_model(seed);
        let mut r = rng(seed ^ 0xABCD);
        let x = middle_tensor::random::uniform([6, 4], -1.0, 1.0, &mut r);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let loss = |m: &Sequential| softmax_cross_entropy(&m.infer(&x), &labels).0;
        let before = loss(&m);
        let mut opt = middle_nn::optim::Sgd::new(0.01);
        m.train_batch(&x, &labels, &mut opt);
        let after = loss(&m);
        prop_assert!(after <= before + 1e-4, "loss rose: {} -> {}", before, after);
    }

    /// The workspace train path (`train_batch_ws` with a reused
    /// `NetScratch`) is bitwise-identical to the allocating
    /// `train_batch` path: same losses, same parameter trajectories,
    /// same inference outputs afterwards — across varying batch sizes,
    /// which forces mid-run scratch re-growth. Two models: a small CNN
    /// under momentum, and the speech task's MLP under Adam at the
    /// batches `lazy_100k` and `async_hostile` train it at (2 and 16),
    /// which covers the dense kernels' both forward paths, the loss, the
    /// skipped input gradient below the first `Dense` and the optimizer
    /// hand-off.
    #[test]
    fn ws_train_path_matches_allocating_path_bitwise(
        seed in 0u64..500,
        data_seed in 0u64..1000,
        steps in 1usize..4,
        bs0 in 1usize..5,
    ) {
        let mut ma = mk_cnn(seed);
        let mut mb = ma.clone();
        let kind = OptimizerKind::Momentum { lr: 0.05, momentum: 0.9 };
        let (mut oa, mut ob) = (kind.build(), kind.build());
        // Vary the batch size across steps.
        let bs: Vec<usize> = (0..steps).map(|s| bs0 + s % 2).collect();
        ws_matches_allocating(&mut ma, &mut mb, (oa.as_mut(), ob.as_mut()), [1, 6, 6], 3, &bs, data_seed)?;

        let mut ma = zoo::mlp(&SPEECH, 64, &mut rng(seed));
        let mut mb = ma.clone();
        let kind = OptimizerKind::Adam { lr: 0.001 };
        let (mut oa, mut ob) = (kind.build(), kind.build());
        let bs: Vec<usize> = (0..steps + 1).map(|s| [2, 16][(bs0 + s) % 2]).collect();
        ws_matches_allocating(&mut ma, &mut mb, (oa.as_mut(), ob.as_mut()), [1, 1, 64], 10, &bs, data_seed)?;
    }

    /// `Optimizer::reset` restores fresh-build semantics bitwise: training
    /// with one long-lived, reset optimizer matches training with a fresh
    /// optimizer per round, for every optimizer kind.
    #[test]
    fn optimizer_reset_matches_fresh_build(seed in 0u64..300, data_seed in 0u64..1000) {
        for kind in [
            OptimizerKind::Sgd { lr: 0.05 },
            OptimizerKind::Momentum { lr: 0.05, momentum: 0.9 },
            OptimizerKind::Adam { lr: 0.01 },
        ] {
            let mut ma = mk_cnn(seed);
            let mut mb = ma.clone();
            let mut persistent = kind.build();
            let mut scratch = NetScratch::new();
            let mut r = rng(data_seed);
            for _round in 0..2 {
                let mut fresh = kind.build();
                persistent.reset();
                for _ in 0..2 {
                    let x = middle_tensor::random::uniform([3, 1, 6, 6], -1.0, 1.0, &mut r);
                    let labels = [0usize, 1, 2];
                    // Same data for both paths: regenerate from a clone of
                    // the tensor rather than re-drawing.
                    ma.train_batch(&x, &labels, fresh.as_mut());
                    mb.train_batch_ws(&x, &labels, persistent.as_mut(), &mut scratch);
                }
                prop_assert_eq!(param_bits(&ma), param_bits(&mb));
            }
        }
    }

    /// Relu backward never amplifies a gradient elementwise.
    #[test]
    fn relu_backward_is_contraction(vals in prop::collection::vec(-2.0f32..2.0, 16)) {
        let mut relu = Relu::new();
        let x = Tensor::from_vec([16], vals);
        relu.forward(&[], &x);
        let g = Tensor::full([16], 1.0);
        let dx = relu.backward(&[], &mut [], &g);
        for (d, u) in dx.data().iter().zip(g.data()) {
            prop_assert!(d.abs() <= u.abs() + 1e-6);
        }
    }
}

/// Bit patterns a uniform draw all but never hits: ±0, ±inf, the
/// smallest and largest subnormals, quiet and signalling NaNs with
/// payloads, the largest finite value.
const F32_CORNERS: [u32; 10] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7fc0_0000,
    0xffc1_2345,
    0x7f80_0001,
    0x7f7f_ffff,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A packed `f32` plane is its values' bits: any pattern — NaN
    /// payloads, infinities, `-0.0`, subnormals, all of which the
    /// decimal writer lost or had to print digit by digit — survives
    /// a JSON round trip exactly, at 8 hex digits per value.
    #[test]
    fn packed_f32_planes_round_trip_every_bit_pattern(
        drawn in prop::collection::vec(0u32..=u32::MAX, 0..48),
    ) {
        let bits: Vec<u32> = drawn.into_iter().chain(F32_CORNERS).collect();
        let ck = Checkpoint {
            layout: vec![bits.len()],
            values: Packed(bits.iter().map(|&b| f32::from_bits(b)).collect()),
        };
        let json = serde_json::to_string(&ck).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits.clone());
        prop_assert_eq!(back.layout, ck.layout.clone());
        prop_assert_eq!(json.len(), r#"{"layout":[],"values":""}"#.len()
            + bits.len().to_string().len() + 8 * bits.len());
    }

    /// The same for `f64` planes (the compression residuals), 16 digits
    /// per value.
    #[test]
    fn packed_f64_planes_round_trip_every_bit_pattern(
        drawn in prop::collection::vec(0u64..=u64::MAX, 0..24),
    ) {
        let corners = F32_CORNERS.map(|b| u64::from(b) << 32 | u64::from(b & 0xffff));
        let bits: Vec<u64> = drawn.into_iter().chain(corners).collect();
        let plane = Packed(bits.iter().map(|&b| f64::from_bits(b)).collect::<Vec<f64>>());
        let json = serde_json::to_string(&plane).unwrap();
        prop_assert_eq!(json.len(), 2 + 16 * bits.len());
        let back: Packed<f64> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
    }
}

proptest! {
    // Twelve model × optimizer pairs a case, three paths each.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The gradient plane a scratch lends every model it trains is
    /// exact: for every zoo model under every optimizer, one scratch
    /// shared by the four architectures in turn (so its plane is resized
    /// between models of different sizes) trains each model bit for bit
    /// as a scratch of its own does and as the allocating oracle
    /// `train_batch` does, and after every `train_batch_ws` the plane is
    /// all `+0.0`.
    #[test]
    fn shared_gradient_plane_is_exact(
        seed in 0u64..500,
        data_seed in 0u64..1000,
        first in 0usize..4,
        bs in 1usize..4,
    ) {
        let mut shared = NetScratch::new();
        let mut r = rng(data_seed);
        for opt in 0..3 {
            for k in 0..4 {
                let (model, spec) = zoo_model((first + k) % 4, seed);
                let (mut via_shared, mut via_own, mut via_oracle) =
                    (model.clone(), model.clone(), model);
                let mut own = NetScratch::new();
                let (mut o_shared, mut o_own, mut o_oracle) =
                    (optimizer(opt), optimizer(opt), optimizer(opt));
                for step in 0..2 {
                    let b = bs + step;
                    let x = middle_tensor::random::uniform(
                        [b, spec.channels, spec.height, spec.width],
                        -1.0,
                        1.0,
                        &mut r,
                    );
                    let labels: Vec<usize> = (0..b).map(|i| (i * 7 + step) % spec.classes).collect();
                    let l_shared = via_shared.train_batch_ws(&x, &labels, o_shared.as_mut(), &mut shared);
                    prop_assert!(all_positive_zero(shared.grad_plane()));
                    prop_assert_eq!(shared.grad_plane().len(), via_shared.param_count());
                    let l_own = via_own.train_batch_ws(&x, &labels, o_own.as_mut(), &mut own);
                    prop_assert!(all_positive_zero(own.grad_plane()));
                    let l_oracle = via_oracle.train_batch(&x, &labels, o_oracle.as_mut());
                    prop_assert_eq!(l_shared.to_bits(), l_own.to_bits());
                    prop_assert_eq!(l_shared.to_bits(), l_oracle.to_bits());
                    prop_assert_eq!(param_bits(&via_shared), param_bits(&via_own));
                    prop_assert_eq!(param_bits(&via_shared), param_bits(&via_oracle));
                }
            }
        }
    }
}
