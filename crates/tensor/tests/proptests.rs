//! Property-based tests for the tensor substrate: algebraic invariants,
//! plus bitwise equivalence of the blocked/batched training kernels
//! against their straightforward oracles.

use middle_tensor::conv::{
    conv2d_backward, conv2d_backward_into, conv2d_forward, conv2d_forward_into, ConvGeometry,
    ConvScratch,
};
use middle_tensor::matmul::{
    matmul, matmul_at, matmul_at_into, matmul_at_into_reference, matmul_bt, matmul_bt_into,
    matmul_into, matmul_into_reference,
};
use middle_tensor::ops::cosine_similarity_slices;
use middle_tensor::random::{rng, uniform};
use middle_tensor::reduce;
use middle_tensor::Tensor;
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

/// Deterministic values in [-1, 1] with exact `+0.0`, `-0.0` and
/// subnormals sprinkled in. The zeros exercise the reference kernels'
/// `!= 0.0` skips, which the fast kernels intentionally drop (adding a
/// ±0.0 product to an accumulator that started at `+0.0` is a bitwise
/// no-op); the subnormals would expose a flush-to-zero or a reordered
/// sum.
fn mixed_vals(len: usize, seed: u64) -> Vec<f32> {
    let mut v = uniform([len.max(1)], -1.0, 1.0, &mut rng(seed))
        .data()
        .to_vec();
    v.truncate(len);
    for (i, x) in v.iter_mut().enumerate() {
        match i % 13 {
            3 | 8 => *x = 0.0,
            5 => *x = -0.0,
            11 => *x = f32::from_bits((i as u32 % 2) << 31 | (1 + i as u32 * 7919 % 0x7f_ffff)),
            _ => {}
        }
    }
    v
}

fn bits(t: &Tensor) -> Vec<u32> {
    slice_bits(t.data())
}

fn slice_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(in, out)` of the model zoo's dense layers.
const DENSE_SHAPES: [(usize, usize); 5] = [(256, 64), (64, 64), (64, 32), (32, 10), (64, 10)];

/// Batches that fill a row quad partly and exactly, a lane group partly
/// and exactly, a group and a part, and two and a half groups.
const DENSE_BATCHES: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 40];

/// A gradient after a ReLU: the entries whose unit did not fire are
/// exactly `+0.0` (about half), the rest `mixed_vals`.
fn relu_masked(len: usize, seed: u64) -> Vec<f32> {
    let fired = mixed_vals(len, seed ^ 0xF1);
    mixed_vals(len, seed)
        .into_iter()
        .zip(fired)
        .map(|(v, f)| if f > 0.0 { v } else { 0.0 })
        .collect()
}

/// A dense layer's forward (`matmul_bt_into`) and weight gradient
/// (`matmul_at_into`) at batch `m`, `k` inputs and `n` outputs, each held
/// bitwise to its oracle; the outputs start poisoned.
fn dense_kernels_match_oracles(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let x = mixed_vals(m * k, seed);
    let w = mixed_vals(n * k, seed ^ 0x5EED);
    let want = matmul_bt(
        &Tensor::from_vec([m, k], x.clone()),
        &Tensor::from_vec([n, k], w.clone()),
    );
    let mut y = vec![f32::NAN; m * n];
    matmul_bt_into(&x, &w, &mut y, m, k, n);
    prop_assert_eq!(slice_bits(&y), bits(&want));

    for dy in [mixed_vals(m * n, seed ^ 0xD7), relu_masked(m * n, seed)] {
        let mut fast = vec![f32::NAN; n * k];
        let mut oracle = vec![f32::NAN; n * k];
        matmul_at_into(&dy, &x, &mut fast, n, m, k);
        matmul_at_into_reference(&dy, &x, &mut oracle, n, m, k);
        prop_assert_eq!(slice_bits(&fast), slice_bits(&oracle));
    }
    Ok(())
}

/// How many leading entries of `CONV_SHAPES` are the model zoo's layers.
const ZOO_SHAPES: usize = 4;

/// `[in_c, out_c, kernel, stride, pad, in_h, in_w]` of the shapes the conv
/// battery walks: the zoo's four layers (cnn2 / cnn3; one 16-wide row, two
/// 8-wide rows and four 4-wide rows to a vector, 8- and 16-channel
/// gradient tiles), then kernels 5 and 1, no padding, `pad = k − 1` and
/// padding as wide as the kernel (outputs that see only border), strides
/// 2 and 3, non-square planes whose rows fill no vector, and channel
/// counts that fill no tile.
const CONV_SHAPES: &[[usize; 7]] = &[
    [1, 8, 3, 1, 1, 16, 16],
    [3, 8, 3, 1, 1, 16, 16],
    [8, 16, 3, 1, 1, 8, 8],
    [16, 16, 3, 1, 1, 4, 4],
    [2, 8, 5, 1, 2, 8, 8],
    [3, 12, 1, 1, 0, 6, 10],
    [2, 24, 3, 1, 0, 6, 10],
    [1, 3, 3, 1, 2, 5, 7],
    [5, 12, 3, 2, 1, 8, 8],
    [1, 8, 3, 3, 1, 5, 7],
    [3, 24, 5, 2, 4, 6, 10],
    [4, 3, 2, 1, 1, 4, 12],
    [6, 5, 3, 1, 1, 16, 4],
    [2, 5, 2, 1, 2, 5, 6],
    [1, 4, 1, 2, 1, 4, 4],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cosine_bounded_and_symmetric(a in finite_vec(12), b in finite_vec(12)) {
        let s = cosine_similarity_slices(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
        let s2 = cosine_similarity_slices(&b, &a);
        prop_assert!((s - s2).abs() < 1e-5);
    }

    #[test]
    fn cosine_self_is_one_for_nonzero(a in finite_vec(6)) {
        prop_assume!(a.iter().any(|x| x.abs() > 1e-3));
        prop_assert!((cosine_similarity_slices(&a, &a) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in finite_vec(6), b in finite_vec(8), c in finite_vec(8)
    ) {
        let a = Tensor::from_vec([3, 2], a);
        let b = Tensor::from_vec([2, 4], b);
        let c = Tensor::from_vec([2, 4], c);
        let add = |p: &Tensor, q: &Tensor| {
            let sum = p.data().iter().zip(q.data()).map(|(x, y)| x + y).collect();
            Tensor::from_vec(p.shape().clone(), sum)
        };
        let lhs = matmul(&a, &add(&b, &c));
        let rhs = add(&matmul(&a, &b), &matmul(&a, &c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn matmul_transpose_identities(a in finite_vec(12), b in finite_vec(20)) {
        let a = Tensor::from_vec([3, 4], a);
        let b = Tensor::from_vec([5, 4], b);
        // a (3x4) · bᵀ (4x5)
        let fused = matmul_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose());
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + y.abs()));
        }
        // aᵀ (4x3) · a — via matmul_at with both operands rank-2 [3,4]x[3,4]→[4,4]
        let at = matmul_at(&a, &a);
        let explicit_at = matmul(&a.transpose(), &a);
        for (x, y) in at.data().iter().zip(explicit_at.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn transpose_is_involution(v in finite_vec(24)) {
        let t = Tensor::from_vec([4, 6], v);
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn softmax_rows_are_distributions(v in finite_vec(15)) {
        let t = Tensor::from_vec([3, 5], v);
        let s = reduce::softmax_rows(&t);
        for i in 0..3 {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(v in finite_vec(5)) {
        let t = Tensor::from_vec([1, 5], v.clone());
        let s = reduce::softmax_rows(&t);
        prop_assert_eq!(reduce::argmax_rows(&t), reduce::argmax_rows(&s));
    }

    /// The cache-blocked GEMM microkernel is bitwise-identical to the
    /// pre-blocking reference kernel across odd shapes: column counts
    /// below one tile, non-multiples of the tile width, and inputs
    /// containing exact zeros (the reference's skipped terms).
    #[test]
    fn blocked_matmul_matches_reference_bitwise(
        m in 1usize..8,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = mixed_vals(m * k, seed);
        let b = mixed_vals(k * n, seed ^ 0x5EED);
        let mut fast = vec![7.0f32; m * n]; // poisoned: must be overwritten
        let mut refc = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut fast, m, k, n);
        matmul_into_reference(&a, &b, &mut refc, m, k, n);
        for (x, y) in fast.iter().zip(&refc) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The dense forward and weight gradient are bitwise-identical to
    /// their oracles (`matmul_bt`'s per-element `dot_slices_reference`,
    /// the pre-tiling `matmul_at_into_reference`) at every batch from 1
    /// to 20 and 40 — row quads and sample groups the batch fills partly
    /// or wholly, one and two and a half groups — every width from 1 to
    /// 70 and 256 (tails of every length mod 4, lane slabs of every
    /// width) and every output count from 1 to 70, on `±0.0`,
    /// subnormals and a ReLU-masked `dy`; and on one of the zoo's dense
    /// layers at every batch of `DENSE_BATCHES`, then with a `k mod 4`
    /// tail at one of them.
    #[test]
    fn dense_kernels_match_their_oracles_bitwise(
        m in 1usize..=21,
        k in 1usize..=71,
        n in 1usize..=70,
        zoo in 0usize..DENSE_SHAPES.len(),
        seed in 0u64..1000,
    ) {
        let m = if m == 21 { 40 } else { m };
        let k = if k == 71 { 256 } else { k };
        dense_kernels_match_oracles(m, k, n, seed)?;
        let (zk, zn) = DENSE_SHAPES[zoo];
        for zm in DENSE_BATCHES {
            dense_kernels_match_oracles(zm, zk, zn, seed ^ 0x200)?;
        }
        let zm = DENSE_BATCHES[seed as usize % DENSE_BATCHES.len()];
        dense_kernels_match_oracles(zm, zk + 1 + seed as usize % 3, zn, seed ^ 0x300)?;
    }

    /// The direct convolution forward and backward are bitwise-identical
    /// to the per-sample oracle kernels, including the input/weight/bias
    /// gradients — on the original 2→3 geometry (with the `stride` and
    /// `n` inputs) and on every shape of `CONV_SHAPES`, walked from
    /// `first` with ONE scratch: equal to the oracle after any other
    /// shape's leftovers is equal to a fresh scratch.
    #[test]
    fn batched_conv_matches_per_sample_oracle_bitwise(
        n in 1usize..4,
        seed in 0u64..1000,
        stride in 1usize..3,
        first in 0usize..CONV_SHAPES.len(),
    ) {
        let mut scratch = ConvScratch::default();
        let mut out = Tensor::zeros([0]);
        let mut dw = Tensor::zeros([0]);
        let mut db = Tensor::zeros([0]);
        let mut di = Tensor::zeros([0]);
        for step in 0..=CONV_SHAPES.len() {
            let (g, n) = if step == 0 {
                let g = ConvGeometry {
                    in_c: 2, out_c: 3, kernel: 3, stride, pad: 1, in_h: 5, in_w: 5,
                };
                (g, n)
            } else {
                let i = (first + step) % CONV_SHAPES.len();
                let [in_c, out_c, kernel, stride, pad, in_h, in_w] = CONV_SHAPES[i];
                let g = ConvGeometry { in_c, out_c, kernel, stride, pad, in_h, in_w };
                // The zoo's layers also run at the paper's batch of 16.
                (g, if i < ZOO_SHAPES { [1, 3, 16][n - 1] } else { n })
            };
            let seed = seed + 1000 * step as u64;
            let input = Tensor::from_vec(
                [n, g.in_c, g.in_h, g.in_w],
                mixed_vals(n * g.in_c * g.in_h * g.in_w, seed),
            );
            let weight = Tensor::from_vec(
                [g.out_c, g.patch_len()],
                mixed_vals(g.out_c * g.patch_len(), seed ^ 0xAB),
            );
            let bias = Tensor::from_vec([g.out_c], mixed_vals(g.out_c, seed ^ 0xCD));
            let dout = Tensor::from_vec(
                [n, g.out_c, g.out_h(), g.out_w()],
                mixed_vals(n * g.out_c * g.out_h() * g.out_w(), seed ^ 0xEF),
            );

            let oracle_out = conv2d_forward(&input, &weight, &bias, &g);
            let (odi, odw, odb) = conv2d_backward(&input, &weight, &dout, &g);

            conv2d_forward_into(&input, &weight, &bias, &g, &mut scratch, &mut out);
            conv2d_backward_into(&input, &weight, &dout, &g, &mut scratch, &mut dw, &mut db, Some(&mut di));

            prop_assert_eq!(out.shape(), oracle_out.shape());
            prop_assert_eq!(bits(&out), bits(&oracle_out));
            prop_assert_eq!(bits(&dw), bits(&odw));
            prop_assert_eq!(bits(&db), bits(&odb));
            prop_assert_eq!(di.shape(), odi.shape());
            prop_assert_eq!(bits(&di), bits(&odi));
        }
    }

    /// Reusing one `ConvScratch` across batches of different sizes
    /// (growing and shrinking the workspace) is bitwise-identical to
    /// running each batch with a fresh scratch.
    #[test]
    fn conv_scratch_reuse_matches_fresh_bitwise(seed in 0u64..1000) {
        let g = ConvGeometry {
            in_c: 1, out_c: 2, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 4,
        };
        let weight = Tensor::from_vec(
            [g.out_c, g.patch_len()],
            mixed_vals(g.out_c * g.patch_len(), seed ^ 0x11),
        );
        let bias = Tensor::from_vec([g.out_c], mixed_vals(g.out_c, seed ^ 0x22));

        let mut reused = ConvScratch::default();
        let mut out_r = Tensor::zeros([0]);
        let mut dw_r = Tensor::zeros([0]);
        let mut db_r = Tensor::zeros([0]);
        let mut di_r = Tensor::zeros([0]);
        for (i, n) in [3usize, 1, 2].into_iter().enumerate() {
            let input = Tensor::from_vec(
                [n, g.in_c, g.in_h, g.in_w],
                mixed_vals(n * g.in_c * g.in_h * g.in_w, seed + i as u64),
            );
            let dout = Tensor::from_vec(
                [n, g.out_c, g.out_h(), g.out_w()],
                mixed_vals(n * g.out_c * g.out_h() * g.out_w(), seed + 100 + i as u64),
            );
            conv2d_forward_into(&input, &weight, &bias, &g, &mut reused, &mut out_r);
            conv2d_backward_into(
                &input, &weight, &dout, &g, &mut reused, &mut dw_r, &mut db_r, Some(&mut di_r),
            );

            let mut fresh = ConvScratch::default();
            let mut out_f = Tensor::zeros([0]);
            let mut dw_f = Tensor::zeros([0]);
            let mut db_f = Tensor::zeros([0]);
            let mut di_f = Tensor::zeros([0]);
            conv2d_forward_into(&input, &weight, &bias, &g, &mut fresh, &mut out_f);
            conv2d_backward_into(
                &input, &weight, &dout, &g, &mut fresh, &mut dw_f, &mut db_f, Some(&mut di_f),
            );

            prop_assert_eq!(bits(&out_r), bits(&out_f));
            prop_assert_eq!(bits(&dw_r), bits(&dw_f));
            prop_assert_eq!(bits(&db_r), bits(&db_f));
            prop_assert_eq!(bits(&di_r), bits(&di_f));
        }
    }
}
