//! Axis reductions and row-wise softmax utilities for rank-2 tensors.

use crate::tensor::Tensor;

/// Sums a `[N, C]` matrix over axis 0, producing `[C]` (used for bias
/// gradients).
pub fn sum_axis0(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "sum_axis0 requires a matrix");
    let (n, c) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = Tensor::zeros([c]);
    let od = out.data_mut();
    for i in 0..n {
        for (o, &v) in od.iter_mut().zip(t.row(i)) {
            *o += v;
        }
    }
    out
}

/// Row-wise numerically-stable softmax of a `[N, C]` logit matrix.
pub fn softmax_rows(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "softmax_rows requires a matrix");
    let mut out = t.clone();
    for i in 0..t.shape().dim(0) {
        softmax_inplace(out.row_mut(i));
    }
    out
}

/// In-place numerically-stable softmax of one logit row.
pub fn softmax_inplace(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // sum >= 1 because the max logit maps to exp(0) = 1.
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Row-wise log-sum-exp of a `[N, C]` matrix, producing `[N]`.
pub fn logsumexp_rows(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "logsumexp_rows requires a matrix");
    let n = t.shape().dim(0);
    let data = (0..n)
        .map(|i| {
            let row = t.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln()
        })
        .collect();
    Tensor::from_vec([n], data)
}

/// Row-wise argmax of a `[N, C]` matrix — predicted class labels.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    assert_eq!(t.shape().rank(), 2, "argmax_rows requires a matrix");
    (0..t.shape().dim(0))
        .map(|i| {
            let row = t.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate().skip(1) {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_sums() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(sum_axis0(&t).data(), &[5., 7., 9.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let s = softmax_rows(&t);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(i).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let b = Tensor::from_vec([1, 3], vec![1001., 1002., 1003.]);
        let (sa, sb) = (softmax_rows(&a), softmax_rows(&b));
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(sb.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn logsumexp_matches_naive_on_moderate_values() {
        let t = Tensor::from_vec([1, 4], vec![0.5, -1.0, 2.0, 0.0]);
        let naive = t.row(0).iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!((logsumexp_rows(&t).data()[0] - naive).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_per_row() {
        let t = Tensor::from_vec([2, 3], vec![1., 9., 2., 7., 0., 3.]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }
}
