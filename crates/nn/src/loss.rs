//! Softmax cross-entropy, batch and per sample.

use middle_tensor::reduce::{logsumexp_rows, softmax_rows};
use middle_tensor::Tensor;

/// Mean softmax cross-entropy over a batch.
///
/// * `logits`: `[N, C]` raw scores
/// * `labels`: class index per sample
///
/// Returns `(loss, dlogits)` where the gradient is already divided by the
/// batch size (so optimizer steps are batch-size invariant).
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, C]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert!(n > 0, "empty batch");
    assert!(
        labels.iter().all(|&l| l < c),
        "label out of range for {c} classes"
    );

    let lse = logsumexp_rows(logits);
    let mut loss = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        loss += lse.data()[i] - logits.at(&[i, y]);
    }
    loss /= n as f32;

    let mut dlogits = softmax_rows(logits);
    let inv_n = 1.0 / n as f32;
    for (i, &y) in labels.iter().enumerate() {
        let row = dlogits.row_mut(i);
        row[y] -= 1.0;
        for v in row {
            *v *= inv_n;
        }
    }
    (loss, dlogits)
}

/// [`softmax_cross_entropy`] writing the gradient into caller-owned
/// storage. Bitwise-identical loss and gradient; `dlogits` is resized and
/// fully overwritten.
///
/// One `exp` pass per row serves both halves: the terms
/// `(v − max).exp()` are written into `dlogits` and summed in sequence,
/// which is the log-sum-exp's `Iterator::sum` and `softmax_inplace`'s
/// loop at once. Their sums start from different identities (`Sum`'s, and
/// `0.0`), which cannot differ here: an `exp` term is never `-0.0`.
pub fn softmax_cross_entropy_into(logits: &Tensor, labels: &[usize], dlogits: &mut Tensor) -> f32 {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, C]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "labels length mismatch");
    assert!(n > 0, "empty batch");
    assert!(
        labels.iter().all(|&l| l < c),
        "label out of range for {c} classes"
    );

    dlogits.resize(logits.shape());
    let inv_n = 1.0 / n as f32;
    let mut loss = 0.0f32;
    let rows = logits
        .data()
        .chunks_exact(c)
        .zip(dlogits.data_mut().chunks_exact_mut(c));
    for ((row, drow), &y) in rows.zip(labels) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &v) in drow.iter_mut().zip(row) {
            *d = (v - max).exp();
            sum += *d;
        }
        let lse = max + sum.ln();
        loss += lse - row[y];
        for d in drow.iter_mut() {
            *d /= sum;
        }
        drow[y] -= 1.0;
        for d in drow.iter_mut() {
            *d *= inv_n;
        }
    }
    loss / n as f32
}

/// Per-sample softmax cross-entropy losses (no gradient) — used by the
/// Oort statistical utility, which needs each sample's loss.
pub fn per_sample_cross_entropy(logits: &Tensor, labels: &[usize]) -> Vec<f32> {
    let mut out = Vec::new();
    per_sample_cross_entropy_into(logits, labels, &mut out);
    out
}

/// [`per_sample_cross_entropy`] into a caller-owned vector (cleared and
/// refilled).
pub fn per_sample_cross_entropy_into(logits: &Tensor, labels: &[usize], out: &mut Vec<f32>) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, C]");
    let n = logits.shape().dim(0);
    assert_eq!(labels.len(), n, "labels length mismatch");
    out.clear();
    out.extend(labels.iter().enumerate().map(|(i, &y)| {
        let row = logits.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        lse - row[y]
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros([4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros([1, 3]);
        logits.set(&[0, 1], 20.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-3);
        let (loss_wrong, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss_wrong > 10.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 1.0, 1.0, -0.5]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fd = (softmax_cross_entropy(&lp, &labels).0
                - softmax_cross_entropy(&lm, &labels).0)
                / (2.0 * eps);
            assert!((fd - grad.data()[i]).abs() < 1e-3, "grad[{i}]");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        for i in 0..2 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn per_sample_losses_average_to_batch_loss() {
        let logits = Tensor::from_vec([3, 2], vec![1., 0., 0., 1., 0.5, 0.5]);
        let labels = [0usize, 1, 0];
        let per = per_sample_cross_entropy(&logits, &labels);
        let mean: f32 = per.iter().sum::<f32>() / 3.0;
        let (batch, _) = softmax_cross_entropy(&logits, &labels);
        assert!((mean - batch).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        softmax_cross_entropy(&Tensor::zeros([1, 3]), &[3]);
    }
}
