//! Evaluation metrics: accuracy, per-class accuracy and confusion
//! matrices — the quantities plotted in the paper's Figures 1, 2 and 6–8.

use serde::{Deserialize, Serialize};

/// A `C × C` confusion matrix (`rows = true class`, `cols = predicted`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    classes: usize,
    counts: Vec<usize>,
}

impl Confusion {
    /// An empty matrix for `classes` classes.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Confusion {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from parallel truth/prediction slices.
    pub fn from_predictions(truth: &[usize], pred: &[usize], classes: usize) -> Self {
        assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
        let mut m = Confusion::new(classes);
        for (&t, &p) in truth.iter().zip(pred) {
            m.record(t, p);
        }
        m
    }

    /// Records one observation.
    pub fn record(&mut self, truth: usize, pred: usize) {
        assert!(
            truth < self.classes && pred < self.classes,
            "class out of range"
        );
        self.counts[truth * self.classes + pred] += 1;
    }

    /// Count at `(truth, pred)`.
    pub fn at(&self, truth: usize, pred: usize) -> usize {
        self.counts[truth * self.classes + pred]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0.0 when empty).
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.classes).map(|c| self.at(c, c)).sum();
        correct as f32 / total as f32
    }

    /// Recall (per-class accuracy) for each class; `None` for classes
    /// with no observations.
    pub fn per_class_accuracy(&self) -> Vec<Option<f32>> {
        (0..self.classes)
            .map(|c| {
                let row: usize = (0..self.classes).map(|p| self.at(c, p)).sum();
                if row == 0 {
                    None
                } else {
                    Some(self.at(c, c) as f32 / row as f32)
                }
            })
            .collect()
    }
}

/// Plain accuracy of predictions against truth.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f32 {
    assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(pred).filter(|(a, b)| a == b).count();
    correct as f32 / truth.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_records_and_scores() {
        let m = Confusion::from_predictions(&[0, 0, 1, 1], &[0, 1, 1, 1], 2);
        assert_eq!(m.at(0, 0), 1);
        assert_eq!(m.at(0, 1), 1);
        assert_eq!(m.at(1, 1), 2);
        assert_eq!(m.total(), 4);
        assert!((m.accuracy() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn per_class_handles_missing_classes() {
        let m = Confusion::from_predictions(&[0, 0], &[0, 1], 3);
        let per = m.per_class_accuracy();
        assert_eq!(per[0], Some(0.5));
        assert_eq!(per[1], None);
        assert_eq!(per[2], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_record_panics() {
        Confusion::new(2).record(2, 0);
    }
}
