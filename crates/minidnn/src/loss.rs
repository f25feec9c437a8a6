//! Loss functions: softmax cross-entropy and mean squared error.

use std::cmp::Ordering::Equal;

use crate::tensor::Tensor;

/// Softmax cross-entropy over logits, batched.
///
/// Returns `(mean loss, d(loss)/d(logits))`. The gradient is already
/// divided by the batch size, so summing per-worker gradients and dividing
/// by the worker count yields the exact global-batch gradient (Eq. 2).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
#[must_use]
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let batch = logits.rows();
    let classes = logits.cols();
    assert_eq!(labels.len(), batch, "one label per batch row required");
    let mut grad = Tensor::zeros(&[batch, classes]);
    let mut total_loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        // Numerically stable softmax.
        let row_max = (0..classes)
            .map(|c| logits.at(r, c))
            .fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for c in 0..classes {
            denom += (logits.at(r, c) - row_max).exp();
        }
        let log_denom = denom.ln();
        total_loss += -(logits.at(r, label) - row_max - log_denom);
        for c in 0..classes {
            let p = (logits.at(r, c) - row_max).exp() / denom;
            *grad.at_mut(r, c) = (p - f32::from(c == label)) / batch as f32;
        }
    }
    (total_loss / batch as f32, grad)
}

/// Mean squared error `mean((pred - target)^2)`, batched.
///
/// Returns `(loss, d(loss)/d(pred))`.
///
/// # Panics
///
/// Panics if shapes differ.
#[must_use]
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let mut grad = pred.clone();
    let mut loss = 0.0f32;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let diff = *g - t;
        loss += diff * diff;
        *g = 2.0 * diff / n;
    }
    (loss / n, grad)
}

/// Fraction of rows whose argmax matches the label. A row with a NaN
/// logit (a diverged network) has no argmax and counts as wrong.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
#[must_use]
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let batch = logits.rows();
    assert_eq!(labels.len(), batch, "one label per batch row required");
    if batch == 0 {
        return 0.0;
    }
    let classes = logits.cols();
    let correct = (0..batch)
        .filter(|&r| {
            let row = &logits.data()[r * classes..(r + 1) * classes];
            // Past the NaN test every pair compares; ties go to the last.
            !row.iter().any(|x| x.is_nan())
                && (0..classes).max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap_or(Equal))
                    == Some(labels[r])
        })
        .count();
    correct as f32 / batch as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
        // Gradient sums to zero per row.
        for r in 0..2 {
            let s: f32 = (0..4).map(|c| grad.at(r, c)).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "index {i}: fd {fd} vs grad {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn mse_basics() {
        let pred = Tensor::from_vec(&[1, 2], vec![1.0, 3.0]);
        let target = Tensor::from_vec(&[1, 2], vec![0.0, 0.0]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 5.0).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 3.0]);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(&[2, 2], vec![0.9, 0.1, 0.2, 0.8]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
    }

    #[test]
    fn a_nan_logit_counts_as_wrong() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.1, f32::NAN, 0.3, 0.7, 0.2, 0.1]);
        assert_eq!(accuracy(&logits, &[2, 0]), 0.5);
        assert_eq!(accuracy(&logits, &[1, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }
}
