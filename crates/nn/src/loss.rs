//! Classification loss and metrics.
//!
//! The paper trains ten-class image classifiers with the standard softmax
//! cross-entropy loss; [`softmax_cross_entropy_into`] returns the mean loss
//! over the batch and writes its gradient with respect to the logits
//! straight into the arena slot [`crate::Network::backward_arena`] starts
//! from. The allocating `softmax` and `softmax_cross_entropy` it replaced
//! are kept as its test reference.

use fedadmm_tensor::{Tensor, TensorError, TensorResult};

/// Numerically stable softmax over the last dimension of a `[batch, classes]`
/// tensor.
#[cfg(test)]
pub(crate) fn softmax(logits: &Tensor) -> TensorResult<Tensor> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
        });
    }
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    let mut out = logits.clone();
    for b in 0..batch {
        let row = &mut out.data_mut()[b * classes..(b + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    Ok(out)
}

/// [`softmax_cross_entropy_into`] returning the gradient as a new tensor.
#[cfg(test)]
pub(crate) fn softmax_cross_entropy(
    logits: &Tensor,
    labels: &[usize],
) -> TensorResult<(f32, Tensor)> {
    let mut grad = Tensor::zeros(&[0]);
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad)?;
    Ok((loss, grad))
}

/// Mean softmax cross-entropy loss, writing its gradient with respect to the
/// logits into a caller-owned tensor.
///
/// * `logits`: `[batch, classes]`
/// * `labels`: `batch` class indices in `0..classes`
///
/// `grad` is resized to the logits shape (reusing capacity) and fully
/// overwritten with the gradient, already divided by the batch size (so the
/// network's gradients are the gradient of the *mean* loss).
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    grad: &mut Tensor,
) -> TensorResult<f32> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
        });
    }
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != batch {
        return Err(TensorError::InvalidArgument(format!(
            "got {} labels for a batch of {}",
            labels.len(),
            batch
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(TensorError::InvalidArgument(format!(
            "label {bad} out of range for {classes} classes"
        )));
    }
    grad.resize_in_place(logits.dims());
    grad.data_mut().copy_from_slice(logits.data());
    // Numerically stable softmax in place, row by row (same arithmetic as
    // the test reference `softmax`, so the result is bit-identical).
    for b in 0..batch {
        let row = &mut grad.data_mut()[b * classes..(b + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    let mut loss = 0.0f32;
    let inv_batch = 1.0 / batch as f32;
    for (b, &label) in labels.iter().enumerate() {
        let p = grad.data()[b * classes + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[b * classes + label] -= 1.0;
    }
    grad.scale_in_place(inv_batch);
    Ok(loss * inv_batch)
}

/// Fraction of samples whose argmax prediction matches the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> TensorResult<f32> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: logits.rank(),
        });
    }
    let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != batch {
        return Err(TensorError::InvalidArgument(format!(
            "got {} labels for a batch of {}",
            labels.len(),
            batch
        )));
    }
    if batch == 0 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for (b, &label) in labels.iter().enumerate() {
        let row = &logits.data()[b * classes..(b + 1) * classes];
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / batch as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax(&logits).unwrap();
        for b in 0..2 {
            let s: f32 = p.data()[b * 3..(b + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 0.0], &[1, 2]).unwrap();
        let p = softmax(&logits).unwrap();
        assert!((p.data()[0] - 1.0).abs() < 1e-5);
        assert!(p.data()[1] < 1e-5);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let labels = [0usize, 3, 7, 9];
        let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        assert!((loss - (10.0f32).ln()).abs() < 1e-4);
        assert_eq!(grad.dims(), &[4, 10]);
    }

    #[test]
    fn perfect_prediction_near_zero_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.set(&[0, 1], 50.0).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 1.5, 0.0, 0.1, -1.0], &[2, 3]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]).unwrap();
        for b in 0..2 {
            let s: f32 = grad.data()[b * 3..(b + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-5, "row {b} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut logits = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, -1.2, 0.4], &[2, 3]).unwrap();
        let labels = [1usize, 2];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let orig = logits.data()[idx];
            logits.data_mut()[idx] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&logits, &labels).unwrap();
            logits.data_mut()[idx] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&logits, &labels).unwrap();
            logits.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 5]).is_err());
        assert!(softmax_cross_entropy(&Tensor::zeros(&[6]), &[0]).is_err());
        assert!(accuracy(&logits, &[0]).is_err());
    }

    #[test]
    fn accuracy_counts_correct_argmax() {
        let logits =
            Tensor::from_vec(vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 5.0], &[3, 3]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 2]).unwrap(), 1.0);
        assert!((accuracy(&logits, &[0, 1, 0]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[1, 2, 0]).unwrap(), 0.0);
    }

    proptest! {
        /// Softmax probabilities are in [0,1] and rows sum to 1.
        #[test]
        fn prop_softmax_is_distribution(v in proptest::collection::vec(-10.0f32..10.0, 6)) {
            let logits = Tensor::from_vec(v, &[2, 3]).unwrap();
            let p = softmax(&logits).unwrap();
            for b in 0..2 {
                let row = &p.data()[b * 3..(b + 1) * 3];
                let s: f32 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }

        /// Cross-entropy loss is non-negative and finite.
        #[test]
        fn prop_loss_nonnegative(v in proptest::collection::vec(-20.0f32..20.0, 8), label in 0usize..4) {
            let logits = Tensor::from_vec(v, &[2, 4]).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &[label, (label + 1) % 4]).unwrap();
            prop_assert!(loss >= 0.0);
            prop_assert!(loss.is_finite());
            prop_assert!(grad.data().iter().all(|g| g.is_finite()));
        }
    }
}
