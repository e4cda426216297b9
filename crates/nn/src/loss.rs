//! Softmax cross-entropy, the loss every classifier trains with.
//!
//! The trainer calls the fused [`cross_entropy_with_gradient`]. The separate
//! [`cross_entropy`] and [`cross_entropy_gradient`] are the textbook
//! formulations it must reproduce bit for bit; the finite-difference tests
//! check the gradient against the loss.

use crate::activation::softmax_rows;
use crate::error::NnError;
use crate::matrix::Matrix;

/// Mean softmax cross-entropy of a batch.
///
/// `logits` is `batch x classes`, `targets` holds the class index of each
/// sample.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] when `targets.len() != logits.rows()`
/// and [`NnError::InvalidDataset`] when a target index is out of range.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> Result<f32, NnError> {
    validate(logits, targets)?;
    let n = logits.rows() as f32;
    let mut probs = logits.clone();
    softmax_rows(&mut probs);
    let mut total = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let p = probs.get(r, t).max(1e-12);
        total -= p.ln();
    }
    Ok(total / n)
}

/// Gradient of [`cross_entropy`] with respect to the logits, averaged over
/// the batch (so learning rates are batch-size independent).
///
/// # Errors
///
/// Same conditions as [`cross_entropy`].
pub fn cross_entropy_gradient(logits: &Matrix, targets: &[usize]) -> Result<Matrix, NnError> {
    validate(logits, targets)?;
    let n = logits.rows() as f32;
    let mut grad = logits.clone();
    softmax_rows(&mut grad);
    for (r, &t) in targets.iter().enumerate() {
        let v = grad.get(r, t);
        grad.set(r, t, v - 1.0);
    }
    let inv_n = 1.0 / n;
    grad.map_inplace(|x| x * inv_n);
    Ok(grad)
}

/// Computes the scalar loss *and* writes its gradient into `grad`, sharing
/// the softmax (the dominant transcendental cost) between the two. `grad`
/// takes the logits' shape and keeps its allocation, so the training step
/// computes the softmax in a buffer it reuses every batch.
///
/// Bit-for-bit identical to calling [`cross_entropy`] and
/// [`cross_entropy_gradient`] separately.
///
/// # Errors
///
/// Same conditions as [`cross_entropy`].
pub fn cross_entropy_with_gradient(
    logits: &Matrix,
    targets: &[usize],
    grad: &mut Matrix,
) -> Result<f32, NnError> {
    validate(logits, targets)?;
    let n = logits.rows() as f32;
    grad.clone_from(logits);
    softmax_rows(grad);
    let mut total = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let row = grad.row_mut(r);
        let p = row[t];
        total -= p.max(1e-12).ln();
        row[t] = p - 1.0;
    }
    let inv_n = 1.0 / n;
    grad.map_inplace(|x| x * inv_n);
    Ok(total / n)
}

fn validate(logits: &Matrix, targets: &[usize]) -> Result<(), NnError> {
    if targets.len() != logits.rows() {
        return Err(NnError::ShapeMismatch {
            context: "loss targets".into(),
            left: logits.shape(),
            right: (targets.len(), 1),
        });
    }
    if let Some(&bad) = targets.iter().find(|&&t| t >= logits.cols()) {
        return Err(NnError::InvalidDataset {
            context: format!(
                "target class {bad} out of range for {} classes",
                logits.cols()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_is_low_for_confident_correct_prediction() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0]]).unwrap();
        let loss = cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_is_high_for_confident_wrong_prediction() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0]]).unwrap();
        let loss = cross_entropy(&logits, &[1]).unwrap();
        assert!(loss > 5.0);
    }

    #[test]
    fn uniform_logits_give_log_of_class_count() {
        let logits = Matrix::zeros(1, 4);
        let loss = cross_entropy(&logits, &[2]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_shapes_match_logits() {
        let logits = Matrix::zeros(3, 5);
        let grad = cross_entropy_gradient(&logits, &[0, 1, 2]).unwrap();
        assert_eq!(grad.shape(), (3, 5));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.2, -0.4, 0.7]]).unwrap();
        let targets = [2usize];
        let grad = cross_entropy_gradient(&logits, &targets).unwrap();
        let eps = 1e-3_f32;
        for c in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, c, logits.get(0, c) + eps);
            let mut lm = logits.clone();
            lm.set(0, c, logits.get(0, c) - eps);
            let numeric = (cross_entropy(&lp, &targets).unwrap()
                - cross_entropy(&lm, &targets).unwrap())
                / (2.0 * eps);
            assert!((numeric - grad.get(0, c)).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_target_length_mismatch() {
        let logits = Matrix::zeros(2, 2);
        assert!(cross_entropy(&logits, &[0]).is_err());
    }

    #[test]
    fn rejects_out_of_range_class() {
        let logits = Matrix::zeros(1, 2);
        assert!(matches!(
            cross_entropy(&logits, &[5]),
            Err(NnError::InvalidDataset { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cross_entropy_is_non_negative(
            v in proptest::collection::vec(-10.0f32..10.0, 6),
            t in 0usize..3
        ) {
            let logits = Matrix::from_vec(2, 3, v).unwrap();
            let loss = cross_entropy(&logits, &[t, (t + 1) % 3]).unwrap();
            prop_assert!(loss >= 0.0);
            prop_assert!(loss.is_finite());
        }

        #[test]
        fn gradient_rows_of_cross_entropy_sum_to_zero(
            v in proptest::collection::vec(-5.0f32..5.0, 4),
            t in 0usize..4
        ) {
            let logits = Matrix::from_vec(1, 4, v).unwrap();
            let grad = cross_entropy_gradient(&logits, &[t]).unwrap();
            let sum: f32 = grad.row(0).iter().sum();
            // softmax probabilities sum to 1 and the target subtracts exactly 1
            prop_assert!(sum.abs() < 1e-4);
        }

        #[test]
        fn fused_loss_and_gradient_match_the_separate_functions_bit_for_bit(
            v in proptest::collection::vec(-20.0f32..20.0, 12),
            t in 0usize..4
        ) {
            let logits = Matrix::from_vec(3, 4, v).unwrap();
            let targets = [t, (t + 1) % 4, (t + 3) % 4];
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut grad = Matrix::filled(1, 1, 7.0);
            let loss = cross_entropy_with_gradient(&logits, &targets, &mut grad).unwrap();
            prop_assert_eq!(
                loss.to_bits(),
                cross_entropy(&logits, &targets).unwrap().to_bits()
            );
            prop_assert_eq!(
                bits(&grad),
                bits(&cross_entropy_gradient(&logits, &targets).unwrap())
            );
        }
    }
}
