//! Classification accuracy.

/// Fraction of predictions that match the reference labels, in `[0, 1]`.
///
/// Returns `0.0` when the slices are empty or have different lengths.
///
/// # Example
///
/// ```
/// use pmlp_nn::accuracy;
/// assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    if predictions.is_empty() || predictions.len() != labels.len() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_perfect_and_zero() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[1, 2, 0], &[0, 1, 2]), 0.0);
    }

    #[test]
    fn accuracy_empty_or_mismatched_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0, 1]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn accuracy_is_in_unit_interval(
            preds in proptest::collection::vec(0usize..4, 1..50),
            seed in 0usize..4
        ) {
            let labels: Vec<usize> = preds.iter().map(|p| (p + seed) % 4).collect();
            let acc = accuracy(&preds, &labels);
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }
}
