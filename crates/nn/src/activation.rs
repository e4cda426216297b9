//! Activation functions and their derivatives.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Activation function applied element-wise after a dense layer.
///
/// The printed bespoke MLPs use [`Activation::ReLU`] on every hidden layer
/// (a comparator and a mux in hardware) and [`Activation::Identity`] on the
/// output layer, whose logits feed the softmax cross-entropy loss in
/// training and an argmax in the circuit.
///
/// # Example
///
/// ```
/// use pmlp_nn::Activation;
///
/// assert_eq!(Activation::ReLU.apply(-1.5), 0.0);
/// assert_eq!(Activation::ReLU.apply(2.0), 2.0);
/// assert_eq!(Activation::ReLU.derivative(2.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    #[default]
    ReLU,
    /// Identity (no activation); used on the output layer.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation with respect to its pre-activation input.
    ///
    /// At the ReLU kink (`x = 0`) this is the sub-gradient `0`. For every
    /// activation the derivative at the output `apply(x)` equals the one at
    /// `x` (ReLU's output is positive exactly when its input is), so the
    /// backward pass reads a layer's stored output instead of keeping its
    /// pre-activation.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation to every element in place (allocation-free
    /// variant used by the batched inference path).
    pub fn apply_matrix_inplace(self, m: &mut Matrix) {
        if self == Activation::Identity {
            return;
        }
        m.map_inplace(|x| self.apply(x));
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::ReLU => "relu",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

/// Row-wise softmax in place, with the usual max-subtraction for numerical
/// stability.
///
/// # Example
///
/// ```
/// use pmlp_nn::{Matrix, activation::softmax_rows};
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut probs = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]])?;
/// softmax_rows(&mut probs);
/// let sum: f32 = probs.row(0).iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative_values() {
        assert_eq!(Activation::ReLU.apply(-3.0), 0.0);
        assert_eq!(Activation::ReLU.apply(0.0), 0.0);
        assert_eq!(Activation::ReLU.apply(4.5), 4.5);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3_f32;
        for act in [Activation::ReLU, Activation::Identity] {
            // Avoid the ReLU kink at zero.
            for &x in &[-2.0f32, -0.7, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act}: derivative mismatch at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn derivative_at_the_output_equals_derivative_at_the_input() {
        for act in [Activation::ReLU, Activation::Identity] {
            for x in [
                -2.0f32,
                -0.0,
                0.0,
                1e-30,
                0.3,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ] {
                assert_eq!(
                    act.derivative(act.apply(x)).to_bits(),
                    act.derivative(x).to_bits(),
                    "{act} at {x}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let mut p = Matrix::from_rows(&[vec![1.0, 3.0, 2.0], vec![-1.0, -1.0, -1.0]]).unwrap();
        softmax_rows(&mut p);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(p.argmax_rows()[0], 1);
        assert!(p.row(0)[1] > p.row(0)[2]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut p = Matrix::from_rows(&[vec![1000.0, 1001.0]]).unwrap();
        softmax_rows(&mut p);
        assert!(p.row(0).iter().all(|x| x.is_finite()));
        assert!(p.row(0)[1] > p.row(0)[0]);
    }

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(Activation::ReLU.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
    }

    #[test]
    fn serde_names_are_the_variant_names() {
        // Cached baseline documents store every layer's activation by name.
        for (act, name) in [
            (Activation::ReLU, "\"ReLU\""),
            (Activation::Identity, "\"Identity\""),
        ] {
            assert_eq!(serde_json::to_string(&act).unwrap(), name);
            assert_eq!(serde_json::from_str::<Activation>(name).unwrap(), act);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn relu_output_is_non_negative(x in -100.0f32..100.0) {
            prop_assert!(Activation::ReLU.apply(x) >= 0.0);
        }

        #[test]
        fn softmax_rows_are_probability_distributions(
            v in proptest::collection::vec(-20.0f32..20.0, 5)
        ) {
            let mut p = Matrix::from_rows(&[v]).unwrap();
            softmax_rows(&mut p);
            let sum: f32 = p.row(0).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(0).iter().all(|&x| x >= 0.0));
        }
    }
}
