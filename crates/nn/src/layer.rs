//! Dense (fully-connected) layer with forward and backward passes.

use crate::activation::Activation;
use crate::error::NnError;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer computing `y = act(x W + b)`.
///
/// Weights are stored as an `inputs x outputs` matrix so that a batch of
/// samples (one per row) can be pushed through with a single matrix product.
///
/// # Example
///
/// ```
/// use pmlp_nn::{DenseLayer, Activation, Matrix};
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(3);
/// let layer = DenseLayer::new(3, 2, Activation::ReLU, &mut rng)?;
/// let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3]])?;
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), (1, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    biases: Vec<f32>,
    activation: Activation,
}

/// Everything the backward pass needs that was computed during the forward
/// pass of one layer.
#[derive(Debug, Clone)]
pub struct LayerCache {
    /// The layer input (batch x inputs).
    pub input: Matrix,
    /// Pre-activation values `x W + b` (batch x outputs).
    pub pre_activation: Matrix,
}

/// Gradients of the loss with respect to one layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradient {
    /// Gradient w.r.t. the weight matrix (inputs x outputs).
    pub weights: Matrix,
    /// Gradient w.r.t. the bias vector (length = outputs).
    pub biases: Vec<f32>,
}

/// Reusable per-layer backprop buffers: the transposed weight and input
/// matrices the backward pass needs every batch. Holding them across steps
/// (see [`crate::Trainer`]) removes two allocations per layer per batch —
/// the transposed *values* are recomputed (weights change every update), but
/// into the same buffers.
#[derive(Debug, Clone)]
pub struct BackpropScratch {
    weights_t: Matrix,
    input_t: Matrix,
}

impl Default for BackpropScratch {
    fn default() -> Self {
        BackpropScratch {
            weights_t: Matrix::zeros(0, 0),
            input_t: Matrix::zeros(0, 0),
        }
    }
}

impl DenseLayer {
    /// Creates a layer with `inputs` inputs and `outputs` outputs.
    ///
    /// Biases start at zero. Weights are Glorot/Xavier uniform,
    /// `U(-sqrt(6/(inputs+outputs)), +sqrt(6/(inputs+outputs)))`, drawn from
    /// `rng` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] when `inputs` or `outputs` is zero.
    pub fn new<R: Rng + ?Sized>(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if inputs == 0 || outputs == 0 {
            return Err(NnError::InvalidDimension {
                context: format!("dense layer must have non-zero size, got {inputs}x{outputs}"),
            });
        }
        Ok(DenseLayer {
            weights: xavier_uniform(inputs, outputs, rng),
            biases: vec![0.0; outputs],
            activation,
        })
    }

    /// Builds a layer directly from a weight matrix and bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `biases.len() != weights.cols()`.
    pub fn from_parameters(
        weights: Matrix,
        biases: Vec<f32>,
        activation: Activation,
    ) -> Result<Self, NnError> {
        if biases.len() != weights.cols() {
            return Err(NnError::ShapeMismatch {
                context: "dense layer biases".into(),
                left: weights.shape(),
                right: (1, biases.len()),
            });
        }
        Ok(DenseLayer {
            weights,
            biases,
            activation,
        })
    }

    /// Number of inputs (fan-in).
    pub fn inputs(&self) -> usize {
        self.weights.rows()
    }

    /// Number of outputs (fan-out, i.e. neurons in this layer).
    pub fn outputs(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix (inputs x outputs).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the weight matrix (used by minimization passes that
    /// rewrite weights in place, e.g. pruning masks and clustering).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Immutable access to the bias vector.
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// Mutable access to the bias vector.
    pub fn biases_mut(&mut self) -> &mut [f32] {
        &mut self.biases
    }

    /// Total number of weight parameters (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of weights equal to exactly zero (pruned connections).
    pub fn zero_weight_count(&self) -> usize {
        self.weights.count_zeros()
    }

    /// Forward pass for a batch: `act(x W + b)`.
    ///
    /// Pure inference path: one matrix product, bias and activation applied
    /// in place — no cache bookkeeping and no intermediate copies.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut pre = x.matmul(&self.weights)?;
        pre.add_row_broadcast_inplace(&self.biases)?;
        self.activation.apply_matrix_inplace(&mut pre);
        Ok(pre)
    }

    /// Forward pass that also returns the cache needed for backprop.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub fn forward_with_cache(&self, x: &Matrix) -> Result<(Matrix, LayerCache), NnError> {
        let mut cache = LayerCache {
            input: Matrix::zeros(0, 0),
            pre_activation: Matrix::zeros(0, 0),
        };
        let out = self.forward_with_cache_into(x, &mut cache)?;
        Ok((out, cache))
    }

    /// Forward pass writing the backprop cache into a caller-owned
    /// [`LayerCache`], reusing its buffers — the training loop keeps one
    /// cache per layer alive across batches instead of reallocating the
    /// input/pre-activation copies every step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub fn forward_with_cache_into(
        &self,
        x: &Matrix,
        cache: &mut LayerCache,
    ) -> Result<Matrix, NnError> {
        cache.input.clone_from(x);
        x.matmul_into(&self.weights, &mut cache.pre_activation)?;
        cache
            .pre_activation
            .add_row_broadcast_inplace(&self.biases)?;
        // Single pass: allocate the activated output directly instead of
        // cloning the pre-activations and mapping in place.
        Ok(cache.pre_activation.map(|x| self.activation.apply(x)))
    }

    /// Backward pass.
    ///
    /// `grad_output` is the gradient of the loss w.r.t. this layer's
    /// activations; returns the gradient w.r.t. the layer input together with
    /// the parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `grad_output` does not match the
    /// cached pre-activation shape.
    pub fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Matrix,
    ) -> Result<(Matrix, LayerGradient), NnError> {
        let mut scratch = BackpropScratch::default();
        self.backward_with_scratch(cache, grad_output.clone(), &mut scratch)
    }

    /// Backward pass reusing caller-owned transpose buffers.
    ///
    /// Identical math to [`DenseLayer::backward`], but the transposed weight
    /// and input matrices are written into `scratch` instead of freshly
    /// allocated — the trainer holds one scratch per layer for the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `grad_output` does not match the
    /// cached pre-activation shape.
    pub fn backward_with_scratch(
        &self,
        cache: &LayerCache,
        grad_output: Matrix,
        scratch: &mut BackpropScratch,
    ) -> Result<(Matrix, LayerGradient), NnError> {
        let (dpre, grads) = self.backward_core(cache, grad_output, scratch)?;
        // dL/dx = dpre W^T
        self.weights.transpose_into(&mut scratch.weights_t);
        let grad_input = dpre.matmul(&scratch.weights_t)?;
        Ok((grad_input, grads))
    }

    /// [`DenseLayer::backward_with_scratch`] without the input-gradient
    /// product — the first layer of a network has no upstream consumer for
    /// `dL/dx`, and that product is a full quarter of its backward matmul
    /// work.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseLayer::backward_with_scratch`].
    pub fn backward_params_only(
        &self,
        cache: &LayerCache,
        grad_output: Matrix,
        scratch: &mut BackpropScratch,
    ) -> Result<LayerGradient, NnError> {
        Ok(self.backward_core(cache, grad_output, scratch)?.1)
    }

    /// The shared backward math: validates shapes, fuses the activation
    /// derivative into the owned gradient in place (yielding `dL/dpre`) and
    /// computes the parameter gradients.
    fn backward_core(
        &self,
        cache: &LayerCache,
        grad_output: Matrix,
        scratch: &mut BackpropScratch,
    ) -> Result<(Matrix, LayerGradient), NnError> {
        if grad_output.shape() != cache.pre_activation.shape() {
            return Err(NnError::ShapeMismatch {
                context: "dense backward".into(),
                left: grad_output.shape(),
                right: cache.pre_activation.shape(),
            });
        }
        // dL/dpre = dL/dout * act'(pre), fused in place into the owned
        // gradient (the separate derivative matrix + hadamard allocated two
        // intermediates per batch, plus a clone of the incoming gradient).
        let mut dpre = grad_output;
        for (g, &pre) in dpre
            .as_mut_slice()
            .iter_mut()
            .zip(cache.pre_activation.as_slice())
        {
            *g *= self.activation.derivative(pre);
        }
        // dL/dW = x^T dpre ; dL/db = column sums of dpre
        cache.input.transpose_into(&mut scratch.input_t);
        let grad_weights = scratch.input_t.matmul(&dpre)?;
        let grad_biases = dpre.sum_rows();
        Ok((
            dpre,
            LayerGradient {
                weights: grad_weights,
                biases: grad_biases,
            },
        ))
    }

    /// Applies a parameter update `p <- p - u`, where `u` is the update
    /// [`crate::Adam::step`] made from the raw gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the gradient shapes do not
    /// match the layer's parameters.
    pub fn apply_update(&mut self, update: &LayerGradient) -> Result<(), NnError> {
        if update.weights.shape() != self.weights.shape() {
            return Err(NnError::ShapeMismatch {
                context: "weight update".into(),
                left: update.weights.shape(),
                right: self.weights.shape(),
            });
        }
        if update.biases.len() != self.biases.len() {
            return Err(NnError::ShapeMismatch {
                context: "bias update".into(),
                left: (1, update.biases.len()),
                right: (1, self.biases.len()),
            });
        }
        // In place: this runs once per layer per batch, and the allocating
        // `sub_elem` showed up in training profiles.
        for (w, u) in self
            .weights
            .as_mut_slice()
            .iter_mut()
            .zip(update.weights.as_slice())
        {
            *w -= u;
        }
        for (b, u) in self.biases.iter_mut().zip(update.biases.iter()) {
            *b -= u;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(inputs: usize, outputs: usize, act: Activation) -> DenseLayer {
        let mut rng = StdRng::seed_from_u64(11);
        DenseLayer::new(inputs, outputs, act, &mut rng).unwrap()
    }

    #[test]
    fn rejects_zero_sized_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DenseLayer::new(0, 4, Activation::ReLU, &mut rng).is_err());
        assert!(DenseLayer::new(4, 0, Activation::ReLU, &mut rng).is_err());
    }

    #[test]
    fn new_draws_xavier_uniform_weights_within_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        let l = DenseLayer::new(10, 20, Activation::ReLU, &mut rng).unwrap();
        let bound = (6.0_f32 / 30.0).sqrt();
        assert_eq!(l.weights().shape(), (10, 20));
        assert!(l.weights().as_slice().iter().all(|w| w.abs() <= bound));
        assert_eq!(l.biases(), &[0.0; 20]);
    }

    #[test]
    fn forward_shape_is_batch_by_outputs() {
        let l = layer(5, 3, Activation::ReLU);
        let x = Matrix::zeros(7, 5);
        assert_eq!(l.forward(&x).unwrap().shape(), (7, 3));
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let l = layer(5, 3, Activation::ReLU);
        let x = Matrix::zeros(7, 4);
        assert!(l.forward(&x).is_err());
    }

    #[test]
    fn identity_layer_with_known_weights_computes_affine_map() {
        let w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let l = DenseLayer::from_parameters(w, vec![1.0, -1.0], Activation::Identity).unwrap();
        let x = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.row(0), &[4.0, 7.0]);
    }

    #[test]
    fn relu_layer_zeroes_negative_preactivations() {
        let w = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let l = DenseLayer::from_parameters(w, vec![0.0], Activation::ReLU).unwrap();
        let x = Matrix::from_rows(&[vec![-5.0], vec![5.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.column(0), vec![0.0, 5.0]);
    }

    #[test]
    fn from_parameters_validates_bias_length() {
        let w = Matrix::zeros(2, 3);
        assert!(DenseLayer::from_parameters(w, vec![0.0; 2], Activation::ReLU).is_err());
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        // Single sample, identity activation, check dL/dW numerically with
        // L = sum(y).
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = DenseLayer::new(3, 2, Activation::Identity, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 0.2]]).unwrap();
        let (_, cache) = l.forward_with_cache(&x).unwrap();
        let grad_out = Matrix::filled(1, 2, 1.0);
        let (_, grads) = l.backward(&cache, &grad_out).unwrap();

        let eps = 1e-3_f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.weights().get(r, c);
                l.weights_mut().set(r, c, orig + eps);
                let plus = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig - eps);
                let minus = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = grads.weights.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{r},{c}] numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let l = DenseLayer::new(3, 2, Activation::ReLU, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![-0.5, 0.1, -0.9]]).unwrap();
        let (_, cache) = l.forward_with_cache(&x).unwrap();
        // Away from the ReLU kink, so the finite difference is well defined,
        // with at least one unit active, so the gradient is not trivially 0.
        let pre = cache.pre_activation.as_slice();
        assert!(pre.iter().all(|p| p.abs() > 1e-2));
        assert!(pre.iter().any(|&p| p > 0.0));
        let grad_out = Matrix::filled(1, 2, 1.0);
        let (grad_in, _) = l.backward(&cache, &grad_out).unwrap();

        let eps = 1e-3_f32;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let numeric =
                (l.forward(&xp).unwrap().sum() - l.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - grad_in.get(0, c)).abs() < 1e-2);
        }
    }

    #[test]
    fn apply_update_moves_parameters_in_negative_gradient_direction() {
        let w = Matrix::filled(1, 1, 1.0);
        let mut l = DenseLayer::from_parameters(w, vec![1.0], Activation::Identity).unwrap();
        let update = LayerGradient {
            weights: Matrix::filled(1, 1, 0.25),
            biases: vec![0.5],
        };
        l.apply_update(&update).unwrap();
        assert_eq!(l.weights().get(0, 0), 0.75);
        assert_eq!(l.biases()[0], 0.5);
    }

    #[test]
    fn apply_update_rejects_mismatched_shapes() {
        let mut l = layer(2, 2, Activation::ReLU);
        let bad = LayerGradient {
            weights: Matrix::zeros(3, 2),
            biases: vec![0.0; 2],
        };
        assert!(l.apply_update(&bad).is_err());
    }

    #[test]
    fn zero_weight_count_tracks_pruning() {
        let mut l = layer(4, 4, Activation::ReLU);
        assert_eq!(l.zero_weight_count(), 0);
        l.weights_mut().set(0, 0, 0.0);
        l.weights_mut().set(1, 2, 0.0);
        assert_eq!(l.zero_weight_count(), 2);
    }
}
