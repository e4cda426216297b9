//! Dense (fully-connected) layer with forward and backward passes.

use crate::activation::Activation;
use crate::error::NnError;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use rand::Rng;
use serde::json::{Error, Value};
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseLayer {
    weights: Matrix,
    biases: Vec<f32>,
    activation: Activation,
}

impl Deserialize for DenseLayer {
    /// Goes through [`DenseLayer::from_parameters`], so a document whose
    /// bias count does not match its weight columns is rejected.
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let weights = Matrix::deserialize_value(value.field("weights")?)?;
        let biases = Vec::<f32>::deserialize_value(value.field("biases")?)?;
        let activation = Activation::deserialize_value(value.field("activation")?)?;
        DenseLayer::from_parameters(weights, biases, activation)
            .map_err(|e| Error::custom(e.to_string()))
    }
}

/// One layer's buffers in the training step. The [`crate::Trainer`] holds
/// one per layer for a whole fit, and its per-epoch accuracy passes write
/// their forward pass into the same `output`s. Every batch and pass
/// overwrites them in place, so they allocate only when a pass needs more
/// rows than any before it.
#[derive(Debug, Default)]
pub(crate) struct LayerBuffers {
    /// `act(x W + b)` for the batch (batch x outputs), which the next layer
    /// reads as its input.
    pub(crate) output: Matrix,
    /// The gradient of the loss w.r.t. `output` when the backward pass
    /// reaches this layer; w.r.t. the pre-activation once it has passed.
    pub(crate) delta: Matrix,
    /// The gradient w.r.t. the weights (inputs x outputs).
    pub(crate) grad_weights: Matrix,
    /// The gradient w.r.t. the biases (length = outputs).
    pub(crate) grad_biases: Vec<f32>,
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
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// [`DenseLayer::forward`] into a caller-owned matrix, reusing its
    /// allocation: one matrix product, then the bias and the activation in
    /// place. The training step writes each layer's output where the next
    /// layer reads it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        x.matmul_into(&self.weights, out)?;
        out.add_row_broadcast_inplace(&self.biases)?;
        self.activation.apply_matrix_inplace(out);
        Ok(())
    }

    /// The training step's backward pass through this layer.
    ///
    /// `input` is the batch this layer read; `buffers.output` holds what
    /// [`DenseLayer::forward_into`] made of it, and `buffers.delta` the
    /// gradient of the loss w.r.t. that output. Turns `buffers.delta` into
    /// the gradient w.r.t. the pre-activation in place, writes the
    /// parameter gradients into `buffers` and, when `grad_input` is
    /// given, the gradient w.r.t. `input` into it. Reads the weights as they
    /// are, so it must run before the optimizer updates this layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `buffers.delta` does not have
    /// the output's shape or `input` does not fit the layer.
    pub(crate) fn backward(
        &self,
        input: &Matrix,
        buffers: &mut LayerBuffers,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let LayerBuffers {
            output,
            delta,
            grad_weights,
            grad_biases,
        } = buffers;
        if delta.shape() != output.shape() {
            return Err(NnError::ShapeMismatch {
                context: "dense backward".into(),
                left: delta.shape(),
                right: output.shape(),
            });
        }
        // dL/dpre = dL/dout * act'(pre). Every activation has the same
        // derivative at its output as at its input (see
        // `Activation::derivative`), so the output stands in for the
        // pre-activation, which the forward pass does not keep.
        for (g, &y) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
            *g *= self.activation.derivative(y);
        }
        // dL/dW = x^T dpre ; dL/db = column sums of dpre
        input.transpose_matmul_into(delta, grad_weights)?;
        grad_biases.resize(delta.cols(), 0.0);
        delta.sum_rows_into(grad_biases);
        // dL/dx = dpre W^T
        if let Some(grad_input) = grad_input {
            delta.matmul_transpose_into(&self.weights, grad_input)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::optimizer::Adam;
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

    /// The training step's forward and backward pass through `l` for the
    /// loss `L = sum(output)`: the filled buffers and `dL/dx`.
    fn sum_loss_backward(l: &DenseLayer, x: &Matrix) -> (LayerBuffers, Matrix) {
        let mut buffers = LayerBuffers::default();
        l.forward_into(x, &mut buffers.output).unwrap();
        buffers.delta = Matrix::filled(x.rows(), l.outputs(), 1.0);
        let mut grad_input = Matrix::default();
        l.backward(x, &mut buffers, Some(&mut grad_input)).unwrap();
        (buffers, grad_input)
    }

    fn sum(m: &Matrix) -> f32 {
        m.as_slice().iter().sum()
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        // Single sample, identity activation, check dL/dW numerically with
        // L = sum(y).
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = DenseLayer::new(3, 2, Activation::Identity, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 0.2]]).unwrap();
        let (buffers, _) = sum_loss_backward(&l, &x);

        let eps = 1e-3_f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.weights().get(r, c);
                l.weights_mut().set(r, c, orig + eps);
                let plus = sum(&l.forward(&x).unwrap());
                l.weights_mut().set(r, c, orig - eps);
                let minus = sum(&l.forward(&x).unwrap());
                l.weights_mut().set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = buffers.grad_weights.get(r, c);
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
        let linear = DenseLayer::from_parameters(
            l.weights().clone(),
            l.biases().to_vec(),
            Activation::Identity,
        )
        .unwrap();
        // Away from the ReLU kink, so the finite difference is well defined,
        // with at least one unit active, so the gradient is not trivially 0.
        let pre = linear.forward(&x).unwrap();
        assert!(pre.as_slice().iter().all(|p| p.abs() > 1e-2));
        assert!(pre.as_slice().iter().any(|&p| p > 0.0));
        let (_, grad_in) = sum_loss_backward(&l, &x);

        let eps = 1e-3_f32;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let numeric =
                (sum(&l.forward(&xp).unwrap()) - sum(&l.forward(&xm).unwrap())) / (2.0 * eps);
            assert!((numeric - grad_in.get(0, c)).abs() < 1e-2);
        }
    }

    #[test]
    fn apply_update_moves_parameters_in_negative_gradient_direction() {
        // L = sum(y) for y = x W + b: dL/dW = x^T = [2, -3], dL/db = 1.
        let w = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let l = DenseLayer::from_parameters(w, vec![1.0], Activation::Identity).unwrap();
        let x = Matrix::from_rows(&[vec![2.0, -3.0]]).unwrap();
        let (buffers, _) = sum_loss_backward(&l, &x);
        assert_eq!(buffers.grad_weights.as_slice(), &[2.0, -3.0]);
        assert_eq!(buffers.grad_biases, vec![1.0]);

        let mut mlp = Mlp::from_layers(vec![l]).unwrap();
        Adam::new(0.25).step(&mut mlp, &[buffers]);
        let updated = &mlp.layers()[0];
        // The first bias-corrected Adam step moves each parameter by about
        // the learning rate, against the sign of its gradient.
        let moved = [
            updated.weights().get(0, 0) - 1.0,
            updated.weights().get(1, 0) - 1.0,
            updated.biases()[0] - 1.0,
        ];
        for (delta, expected) in moved.into_iter().zip([-0.25, 0.25, -0.25]) {
            assert!((delta - expected).abs() < 1e-4, "{moved:?}");
        }
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
