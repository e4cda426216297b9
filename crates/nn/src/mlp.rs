//! The multilayer perceptron model and its builder.

use crate::activation::Activation;
use crate::dataset::Dataset;
use crate::error::NnError;
use crate::layer::{DenseLayer, LayerBuffers};
use crate::loss::cross_entropy_with_gradient;
use crate::matrix::{argmax, Matrix};
use rand::Rng;
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// A feed-forward multilayer perceptron.
///
/// The model is a plain sequence of [`DenseLayer`]s. The output layer
/// produces raw logits (use [`Mlp::predict`] for class decisions); training
/// with a softmax cross-entropy loss is handled by [`crate::Trainer`].
///
/// # Example
///
/// ```
/// use pmlp_nn::{MlpBuilder, Matrix};
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = MlpBuilder::new(4)
///     .hidden(10)
///     .output(3)
///     .build(&mut rng)?;
/// assert_eq!(mlp.input_size(), 4);
/// assert_eq!(mlp.output_size(), 3);
/// let x = Matrix::zeros(2, 4);
/// assert_eq!(mlp.forward(&x)?.shape(), (2, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Deserialize for Mlp {
    /// Goes through [`Mlp::from_layers`], so a document whose layers do not
    /// chain is rejected.
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let layers = Vec::<DenseLayer>::deserialize_value(value.field("layers")?)?;
        Mlp::from_layers(layers).map_err(|e| Error::custom(e.to_string()))
    }
}

impl Mlp {
    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `layers` is empty or consecutive
    /// layer sizes do not chain (`layer[i].outputs() != layer[i+1].inputs()`).
    pub fn from_layers(layers: Vec<DenseLayer>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                context: "mlp needs at least one layer".into(),
            });
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(NnError::InvalidConfig {
                    context: format!(
                        "layer {i} has {} outputs but layer {} expects {} inputs",
                        pair[0].outputs(),
                        i + 1,
                        pair[1].inputs()
                    ),
                });
            }
        }
        Ok(Mlp { layers })
    }

    /// Number of input features.
    pub fn input_size(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Number of output classes (logits).
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("mlp has at least one layer")
            .outputs()
    }

    /// The layers of the network, input to output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable access to the layers; used by the minimization passes.
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Layer sizes as `[inputs, hidden..., outputs]` (the paper's topology
    /// notation, e.g. `[11, 30, 7]` for a WhiteWine MLP).
    pub fn topology(&self) -> Vec<usize> {
        let mut t = vec![self.input_size()];
        t.extend(self.layers.iter().map(|l| l.outputs()));
        t
    }

    /// Total number of weights across all layers (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Total number of weights equal to exactly zero (pruned connections).
    pub fn zero_weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.zero_weight_count()).sum()
    }

    /// Overall sparsity: fraction of weights that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.weight_count() == 0 {
            0.0
        } else {
            self.zero_weight_count() as f64 / self.weight_count() as f64
        }
    }

    /// Forward pass producing raw logits for a batch (one sample per row).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.input_size()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut buffers = Vec::new();
        self.forward_into(x, &mut buffers)?;
        Ok(buffers.pop().expect("mlp has at least one layer").output)
    }

    /// Forward pass into per-layer buffers, reusing their allocations:
    /// layer `l` writes `buffers[l].output`, which layer `l + 1` reads.
    /// Returns the logits, the last layer's output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input width is wrong.
    pub(crate) fn forward_into<'b>(
        &self,
        x: &Matrix,
        buffers: &'b mut Vec<LayerBuffers>,
    ) -> Result<&'b Matrix, NnError> {
        buffers.resize_with(self.layers.len(), LayerBuffers::default);
        let mut input = x;
        for (layer, layer_buffers) in self.layers.iter().zip(buffers.iter_mut()) {
            layer.forward_into(input, &mut layer_buffers.output)?;
            input = &layer_buffers.output;
        }
        Ok(&buffers.last().expect("mlp has at least one layer").output)
    }

    /// The training step's gradient routine: the forward pass of `x` into
    /// `buffers`, the mean softmax cross-entropy against `targets`, and the
    /// backward pass. Returns the batch loss and leaves every layer's
    /// parameter gradients in its buffers.
    ///
    /// Each layer's input gradient is computed from its weights as they are,
    /// so the optimizer must update a layer only after this returns. The
    /// first layer's input gradient has no consumer and is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input width or the
    /// target count is wrong, and [`NnError::InvalidDataset`] when a target
    /// is not a class of the model.
    pub(crate) fn gradients(
        &self,
        x: &Matrix,
        targets: &[usize],
        buffers: &mut Vec<LayerBuffers>,
    ) -> Result<f32, NnError> {
        self.forward_into(x, buffers)?;
        let LayerBuffers { output, delta, .. } =
            buffers.last_mut().expect("mlp has at least one layer");
        let loss = cross_entropy_with_gradient(output, targets, delta)?;
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (previous, rest) = buffers.split_at_mut(l);
            match previous.last_mut() {
                Some(LayerBuffers { output, delta, .. }) => {
                    layer.backward(output, &mut rest[0], Some(delta))?
                }
                None => layer.backward(x, &mut rest[0], None)?,
            }
        }
        Ok(loss)
    }

    /// Predicted class index for every sample in `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input width is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        Ok(self.forward(x)?.argmax_rows())
    }

    /// Classification accuracy on a dataset, in `[0, 1]`.
    ///
    /// Returns `0.0` when the forward pass fails (wrong feature width), so the
    /// method can be used directly as a fitness value.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        self.accuracy_into(data, &mut Vec::new())
    }

    /// [`Mlp::accuracy`] with the forward pass written into `buffers`,
    /// reusing their allocations: the trainer's per-epoch accuracy passes.
    pub(crate) fn accuracy_into(&self, data: &Dataset, buffers: &mut Vec<LayerBuffers>) -> f64 {
        let labels = data.labels();
        match self.forward_into(data.features(), buffers) {
            Ok(logits) if !labels.is_empty() => {
                let correct = logits
                    .iter_rows()
                    .zip(labels)
                    .filter(|&(row, &label)| argmax(row) == label)
                    .count();
                correct as f64 / labels.len() as f64
            }
            _ => 0.0,
        }
    }

    /// Collects every weight of the network into a flat vector
    /// (layer by layer, row-major), useful for clustering and statistics.
    pub fn flatten_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.weight_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights().as_slice());
        }
        out
    }

    /// Largest absolute weight in the network.
    pub fn max_abs_weight(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| l.weights().max_abs())
            .fold(0.0, f32::max)
    }
}

/// Builder for [`Mlp`] instances: ReLU hidden layers and an
/// [`Activation::Identity`] output layer whose logits the trainer feeds to
/// the softmax cross-entropy loss. Every layer draws Xavier-uniform weights
/// (see [`DenseLayer::new`]).
///
/// # Example
///
/// ```
/// use pmlp_nn::MlpBuilder;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let mlp = MlpBuilder::new(16)
///     .hidden(20)
///     .hidden(10)
///     .output(10)
///     .build(&mut rng)?;
/// assert_eq!(mlp.topology(), vec![16, 20, 10, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_size: usize,
    hidden: Vec<usize>,
    output_size: Option<usize>,
}

impl MlpBuilder {
    /// Starts a builder for a network with `input_size` input features.
    pub fn new(input_size: usize) -> Self {
        MlpBuilder {
            input_size,
            hidden: Vec::new(),
            output_size: None,
        }
    }

    /// Appends a ReLU hidden layer of `size` neurons.
    #[must_use]
    pub fn hidden(mut self, size: usize) -> Self {
        self.hidden.push(size);
        self
    }

    /// Sets the output layer size (number of classes).
    #[must_use]
    pub fn output(mut self, size: usize) -> Self {
        self.output_size = Some(size);
        self
    }

    /// Builds the network, sampling initial weights from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when no output size was set, or
    /// [`NnError::InvalidDimension`] when any layer size is zero.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Mlp, NnError> {
        let output_size = self.output_size.ok_or_else(|| NnError::InvalidConfig {
            context: "MlpBuilder: output size not set".into(),
        })?;
        if self.input_size == 0 {
            return Err(NnError::InvalidDimension {
                context: "input size is zero".into(),
            });
        }
        let mut layers = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_size;
        for &size in &self.hidden {
            layers.push(DenseLayer::new(prev, size, Activation::ReLU, rng)?);
            prev = size;
        }
        layers.push(DenseLayer::new(
            prev,
            output_size,
            Activation::Identity,
            rng,
        )?);
        Mlp::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Mlp {
        let mut rng = StdRng::seed_from_u64(2);
        MlpBuilder::new(3)
            .hidden(5)
            .output(2)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn builder_requires_output() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MlpBuilder::new(3).hidden(4).build(&mut rng).is_err());
    }

    #[test]
    fn builder_rejects_zero_input() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MlpBuilder::new(0).output(2).build(&mut rng).is_err());
    }

    #[test]
    fn topology_reports_all_layer_sizes() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.topology(), vec![3, 5, 2]);
        assert_eq!(mlp.weight_count(), 3 * 5 + 5 * 2);
    }

    #[test]
    fn from_layers_rejects_size_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let l1 = DenseLayer::new(3, 4, Activation::ReLU, &mut rng).unwrap();
        let l2 = DenseLayer::new(5, 2, Activation::Identity, &mut rng).unwrap();
        assert!(Mlp::from_layers(vec![l1, l2]).is_err());
    }

    #[test]
    fn from_layers_rejects_empty() {
        assert!(Mlp::from_layers(vec![]).is_err());
    }

    #[test]
    fn forward_produces_logits_per_class() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(4, 3);
        let y = mlp.forward(&x).unwrap();
        assert_eq!(y.shape(), (4, 2));
    }

    #[test]
    fn predict_returns_one_class_per_sample() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(6, 3);
        let preds = mlp.predict(&x).unwrap();
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn accuracy_on_wrong_width_input_is_zero() {
        let mlp = tiny_mlp();
        let data = Dataset::from_rows(vec![vec![0.0; 7]; 3], vec![0, 1, 0], 2).unwrap();
        assert_eq!(mlp.accuracy(&data), 0.0);
    }

    #[test]
    fn sparsity_reflects_zeroed_weights() {
        let mut mlp = tiny_mlp();
        assert_eq!(mlp.sparsity(), 0.0);
        let total = mlp.weight_count();
        // Zero out the entire first layer.
        let first_count = mlp.layers()[0].weight_count();
        mlp.layers_mut()[0].weights_mut().map_inplace(|_| 0.0);
        let expected = first_count as f64 / total as f64;
        assert!((mlp.sparsity() - expected).abs() < 1e-9);
    }

    #[test]
    fn flatten_weights_has_weight_count_entries() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.flatten_weights().len(), mlp.weight_count());
    }

    #[test]
    fn backward_returns_one_gradient_per_layer() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(2, 3);
        let mut buffers = Vec::new();
        mlp.gradients(&x, &[0, 1], &mut buffers).unwrap();
        assert_eq!(buffers.len(), 2);
        assert_eq!(buffers[0].grad_weights.shape(), (3, 5));
        assert_eq!(buffers[1].grad_weights.shape(), (5, 2));
    }

    #[test]
    fn serde_round_trip_preserves_model() {
        let mlp = tiny_mlp();
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mlp);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn end_to_end_gradient_matches_finite_difference() {
        use crate::loss::cross_entropy;
        let mut mlp = tiny_mlp();
        let x = Matrix::from_rows(&[vec![0.4, -0.2, 0.8]]).unwrap();
        let targets = [1usize];
        let mut buffers = Vec::new();
        mlp.gradients(&x, &targets, &mut buffers).unwrap();

        let eps = 1e-2_f32;
        // Check a handful of weights in each layer.
        for li in 0..2 {
            let (rows, cols) = mlp.layers()[li].weights().shape();
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1)] {
                let orig = mlp.layers()[li].weights().get(r, c);
                mlp.layers_mut()[li].weights_mut().set(r, c, orig + eps);
                let lp = cross_entropy(&mlp.forward(&x).unwrap(), &targets).unwrap();
                mlp.layers_mut()[li].weights_mut().set(r, c, orig - eps);
                let lm = cross_entropy(&mlp.forward(&x).unwrap(), &targets).unwrap();
                mlp.layers_mut()[li].weights_mut().set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = buffers[li].grad_weights.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {li} weight ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
