//! Mini-batch training loop: Adam on the softmax cross-entropy loss,
//! keeping the best epoch, with optional weight constraints (used by the
//! minimization passes for masked/clustered retraining).

use crate::dataset::Dataset;
use crate::error::NnError;
use crate::layer::LayerBuffers;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::optimizer::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to at least 1).
    pub batch_size: usize,
    /// Adam's learning rate.
    pub learning_rate: f32,
    /// Record the full-train-set accuracy in [`TrainReport::train_accuracy`]
    /// every epoch (`true` by default). When a validation set drives
    /// best-model tracking this is pure reporting — inner-loop fine-tuning
    /// (QAT, pruning, clustering) disables it, since the extra full forward
    /// pass per epoch is a measurable share of each candidate evaluation.
    /// Ignored (accuracy is always computed) when no validation set is given,
    /// because best-model tracking then needs it.
    pub track_train_accuracy: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            batch_size: 32,
            learning_rate: 0.01,
            track_train_accuracy: true,
        }
    }
}

impl TrainConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when any hyper-parameter is outside
    /// its admissible range.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.epochs == 0 {
            return Err(NnError::InvalidConfig {
                context: "epochs must be >= 1".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(NnError::InvalidConfig {
                context: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        Ok(())
    }
}

/// Per-epoch history and final metrics of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Training accuracy per epoch (empty when
    /// [`TrainConfig::track_train_accuracy`] is off and a validation set was
    /// supplied).
    pub train_accuracy: Vec<f64>,
    /// Validation accuracy per epoch (empty when no validation set given).
    pub val_accuracy: Vec<f64>,
    /// Number of epochs run.
    pub epochs_run: usize,
    /// Best validation accuracy seen (or best training accuracy when no
    /// validation set was supplied).
    pub best_accuracy: f64,
}

/// A hook invoked after every parameter update, letting callers constrain the
/// weights (re-apply pruning masks, snap to cluster centroids, fake-quantize).
///
/// The hook receives the network after the optimizer update has been applied.
pub trait WeightConstraint {
    /// Re-establishes the constraint on the model in place.
    fn apply(&mut self, mlp: &mut Mlp);
}

/// A no-op constraint used by plain training.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoConstraint;

impl WeightConstraint for NoConstraint {
    fn apply(&mut self, _mlp: &mut Mlp) {}
}

impl<F: FnMut(&mut Mlp)> WeightConstraint for F {
    fn apply(&mut self, mlp: &mut Mlp) {
        self(mlp)
    }
}

/// Mini-batch gradient-descent trainer.
///
/// # Example
///
/// ```
/// use pmlp_nn::{Trainer, TrainConfig};
/// let trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
/// assert_eq!(trainer.config().epochs, 5);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `mlp` on `train`, optionally tracking accuracy on `validation`.
    ///
    /// Uses Adam with the configured learning rate. Equivalent to
    /// [`Trainer::fit_constrained`] with [`NoConstraint`].
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or when dataset and
    /// model shapes disagree.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        mlp: &mut Mlp,
        train: &Dataset,
        validation: Option<&Dataset>,
        rng: &mut R,
    ) -> Result<TrainReport, NnError> {
        self.fit_constrained(mlp, train, validation, &mut NoConstraint, rng)
    }

    /// Trains `mlp` while re-applying `constraint` after every update.
    ///
    /// This is the entry point used by quantization-aware training (the
    /// constraint fake-quantizes the weights), pruning fine-tuning (the
    /// constraint re-applies the sparsity mask) and clustering fine-tuning
    /// (the constraint snaps weights back onto their shared centroids).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or when dataset and
    /// model shapes disagree.
    pub fn fit_constrained<R, C>(
        &self,
        mlp: &mut Mlp,
        train: &Dataset,
        validation: Option<&Dataset>,
        constraint: &mut C,
        rng: &mut R,
    ) -> Result<TrainReport, NnError>
    where
        R: Rng + ?Sized,
        C: WeightConstraint + ?Sized,
    {
        self.config.validate()?;
        if train.feature_count() != mlp.input_size() {
            return Err(NnError::ShapeMismatch {
                context: "training features vs model input".into(),
                left: (train.len(), train.feature_count()),
                right: (1, mlp.input_size()),
            });
        }
        if let Some(val) = validation {
            if val.feature_count() != mlp.input_size() {
                return Err(NnError::ShapeMismatch {
                    context: "validation features vs model input".into(),
                    left: (val.len(), val.feature_count()),
                    right: (1, mlp.input_size()),
                });
            }
        }
        if train.class_count() > mlp.output_size() {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "dataset has {} classes but model only outputs {}",
                    train.class_count(),
                    mlp.output_size()
                ),
            });
        }

        let mut optimizer = Adam::new(self.config.learning_rate);
        let mut report = TrainReport::default();
        let mut best_accuracy = 0.0_f64;
        let mut best_model = mlp.clone();

        // Ensure the model starts from a constraint-satisfying point.
        constraint.apply(mlp);

        // Hot-loop buffers, all alive for the whole run: one shuffled index
        // permutation per epoch, one gathered feature/label batch and the
        // per-layer buffers of the training step, which the per-epoch
        // accuracy passes reuse. After the first epoch no batch allocates.
        let batch_size = self.config.batch_size.max(1);
        let mut shuffled: Vec<usize> = Vec::with_capacity(train.len());
        let mut batch_features = Matrix::zeros(0, train.feature_count());
        let mut batch_labels: Vec<usize> = Vec::with_capacity(batch_size);
        let mut buffers: Vec<LayerBuffers> = Vec::new();

        for epoch in 0..self.config.epochs {
            let mut epoch_loss = 0.0_f32;
            let mut batches = 0usize;
            train.shuffle_indices_into(&mut shuffled, rng);
            for batch in shuffled.chunks(batch_size) {
                train.gather_batch(batch, &mut batch_features, &mut batch_labels);
                epoch_loss += mlp.gradients(&batch_features, &batch_labels, &mut buffers)?;
                batches += 1;
                optimizer.step(mlp, &buffers);
                constraint.apply(mlp);
            }
            // Dead units' moments settle in the subnormal range, where every
            // step that touches them is slow; one pass per epoch keeps them
            // out of it without a select in the per-step update.
            optimizer.flush_subnormals();
            report.train_loss.push(if batches > 0 {
                epoch_loss / batches as f32
            } else {
                0.0
            });
            // The full-train-set accuracy pass is skippable only when a
            // validation set drives best-model tracking.
            if self.config.track_train_accuracy || validation.is_none() {
                report
                    .train_accuracy
                    .push(mlp.accuracy_into(train, &mut buffers));
            }
            report.epochs_run = epoch + 1;

            let tracked_acc = match validation {
                Some(val) => {
                    let acc = mlp.accuracy_into(val, &mut buffers);
                    report.val_accuracy.push(acc);
                    acc
                }
                None => *report
                    .train_accuracy
                    .last()
                    .expect("train accuracy recorded when no validation set"),
            };

            if tracked_acc > best_accuracy {
                best_accuracy = tracked_acc;
                best_model = mlp.clone();
            }
        }

        // Keep the best model seen (matters when the last epochs overfit).
        if best_accuracy > 0.0 {
            *mlp = best_model;
        }
        report.best_accuracy = best_accuracy;
        Ok(report)
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer::new(TrainConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two well-separated Gaussian-ish blobs, linearly separable.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            xs.push(vec![
                center + rng.gen_range(-0.3_f32..0.3),
                center + rng.gen_range(-0.3_f32..0.3),
            ]);
            ys.push(class);
        }
        Dataset::from_rows(xs, ys, 2).unwrap()
    }

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(0.0..1.0_f32);
            let b = rng.gen_range(0.0..1.0_f32);
            let label = usize::from((a > 0.5) != (b > 0.5));
            xs.push(vec![a, b]);
            ys.push(label);
        }
        Dataset::from_rows(xs, ys, 2).unwrap()
    }

    #[test]
    fn config_validation_catches_bad_values() {
        assert!(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            learning_rate: -1.0,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn trains_linearly_separable_blobs_to_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(100);
        let data = blobs(200, 7);
        let mut mlp = MlpBuilder::new(2)
            .hidden(4)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        assert!(
            report.best_accuracy > 0.95,
            "accuracy {}",
            report.best_accuracy
        );
        assert_eq!(report.train_loss.len(), report.epochs_run);
    }

    #[test]
    fn trains_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(201);
        let data = xor_data(400, 9);
        let mut mlp = MlpBuilder::new(2)
            .hidden(12)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 120,
            learning_rate: 0.02,
            batch_size: 32,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        assert!(
            report.best_accuracy > 0.9,
            "xor accuracy {}",
            report.best_accuracy
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut rng = StdRng::seed_from_u64(300);
        let data = blobs(200, 11);
        let mut mlp = MlpBuilder::new(2)
            .hidden(6)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn rejects_feature_width_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(20, 1);
        let mut mlp = MlpBuilder::new(5)
            .hidden(4)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::default();
        assert!(trainer.fit(&mut mlp, &data, None, &mut rng).is_err());
    }

    #[test]
    fn rejects_validation_width_mismatch() {
        // A validation set of the wrong width would score 0.0 every epoch,
        // and best-model tracking would silently keep the last epoch.
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(20, 1);
        let wide = Dataset::from_rows(vec![vec![0.0, 1.0, 2.0]; 4], vec![0, 1, 0, 1], 2).unwrap();
        let mut mlp = MlpBuilder::new(2)
            .hidden(4)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let before = mlp.clone();
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        });
        let result = trainer.fit(&mut mlp, &data, Some(&wide), &mut rng);
        assert!(
            matches!(result, Err(NnError::ShapeMismatch { .. })),
            "{result:?}"
        );
        assert_eq!(mlp, before);
    }

    #[test]
    fn rejects_too_few_model_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(20, 1); // two classes
        let mut mlp = MlpBuilder::new(2).output(1).build(&mut rng).unwrap();
        let trainer = Trainer::default();
        assert!(trainer.fit(&mut mlp, &data, None, &mut rng).is_err());
    }

    #[test]
    fn constraint_is_enforced_throughout_training() {
        // Constraint: the (0,0) weight of layer 0 must stay exactly zero.
        let mut rng = StdRng::seed_from_u64(17);
        let data = blobs(100, 3);
        let mut mlp = MlpBuilder::new(2)
            .hidden(4)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        });
        let mut constraint = |m: &mut Mlp| {
            m.layers_mut()[0].weights_mut().set(0, 0, 0.0);
        };
        trainer
            .fit_constrained(&mut mlp, &data, None, &mut constraint, &mut rng)
            .unwrap();
        assert_eq!(mlp.layers()[0].weights().get(0, 0), 0.0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let data = blobs(100, 23);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = MlpBuilder::new(2)
                .hidden(4)
                .output(2)
                .build(&mut rng)
                .unwrap();
            let trainer = Trainer::new(TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            });
            trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
            mlp.flatten_weights()
        };
        assert_eq!(run(77), run(77));
    }
}
