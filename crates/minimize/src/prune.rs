//! Unstructured magnitude pruning with mask-preserving fine-tuning.
//!
//! The paper evaluates unstructured pruning at sparsity levels between 20 %
//! and 60 %. In a bespoke circuit a pruned connection simply disappears: the
//! multiplier is removed and the neuron's adder tree shrinks by one operand,
//! which is why unstructured pruning (normally awkward on general-purpose
//! hardware) maps perfectly onto printed bespoke MLPs.

use crate::error::MinimizeError;
use pmlp_nn::{Dataset, Mlp, TrainConfig, TrainReport, Trainer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A per-layer boolean mask: `true` keeps the weight, `false` prunes it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruningMask {
    /// `masks[layer][input][output]`, flattened row-major per layer to match
    /// the `pmlp-nn` weight storage.
    layers: Vec<Vec<bool>>,
    /// Shapes of each layer mask as `(inputs, outputs)`.
    shapes: Vec<(usize, usize)>,
}

impl PruningMask {
    /// Global magnitude pruning: removes the `sparsity` fraction of weights
    /// with the smallest absolute value across the whole network.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when `sparsity` is not in
    /// `[0, 1)`.
    pub fn magnitude_global(mlp: &Mlp, sparsity: f64) -> Result<Self, MinimizeError> {
        if !(0.0..1.0).contains(&sparsity) {
            return Err(MinimizeError::InvalidConfig {
                context: format!("sparsity must be in [0,1), got {sparsity}"),
            });
        }
        let mut all: Vec<f32> = mlp.flatten_weights().iter().map(|w| w.abs()).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("weights are finite"));
        let cut_index = ((all.len() as f64) * sparsity).floor() as usize;
        let threshold = if cut_index == 0 {
            -1.0
        } else {
            all[cut_index - 1]
        };

        let mut layers = Vec::with_capacity(mlp.layers().len());
        let mut shapes = Vec::with_capacity(mlp.layers().len());
        let mut pruned_so_far = 0usize;
        let budget = cut_index;
        for layer in mlp.layers() {
            let mask: Vec<bool> = layer
                .weights()
                .as_slice()
                .iter()
                .map(|&w| {
                    // Prune weights at or below the threshold, but never more
                    // than the global budget (ties at the threshold).
                    if w.abs() <= threshold && pruned_so_far < budget {
                        pruned_so_far += 1;
                        false
                    } else {
                        true
                    }
                })
                .collect();
            shapes.push(layer.weights().shape());
            layers.push(mask);
        }
        Ok(PruningMask { layers, shapes })
    }

    /// Fraction of weights removed by the mask.
    pub fn sparsity(&self) -> f64 {
        let total: usize = self.layers.iter().map(Vec::len).sum();
        let pruned: usize = self
            .layers
            .iter()
            .map(|m| m.iter().filter(|&&k| !k).count())
            .sum();
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }

    /// `true` when the mask keeps the weight at `(layer, input, output)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn keeps(&self, layer: usize, input: usize, output: usize) -> bool {
        let (_, cols) = self.shapes[layer];
        self.layers[layer][input * cols + output]
    }

    /// Zeroes every pruned weight of `mlp` in place.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when the mask shape does not
    /// match the model.
    pub fn apply(&self, mlp: &mut Mlp) -> Result<(), MinimizeError> {
        if mlp.layers().len() != self.layers.len() {
            return Err(MinimizeError::InvalidConfig {
                context: format!(
                    "mask covers {} layers but the model has {}",
                    self.layers.len(),
                    mlp.layers().len()
                ),
            });
        }
        for (layer, (mask, &shape)) in mlp
            .layers_mut()
            .iter_mut()
            .zip(self.layers.iter().zip(self.shapes.iter()))
        {
            if layer.weights().shape() != shape {
                return Err(MinimizeError::InvalidConfig {
                    context: format!(
                        "mask layer shape {:?} does not match model layer shape {:?}",
                        shape,
                        layer.weights().shape()
                    ),
                });
            }
            let slice = layer.weights_mut().as_mut_slice();
            for (w, &keep) in slice.iter_mut().zip(mask.iter()) {
                if !keep {
                    *w = 0.0;
                }
            }
        }
        Ok(())
    }
}

/// Prunes `mlp` to the requested global sparsity and fine-tunes it while
/// keeping the pruned connections at exactly zero. Returns the mask and the
/// fine-tuning report.
///
/// # Errors
///
/// Returns [`MinimizeError`] on invalid sparsity or training failures.
pub fn prune_and_fine_tune<R: Rng + ?Sized>(
    mlp: &mut Mlp,
    train: &Dataset,
    validation: Option<&Dataset>,
    sparsity: f64,
    training: &TrainConfig,
    rng: &mut R,
) -> Result<(PruningMask, TrainReport), MinimizeError> {
    let mask = PruningMask::magnitude_global(mlp, sparsity)?;
    mask.apply(mlp)?;
    let trainer = Trainer::new(training.clone());
    let mask_for_constraint = mask.clone();
    let mut constraint = move |m: &mut Mlp| {
        // Re-zero pruned weights after every optimizer update.
        let _ = mask_for_constraint.apply(m);
    };
    let report = trainer.fit_constrained(mlp, train, validation, &mut constraint, rng)?;
    // The best-model restore in the trainer keeps a masked model, but re-apply
    // for belt and braces.
    mask.apply(mlp)?;
    Ok((mask, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_data::{load, UciDataset};
    use pmlp_nn::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        MlpBuilder::new(7)
            .hidden(10)
            .output(3)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn global_pruning_hits_requested_sparsity() {
        let m = mlp(2);
        for target in [0.2, 0.4, 0.6] {
            let mask = PruningMask::magnitude_global(&m, target).unwrap();
            assert!(
                (mask.sparsity() - target).abs() < 0.02,
                "target {target}, achieved {}",
                mask.sparsity()
            );
        }
    }

    #[test]
    fn invalid_sparsity_is_rejected() {
        let m = mlp(4);
        assert!(PruningMask::magnitude_global(&m, 1.0).is_err());
        assert!(PruningMask::magnitude_global(&m, -0.1).is_err());
    }

    #[test]
    fn pruning_removes_smallest_magnitude_weights_first() {
        let m = mlp(5);
        let mask = PruningMask::magnitude_global(&m, 0.3).unwrap();
        let mut pruned = m.clone();
        mask.apply(&mut pruned).unwrap();
        // The largest-magnitude weight must survive.
        let max_abs = m.max_abs_weight();
        assert!((pruned.max_abs_weight() - max_abs).abs() < 1e-9);
        // Every kept weight is at least as large (in magnitude) as every
        // pruned weight was.
        let mut pruned_magnitudes = Vec::new();
        let mut kept_magnitudes = Vec::new();
        for (orig, new) in m
            .flatten_weights()
            .iter()
            .zip(pruned.flatten_weights().iter())
        {
            if *new == 0.0 && *orig != 0.0 {
                pruned_magnitudes.push(orig.abs());
            } else if *new != 0.0 {
                kept_magnitudes.push(orig.abs());
            }
        }
        let max_pruned = pruned_magnitudes.iter().cloned().fold(0.0_f32, f32::max);
        let min_kept = kept_magnitudes
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        assert!(max_pruned <= min_kept + 1e-6);
    }

    #[test]
    fn apply_rejects_mismatched_model() {
        let mask = PruningMask::magnitude_global(&mlp(6), 0.2).unwrap();
        let mut other = {
            let mut rng = StdRng::seed_from_u64(9);
            MlpBuilder::new(5)
                .hidden(4)
                .output(2)
                .build(&mut rng)
                .unwrap()
        };
        assert!(mask.apply(&mut other).is_err());
    }

    #[test]
    fn zero_sparsity_mask_keeps_everything() {
        let m = mlp(7);
        let mask = PruningMask::magnitude_global(&m, 0.0).unwrap();
        let mut pruned = m.clone();
        mask.apply(&mut pruned).unwrap();
        assert_eq!(pruned, m);
    }

    #[test]
    fn fine_tuning_preserves_mask_and_recovers_accuracy() {
        let mut rng = StdRng::seed_from_u64(21);
        let data = load(UciDataset::Seeds, 33).unwrap();
        let (train, test) = data.stratified_split(0.8, &mut rng).unwrap();
        let mut model = MlpBuilder::new(train.feature_count())
            .hidden(10)
            .output(train.class_count())
            .build(&mut rng)
            .unwrap();
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut model, &train, None, &mut rng)
        .unwrap();
        let dense_acc = model.accuracy(&test);

        let mut pruned_model = model.clone();
        let (mask, _) = prune_and_fine_tune(
            &mut pruned_model,
            &train,
            None,
            0.5,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Sparsity is preserved after fine-tuning.
        assert!(pruned_model.sparsity() >= mask.sparsity() - 1e-9);
        // Accuracy stays within a reasonable band of the dense model.
        let pruned_acc = pruned_model.accuracy(&test);
        assert!(
            pruned_acc >= dense_acc - 0.15,
            "pruned accuracy {pruned_acc} collapsed vs dense {dense_acc}"
        );
    }

    #[test]
    fn keeps_reports_individual_positions() {
        let m = mlp(8);
        let mask = PruningMask::magnitude_global(&m, 0.4).unwrap();
        let mut kept = 0usize;
        let mut total = 0usize;
        for (li, layer) in m.layers().iter().enumerate() {
            let (inputs, outputs) = layer.weights().shape();
            for i in 0..inputs {
                for o in 0..outputs {
                    total += 1;
                    if mask.keeps(li, i, o) {
                        kept += 1;
                    }
                }
            }
        }
        assert_eq!(total, m.weight_count());
        assert!((1.0 - kept as f64 / total as f64 - mask.sparsity()).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pmlp_nn::MlpBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn achieved_sparsity_close_to_target(target in 0.0f64..0.9, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = MlpBuilder::new(6).hidden(8).output(3).build(&mut rng).unwrap();
            let mask = PruningMask::magnitude_global(&m, target).unwrap();
            prop_assert!((mask.sparsity() - target).abs() < 0.05);
        }
    }
}
