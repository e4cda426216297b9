//! The combined minimization pipeline: prune → cluster → quantize (QAT), each
//! with mask/cluster-preserving fine-tuning.
//!
//! Every stage draws from its own RNG, seeded as `seed ^ config_hash(prefix)`
//! where `prefix` is the configuration up to that stage: the prune stage sees
//! the configuration with clustering and quantization disabled, the cluster
//! stage the configuration with quantization disabled, and QAT the full
//! configuration. A stage's output is therefore a function of its prefix
//! alone, which is what lets a [`StageMemo`] share one prune or cluster
//! stage among every configuration that starts with it. A single-technique
//! configuration runs one stage whose prefix is the configuration itself, so
//! it draws the same stream as one RNG seeded from the whole configuration.

use crate::cluster::{cluster_and_fine_tune, ClusterAssignment, ClusteringConfig};
use crate::config::{sparsity_millis, MinimizationConfig};
use crate::error::MinimizeError;
use crate::prune::{prune_and_fine_tune, PruningMask};
use crate::qat::{quantization_aware_train, QatConfig};
use crate::quantize::{quantize_mlp, IntegerLayer, QuantizationConfig};
use pmlp_nn::{Dataset, Mlp, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The result of applying a [`MinimizationConfig`] to a trained MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizedModel {
    /// The minimized model (pruned / clustered / fake-quantized weights), used
    /// for software accuracy evaluation.
    pub model: Mlp,
    /// Integer weight codes and scales per layer, the hand-off format for the
    /// bespoke hardware model.
    pub integer_layers: Vec<IntegerLayer>,
    /// The pruning mask that was applied, if any.
    pub mask: Option<PruningMask>,
    /// The cluster assignment that was applied, if any.
    pub clusters: Option<ClusterAssignment>,
    /// The configuration that produced this model, in
    /// [canonical](MinimizationConfig::canonical) form.
    pub config: MinimizationConfig,
}

impl MinimizedModel {
    /// Achieved weight sparsity (fraction of exactly-zero weights).
    pub fn sparsity(&self) -> f64 {
        self.model.sparsity()
    }

    /// Classification accuracy of the minimized model on `data`.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        self.model.accuracy(data)
    }

    /// `true` when this model was weight-clustered, i.e. its bespoke circuit
    /// (and any integer inference over [`integer_layers`](Self::integer_layers))
    /// should share one multiplier per distinct `(input, weight)` product.
    /// This is the single source of truth the evaluation layers use to pick a
    /// `pmlp_hw::SharingStrategy` for the cached integer-layer artifacts.
    pub fn shares_multipliers(&self) -> bool {
        self.config.clusters_per_input.is_some()
    }
}

/// The output of the prune or cluster stage: the fine-tuned float model and
/// the structure every later stage re-imposes. Outputs are immutable once
/// produced; a later stage clones whatever it mutates. A [`StageMemo`] only
/// stores and hands them back.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutput {
    /// The model after this stage's fine-tuning.
    model: Mlp,
    /// The pruning mask, when the stage's prefix prunes.
    mask: Option<PruningMask>,
    /// The cluster assignment, when the stage's prefix clusters.
    clusters: Option<ClusterAssignment>,
}

/// A cache of prune and cluster stage outputs (see [`minimize_with`]).
///
/// A stage output is fixed by the baseline model and data, the stage's
/// canonical `prefix` configuration (which carries the fine-tuning budget and
/// input precision) and the pipeline `seed`. One memo serves one baseline, so
/// its key must hold the prefix and the seed.
pub trait StageMemo {
    /// Returns the output of the stage identified by `prefix` and `seed`,
    /// calling `compute` only when no output is cached. A failed `compute`
    /// must not be cached.
    ///
    /// # Errors
    ///
    /// Returns the error of `compute`.
    fn stage(
        &self,
        prefix: &MinimizationConfig,
        seed: u64,
        compute: &mut dyn FnMut() -> Result<StageOutput, MinimizeError>,
    ) -> Result<Arc<StageOutput>, MinimizeError>;
}

/// The [`StageMemo`] that caches nothing: every stage runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncached;

impl StageMemo for Uncached {
    fn stage(
        &self,
        _prefix: &MinimizationConfig,
        _seed: u64,
        compute: &mut dyn FnMut() -> Result<StageOutput, MinimizeError>,
    ) -> Result<Arc<StageOutput>, MinimizeError> {
        compute().map(Arc::new)
    }
}

/// Applies the minimization pipeline described by `config` to (a copy of)
/// `mlp`:
///
/// 1. unstructured magnitude pruning + fine-tuning (if `config.sparsity`),
/// 2. per-input weight clustering + fine-tuning (if `config.clusters_per_input`),
/// 3. quantization-aware training at `config.weight_bits` (or plain 8-bit
///    post-training quantization for the baseline), with the pruning mask and
///    cluster structure re-applied inside the QAT constraint so all three
///    techniques compose.
///
/// Each stage seeds its own RNG from `seed` and its prefix configuration
/// (see the [module documentation](self)); the result is a deterministic
/// function of `(mlp, train, validation, config, seed)`.
///
/// # Errors
///
/// Returns [`MinimizeError`] when the configuration is invalid or an
/// underlying training step fails.
pub fn minimize(
    mlp: &Mlp,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &MinimizationConfig,
    seed: u64,
) -> Result<MinimizedModel, MinimizeError> {
    minimize_with(mlp, train, validation, config, seed, &Uncached)
}

/// [`minimize`] with the prune and cluster stages fetched from, or computed
/// into, `memo`. The result is identical for every memo, whatever it holds
/// and in whichever order configurations arrive, because a stage's output
/// depends only on its prefix and `seed`.
///
/// # Errors
///
/// Returns [`MinimizeError`] when the configuration is invalid or an
/// underlying training step fails.
pub fn minimize_with(
    mlp: &Mlp,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &MinimizationConfig,
    seed: u64,
    memo: &dyn StageMemo,
) -> Result<MinimizedModel, MinimizeError> {
    config.validate()?;
    let config = config.canonical();
    let fine_tune = TrainConfig {
        epochs: config.fine_tune_epochs,
        learning_rate: 0.005,
        // Fine-tune reports are discarded by this pipeline; skipping the
        // per-epoch full-train-set accuracy pass saves a meaningful slice of
        // every candidate evaluation (best-model tracking still runs on the
        // validation set when one is supplied).
        track_train_accuracy: false,
        ..TrainConfig::default()
    };

    // 1. Pruning.
    let prune_prefix = MinimizationConfig {
        weight_bits: None,
        clusters_per_input: None,
        ..config
    };
    let prune_stage = || -> Result<Option<Arc<StageOutput>>, MinimizeError> {
        let Some(sparsity) = config.sparsity.filter(|&s| s > 0.0) else {
            return Ok(None);
        };
        memo.stage(&prune_prefix, seed, &mut || {
            let mut model = mlp.clone();
            let mut rng = stage_rng(seed, &prune_prefix);
            let (mask, _) = prune_and_fine_tune(
                &mut model, train, validation, sparsity, &fine_tune, &mut rng,
            )?;
            Ok(StageOutput {
                model,
                mask: Some(mask),
                clusters: None,
            })
        })
        .map(Some)
    };

    // 2. Weight clustering of the pruned model (pruned weights stay zero
    //    because the mask is re-applied after clustering). A cached cluster
    //    stage skips the prune stage entirely.
    let structured = match config.clusters_per_input {
        Some(k) => {
            let cluster_prefix = MinimizationConfig {
                weight_bits: None,
                ..config
            };
            Some(memo.stage(&cluster_prefix, seed, &mut || {
                let pruned = prune_stage()?;
                let mut model = pruned.as_ref().map_or(mlp, |p| &p.model).clone();
                let mask = pruned.and_then(|p| p.mask.clone());
                let mut rng = stage_rng(seed, &cluster_prefix);
                let (assignment, _) = cluster_and_fine_tune(
                    &mut model,
                    train,
                    validation,
                    &ClusteringConfig::new(k),
                    &fine_tune,
                    &mut rng,
                )?;
                if let Some(m) = &mask {
                    m.apply(&mut model)?;
                }
                Ok(StageOutput {
                    model,
                    mask,
                    clusters: Some(assignment),
                })
            })?)
        }
        None => prune_stage()?,
    };
    let model = structured.as_ref().map_or(mlp, |s| &s.model);
    let mask = structured.as_ref().and_then(|s| s.mask.as_ref());
    let mut clusters = structured.as_ref().and_then(|s| s.clusters.clone());

    // 3. Quantization. For the baseline (no explicit bit-width) the weights
    //    are post-training quantized to 8 bits, mirroring the un-minimized
    //    bespoke MLP of Mubarik et al.
    let quantized = match config.weight_bits {
        Some(bits) => {
            let qat = QatConfig {
                quantization: QuantizationConfig {
                    weight_bits: bits,
                    input_bits: config.input_bits,
                },
                training: fine_tune.clone(),
            };
            // Compose the structural constraints into the QAT run by wrapping
            // the model: QAT itself snaps to the grid; afterwards the mask and
            // clusters are re-imposed and the integer codes recomputed.
            let mut rng = stage_rng(seed, &config);
            let (mut q, _) = quantization_aware_train(model, train, validation, &qat, &mut rng)?;
            if let Some(m) = mask {
                m.apply(&mut q.model)?;
            }
            if let Some(c) = &mut clusters {
                c.refit_and_apply(&mut q.model)?;
                if let Some(m) = mask {
                    m.apply(&mut q.model)?;
                }
            }
            // Recompute codes after the structural constraints were re-imposed.
            quantize_mlp(
                &q.model,
                &QuantizationConfig {
                    weight_bits: bits,
                    input_bits: config.input_bits,
                },
            )?
        }
        None => quantize_mlp(
            model,
            &QuantizationConfig {
                weight_bits: 8,
                input_bits: config.input_bits,
            },
        )?,
    };

    Ok(MinimizedModel {
        model: quantized.model,
        integer_layers: quantized.layers,
        mask: mask.cloned(),
        clusters,
        config,
    })
}

/// The RNG of the stage whose prefix configuration is `prefix`.
fn stage_rng(seed: u64, prefix: &MinimizationConfig) -> StdRng {
    StdRng::seed_from_u64(seed ^ config_hash(prefix))
}

/// Deterministic hash of a configuration's techniques and input precision
/// (not its fine-tuning budget), from which the stage seeds derive.
fn config_hash(config: &MinimizationConfig) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(config.weight_bits.map(u64::from).unwrap_or(99));
    mix(config
        .sparsity
        .map(|s| u64::from(sparsity_millis(s)))
        .unwrap_or(9999));
    mix(config.clusters_per_input.map(|c| c as u64).unwrap_or(77777));
    mix(u64::from(config.input_bits));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_data::{load, UciDataset};
    use pmlp_nn::{MlpBuilder, Trainer};
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeSet, HashMap};

    fn trained_model(rng: &mut StdRng) -> (Mlp, Dataset, Dataset) {
        let data = load(UciDataset::Seeds, 1).unwrap();
        let (train, test) = data.stratified_split(0.8, rng).unwrap();
        let mut mlp = MlpBuilder::new(train.feature_count())
            .hidden(8)
            .output(train.class_count())
            .build(rng)
            .unwrap();
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &train, None, rng)
        .unwrap();
        (mlp, train, test)
    }

    #[test]
    fn baseline_config_quantizes_to_8_bits_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mlp, train, test) = trained_model(&mut rng);
        let result = minimize(&mlp, &train, None, &MinimizationConfig::baseline(), 2).unwrap();
        assert!(result.mask.is_none());
        assert!(result.clusters.is_none());
        assert_eq!(result.integer_layers[0].weight_bits, 8);
        // 8-bit quantization barely moves accuracy.
        assert!(result.accuracy(&test) >= mlp.accuracy(&test) - 0.05);
    }

    #[test]
    fn pruning_only_config_reaches_target_sparsity() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mlp, train, _) = trained_model(&mut rng);
        let config = MinimizationConfig::default()
            .with_sparsity(0.5)
            .with_fine_tune_epochs(5);
        let result = minimize(&mlp, &train, None, &config, 3).unwrap();
        assert!(result.sparsity() >= 0.45, "sparsity {}", result.sparsity());
        assert!(result.mask.is_some());
    }

    #[test]
    fn quantization_only_config_bounds_codes() {
        let mut rng = StdRng::seed_from_u64(4);
        let (mlp, train, _) = trained_model(&mut rng);
        let config = MinimizationConfig::default()
            .with_weight_bits(3)
            .with_fine_tune_epochs(5);
        let result = minimize(&mlp, &train, None, &config, 4).unwrap();
        for layer in &result.integer_layers {
            assert_eq!(layer.weight_bits, 3);
            assert!(layer.codes.iter().flatten().all(|&c| c.abs() <= 3));
        }
    }

    #[test]
    fn clustering_only_config_limits_distinct_values() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mlp, train, _) = trained_model(&mut rng);
        let k = 3;
        let config = MinimizationConfig::default()
            .with_clusters(k)
            .with_fine_tune_epochs(5);
        let result = minimize(&mlp, &train, None, &config, 5).unwrap();
        assert!(result.clusters.is_some());
        // After 8-bit quantization of the clustered model, every input row has
        // at most k distinct codes.
        for layer in &result.integer_layers {
            let inputs = layer.codes[0].len();
            for i in 0..inputs {
                let distinct: BTreeSet<i64> = layer.codes.iter().map(|row| row[i]).collect();
                assert!(
                    distinct.len() <= k,
                    "{} distinct codes for one input",
                    distinct.len()
                );
            }
        }
    }

    #[test]
    fn combined_config_composes_all_constraints() {
        let mut rng = StdRng::seed_from_u64(6);
        let (mlp, train, test) = trained_model(&mut rng);
        let config = MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.4)
            .with_clusters(3)
            .with_fine_tune_epochs(5);
        let result = minimize(&mlp, &train, None, &config, 6).unwrap();
        // Sparsity preserved through clustering and QAT.
        assert!(result.sparsity() >= 0.35, "sparsity {}", result.sparsity());
        // Codes fit 4 bits.
        for layer in &result.integer_layers {
            assert!(layer.codes.iter().flatten().all(|&c| c.abs() <= 7));
        }
        // The minimized model still classifies far better than chance (1/3).
        assert!(
            result.accuracy(&test) > 0.5,
            "accuracy collapsed: {}",
            result.accuracy(&test)
        );
    }

    /// A single-threaded memo that counts the stages it had to run.
    #[derive(Default)]
    struct CountingMemo {
        outputs: RefCell<HashMap<(String, u64), Arc<StageOutput>>>,
        runs: Cell<usize>,
    }

    impl StageMemo for CountingMemo {
        fn stage(
            &self,
            prefix: &MinimizationConfig,
            seed: u64,
            compute: &mut dyn FnMut() -> Result<StageOutput, MinimizeError>,
        ) -> Result<Arc<StageOutput>, MinimizeError> {
            let key = (format!("{prefix:?}"), seed);
            if let Some(output) = self.outputs.borrow().get(&key) {
                return Ok(Arc::clone(output));
            }
            // `compute` may itself consult the memo (the cluster stage asks
            // for its prune stage), so no borrow is held across it.
            let output = Arc::new(compute()?);
            self.runs.set(self.runs.get() + 1);
            self.outputs.borrow_mut().insert(key, Arc::clone(&output));
            Ok(output)
        }
    }

    #[test]
    fn memo_shares_stage_prefixes_without_changing_results() {
        let mut rng = StdRng::seed_from_u64(8);
        let (mlp, train, _) = trained_model(&mut rng);
        let pruned = MinimizationConfig::default()
            .with_sparsity(0.4)
            .with_fine_tune_epochs(3);
        let configs = [
            pruned,
            pruned.with_clusters(3),
            pruned.with_clusters(3).with_weight_bits(4),
            pruned.with_clusters(3).with_weight_bits(3),
            pruned.with_weight_bits(4),
        ];
        let memo = CountingMemo::default();
        for config in &configs {
            let shared = minimize_with(&mlp, &train, None, config, 11, &memo).unwrap();
            let alone = minimize(&mlp, &train, None, config, 11).unwrap();
            assert_eq!(shared, alone, "{config}");
        }
        // One prune stage (p0.40) and one cluster stage (p0.40/c3) serve all
        // five configurations.
        assert_eq!(memo.runs.get(), 2);
        // Another seed is another stage output.
        minimize_with(&mlp, &train, None, &configs[0], 12, &memo).unwrap();
        assert_eq!(memo.runs.get(), 3);
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let a = config_hash(&MinimizationConfig::default().with_weight_bits(3));
        let b = config_hash(&MinimizationConfig::default().with_weight_bits(4));
        let c = config_hash(&MinimizationConfig::default().with_sparsity(0.3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        let noisy = config_hash(&MinimizationConfig::default().with_sparsity(0.29999999999));
        assert_eq!(noisy, c);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mlp, train, _) = trained_model(&mut rng);
        let config = MinimizationConfig::default().with_sparsity(1.5);
        assert!(minimize(&mlp, &train, None, &config, 7).is_err());
    }
}
