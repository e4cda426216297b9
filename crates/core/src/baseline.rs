//! The un-minimized bespoke baseline (Mubarik et al., MICRO 2020) that every
//! figure normalizes against.
//!
//! Training and characterizing a baseline is the fixed up-front cost of every
//! experiment: epochs of full-precision training plus one gate-level
//! synthesis of the reference circuit. With a store attached,
//! [`BaselineDesign::train_cached`] persists the trained model and its
//! measured characterization as a store document keyed by the exact training
//! budget, so resumed campaigns, figure re-runs and second workers on a
//! shared store all skip straight past it. Any change to the budget (or the
//! dataset/seed) changes the document fingerprint and self-invalidates the
//! cache.

use crate::bridge::{synthesize_area, SynthesisSummary};
use crate::error::CoreError;
use crate::objective::{integer_accuracy, AccuracyTier};
use crate::store::StoreBackend;
use pmlp_data::{quantize_features, DatasetDescriptor, UciDataset};
use pmlp_hw::{CellLibrary, SharingStrategy};
use pmlp_minimize::{minimize, MinimizationConfig};
use pmlp_nn::{Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};

/// Training budget of the float baseline model.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Epochs of full-precision training.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Fraction of samples used for training (rest is the held-out test set).
    pub train_fraction: f64,
    /// Input bit-width of the bespoke circuit.
    pub input_bits: u8,
    /// Which arithmetic scores the test accuracy of the baseline and of
    /// every candidate evaluated against it. Defaults to
    /// [`AccuracyTier::Integer`] — the exact arithmetic of the bespoke
    /// circuit; [`AccuracyTier::Float`] keeps the fake-quantized `f32` model
    /// as the integer engine's test oracle.
    pub accuracy_tier: AccuracyTier,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            epochs: 60,
            batch_size: 32,
            learning_rate: 0.01,
            train_fraction: 0.75,
            input_bits: 4,
            accuracy_tier: AccuracyTier::default(),
        }
    }
}

/// Magic string of cached baseline-characterization documents.
const BASELINE_MAGIC: &str = "pmlp-baseline-cache";

/// Format version of cached baseline-characterization documents.
const BASELINE_VERSION: u32 = 1;

/// Version of the candidate minimization pipeline, mixed into
/// [`BaselineDesign::fingerprint`]. A pipeline change can move candidate
/// results while the baseline and every cache key stay the same; bumping
/// this retires the stored results and campaign markers of the old
/// pipeline. Cached baselines are keyed by [`budget_fingerprint`]
/// instead, so they keep loading. Version 2 seeds each pipeline stage from
/// its own prefix configuration, which moved every multi-stage result.
const PIPELINE_VERSION: u64 = 2;

/// Identity of a baseline training job: dataset, seed and the full training
/// budget. Any change to any of them changes the fingerprint, which is what
/// keys (and invalidates) the cached characterization document.
fn budget_fingerprint(dataset: UciDataset, seed: u64, config: &BaselineConfig) -> u64 {
    let mut fp = crate::store::FingerprintHasher::new();
    fp.mix_bytes(dataset.to_string().as_bytes());
    fp.mix_u64(seed);
    fp.mix_u64(config.epochs as u64);
    fp.mix_u64(config.batch_size as u64);
    fp.mix_u64(u64::from(config.learning_rate.to_bits()));
    fp.mix_u64(config.train_fraction.to_bits());
    fp.mix_u64(u64::from(config.input_bits));
    fp.mix_u64(match config.accuracy_tier {
        AccuracyTier::Float => 0xF10A7,
        AccuracyTier::Integer => 0x1237,
    });
    fp.finish()
}

/// Document name of the cached baseline characterization for
/// `(dataset, seed, config)` — how [`BaselineDesign::train_cached`] keys its
/// store documents (and how operators can spot them in a store directory).
pub fn baseline_doc_name(dataset: UciDataset, seed: u64, config: &BaselineConfig) -> String {
    format!(
        "baseline_{}_{:016x}.json",
        dataset.to_string().to_lowercase(),
        budget_fingerprint(dataset, seed, config)
    )
}

/// A trained baseline classifier together with its bespoke-circuit
/// characterization: the reference point of all normalized results.
#[derive(Debug, Clone)]
pub struct BaselineDesign {
    /// Which dataset this baseline belongs to.
    pub dataset: UciDataset,
    /// Descriptor of the dataset (shapes, baseline topology).
    pub descriptor: DatasetDescriptor,
    /// The float-trained model.
    pub model: Mlp,
    /// Training split (used for minimization fine-tuning).
    pub train: Dataset,
    /// Held-out test split (used for all reported accuracies).
    pub test: Dataset,
    /// The test split with features snapped onto the circuit's unsigned
    /// `input_bits` grid — exactly what the hardware's primary inputs carry.
    /// Both accuracy tiers score on this view (the float tier in `f32`, the
    /// integer tier via the equivalent integer rows in
    /// [`BaselineDesign::test_rows`]).
    pub quantized_test: Dataset,
    /// The quantized test features as flattened sample-major integer grid
    /// values, the input format of [`pmlp_hw::IntInferEngine`].
    pub test_rows: Vec<u16>,
    /// Which arithmetic scored [`BaselineDesign::accuracy`]; every candidate
    /// evaluated against this baseline is scored in the same one.
    pub accuracy_tier: AccuracyTier,
    /// Test accuracy of the 8-bit baseline bespoke implementation.
    pub accuracy: f64,
    /// Synthesis results of the 8-bit baseline bespoke circuit.
    pub synthesis: SynthesisSummary,
    /// Cell library used for synthesis.
    pub library: CellLibrary,
    /// Input bit-width of the bespoke circuit.
    pub input_bits: u8,
    /// Seed used for data generation and training.
    pub seed: u64,
}

impl BaselineDesign {
    /// Generates the dataset, trains the float MLP with the default budget and
    /// synthesizes the 8-bit baseline bespoke circuit.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training and synthesis errors.
    pub fn train(dataset: UciDataset, seed: u64) -> Result<Self, CoreError> {
        Self::train_with(dataset, seed, &BaselineConfig::default())
    }

    /// Same as [`BaselineDesign::train`] with an explicit training budget.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training and synthesis errors.
    pub fn train_with(
        dataset: UciDataset,
        seed: u64,
        config: &BaselineConfig,
    ) -> Result<Self, CoreError> {
        let descriptor = dataset.descriptor();
        let data = descriptor.generate(seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let (train, test) = data.stratified_split(config.train_fraction, &mut rng)?;

        let mut model = MlpBuilder::new(descriptor.feature_count)
            .hidden(descriptor.hidden_neurons)
            .output(descriptor.class_count)
            .build(&mut rng)?;
        let trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            // The baseline discards the training report and tracks the best
            // model on the held-out test split, so the per-epoch
            // full-train-set accuracy pass is pure overhead.
            track_train_accuracy: false,
        });
        trainer.fit(&mut model, &train, Some(&test), &mut rng)?;

        let library = CellLibrary::egt();
        // The circuit's view of the test split: features snapped onto the
        // unsigned input grid, plus the same grid points as raw integers for
        // the pure-integer engine.
        let mut quantized_test = test.clone();
        quantize_features(&mut quantized_test, config.input_bits)?;
        let test_rows = pmlp_hw::quantize_rows(test.features().as_slice(), config.input_bits)
            .map_err(CoreError::from)?;
        // The baseline bespoke MLP: 8-bit post-training quantized weights, no
        // pruning, no clustering, no multiplier sharing.
        let baseline_cfg = MinimizationConfig::baseline().with_input_bits(config.input_bits);
        let minimized = minimize(&model, &train, Some(&test), &baseline_cfg, seed)?;
        let accuracy = match config.accuracy_tier {
            AccuracyTier::Float => minimized.accuracy(&quantized_test),
            AccuracyTier::Integer => integer_accuracy(
                &minimized.integer_layers,
                config.input_bits,
                SharingStrategy::None,
                &test_rows,
                test.labels(),
            )?,
        };
        // The reference circuit every candidate is normalized against goes
        // through full gate-level synthesis.
        let synthesis = synthesize_area(
            &minimized.integer_layers,
            config.input_bits,
            &library,
            SharingStrategy::None,
        )?;

        Ok(BaselineDesign {
            dataset,
            descriptor,
            model,
            train,
            test,
            quantized_test,
            test_rows,
            accuracy_tier: config.accuracy_tier,
            accuracy,
            synthesis,
            library,
            input_bits: config.input_bits,
            seed,
        })
    }

    /// Same as [`BaselineDesign::train_with`], backed by a baseline
    /// characterization cache in `backend` (no-op without one).
    ///
    /// On a cache hit — a document keyed by the exact `(dataset, seed,
    /// budget)` fingerprint — the trained model, accuracy and synthesis
    /// numbers are loaded verbatim and only the (cheap, deterministic) data
    /// splits are regenerated, skipping full-precision training and reference
    /// synthesis entirely. On a miss the baseline trains normally and the
    /// characterization is published for the next run (or the next worker
    /// on the same shared store). Unreadable or
    /// mismatched documents fall back to training, never to an error.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, synthesis and store-write errors.
    pub fn train_cached(
        dataset: UciDataset,
        seed: u64,
        config: &BaselineConfig,
        backend: Option<&dyn StoreBackend>,
    ) -> Result<Self, CoreError> {
        let Some(backend) = backend else {
            return Self::train_with(dataset, seed, config);
        };
        let doc_name = baseline_doc_name(dataset, seed, config);
        let budget_fp = budget_fingerprint(dataset, seed, config);
        if let Some(design) =
            Self::load_cached(dataset, seed, config, backend, &doc_name, budget_fp)
        {
            return Ok(design);
        }
        let design = Self::train_with(dataset, seed, config)?;
        let value = crate::store::seal_envelope(
            BASELINE_MAGIC,
            BASELINE_VERSION,
            budget_fp,
            vec![
                ("model".into(), design.model.serialize_value()),
                ("accuracy".into(), design.accuracy.serialize_value()),
                ("synthesis".into(), design.synthesis.serialize_value()),
            ],
        );
        backend.put_doc(&doc_name, &value.render_pretty())?;
        Ok(design)
    }

    /// The cache-hit path of [`BaselineDesign::train_cached`]: `None` for a
    /// missing, unreadable or mismatched document (the caller trains instead).
    fn load_cached(
        dataset: UciDataset,
        seed: u64,
        config: &BaselineConfig,
        backend: &dyn StoreBackend,
        doc_name: &str,
        budget_fp: u64,
    ) -> Option<Self> {
        let text = backend.get_doc(doc_name).ok()??;
        let parsed = json::parse(&text).ok()?;
        let value =
            crate::store::check_envelope(&parsed, BASELINE_MAGIC, BASELINE_VERSION, budget_fp)?;
        let model = Mlp::deserialize_value(value.get("model")?).ok()?;
        let accuracy = match value.get("accuracy")? {
            Value::Number(n) => *n,
            _ => return None,
        };
        let synthesis = SynthesisSummary::deserialize_value(value.get("synthesis")?).ok()?;
        // The data views are deterministic functions of (dataset, seed,
        // train_fraction): regenerate them with the exact RNG stream the
        // training path uses, so a loaded design is indistinguishable from a
        // freshly trained one.
        let descriptor = dataset.descriptor();
        let data = descriptor.generate(seed).ok()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
        let (train, test) = data
            .stratified_split(config.train_fraction, &mut rng)
            .ok()?;
        if model.topology()
            != vec![
                descriptor.feature_count,
                descriptor.hidden_neurons,
                descriptor.class_count,
            ]
        {
            return None;
        }
        let mut quantized_test = test.clone();
        quantize_features(&mut quantized_test, config.input_bits).ok()?;
        let test_rows =
            pmlp_hw::quantize_rows(test.features().as_slice(), config.input_bits).ok()?;
        Some(BaselineDesign {
            dataset,
            descriptor,
            model,
            train,
            test,
            quantized_test,
            test_rows,
            accuracy_tier: config.accuracy_tier,
            accuracy,
            synthesis,
            library: CellLibrary::egt(),
            input_bits: config.input_bits,
            seed,
        })
    }

    /// Baseline circuit area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.synthesis.area_mm2
    }

    /// Stable identity of this baseline, used by the persistent evaluation
    /// store to bind cached results to the exact reference design they were
    /// measured against.
    ///
    /// The fingerprint covers the dataset, data/training seed, circuit input
    /// precision, accuracy tier, model topology and the baseline's measured
    /// accuracy, area, power and gate count — any change to the training
    /// budget, the hardware model or the accuracy arithmetic changes the
    /// measured numbers and therefore the fingerprint, which invalidates
    /// stale store files. A change to the candidate pipeline alone leaves
    /// all of those unchanged, so the fingerprint also covers a pipeline
    /// version.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = crate::store::FingerprintHasher::new();
        fp.mix_u64(PIPELINE_VERSION);
        fp.mix_bytes(self.dataset.to_string().as_bytes());
        fp.mix_u64(self.seed);
        fp.mix_u64(u64::from(self.input_bits));
        // Explicit tier tag: even an (unlikely) tier change that leaves every
        // measured number identical must not reuse cached scores.
        fp.mix_u64(match self.accuracy_tier {
            AccuracyTier::Float => 0xF10A7,
            AccuracyTier::Integer => 0x1237,
        });
        for width in self.model.topology() {
            fp.mix_u64(width as u64);
        }
        fp.mix_u64(self.accuracy.to_bits());
        fp.mix_u64(self.synthesis.area_mm2.to_bits());
        fp.mix_u64(self.synthesis.power_uw.to_bits());
        fp.mix_u64(self.synthesis.gate_count as u64);
        fp.finish()
    }

    /// Baseline test accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BaselineConfig {
        BaselineConfig {
            epochs: 12,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn seeds_baseline_trains_to_useful_accuracy() {
        let baseline = BaselineDesign::train_with(UciDataset::Seeds, 7, &quick_config()).unwrap();
        // Chance level is 1/3; the baseline must be clearly better.
        assert!(
            baseline.accuracy() > 0.6,
            "baseline accuracy {}",
            baseline.accuracy()
        );
        assert!(baseline.area_mm2() > 0.0);
        assert_eq!(baseline.descriptor.feature_count, 7);
        assert_eq!(baseline.model.topology(), vec![7, 10, 3]);
    }

    #[test]
    fn baseline_is_deterministic_for_a_seed() {
        let a = BaselineDesign::train_with(UciDataset::Seeds, 3, &quick_config()).unwrap();
        let b = BaselineDesign::train_with(UciDataset::Seeds, 3, &quick_config()).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.accuracy(), b.accuracy());
        assert_eq!(a.synthesis.gate_count, b.synthesis.gate_count);
    }

    #[test]
    fn train_cached_round_trips_through_the_store() {
        use crate::store::MemoryBackend;
        let backend = MemoryBackend::new();
        let config = quick_config();
        let trained =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();
        let doc = baseline_doc_name(UciDataset::Seeds, 9, &config);
        assert!(backend.get_doc(&doc).unwrap().is_some(), "miss publishes");

        let loaded =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();
        assert_eq!(loaded.model, trained.model);
        assert_eq!(loaded.accuracy(), trained.accuracy());
        assert_eq!(loaded.synthesis, trained.synthesis);
        assert_eq!(loaded.fingerprint(), trained.fingerprint());
        assert_eq!(loaded.test_rows, trained.test_rows);
        assert_eq!(loaded.train, trained.train);
        assert_eq!(loaded.quantized_test, trained.quantized_test);
    }

    /// The first array stored under `key`, depth first.
    fn first_array_named<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Vec<Value>> {
        match value {
            Value::Object(entries) => entries.iter_mut().find_map(|(k, v)| {
                if k == key && matches!(v, Value::Array(_)) {
                    match v {
                        Value::Array(items) => Some(items),
                        _ => None,
                    }
                } else {
                    first_array_named(v, key)
                }
            }),
            Value::Array(items) => items.iter_mut().find_map(|v| first_array_named(v, key)),
            _ => None,
        }
    }

    #[test]
    fn a_baseline_document_with_a_damaged_weight_matrix_retrains() {
        use crate::store::MemoryBackend;
        let backend = MemoryBackend::new();
        let config = BaselineConfig {
            epochs: 2,
            ..quick_config()
        };
        let trained =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();

        // Drop one number from the first layer's weights. The document still
        // parses, and its `rows`/`cols` still give the 7 -> 10 -> 3 topology.
        let doc = baseline_doc_name(UciDataset::Seeds, 9, &config);
        let mut value = json::parse(&backend.get_doc(&doc).unwrap().unwrap()).unwrap();
        let data = first_array_named(&mut value, "data").expect("weights in the document");
        assert_eq!(data.len(), 7 * 10);
        data.remove(0);
        backend.put_doc(&doc, &value.render_pretty()).unwrap();

        let loaded =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();
        assert_eq!(loaded.model, trained.model, "the damaged document retrains");
        // A 4-bit candidate on the loaded baseline evaluates.
        let candidate = minimize(
            &loaded.model,
            &loaded.train,
            None,
            &MinimizationConfig::default().with_weight_bits(4),
            9,
        );
        assert!(candidate.is_ok());
    }

    #[test]
    fn cache_hits_load_the_document_instead_of_retraining() {
        use crate::store::MemoryBackend;
        let backend = MemoryBackend::new();
        let config = quick_config();
        let trained =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();

        // Plant a sentinel accuracy inside the (otherwise valid) document: a
        // second run must surface the sentinel — proof it loaded the cache
        // rather than silently retraining.
        let doc = baseline_doc_name(UciDataset::Seeds, 9, &config);
        let text = backend.get_doc(&doc).unwrap().unwrap();
        let needle = format!("\"accuracy\": {}", trained.accuracy());
        let tampered = text.replacen(&needle, "\"accuracy\": 0.123456789", 1);
        assert_ne!(tampered, text, "sentinel must land in the document");
        backend.put_doc(&doc, &tampered).unwrap();

        let loaded =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();
        assert!((loaded.accuracy() - 0.123456789).abs() < 1e-12);

        // A corrupt document falls back to training, never errors.
        backend.put_doc(&doc, "not json").unwrap();
        let retrained =
            BaselineDesign::train_cached(UciDataset::Seeds, 9, &config, Some(&backend)).unwrap();
        assert_eq!(retrained.accuracy(), trained.accuracy());
    }

    #[test]
    fn budget_changes_invalidate_the_cache_key() {
        let base = baseline_doc_name(UciDataset::Seeds, 9, &quick_config());
        let other_epochs = baseline_doc_name(
            UciDataset::Seeds,
            9,
            &BaselineConfig {
                epochs: 13,
                ..quick_config()
            },
        );
        let other_seed = baseline_doc_name(UciDataset::Seeds, 10, &quick_config());
        let other_tier = baseline_doc_name(
            UciDataset::Seeds,
            9,
            &BaselineConfig {
                accuracy_tier: AccuracyTier::Float,
                ..quick_config()
            },
        );
        assert_ne!(base, other_epochs);
        assert_ne!(base, other_seed);
        assert_ne!(base, other_tier);
        assert!(base.starts_with("baseline_seeds_") && base.ends_with(".json"));
    }

    #[test]
    fn different_datasets_have_different_baseline_sizes() {
        let seeds = BaselineDesign::train_with(UciDataset::Seeds, 1, &quick_config()).unwrap();
        let redwine = BaselineDesign::train_with(UciDataset::RedWine, 1, &quick_config()).unwrap();
        // RedWine (11 x 20 x 5) is a bigger MLP than Seeds (7 x 10 x 3), so its
        // bespoke circuit must be larger.
        assert!(redwine.area_mm2() > seeds.area_mm2());
    }
}
