//! Descriptors and generators for the UCI dataset battery used by the paper.
//!
//! Every descriptor records the real dataset's shape (features, classes,
//! original sample count) together with the parameters of the synthetic
//! Gaussian-mixture stand-in (scaled-down sample count and class overlap).
//! The MLP topologies follow the bespoke printed classifiers of
//! Mubarik et al. (MICRO 2020), which the paper uses as baselines.
//!
//! The registry covers the full cross-dataset battery the printed-ML
//! literature evaluates on: the four Fig. 1 tasks (WhiteWine, RedWine,
//! Pendigits, Seeds) plus eight more small classification tasks (Arrhythmia,
//! Balance, BreastCancer, Cardio, GasId, Vertebral, Mammographic, Har).
//! Very wide sensor datasets (Arrhythmia, GasId, Har) are modelled through a
//! reduced leading-feature subset — noted on each descriptor — so bespoke
//! circuit synthesis stays tractable; all other shapes match the real UCI
//! files.

use crate::error::DataError;
use crate::synth::{grid_centers, ClassSpec, GaussianMixtureSpec};
use pmlp_nn::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The classification tasks of the paper's cross-dataset battery.
///
/// The first four entries are the Fig. 1 subplots; the remainder completes
/// the battery the headline table and campaign runs sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UciDataset {
    /// White wine quality (11 physico-chemical features, quality grades).
    WhiteWine,
    /// Red wine quality (11 features, quality grades).
    RedWine,
    /// Pen-based handwritten digit recognition (16 features, 10 digits).
    Pendigits,
    /// Wheat-kernel geometry (7 features, 3 varieties).
    Seeds,
    /// Cardiac arrhythmia diagnosis (ECG; reduced 32-feature subset of the
    /// 279 recorded attributes, 5 merged rhythm classes).
    Arrhythmia,
    /// Balance-scale tip direction (4 features, 3 classes; the `B` class is
    /// rare).
    Balance,
    /// Breast Cancer Wisconsin diagnostic (30 cell-nucleus features,
    /// benign/malignant).
    BreastCancer,
    /// Cardiotocography fetal-state screening (21 features, 3 classes,
    /// heavily skewed towards `normal`).
    Cardio,
    /// Gas sensor array drift chemical identification (reduced 16-feature
    /// subset of the 128 sensor responses, 6 gases).
    GasId,
    /// Vertebral column pathology (6 biomechanical features, 3 classes).
    Vertebral,
    /// Mammographic mass severity (5 BI-RADS features, benign/malignant).
    Mammographic,
    /// Smartphone human-activity recognition (reduced 24-feature subset of
    /// the 561 engineered features, 6 activities).
    Har,
}

impl UciDataset {
    /// The full dataset registry, Fig. 1 tasks first, then the rest of the
    /// battery in the order the campaign reports them.
    pub fn all() -> [UciDataset; 12] {
        [
            UciDataset::WhiteWine,
            UciDataset::RedWine,
            UciDataset::Pendigits,
            UciDataset::Seeds,
            UciDataset::Arrhythmia,
            UciDataset::Balance,
            UciDataset::BreastCancer,
            UciDataset::Cardio,
            UciDataset::GasId,
            UciDataset::Vertebral,
            UciDataset::Mammographic,
            UciDataset::Har,
        ]
    }

    /// The four datasets plotted in Fig. 1, in subplot order.
    pub fn fig1() -> [UciDataset; 4] {
        [
            UciDataset::WhiteWine,
            UciDataset::RedWine,
            UciDataset::Pendigits,
            UciDataset::Seeds,
        ]
    }

    /// Parses a dataset name (case-insensitive), e.g. `whitewine`,
    /// `pendigits`, `breastcancer` or `gas-id`; every registry entry
    /// round-trips through its [`fmt::Display`] name.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, DataError> {
        match name.to_ascii_lowercase().as_str() {
            "whitewine" | "white_wine" | "white-wine" => Ok(UciDataset::WhiteWine),
            "redwine" | "red_wine" | "red-wine" => Ok(UciDataset::RedWine),
            "pendigits" => Ok(UciDataset::Pendigits),
            "seeds" => Ok(UciDataset::Seeds),
            "arrhythmia" => Ok(UciDataset::Arrhythmia),
            "balance" | "balance_scale" | "balance-scale" => Ok(UciDataset::Balance),
            "breastcancer" | "breast_cancer" | "breast-cancer" | "wdbc" => {
                Ok(UciDataset::BreastCancer)
            }
            "cardio" | "cardiotocography" => Ok(UciDataset::Cardio),
            "gasid" | "gas_id" | "gas-id" | "gas" => Ok(UciDataset::GasId),
            "vertebral" | "vertebral_column" | "vertebral-column" => Ok(UciDataset::Vertebral),
            "mammographic" | "mammographic_mass" | "mammographic-mass" => {
                Ok(UciDataset::Mammographic)
            }
            "har" | "human_activity" | "human-activity" => Ok(UciDataset::Har),
            other => Err(DataError::InvalidSpec {
                context: format!("unknown dataset '{other}'"),
            }),
        }
    }

    /// The descriptor (shape, synthetic parameters, baseline MLP topology) of
    /// this dataset.
    pub fn descriptor(self) -> DatasetDescriptor {
        match self {
            UciDataset::WhiteWine => DatasetDescriptor {
                dataset: self,
                name: "WhiteWine",
                feature_count: 11,
                class_count: 5,
                original_samples: 4898,
                synthetic_samples: 1500,
                class_weights: vec![0.03, 0.30, 0.45, 0.18, 0.04],
                class_std: 0.36,
                blobs_per_class: 2,
                hidden_neurons: 25,
                prototype_seed: SEED_WHITEWINE,
            },
            UciDataset::RedWine => DatasetDescriptor {
                dataset: self,
                name: "RedWine",
                feature_count: 11,
                class_count: 5,
                original_samples: 1599,
                synthetic_samples: 1200,
                class_weights: vec![0.04, 0.33, 0.40, 0.17, 0.06],
                class_std: 0.33,
                blobs_per_class: 2,
                hidden_neurons: 20,
                prototype_seed: SEED_REDWINE,
            },
            UciDataset::Pendigits => DatasetDescriptor {
                dataset: self,
                name: "Pendigits",
                feature_count: 16,
                class_count: 10,
                original_samples: 10992,
                synthetic_samples: 2000,
                class_weights: vec![0.1; 10],
                class_std: 0.14,
                blobs_per_class: 2,
                hidden_neurons: 30,
                prototype_seed: SEED_PENDIGITS,
            },
            UciDataset::Seeds => DatasetDescriptor {
                dataset: self,
                name: "Seeds",
                feature_count: 7,
                class_count: 3,
                original_samples: 210,
                synthetic_samples: 450,
                class_weights: vec![1.0 / 3.0; 3],
                class_std: 0.21,
                blobs_per_class: 1,
                hidden_neurons: 10,
                prototype_seed: SEED_SEEDS,
            },
            UciDataset::Arrhythmia => DatasetDescriptor {
                dataset: self,
                name: "Arrhythmia",
                feature_count: 32,
                class_count: 5,
                original_samples: 452,
                synthetic_samples: 900,
                class_weights: vec![0.54, 0.16, 0.12, 0.10, 0.08],
                class_std: 0.30,
                blobs_per_class: 2,
                hidden_neurons: 26,
                prototype_seed: SEED_ARRHYTHMIA,
            },
            UciDataset::Balance => DatasetDescriptor {
                dataset: self,
                name: "Balance",
                feature_count: 4,
                class_count: 3,
                original_samples: 625,
                synthetic_samples: 600,
                class_weights: vec![0.08, 0.46, 0.46],
                class_std: 0.16,
                blobs_per_class: 1,
                hidden_neurons: 12,
                prototype_seed: SEED_BALANCE,
            },
            UciDataset::BreastCancer => DatasetDescriptor {
                dataset: self,
                name: "BreastCancer",
                feature_count: 30,
                class_count: 2,
                original_samples: 569,
                synthetic_samples: 800,
                class_weights: vec![0.63, 0.37],
                class_std: 0.30,
                blobs_per_class: 2,
                hidden_neurons: 16,
                prototype_seed: SEED_BREASTCANCER,
            },
            UciDataset::Cardio => DatasetDescriptor {
                dataset: self,
                name: "Cardio",
                feature_count: 21,
                class_count: 3,
                original_samples: 2126,
                synthetic_samples: 1400,
                class_weights: vec![0.78, 0.14, 0.08],
                class_std: 0.28,
                blobs_per_class: 2,
                hidden_neurons: 20,
                prototype_seed: SEED_CARDIO,
            },
            UciDataset::GasId => DatasetDescriptor {
                dataset: self,
                name: "GasId",
                feature_count: 16,
                class_count: 6,
                original_samples: 13910,
                synthetic_samples: 1600,
                class_weights: vec![0.18, 0.16, 0.17, 0.20, 0.15, 0.14],
                class_std: 0.20,
                blobs_per_class: 2,
                hidden_neurons: 24,
                prototype_seed: SEED_GASID,
            },
            UciDataset::Vertebral => DatasetDescriptor {
                dataset: self,
                name: "Vertebral",
                feature_count: 6,
                class_count: 3,
                original_samples: 310,
                synthetic_samples: 500,
                class_weights: vec![0.32, 0.20, 0.48],
                class_std: 0.26,
                blobs_per_class: 1,
                hidden_neurons: 10,
                prototype_seed: SEED_VERTEBRAL,
            },
            UciDataset::Mammographic => DatasetDescriptor {
                dataset: self,
                name: "Mammographic",
                feature_count: 5,
                class_count: 2,
                original_samples: 961,
                synthetic_samples: 700,
                class_weights: vec![0.54, 0.46],
                class_std: 0.32,
                blobs_per_class: 1,
                hidden_neurons: 8,
                prototype_seed: SEED_MAMMOGRAPHIC,
            },
            UciDataset::Har => DatasetDescriptor {
                dataset: self,
                name: "Har",
                feature_count: 24,
                class_count: 6,
                original_samples: 10299,
                synthetic_samples: 1500,
                class_weights: vec![1.0 / 6.0; 6],
                class_std: 0.22,
                blobs_per_class: 2,
                hidden_neurons: 28,
                prototype_seed: SEED_HAR,
            },
        }
    }
}

/// Deterministic per-dataset prototype seed ("WhiteWine" as ASCII-ish value).
const SEED_WHITEWINE: u64 = 0x57_68_69_74_65;
/// Deterministic per-dataset prototype seed.
const SEED_REDWINE: u64 = 0x526564;
/// Deterministic per-dataset prototype seed.
const SEED_PENDIGITS: u64 = 0x50_65_6e;
/// Deterministic per-dataset prototype seed.
const SEED_SEEDS: u64 = 0x53656564;
/// Deterministic per-dataset prototype seed.
const SEED_ARRHYTHMIA: u64 = 0x4172_7268;
/// Deterministic per-dataset prototype seed.
const SEED_BALANCE: u64 = 0x42616c;
/// Deterministic per-dataset prototype seed.
const SEED_BREASTCANCER: u64 = 0x4272_4361;
/// Deterministic per-dataset prototype seed.
const SEED_CARDIO: u64 = 0x4361_7264;
/// Deterministic per-dataset prototype seed.
const SEED_GASID: u64 = 0x476173;
/// Deterministic per-dataset prototype seed.
const SEED_VERTEBRAL: u64 = 0x5665_7274;
/// Deterministic per-dataset prototype seed.
const SEED_MAMMOGRAPHIC: u64 = 0x4d616d;
/// Deterministic per-dataset prototype seed.
const SEED_HAR: u64 = 0x486172;

impl fmt::Display for UciDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.descriptor().name)
    }
}

/// Static description of one dataset: the real UCI shape plus the parameters
/// of its synthetic stand-in and the baseline MLP topology used by the paper.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DatasetDescriptor {
    /// Which dataset this describes.
    pub dataset: UciDataset,
    /// Human-readable name as used in the paper's figures.
    pub name: &'static str,
    /// Number of input features.
    pub feature_count: usize,
    /// Number of target classes.
    pub class_count: usize,
    /// Sample count of the real UCI dataset (for documentation).
    pub original_samples: usize,
    /// Sample count of the synthetic stand-in (scaled down for tractable GA
    /// evaluation).
    pub synthetic_samples: usize,
    /// Relative class frequencies of the synthetic stand-in (sums to ~1).
    pub class_weights: Vec<f64>,
    /// Standard deviation of each class blob (feature space is `[0, 1]`), the
    /// knob controlling task difficulty.
    pub class_std: f32,
    /// Number of Gaussian blobs per class (multi-modal classes are harder).
    pub blobs_per_class: usize,
    /// Hidden-layer width of the baseline bespoke MLP (Mubarik et al. style).
    pub hidden_neurons: usize,
    /// Seed for the deterministic class-prototype layout.
    pub prototype_seed: u64,
}

impl serde::Deserialize for DatasetDescriptor {
    /// A descriptor is a pure function of its `dataset` field, so
    /// deserialization rebuilds it through [`UciDataset::descriptor`] (which
    /// also restores the `&'static str` name).
    fn deserialize_value(value: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let dataset = UciDataset::deserialize_value(value.field("dataset")?)?;
        Ok(dataset.descriptor())
    }
}

impl DatasetDescriptor {
    /// Baseline MLP topology `[inputs, hidden, classes]` for this dataset.
    pub fn topology(&self) -> Vec<usize> {
        vec![self.feature_count, self.hidden_neurons, self.class_count]
    }

    /// Builds the Gaussian-mixture specification of the synthetic stand-in.
    pub fn mixture_spec(&self) -> GaussianMixtureSpec {
        let centers = grid_centers(
            self.class_count * self.blobs_per_class,
            self.feature_count,
            1.0,
            self.prototype_seed,
        );
        let classes = (0..self.class_count)
            .map(|c| {
                let samples = ((self.synthetic_samples as f64) * self.class_weights[c])
                    .round()
                    .max(2.0) as usize;
                let blob_centers: Vec<Vec<f32>> = (0..self.blobs_per_class)
                    .map(|b| centers[c * self.blobs_per_class + b].clone())
                    .collect();
                ClassSpec {
                    samples,
                    centers: blob_centers,
                    std_dev: self.class_std,
                }
            })
            .collect();
        GaussianMixtureSpec {
            feature_count: self.feature_count,
            classes,
        }
    }

    /// Generates the synthetic dataset with the given seed and normalizes all
    /// features to `[0, 1]` (the input format assumed by the bespoke-hardware
    /// input quantizer).
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] from the generator (only possible if the
    /// descriptor itself is inconsistent, which the tests guard against).
    pub fn generate(&self, seed: u64) -> Result<Dataset, DataError> {
        let mut rng = StdRng::seed_from_u64(seed ^ self.prototype_seed);
        let mut data = self.mixture_spec().generate(&mut rng)?;
        data.normalize_min_max();
        Ok(data)
    }
}

/// Convenience wrapper: generates the synthetic stand-in for `dataset` with
/// the given seed, features normalized to `[0, 1]`.
///
/// # Errors
///
/// Propagates [`DataError`] from generation.
///
/// # Example
///
/// ```
/// use pmlp_data::{load, UciDataset};
/// # fn main() -> Result<(), pmlp_data::DataError> {
/// let redwine = load(UciDataset::RedWine, 1)?;
/// assert_eq!(redwine.feature_count(), 11);
/// # Ok(())
/// # }
/// ```
pub fn load(dataset: UciDataset, seed: u64) -> Result<Dataset, DataError> {
    dataset.descriptor().generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_match_paper_shapes() {
        let shape = |d: UciDataset| {
            let desc = d.descriptor();
            (desc.feature_count, desc.class_count)
        };
        assert_eq!(shape(UciDataset::WhiteWine), (11, 5));
        assert_eq!(shape(UciDataset::RedWine), (11, 5));
        assert_eq!(shape(UciDataset::Pendigits), (16, 10));
        assert_eq!(shape(UciDataset::Seeds), (7, 3));
        assert_eq!(shape(UciDataset::Arrhythmia), (32, 5));
        assert_eq!(shape(UciDataset::Balance), (4, 3));
        assert_eq!(shape(UciDataset::BreastCancer), (30, 2));
        assert_eq!(shape(UciDataset::Cardio), (21, 3));
        assert_eq!(shape(UciDataset::GasId), (16, 6));
        assert_eq!(shape(UciDataset::Vertebral), (6, 3));
        assert_eq!(shape(UciDataset::Mammographic), (5, 2));
        assert_eq!(shape(UciDataset::Har), (24, 6));
    }

    #[test]
    fn registry_covers_the_paper_battery() {
        let all = UciDataset::all();
        assert!(all.len() >= 10, "registry must stay paper-scale");
        // No duplicates, and the Fig. 1 subset is a prefix of the registry.
        for (i, a) in all.iter().enumerate() {
            assert!(all.iter().skip(i + 1).all(|b| a != b), "{a} duplicated");
        }
        assert_eq!(UciDataset::fig1(), [all[0], all[1], all[2], all[3]]);
    }

    #[test]
    fn every_registry_entry_round_trips_its_display_name() {
        for d in UciDataset::all() {
            assert_eq!(UciDataset::parse(&d.to_string()).unwrap(), d, "{d}");
            assert_eq!(
                UciDataset::parse(&d.to_string().to_ascii_uppercase()).unwrap(),
                d,
                "{d} (uppercase)"
            );
        }
    }

    #[test]
    fn class_weights_sum_to_one() {
        for d in UciDataset::all() {
            let sum: f64 = d.descriptor().class_weights.iter().sum();
            assert!((sum - 1.0).abs() < 0.02, "{d}: class weights sum to {sum}");
        }
    }

    #[test]
    fn parse_accepts_all_names() {
        assert_eq!(
            UciDataset::parse("WhiteWine").unwrap(),
            UciDataset::WhiteWine
        );
        assert_eq!(UciDataset::parse("red-wine").unwrap(), UciDataset::RedWine);
        assert_eq!(
            UciDataset::parse("PENDIGITS").unwrap(),
            UciDataset::Pendigits
        );
        assert_eq!(UciDataset::parse("seeds").unwrap(), UciDataset::Seeds);
        assert_eq!(
            UciDataset::parse("breast-cancer").unwrap(),
            UciDataset::BreastCancer
        );
        assert_eq!(UciDataset::parse("gas").unwrap(), UciDataset::GasId);
        assert_eq!(
            UciDataset::parse("cardiotocography").unwrap(),
            UciDataset::Cardio
        );
        assert_eq!(
            UciDataset::parse("human-activity").unwrap(),
            UciDataset::Har
        );
        assert!(UciDataset::parse("iris").is_err());
    }

    #[test]
    fn generated_datasets_have_descriptor_shape() {
        for d in UciDataset::all() {
            let desc = d.descriptor();
            let data = desc.generate(7).unwrap();
            assert_eq!(data.feature_count(), desc.feature_count, "{d}");
            assert_eq!(data.class_count(), desc.class_count, "{d}");
            let total: usize = data.class_histogram().iter().sum();
            assert_eq!(total, data.len());
            // Every class must be represented.
            assert!(data.class_histogram().iter().all(|&c| c >= 2), "{d}");
        }
    }

    #[test]
    fn generation_is_deterministic_for_every_registry_entry() {
        for d in UciDataset::all() {
            let a = load(d, 3).unwrap();
            let b = load(d, 3).unwrap();
            assert_eq!(a, b, "{d}");
            let c = load(d, 4).unwrap();
            assert_ne!(a, c, "{d}");
        }
    }

    #[test]
    fn features_are_normalized_to_unit_interval() {
        let data = load(UciDataset::Pendigits, 5).unwrap();
        assert!(data
            .features()
            .as_slice()
            .iter()
            .all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn topology_matches_descriptor() {
        let d = UciDataset::WhiteWine.descriptor();
        assert_eq!(d.topology(), vec![11, d.hidden_neurons, 5]);
    }

    #[test]
    fn wine_datasets_are_imbalanced_pendigits_is_balanced() {
        let w = load(UciDataset::WhiteWine, 1).unwrap();
        let hist = w.class_histogram();
        assert!(hist.iter().max().unwrap() > &(2 * hist.iter().min().unwrap()));

        let p = load(UciDataset::Pendigits, 1).unwrap();
        let hist = p.class_histogram();
        let max = *hist.iter().max().unwrap() as f64;
        let min = *hist.iter().min().unwrap() as f64;
        assert!(max / min < 1.3);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(UciDataset::WhiteWine.to_string(), "WhiteWine");
        assert_eq!(UciDataset::Seeds.to_string(), "Seeds");
    }
}
