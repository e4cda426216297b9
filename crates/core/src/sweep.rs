//! Standalone technique sweeps — the experiments behind Fig. 1 of the paper.
//!
//! Each sweep evaluates one minimization technique in isolation over the same
//! parameter ranges the paper reports: quantization at 2–7 bits, unstructured
//! pruning at 20–60 % sparsity, and weight clustering over a range of cluster
//! counts.
//!
//! Accuracy numbers come from whatever [`Evaluator`] backs the sweep; through
//! the production [`EvalEngine`](crate::engine::EvalEngine) that means the
//! baseline's [accuracy tier](crate::objective::AccuracyTier) — by default the
//! pure-integer arithmetic of the bespoke circuit itself.

use crate::engine::Evaluator;
use crate::error::CoreError;
use crate::objective::DesignPoint;
use pmlp_minimize::MinimizationConfig;
use serde::{Deserialize, Serialize};

/// The three standalone techniques of Fig. 1 (plus the combined GA of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// Weight quantization with QAT.
    Quantization,
    /// Unstructured magnitude pruning with fine-tuning.
    Pruning,
    /// Per-input weight clustering with multiplier sharing.
    Clustering,
    /// All three combined under the hardware-aware GA.
    Combined,
}

impl Technique {
    /// Display name used in figures and tables.
    pub fn name(self) -> &'static str {
        match self {
            Technique::Quantization => "quantization",
            Technique::Pruning => "pruning",
            Technique::Clustering => "weight clustering",
            Technique::Combined => "combined (GA)",
        }
    }
}

/// Parameter ranges of the standalone sweeps, defaulting to the paper's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRanges {
    /// Quantization bit-widths (paper: 2–7).
    pub weight_bits: Vec<u8>,
    /// Pruning sparsity levels (paper: 0.2–0.6).
    pub sparsities: Vec<f64>,
    /// Clusters-per-input counts for weight clustering.
    pub cluster_counts: Vec<usize>,
}

impl Default for SweepRanges {
    fn default() -> Self {
        SweepRanges {
            weight_bits: (2..=7).collect(),
            sparsities: vec![0.2, 0.3, 0.4, 0.5, 0.6],
            cluster_counts: vec![2, 3, 4, 6, 8],
        }
    }
}

impl SweepRanges {
    /// A reduced range used by fast tests and smoke benches.
    pub fn quick() -> Self {
        SweepRanges {
            weight_bits: vec![3, 5],
            sparsities: vec![0.3, 0.6],
            cluster_counts: vec![3],
        }
    }
}

/// Result of one standalone sweep: the technique and its evaluated points
/// (including the baseline point for reference).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Which technique was swept.
    pub technique: Technique,
    /// All evaluated points, in sweep order. The first point is always the
    /// un-minimized baseline configuration — the reference every Fig. 1
    /// series is read against — followed by the technique's range.
    pub points: Vec<DesignPoint>,
}

/// Runs the standalone sweep of `technique` over `ranges`.
///
/// The baseline configuration is evaluated first (memoized, so the three
/// sweeps of one engine share a single baseline evaluation) and leads the
/// result's points, so every series carries its reference point. The
/// technique's candidates follow, evaluated as one batch through `evaluator`
/// — in parallel and memoized when the evaluator is an
/// [`EvalEngine`](crate::engine::EvalEngine).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn sweep_technique<E: Evaluator + ?Sized>(
    evaluator: &E,
    technique: Technique,
    ranges: &SweepRanges,
) -> Result<SweepResult, CoreError> {
    let mut configs: Vec<MinimizationConfig> = vec![MinimizationConfig::baseline()];
    match technique {
        Technique::Quantization => configs.extend(
            ranges
                .weight_bits
                .iter()
                .map(|&b| MinimizationConfig::default().with_weight_bits(b)),
        ),
        Technique::Pruning => configs.extend(
            ranges
                .sparsities
                .iter()
                .map(|&s| MinimizationConfig::default().with_sparsity(s)),
        ),
        Technique::Clustering => configs.extend(
            ranges
                .cluster_counts
                .iter()
                .map(|&k| MinimizationConfig::default().with_clusters(k)),
        ),
        Technique::Combined => {
            return Err(CoreError::InvalidConfig {
                context: "the combined technique is explored with Nsga2, not a sweep".into(),
            })
        }
    };
    let points = evaluator.evaluate_batch(&configs)?;
    Ok(SweepResult { technique, points })
}

/// Runs all three standalone sweeps (the content of one Fig. 1 subplot).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn sweep_all<E: Evaluator + ?Sized>(
    evaluator: &E,
    ranges: &SweepRanges,
) -> Result<Vec<SweepResult>, CoreError> {
    [
        Technique::Quantization,
        Technique::Pruning,
        Technique::Clustering,
    ]
    .into_iter()
    .map(|t| sweep_technique(evaluator, t, ranges))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineConfig;
    use crate::engine::EvalEngine;
    use pmlp_data::UciDataset;

    fn quick_engine(seed: u64, epochs: usize) -> EvalEngine {
        EvalEngine::train_with(
            UciDataset::Seeds,
            seed,
            &BaselineConfig {
                epochs,
                ..BaselineConfig::default()
            },
        )
        .unwrap()
        .with_fine_tune_epochs(2)
    }

    #[test]
    fn technique_names_are_stable() {
        assert_eq!(Technique::Quantization.name(), "quantization");
        assert_eq!(Technique::Combined.name(), "combined (GA)");
    }

    #[test]
    fn combined_technique_cannot_be_swept() {
        let engine = quick_engine(2, 8);
        assert!(sweep_technique(&engine, Technique::Combined, &SweepRanges::quick()).is_err());
    }

    #[test]
    fn quantization_sweep_produces_monotone_area_trend() {
        let engine = quick_engine(3, 10);
        let ranges = SweepRanges {
            weight_bits: vec![2, 4, 7],
            sparsities: vec![],
            cluster_counts: vec![],
        };
        let result = sweep_technique(&engine, Technique::Quantization, &ranges).unwrap();
        // The baseline reference point leads, then one point per bit-width.
        assert_eq!(result.points.len(), 4);
        assert!(result.points[0].config.is_baseline());
        assert!((result.points[0].normalized_area - 1.0).abs() < 1e-9);
        // Fewer bits -> smaller circuits.
        assert!(result.points[1].area_mm2 < result.points[2].area_mm2);
        assert!(result.points[2].area_mm2 < result.points[3].area_mm2);
        // Every quantized design is smaller than the baseline.
        assert!(result.points[1..].iter().all(|p| p.normalized_area < 1.0));
    }

    #[test]
    fn pruning_sweep_area_decreases_with_sparsity() {
        let engine = quick_engine(4, 10);
        let ranges = SweepRanges {
            weight_bits: vec![],
            sparsities: vec![0.2, 0.6],
            cluster_counts: vec![],
        };
        let result = sweep_technique(&engine, Technique::Pruning, &ranges).unwrap();
        assert_eq!(result.points.len(), 3);
        assert!(result.points[0].config.is_baseline());
        assert!(result.points[2].area_mm2 < result.points[1].area_mm2);
    }

    #[test]
    fn every_sweep_leads_with_the_baseline_reference_point() {
        let engine = quick_engine(6, 8);
        for result in sweep_all(&engine, &SweepRanges::quick()).unwrap() {
            assert!(
                result.points[0].config.is_baseline(),
                "{:?} series must carry the baseline reference",
                result.technique
            );
            assert!((result.points[0].normalized_area - 1.0).abs() < 1e-9);
            assert_eq!(
                result.points[1..]
                    .iter()
                    .filter(|p| p.config.is_baseline())
                    .count(),
                0,
                "the baseline appears exactly once"
            );
        }
        // The three sweeps share one memoized baseline evaluation.
        let ranges = SweepRanges::quick();
        let expected =
            1 + ranges.weight_bits.len() + ranges.sparsities.len() + ranges.cluster_counts.len();
        assert_eq!(engine.stats().entries, expected);
    }

    #[test]
    fn sweep_all_covers_three_techniques_and_fills_the_cache() {
        let engine = quick_engine(5, 8);
        let results = sweep_all(&engine, &SweepRanges::quick()).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].technique, Technique::Quantization);
        assert_eq!(results[1].technique, Technique::Pruning);
        assert_eq!(results[2].technique, Technique::Clustering);
        assert!(results.iter().all(|r| !r.points.is_empty()));
        // A repeated sweep is answered entirely from the engine's cache.
        let misses = engine.stats().misses;
        let again = sweep_all(&engine, &SweepRanges::quick()).unwrap();
        assert_eq!(again, results);
        assert_eq!(engine.stats().misses, misses);
        assert!(engine.stats().hits > 0);
    }
}
