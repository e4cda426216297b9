//! The joint minimization configuration searched by the hardware-aware GA.

use crate::error::MinimizeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A combined minimization configuration: any subset of {quantization,
/// pruning, weight clustering} plus the input precision of the bespoke
/// circuit.
///
/// `None` for a field means "do not apply that technique" (the baseline
/// bespoke MLP of Mubarik et al. corresponds to `MinimizationConfig::baseline()`).
///
/// # Example
///
/// ```
/// use pmlp_minimize::MinimizationConfig;
///
/// let config = MinimizationConfig::default()
///     .with_weight_bits(4)
///     .with_sparsity(0.4)
///     .with_clusters(3);
/// assert!(config.validate().is_ok());
/// assert_eq!(config.describe(), "q4/p0.40/c3/in4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinimizationConfig {
    /// Weight bit-width for quantization (2–8 in the paper), `None` = keep
    /// 8-bit baseline precision without QAT.
    pub weight_bits: Option<u8>,
    /// Target unstructured sparsity in `[0, 1)`, `None` = no pruning.
    pub sparsity: Option<f64>,
    /// Clusters per input position, `None` = no weight clustering.
    pub clusters_per_input: Option<usize>,
    /// Input bit-width of the bespoke circuit.
    pub input_bits: u8,
    /// Number of fine-tuning epochs per applied technique.
    pub fine_tune_epochs: usize,
}

impl Default for MinimizationConfig {
    fn default() -> Self {
        MinimizationConfig {
            weight_bits: None,
            sparsity: None,
            clusters_per_input: None,
            input_bits: 4,
            fine_tune_epochs: 10,
        }
    }
}

impl MinimizationConfig {
    /// The un-minimized bespoke baseline: 8-bit post-training weights, no
    /// pruning, no clustering.
    pub fn baseline() -> Self {
        MinimizationConfig::default()
    }

    /// Sets the quantization bit-width.
    #[must_use]
    pub fn with_weight_bits(mut self, bits: u8) -> Self {
        self.weight_bits = Some(bits);
        self
    }

    /// Sets the pruning sparsity.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: f64) -> Self {
        self.sparsity = Some(sparsity);
        self
    }

    /// Sets the clusters-per-input count.
    #[must_use]
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.clusters_per_input = Some(clusters);
        self
    }

    /// Sets the input bit-width.
    #[must_use]
    pub fn with_input_bits(mut self, bits: u8) -> Self {
        self.input_bits = bits;
        self
    }

    /// Sets the fine-tuning epoch budget.
    #[must_use]
    pub fn with_fine_tune_epochs(mut self, epochs: usize) -> Self {
        self.fine_tune_epochs = epochs;
        self
    }

    /// `true` when no technique is enabled (the baseline configuration).
    pub fn is_baseline(&self) -> bool {
        self.weight_bits.is_none() && self.sparsity.is_none() && self.clusters_per_input.is_none()
    }

    /// The effective weight bit-width handed to the hardware model (8-bit for
    /// the baseline, the configured value otherwise).
    pub fn effective_weight_bits(&self) -> u8 {
        self.weight_bits.unwrap_or(8)
    }

    /// This configuration with its sparsity snapped to the 1e-3 grid of
    /// [`sparsity_millis`], so that float noise (`0.29999999999` vs `0.3`)
    /// cannot change how many weights are pruned, which RNG stream a stage
    /// draws, or which cache entry a result lands in.
    #[must_use]
    pub fn canonical(mut self) -> Self {
        self.sparsity = self
            .sparsity
            .map(|s| f64::from(sparsity_millis(s)) / 1000.0);
        self
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when any enabled technique has
    /// an out-of-range parameter.
    pub fn validate(&self) -> Result<(), MinimizeError> {
        if let Some(bits) = self.weight_bits {
            if !(2..=16).contains(&bits) {
                return Err(MinimizeError::InvalidConfig {
                    context: format!("weight_bits must be in 2..=16, got {bits}"),
                });
            }
        }
        if let Some(s) = self.sparsity {
            if !(0.0..1.0).contains(&s) {
                return Err(MinimizeError::InvalidConfig {
                    context: format!("sparsity must be in [0,1), got {s}"),
                });
            }
        }
        if let Some(k) = self.clusters_per_input {
            if k == 0 {
                return Err(MinimizeError::InvalidConfig {
                    context: "clusters_per_input must be >= 1".into(),
                });
            }
        }
        if !(1..=16).contains(&self.input_bits) {
            return Err(MinimizeError::InvalidConfig {
                context: format!("input_bits must be in 1..=16, got {}", self.input_bits),
            });
        }
        if self.fine_tune_epochs == 0 {
            return Err(MinimizeError::InvalidConfig {
                context: "fine_tune_epochs must be >= 1".into(),
            });
        }
        Ok(())
    }

    /// A compact configuration identifier (e.g. `q4/p0.40/c3/in4`), used in
    /// reports and experiment logs.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(b) = self.weight_bits {
            parts.push(format!("q{b}"));
        }
        if let Some(s) = self.sparsity {
            parts.push(format!("p{s:.2}"));
        }
        if let Some(k) = self.clusters_per_input {
            parts.push(format!("c{k}"));
        }
        if parts.is_empty() {
            parts.push("baseline".to_string());
        }
        parts.push(format!("in{}", self.input_bits));
        parts.join("/")
    }
}

impl fmt::Display for MinimizationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Canonical 1e-3-grid encoding of a sparsity value. Stage seeds, stage memo
/// keys, genome deduplication keys and evaluation cache keys all derive from
/// it, so every layer agrees on which configurations are identical.
pub fn sparsity_millis(sparsity: f64) -> u32 {
    (sparsity * 1000.0).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_techniques() {
        let c = MinimizationConfig::baseline();
        assert!(c.is_baseline());
        assert_eq!(c.effective_weight_bits(), 8);
        assert_eq!(c.describe(), "baseline/in4");
    }

    #[test]
    fn builder_methods_compose() {
        let c = MinimizationConfig::default()
            .with_weight_bits(3)
            .with_sparsity(0.5)
            .with_clusters(2)
            .with_input_bits(6)
            .with_fine_tune_epochs(7);
        assert_eq!(c.weight_bits, Some(3));
        assert_eq!(c.sparsity, Some(0.5));
        assert_eq!(c.clusters_per_input, Some(2));
        assert_eq!(c.input_bits, 6);
        assert_eq!(c.fine_tune_epochs, 7);
        assert!(!c.is_baseline());
        assert_eq!(c.effective_weight_bits(), 3);
    }

    #[test]
    fn validation_catches_out_of_range_values() {
        assert!(MinimizationConfig::default()
            .with_weight_bits(1)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_weight_bits(20)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_sparsity(1.0)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_sparsity(-0.2)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_clusters(0)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_input_bits(0)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_fine_tune_epochs(0)
            .validate()
            .is_err());
        assert!(MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.3)
            .with_clusters(5)
            .validate()
            .is_ok());
    }

    #[test]
    fn describe_is_stable_and_parsable_by_eye() {
        let c = MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.4)
            .with_clusters(3);
        assert_eq!(c.describe(), "q4/p0.40/c3/in4");
        assert_eq!(c.to_string(), c.describe());
    }

    #[test]
    fn canonical_snaps_sparsity_onto_the_millis_grid() {
        let noisy = MinimizationConfig::default().with_sparsity(0.29999999999);
        assert_eq!(
            noisy.canonical(),
            MinimizationConfig::default().with_sparsity(0.3)
        );
        // Grid values are fixed points: no sparsity written as a literal with
        // at most three decimals changes.
        for millis in 0..1000 {
            let s = f64::from(millis) / 1000.0;
            assert_eq!(sparsity_millis(s), millis);
            let config = MinimizationConfig::default().with_sparsity(s);
            assert_eq!(config.canonical(), config);
        }
        assert_eq!(
            MinimizationConfig::baseline().canonical(),
            MinimizationConfig::baseline()
        );
    }

    #[test]
    fn serde_round_trip() {
        let c = MinimizationConfig::default()
            .with_weight_bits(5)
            .with_sparsity(0.25);
        let json = serde_json::to_string(&c).unwrap();
        let back: MinimizationConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
