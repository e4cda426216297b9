//! Symmetric uniform weight quantization and the integer decomposition handed
//! to the bespoke hardware model.
//!
//! The paper quantizes weights to 2–7 bits with QKeras. QKeras'
//! `quantized_bits(b, ...)` is a symmetric uniform quantizer; we mirror it
//! with a per-layer scale `s = max|w| / (2^(b-1) - 1)` so that every weight is
//! represented as `code * s` with `code` an integer in
//! `[-(2^(b-1)-1), 2^(b-1)-1]`. The integer codes are exactly the hard-wired
//! constants of the bespoke multipliers.

use crate::error::MinimizeError;
use pmlp_nn::{Matrix, Mlp};
use serde::{Deserialize, Serialize};

/// Configuration of post-training quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizationConfig {
    /// Weight bit-width (2–8 in the paper's sweeps; up to 16 supported).
    pub weight_bits: u8,
    /// Input bit-width used downstream by the bespoke circuit (1–16).
    pub input_bits: u8,
}

impl Default for QuantizationConfig {
    fn default() -> Self {
        QuantizationConfig {
            weight_bits: 8,
            input_bits: 4,
        }
    }
}

impl QuantizationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MinimizeError::InvalidConfig`] when a bit-width is outside
    /// `2..=16` (weights) or `1..=16` (inputs).
    pub fn validate(&self) -> Result<(), MinimizeError> {
        if !(2..=16).contains(&self.weight_bits) {
            return Err(MinimizeError::InvalidConfig {
                context: format!("weight_bits must be in 2..=16, got {}", self.weight_bits),
            });
        }
        if !(1..=16).contains(&self.input_bits) {
            return Err(MinimizeError::InvalidConfig {
                context: format!("input_bits must be in 1..=16, got {}", self.input_bits),
            });
        }
        Ok(())
    }

    /// Largest representable positive code for the weight bit-width.
    pub fn max_code(&self) -> i64 {
        (1_i64 << (self.weight_bits - 1)) - 1
    }
}

/// The integer decomposition of one quantized layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegerLayer {
    /// Integer weight codes, `codes[neuron][input]` (transposed relative to
    /// the `pmlp-nn` storage so it matches the hardware layer layout).
    pub codes: Vec<Vec<i64>>,
    /// Integer bias codes, one per neuron, in the same scale as the products
    /// of `codes` with quantized inputs (see [`QuantizedMlp::integer_layers`]).
    pub bias_codes: Vec<i64>,
    /// Real-valued scale such that `weight ≈ code * scale`.
    pub scale: f32,
    /// Bit-width the codes fit in.
    pub weight_bits: u8,
}

/// A fake-quantized MLP plus its integer decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    /// The MLP with weights snapped to their quantized values (for accuracy
    /// evaluation in software).
    pub model: Mlp,
    /// One [`IntegerLayer`] per layer (for hardware synthesis).
    pub layers: Vec<IntegerLayer>,
    /// The configuration used.
    pub config: QuantizationConfig,
}

/// Computes the per-layer symmetric scale for a weight matrix.
fn layer_scale(weights: &Matrix, max_code: i64) -> f32 {
    let max_abs = weights.max_abs();
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / max_code as f32
    }
}

/// Quantizes a single weight value to its integer code.
fn quantize_code(value: f32, scale: f32, max_code: i64) -> i64 {
    if scale == 0.0 {
        return 0;
    }
    ((value / scale).round() as i64).clamp(-max_code, max_code)
}

/// Post-training quantization: snaps every weight of `mlp` to a
/// `weight_bits`-bit symmetric grid and returns both the fake-quantized model
/// and the integer codes.
///
/// Biases are quantized onto the product grid `scale * input_step` so they can
/// be added directly to the integer accumulators of the bespoke circuit (the
/// input step is `1 / (2^input_bits - 1)` for min-max-normalized inputs).
///
/// # Errors
///
/// Returns [`MinimizeError::InvalidConfig`] when `config` is invalid.
pub fn quantize_mlp(mlp: &Mlp, config: &QuantizationConfig) -> Result<QuantizedMlp, MinimizeError> {
    config.validate()?;
    let max_code = config.max_code();
    let input_levels = ((1_u32 << config.input_bits) - 1) as f32;

    let mut model = mlp.clone();
    let mut layers = Vec::with_capacity(mlp.layers().len());

    // Step size of the values feeding the current layer. The primary inputs
    // are min-max normalized and quantized to `input_bits`, so their step is
    // 1 / (2^input_bits - 1). Each layer's integer accumulator then carries
    // values in units of `weight scale * input step`, and that product LSB
    // becomes the input step of the next layer (ReLU preserves the grid).
    let mut input_step = 1.0_f32 / input_levels;

    for layer in model.layers_mut() {
        let scale = layer_scale(layer.weights(), max_code);
        let (inputs, outputs) = layer.weights().shape();
        let mut codes = vec![vec![0_i64; inputs]; outputs];
        #[allow(clippy::needless_range_loop)] // transposed (i, o) indexing reads best explicit
        for i in 0..inputs {
            for o in 0..outputs {
                let code = quantize_code(layer.weights().get(i, o), scale, max_code);
                codes[o][i] = code;
                layer.weights_mut().set(i, o, code as f32 * scale);
            }
        }
        // Bias codes live on this layer's product grid so the bespoke circuit
        // can add them directly to its integer accumulator.
        let product_lsb = scale * input_step;
        let bias_codes: Vec<i64> = layer
            .biases()
            .iter()
            .map(|&b| {
                if product_lsb > 0.0 {
                    (b / product_lsb).round() as i64
                } else {
                    0
                }
            })
            .collect();
        // Snap the float biases onto the same grid so software accuracy
        // matches what the hardware computes.
        for (b, &code) in layer.biases_mut().iter_mut().zip(bias_codes.iter()) {
            *b = code as f32 * product_lsb;
        }
        layers.push(IntegerLayer {
            codes,
            bias_codes,
            scale,
            weight_bits: config.weight_bits,
        });
        input_step = product_lsb;
    }

    Ok(QuantizedMlp {
        model,
        layers,
        config: *config,
    })
}

impl QuantizedMlp {
    /// The integer layers (hardware hand-off format).
    pub fn integer_layers(&self) -> &[IntegerLayer] {
        &self.layers
    }

    /// Fraction of integer codes equal to zero (pruned + quantized-to-zero
    /// connections).
    pub fn code_sparsity(&self) -> f64 {
        let total: usize = self
            .layers
            .iter()
            .map(|l| l.codes.iter().map(Vec::len).sum::<usize>())
            .sum();
        let zeros: usize = self
            .layers
            .iter()
            .map(|l| l.codes.iter().flatten().filter(|&&c| c == 0).count())
            .sum();
        if total == 0 {
            0.0
        } else {
            zeros as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_nn::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Mlp {
        let mut rng = StdRng::seed_from_u64(3);
        MlpBuilder::new(4)
            .hidden(6)
            .output(3)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(QuantizationConfig {
            weight_bits: 1,
            input_bits: 4
        }
        .validate()
        .is_err());
        assert!(QuantizationConfig {
            weight_bits: 17,
            input_bits: 4
        }
        .validate()
        .is_err());
        assert!(QuantizationConfig {
            weight_bits: 4,
            input_bits: 0
        }
        .validate()
        .is_err());
        assert!(QuantizationConfig::default().validate().is_ok());
        assert_eq!(
            QuantizationConfig {
                weight_bits: 4,
                input_bits: 4
            }
            .max_code(),
            7
        );
    }

    #[test]
    fn codes_fit_in_requested_bits() {
        let q = quantize_mlp(
            &mlp(),
            &QuantizationConfig {
                weight_bits: 3,
                input_bits: 4,
            },
        )
        .unwrap();
        for layer in q.integer_layers() {
            for &code in layer.codes.iter().flatten() {
                assert!(code.abs() <= 3, "code {code} exceeds 3-bit symmetric range");
            }
        }
    }

    #[test]
    fn fake_quantized_weights_match_codes_times_scale() {
        let original = mlp();
        let q = quantize_mlp(
            &original,
            &QuantizationConfig {
                weight_bits: 5,
                input_bits: 4,
            },
        )
        .unwrap();
        for (layer, int_layer) in q.model.layers().iter().zip(q.integer_layers()) {
            let (inputs, outputs) = layer.weights().shape();
            for i in 0..inputs {
                for o in 0..outputs {
                    let expected = int_layer.codes[o][i] as f32 * int_layer.scale;
                    assert!((layer.weights().get(i, o) - expected).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_scale() {
        let original = mlp();
        let q = quantize_mlp(
            &original,
            &QuantizationConfig {
                weight_bits: 6,
                input_bits: 4,
            },
        )
        .unwrap();
        for (orig_layer, (quant_layer, int_layer)) in original
            .layers()
            .iter()
            .zip(q.model.layers().iter().zip(q.integer_layers()))
        {
            let (inputs, outputs) = orig_layer.weights().shape();
            for i in 0..inputs {
                for o in 0..outputs {
                    let err =
                        (orig_layer.weights().get(i, o) - quant_layer.weights().get(i, o)).abs();
                    assert!(err <= int_layer.scale / 2.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn fewer_bits_means_coarser_weights() {
        let original = mlp();
        let distinct = |bits: u8| {
            let q = quantize_mlp(
                &original,
                &QuantizationConfig {
                    weight_bits: bits,
                    input_bits: 4,
                },
            )
            .unwrap();
            let mut values: Vec<i64> = q.integer_layers()[0]
                .codes
                .iter()
                .flatten()
                .copied()
                .collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        assert!(distinct(2) <= distinct(4));
        assert!(distinct(4) <= distinct(7));
    }

    #[test]
    fn zero_weight_layer_quantizes_to_zero_codes() {
        let mut m = mlp();
        m.layers_mut()[0].weights_mut().map_inplace(|_| 0.0);
        let q = quantize_mlp(&m, &QuantizationConfig::default()).unwrap();
        assert!(q.integer_layers()[0]
            .codes
            .iter()
            .flatten()
            .all(|&c| c == 0));
        assert!(q.code_sparsity() > 0.0);
    }

    #[test]
    fn codes_are_transposed_to_neuron_major() {
        let q = quantize_mlp(&mlp(), &QuantizationConfig::default()).unwrap();
        // Layer 0 of the MLP is 4 inputs x 6 outputs; its integer layer must be
        // 6 neurons x 4 inputs.
        assert_eq!(q.integer_layers()[0].codes.len(), 6);
        assert_eq!(q.integer_layers()[0].codes[0].len(), 4);
    }

    #[test]
    fn accuracy_is_preserved_at_high_precision() {
        // At 16 bits the quantization error is negligible, so predictions on a
        // random input batch must be identical.
        let original = mlp();
        let q = quantize_mlp(
            &original,
            &QuantizationConfig {
                weight_bits: 16,
                input_bits: 8,
            },
        )
        .unwrap();
        let x = Matrix::from_rows(&[
            vec![0.1, 0.9, 0.4, 0.3],
            vec![0.7, 0.2, 0.8, 0.5],
            vec![0.0, 1.0, 0.5, 0.25],
        ])
        .unwrap();
        assert_eq!(original.predict(&x).unwrap(), q.model.predict(&x).unwrap());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantize_code_is_bounded(v in -10.0f32..10.0, bits in 2u8..9) {
            let max_code = (1_i64 << (bits - 1)) - 1;
            let scale = 10.0 / max_code as f32;
            let code = quantize_code(v, scale, max_code);
            prop_assert!(code.abs() <= max_code);
            // Reconstruction error bounded by half a step for in-range values.
            prop_assert!((code as f32 * scale - v).abs() <= scale / 2.0 + 1e-4);
        }
    }
}
