//! Quantization-aware training (QAT) with a straight-through estimator.
//!
//! The paper quantizes its classifiers with QKeras and retrains
//! (quantization-aware training). The same effect is obtained here by
//! training with a weight constraint that snaps the weights onto the
//! quantization grid after every optimizer step: the forward pass always sees
//! quantized weights while the gradient flows as if the quantizer were the
//! identity (straight-through estimator).

use crate::error::MinimizeError;
use crate::quantize::{quantize_mlp, QuantizationConfig, QuantizedMlp};
use pmlp_nn::{Dataset, Mlp, TrainConfig, TrainReport, Trainer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a quantization-aware training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QatConfig {
    /// Quantization parameters (weight and input bit-widths).
    pub quantization: QuantizationConfig,
    /// Training hyper-parameters for the QAT fine-tuning phase.
    pub training: TrainConfig,
}

impl Default for QatConfig {
    fn default() -> Self {
        QatConfig {
            quantization: QuantizationConfig::default(),
            training: TrainConfig {
                epochs: 20,
                learning_rate: 0.005,
                ..TrainConfig::default()
            },
        }
    }
}

impl QatConfig {
    /// Convenience constructor for a `weight_bits`-bit QAT run with `epochs`
    /// fine-tuning epochs.
    pub fn new(weight_bits: u8, epochs: usize) -> Self {
        QatConfig {
            quantization: QuantizationConfig {
                weight_bits,
                ..QuantizationConfig::default()
            },
            training: TrainConfig {
                epochs,
                learning_rate: 0.005,
                ..TrainConfig::default()
            },
        }
    }
}

/// Runs quantization-aware training on a copy of `mlp` and returns the
/// resulting quantized model (fake-quantized weights + integer codes) together
/// with the training report.
///
/// The per-layer quantization scale is frozen from the initial float weights,
/// matching the fixed-range behaviour of QKeras' `quantized_bits`.
///
/// # Errors
///
/// Returns [`MinimizeError`] when the configuration is invalid or training
/// fails (shape mismatches).
pub fn quantization_aware_train<R: Rng + ?Sized>(
    mlp: &Mlp,
    train: &Dataset,
    validation: Option<&Dataset>,
    config: &QatConfig,
    rng: &mut R,
) -> Result<(QuantizedMlp, TrainReport), MinimizeError> {
    config.quantization.validate()?;

    // Freeze per-layer scales from the initial weights.
    let initial = quantize_mlp(mlp, &config.quantization)?;
    let scales: Vec<f32> = initial.integer_layers().iter().map(|l| l.scale).collect();
    let max_code = config.quantization.max_code() as f32;

    let mut model = mlp.clone();
    let trainer = Trainer::new(config.training.clone());
    let mut constraint = move |m: &mut Mlp| {
        for (layer, &scale) in m.layers_mut().iter_mut().zip(scales.iter()) {
            if scale <= 0.0 {
                continue;
            }
            layer.weights_mut().map_inplace(|w| {
                let code = round_half_away_from_zero(w / scale).clamp(-max_code, max_code);
                code * scale
            });
        }
    };
    let report = trainer.fit_constrained(&mut model, train, validation, &mut constraint, rng)?;

    // Final integer decomposition of the trained, constraint-satisfying model.
    let quantized = quantize_mlp(&model, &config.quantization)?;
    Ok((quantized, report))
}

/// `x.round()`: the nearest integer, halfway cases away from zero, equal
/// to [`f32::round`] bit for bit on every input but a signaling NaN, which
/// no arithmetic produces (this returns it as it is; `roundf` quiets it).
///
/// The QAT constraint snaps every weight after every batch. On the x86-64
/// baseline target, which has no SSE4.1 `roundss`, `f32::round` is a call
/// into the C library's `roundf` per weight; this is a truncating
/// conversion, a compare and two selects, all inline.
fn round_half_away_from_zero(x: f32) -> f32 {
    // From 2^23 up every float is an integer, as are the infinities; NaN
    // rounds to itself. Below it the conversion truncates exactly, and
    // the fraction `magnitude - truncated` is exact too.
    const FIRST_INTEGRAL: f32 = 8_388_608.0;
    let magnitude = x.abs();
    let truncated = (magnitude as i32) as f32;
    let rounded = if magnitude - truncated >= 0.5 {
        truncated + 1.0
    } else {
        truncated
    };
    if magnitude < FIRST_INTEGRAL {
        rounded.copysign(x)
    } else {
        x
    }
}

/// Post-training quantization baseline (no retraining): quantizes the weights
/// and reports accuracy without any fine-tuning. Used by the QAT-vs-PTQ
/// ablation bench.
///
/// # Errors
///
/// Returns [`MinimizeError`] when the configuration is invalid.
pub fn post_training_quantize(
    mlp: &Mlp,
    config: &QuantizationConfig,
) -> Result<QuantizedMlp, MinimizeError> {
    quantize_mlp(mlp, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmlp_data::{load, UciDataset};
    use pmlp_nn::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_seeds_mlp(rng: &mut StdRng) -> (Mlp, Dataset, Dataset) {
        let data = load(UciDataset::Seeds, 11).unwrap();
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
    fn qat_produces_weights_on_the_grid() {
        let mut rng = StdRng::seed_from_u64(42);
        let (mlp, train, _) = trained_seeds_mlp(&mut rng);
        let config = QatConfig::new(4, 5);
        let (quantized, report) =
            quantization_aware_train(&mlp, &train, None, &config, &mut rng).unwrap();
        assert_eq!(report.epochs_run, 5);
        for layer in quantized.integer_layers() {
            for &code in layer.codes.iter().flatten() {
                assert!(code.abs() <= 7);
            }
        }
    }

    #[test]
    fn qat_recovers_accuracy_compared_to_ptq_at_low_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mlp, train, test) = trained_seeds_mlp(&mut rng);
        let bits = 3;
        let ptq = post_training_quantize(
            &mlp,
            &QuantizationConfig {
                weight_bits: bits,
                input_bits: 4,
            },
        )
        .unwrap();
        let config = QatConfig::new(bits, 15);
        let (qat, _) = quantization_aware_train(&mlp, &train, None, &config, &mut rng).unwrap();
        let ptq_acc = ptq.model.accuracy(&test);
        let qat_acc = qat.model.accuracy(&test);
        // QAT must not be (meaningfully) worse than post-training quantization.
        assert!(
            qat_acc >= ptq_acc - 0.05,
            "QAT accuracy {qat_acc} much worse than PTQ accuracy {ptq_acc}"
        );
    }

    #[test]
    fn high_precision_qat_tracks_float_accuracy() {
        let mut rng = StdRng::seed_from_u64(9);
        let (mlp, train, test) = trained_seeds_mlp(&mut rng);
        let float_acc = mlp.accuracy(&test);
        let config = QatConfig::new(8, 5);
        let (qat, _) = quantization_aware_train(&mlp, &train, None, &config, &mut rng).unwrap();
        let qat_acc = qat.model.accuracy(&test);
        assert!(
            qat_acc >= float_acc - 0.08,
            "8-bit QAT accuracy {qat_acc} far below float accuracy {float_acc}"
        );
    }

    #[test]
    fn rounding_helper_equals_f32_round_bit_for_bit() {
        let edges = [
            0.0,
            0.3,
            0.499_999_97,
            0.5,
            1.5,
            2.5,
            8_388_607.5,
            8_388_608.0,
            1e30,
            f32::INFINITY,
        ];
        let mut inputs: Vec<f32> = edges.iter().flat_map(|&x| [x, -x]).collect();
        inputs.push(f32::NAN);
        let mut rng = StdRng::seed_from_u64(23);
        // Uniform bit patterns cover every binade, subnormals and NaNs
        // included; the narrow ranges cover the halves the snap meets.
        inputs.extend((0..100_000).map(|_| f32::from_bits(rng.gen())));
        inputs.extend((0..100_000).map(|_| rng.gen_range(-20.0f32..20.0)));
        inputs.extend((-64..=64).map(|i| i as f32 * 0.25));
        for x in inputs {
            let (ours, std) = (round_half_away_from_zero(x), x.round());
            let quiet = 0x0040_0000;
            if x.is_nan() && x.to_bits() & quiet == 0 {
                // A signaling NaN: `roundf` quiets it, the helper keeps it.
                assert_eq!(
                    ours.to_bits() | quiet,
                    std.to_bits(),
                    "{:#010x}",
                    x.to_bits()
                );
                continue;
            }
            assert_eq!(
                ours.to_bits(),
                std.to_bits(),
                "{x:e} ({:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn invalid_bit_width_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mlp, train, _) = trained_seeds_mlp(&mut rng);
        let config = QatConfig::new(1, 2);
        assert!(quantization_aware_train(&mlp, &train, None, &config, &mut rng).is_err());
    }
}
