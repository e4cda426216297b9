//! Cross-crate functional verification: the gate-level bespoke circuit must
//! classify (essentially) identically to the quantized software model it was
//! synthesized from.

use printed_mlp::core::baseline::{BaselineConfig, BaselineDesign};
use printed_mlp::core::bridge::circuit_spec_from_layers;
use printed_mlp::data::UciDataset;
use printed_mlp::hw::{BespokeMlpCircuit, CellLibrary, SharingStrategy};
use printed_mlp::minimize::{minimize, MinimizationConfig};
use printed_mlp::nn::Matrix;

/// Quantizes a normalized feature vector to unsigned integer codes of
/// `input_bits` bits (the format the printed circuit's inputs arrive in).
fn quantize_inputs(row: &[f32], input_bits: u8) -> (Vec<u64>, Vec<f32>) {
    let levels = ((1_u32 << input_bits) - 1) as f32;
    let codes: Vec<u64> = row
        .iter()
        .map(|&x| (x.clamp(0.0, 1.0) * levels).round() as u64)
        .collect();
    let dequantized: Vec<f32> = codes.iter().map(|&c| c as f32 / levels).collect();
    (codes, dequantized)
}

#[test]
fn circuit_classification_matches_quantized_software_model() {
    let input_bits = 4;
    let baseline = BaselineDesign::train_with(
        UciDataset::Seeds,
        21,
        &BaselineConfig {
            epochs: 15,
            input_bits,
            ..BaselineConfig::default()
        },
    )
    .unwrap();

    // Minimize with quantization + pruning (no clustering, so the software
    // and hardware weight layouts are identical).
    let config = MinimizationConfig::default()
        .with_weight_bits(4)
        .with_sparsity(0.3)
        .with_input_bits(input_bits)
        .with_fine_tune_epochs(4);
    let minimized = minimize(&baseline.model, &baseline.train, None, &config, 99).unwrap();

    // Synthesize the bespoke circuit from the integer layers.
    let spec = circuit_spec_from_layers(&minimized.integer_layers, input_bits).unwrap();
    let circuit =
        BespokeMlpCircuit::synthesize_with(&spec, &CellLibrary::egt(), SharingStrategy::None)
            .unwrap();

    // Compare hardware and software decisions on a batch of test samples.
    let samples = baseline.test.len().min(60);
    let mut agreements = 0usize;
    for s in 0..samples {
        let row = baseline.test.features().row(s);
        let (codes, dequantized) = quantize_inputs(row, input_bits);
        let hw_class = circuit.classify(&codes);
        let x = Matrix::from_rows(&[dequantized]).unwrap();
        let sw_class = minimized.model.predict(&x).unwrap()[0];
        if hw_class == sw_class {
            agreements += 1;
        }
    }
    let agreement = agreements as f64 / samples as f64;
    // Ties between equal logits may break differently in floating point vs
    // integer arithmetic, so demand near-perfect rather than perfect match.
    assert!(
        agreement >= 0.9,
        "hardware/software agreement only {agreement:.2} over {samples} samples"
    );
}

#[test]
fn shared_and_unshared_circuits_agree_on_clustered_models() {
    let input_bits = 4;
    let baseline = BaselineDesign::train_with(
        UciDataset::Seeds,
        22,
        &BaselineConfig {
            epochs: 12,
            input_bits,
            ..BaselineConfig::default()
        },
    )
    .unwrap();
    let config = MinimizationConfig::default()
        .with_clusters(3)
        .with_input_bits(input_bits)
        .with_fine_tune_epochs(3);
    let minimized = minimize(&baseline.model, &baseline.train, None, &config, 123).unwrap();
    let spec = circuit_spec_from_layers(&minimized.integer_layers, input_bits).unwrap();

    let lib = CellLibrary::egt();
    let unshared = BespokeMlpCircuit::synthesize_with(&spec, &lib, SharingStrategy::None).unwrap();
    let shared =
        BespokeMlpCircuit::synthesize_with(&spec, &lib, SharingStrategy::SharedPerInput).unwrap();

    // Multiplier sharing changes the area, never the function.
    assert!(shared.report().area.total_mm2 <= unshared.report().area.total_mm2);
    for s in 0..baseline.test.len().min(30) {
        let (codes, _) = quantize_inputs(baseline.test.features().row(s), input_bits);
        assert_eq!(
            unshared.classify(&codes),
            shared.classify(&codes),
            "sample {s}"
        );
    }
}
