//! Feature preprocessing beyond the min-max normalization built into
//! [`pmlp_nn::Dataset`]: the uniform input quantization used by the bespoke
//! printed circuits.

use crate::error::DataError;
use pmlp_nn::Dataset;

/// Quantizes every feature to an unsigned integer grid of `bits` bits over
/// `[0, 1]` and maps it back to `[0, 1]`, mirroring what the printed circuit's
/// input ADC/encoder delivers to the bespoke MLP.
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] when `bits` is 0 or greater than 16, or
/// when any feature lies outside `[0, 1]` (callers must min-max normalize
/// first).
pub fn quantize_features(data: &mut Dataset, bits: u8) -> Result<(), DataError> {
    if bits == 0 || bits > 16 {
        return Err(DataError::InvalidSpec {
            context: format!("input bits must be in 1..=16, got {bits}"),
        });
    }
    if data
        .features()
        .as_slice()
        .iter()
        .any(|&x| !(0.0..=1.0).contains(&x))
    {
        return Err(DataError::InvalidSpec {
            context: "features must be min-max normalized to [0,1] before quantization".into(),
        });
    }
    let levels = ((1u32 << bits) - 1) as f32;
    let rows = data.len();
    let mut new_rows: Vec<Vec<f32>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let row: Vec<f32> = data
            .features()
            .row(r)
            .iter()
            .map(|&x| (x * levels).round() / levels)
            .collect();
        new_rows.push(row);
    }
    let labels = data.labels().to_vec();
    let classes = data.class_count();
    *data = Dataset::from_rows(new_rows, labels, classes).expect("shape preserved");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uci::{load, UciDataset};

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![vec![0.0, 10.0], vec![0.5, 20.0], vec![1.0, 30.0]],
            vec![0, 1, 0],
            2,
        )
        .unwrap()
    }

    #[test]
    fn quantize_rejects_unnormalized_features() {
        let mut d = toy(); // feature 1 ranges to 30.0
        assert!(quantize_features(&mut d, 4).is_err());
    }

    #[test]
    fn quantize_rejects_bad_bit_widths() {
        let mut d = load(UciDataset::Seeds, 1).unwrap();
        assert!(quantize_features(&mut d, 0).is_err());
        assert!(quantize_features(&mut d, 17).is_err());
    }

    #[test]
    fn quantize_snaps_to_grid() {
        let mut d = load(UciDataset::Seeds, 1).unwrap();
        quantize_features(&mut d, 4).unwrap();
        let levels = 15.0_f32;
        for &x in d.features().as_slice() {
            let scaled = x * levels;
            assert!(
                (scaled - scaled.round()).abs() < 1e-4,
                "{x} is not on the 4-bit grid"
            );
        }
    }

    #[test]
    fn one_bit_quantization_produces_binary_features() {
        let mut d = load(UciDataset::RedWine, 2).unwrap();
        quantize_features(&mut d, 1).unwrap();
        assert!(d
            .features()
            .as_slice()
            .iter()
            .all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let original = load(UciDataset::WhiteWine, 3).unwrap();
        let mut quantized = original.clone();
        quantize_features(&mut quantized, 6).unwrap();
        let step = 1.0 / 63.0_f32;
        for (a, b) in original
            .features()
            .as_slice()
            .iter()
            .zip(quantized.features().as_slice())
        {
            assert!((a - b).abs() <= step / 2.0 + 1e-6);
        }
    }
}
