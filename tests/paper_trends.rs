//! Reproduction of the paper's qualitative trends at reduced scale ("quick"
//! effort). The full-scale numbers come from the figure binaries listed in
//! `docs/ARCHITECTURE.md`; these tests pin the *shape* of the results so
//! regressions in any crate are caught by `cargo test --workspace`.

use printed_mlp::core::experiment::{headline_summary, Effort, Figure1Experiment};
use printed_mlp::core::pareto::area_gain_at_accuracy_loss;
use printed_mlp::core::sweep::Technique;
use printed_mlp::data::UciDataset;

#[test]
fn figure1_quick_seeds_reproduces_qualitative_trends() {
    let result = Figure1Experiment::new(UciDataset::Seeds, Effort::Quick, 17)
        .run()
        .unwrap();

    // All three techniques produce at least one design smaller than the
    // baseline (normalized area < 1).
    for (technique, points) in &result.raw_points {
        let min_area = points
            .iter()
            .map(|p| p.normalized_area)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_area < 1.0,
            "{technique:?} never shrank the circuit (min ratio {min_area})"
        );
    }

    // Quantization reaches deeper area reductions than pruning at the sparsity
    // levels the paper sweeps (its most aggressive point is smaller).
    let min_area = |t: Technique| {
        result
            .raw_points
            .iter()
            .find(|(tech, _)| *tech == t)
            .map(|(_, pts)| {
                pts.iter()
                    .map(|p| p.normalized_area)
                    .fold(f64::INFINITY, f64::min)
            })
            .unwrap()
    };
    assert!(
        min_area(Technique::Quantization) < min_area(Technique::Pruning),
        "quantization ({}) should reach smaller designs than pruning ({})",
        min_area(Technique::Quantization),
        min_area(Technique::Pruning)
    );

    // The headline summary produces one row per technique and the area gains,
    // where defined, are > 1x.
    let rows = headline_summary(&result, 0.05);
    assert_eq!(rows.len(), 3);
    for row in &rows {
        if let Some(gain) = row.area_gain {
            assert!(
                gain >= 1.0,
                "{} reported an area gain below 1x",
                row.technique
            );
        }
    }
}

#[test]
fn quantization_dominates_at_the_five_percent_threshold_on_redwine() {
    // RedWine is one of the two datasets where the paper reports every
    // technique (including clustering) meeting the 5% threshold.
    let result = Figure1Experiment::new(UciDataset::RedWine, Effort::Quick, 29)
        .run()
        .unwrap();
    let gain = |t: Technique| {
        result
            .raw_points
            .iter()
            .find(|(tech, _)| *tech == t)
            .and_then(|(_, pts)| area_gain_at_accuracy_loss(pts, result.baseline_accuracy, 0.05))
    };
    let quant = gain(Technique::Quantization);
    assert!(
        quant.is_some(),
        "quantization produced no design within 5% accuracy loss"
    );
    assert!(
        quant.unwrap() > 1.2,
        "quantization area gain {:?} too small",
        quant
    );
}
