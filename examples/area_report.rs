//! Synthesis-report walkthrough of the bespoke hardware model: build a tiny
//! hand-specified classifier circuit, inspect its gate-level composition, and
//! see how pruning and multiplier sharing change the report.
//!
//! Run with `cargo run --release --example area_report`.

use printed_mlp::hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, LayerSpec, SharingStrategy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = CellLibrary::egt();

    // A hand-written 4-input, 3-class bespoke classifier with 4-bit weights.
    let hidden = LayerSpec::new(
        vec![vec![5, -3, 0, 7], vec![2, 6, -1, 0], vec![-4, 0, 3, 5]],
        4,
        HwActivation::ReLU,
    )?;
    let output = LayerSpec::new(
        vec![vec![3, -2, 1], vec![-1, 4, 2], vec![2, 1, -3]],
        4,
        HwActivation::Argmax,
    )?;
    let spec = CircuitSpec::new(4, vec![hidden, output])?;

    println!("== baseline bespoke circuit (no sharing, CSD multipliers) ==");
    let circuit = BespokeMlpCircuit::synthesize(&spec, &library)?;
    println!("{}", circuit.report());

    // Functional check: classify a couple of input vectors.
    for inputs in [[15_u64, 0, 7, 3], [1, 12, 4, 9]] {
        println!("classify({inputs:?}) = class {}", circuit.classify(&inputs));
    }

    let area = circuit.report().area.total_mm2;
    println!("\n== with multiplier sharing (clustered-weight architecture) ==");
    let shared =
        BespokeMlpCircuit::synthesize_with(&spec, &library, SharingStrategy::SharedPerInput)?
            .report()
            .area
            .total_mm2;
    println!(
        "area {shared:.2} mm2 vs {area:.2} mm2 unshared ({:.1}% saved)",
        100.0 * (1.0 - shared / area)
    );

    println!("\n== pruned variant (half the connections removed) ==");
    let pruned_hidden = LayerSpec::new(
        vec![vec![5, 0, 0, 7], vec![0, 6, 0, 0], vec![-4, 0, 0, 5]],
        4,
        HwActivation::ReLU,
    )?;
    let pruned_output = LayerSpec::new(
        vec![vec![3, 0, 1], vec![0, 4, 0], vec![2, 0, -3]],
        4,
        HwActivation::Argmax,
    )?;
    let pruned_spec = CircuitSpec::new(4, vec![pruned_hidden, pruned_output])?;
    let pruned = BespokeMlpCircuit::synthesize(&pruned_spec, &library)?
        .report()
        .area
        .total_mm2;
    println!(
        "area {pruned:.2} mm2 vs dense {area:.2} mm2 ({:.2}x smaller)",
        area / pruned
    );
    Ok(())
}
