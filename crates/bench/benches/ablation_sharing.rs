//! Ablation: how much of the weight-clustering area gain comes
//! from multiplier sharing in the bespoke circuit, as opposed to the weight
//! values themselves becoming more regular.
//!
//! The bench prints the shared-vs-unshared area of a clustered Seeds
//! classifier, then measures the synthesis cost of both variants.

use criterion::{criterion_group, criterion_main, Criterion};
use pmlp_core::baseline::BaselineDesign;
use pmlp_core::bridge::circuit_spec_from_layers;
use pmlp_core::experiment::Effort;
use pmlp_hw::{BespokeMlpCircuit, CellLibrary, SharingStrategy};
use pmlp_minimize::{minimize, MinimizationConfig};
use std::time::Duration;

fn bench_ablation_sharing(c: &mut Criterion) {
    let baseline = BaselineDesign::train_with(
        pmlp_data::UciDataset::Seeds,
        42,
        &Effort::Quick.baseline_config(),
    )
    .expect("baseline");
    let clustered = minimize(
        &baseline.model,
        &baseline.train,
        None,
        &MinimizationConfig::default()
            .with_clusters(3)
            .with_fine_tune_epochs(2),
        5,
    )
    .expect("clustered model");
    let spec = circuit_spec_from_layers(&clustered.integer_layers, 4).expect("spec");
    let library = CellLibrary::egt();

    let unshared = BespokeMlpCircuit::synthesize_with(&spec, &library, SharingStrategy::None)
        .expect("unshared synthesis")
        .report()
        .area;
    let shared =
        BespokeMlpCircuit::synthesize_with(&spec, &library, SharingStrategy::SharedPerInput)
            .expect("shared synthesis")
            .report()
            .area;
    println!("=== ablation A1: multiplier sharing on a 3-cluster Seeds classifier ===");
    println!(
        "without sharing: {:.2} mm2 ({} gates)",
        unshared.total_mm2, unshared.gate_count
    );
    println!(
        "with sharing:    {:.2} mm2 ({} gates)",
        shared.total_mm2, shared.gate_count
    );
    println!(
        "sharing saves {:.1}% of the clustered circuit's area",
        100.0 * (1.0 - shared.total_mm2 / unshared.total_mm2)
    );

    let mut group = c.benchmark_group("ablation_sharing");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    group.bench_function("synthesize_without_sharing", |b| {
        b.iter(|| {
            BespokeMlpCircuit::synthesize_with(&spec, &library, SharingStrategy::None)
                .unwrap()
                .netlist()
                .gate_count()
        })
    });
    group.bench_function("synthesize_with_sharing", |b| {
        b.iter(|| {
            BespokeMlpCircuit::synthesize_with(&spec, &library, SharingStrategy::SharedPerInput)
                .unwrap()
                .netlist()
                .gate_count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation_sharing);
criterion_main!(benches);
