//! Figure 1(c) — Pendigits: standalone technique Pareto fronts plus the cost
//! of synthesizing the (largest) Pendigits bespoke baseline circuit.

use criterion::{criterion_group, criterion_main, Criterion};
use pmlp_bench::render_figure1;
use pmlp_core::baseline::BaselineDesign;
use pmlp_core::bridge::circuit_spec_from_layers;
use pmlp_core::experiment::{Effort, Figure1Experiment};
use pmlp_data::UciDataset;
use pmlp_hw::{BespokeMlpCircuit, CellLibrary};
use pmlp_minimize::{minimize, MinimizationConfig};
use std::time::Duration;

fn bench_fig1_pendigits(c: &mut Criterion) {
    let result = Figure1Experiment::new(UciDataset::Pendigits, Effort::Quick, 42)
        .run()
        .expect("figure 1 (Pendigits) regeneration");
    println!("{}", render_figure1(&result));

    // Prepare the baseline integer layers once; benchmark only the synthesis.
    let baseline =
        BaselineDesign::train_with(UciDataset::Pendigits, 42, &Effort::Quick.baseline_config())
            .expect("baseline");
    let minimized = minimize(
        &baseline.model,
        &baseline.train,
        None,
        &MinimizationConfig::baseline().with_fine_tune_epochs(1),
        1,
    )
    .expect("baseline quantization");
    let spec = circuit_spec_from_layers(&minimized.integer_layers, 4).expect("circuit spec");
    let library = CellLibrary::egt();

    let mut group = c.benchmark_group("fig1_pendigits");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    group.bench_function("synthesize_baseline_circuit", |b| {
        b.iter(|| BespokeMlpCircuit::synthesize(&spec, &library).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_fig1_pendigits);
criterion_main!(benches);
