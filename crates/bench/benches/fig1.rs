//! Figure 1 — standalone quantization / pruning / clustering Pareto fronts,
//! normalized to the bespoke baseline, for each of the four subplots.
//!
//! For every Fig. 1 dataset the bench first regenerates and prints the figure
//! data (quick effort), then measures one step on that dataset's baseline:
//! one cold candidate evaluation through the shared evaluation engine for
//! WhiteWine (4-bit quantization), RedWine (50% pruning) and Seeds
//! (3-cluster weight sharing, the technique whose circuit shares multipliers,
//! also measured warm as a memo-cache hit), and full synthesis of the largest
//! baseline circuit for Pendigits.

use criterion::{criterion_group, criterion_main, Bencher, Criterion};
use pmlp_bench::render_figure1;
use pmlp_core::bridge::circuit_spec_from_layers;
use pmlp_core::engine::{EvalEngine, Evaluator};
use pmlp_core::experiment::{Effort, Figure1Experiment};
use pmlp_data::UciDataset;
use pmlp_hw::{BespokeMlpCircuit, CellLibrary};
use pmlp_minimize::{minimize, MinimizationConfig};
use std::time::Duration;

/// Evaluates `candidate` cold: the engine's cache is cleared every iteration.
fn evaluate_cold(
    engine: &EvalEngine,
    candidate: MinimizationConfig,
) -> impl FnMut(&mut Bencher) + '_ {
    move |b| {
        b.iter(|| {
            engine.clear_cache();
            engine.evaluate(&candidate).unwrap()
        })
    }
}

fn bench_fig1(c: &mut Criterion) {
    for dataset in UciDataset::fig1() {
        let experiment = Figure1Experiment::new(dataset, Effort::Quick, 42);
        let engine = experiment.build_engine().expect("baseline training");
        let result = experiment
            .run_with(&engine)
            .unwrap_or_else(|e| panic!("figure 1 ({dataset}) regeneration: {e}"));
        println!("{}", render_figure1(&result));

        let name = format!("fig1_{}", dataset.to_string().to_lowercase());
        let mut group = c.benchmark_group(&name);
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(5));
        match dataset {
            UciDataset::WhiteWine => {
                let candidate = MinimizationConfig::default().with_weight_bits(4);
                group.bench_function(
                    "evaluate_quant4_candidate",
                    evaluate_cold(&engine, candidate),
                );
            }
            UciDataset::RedWine => {
                let candidate = MinimizationConfig::default().with_sparsity(0.5);
                group.bench_function(
                    "evaluate_prune50_candidate",
                    evaluate_cold(&engine, candidate),
                );
            }
            UciDataset::Pendigits => {
                // Prepare the baseline integer layers once; measure only the
                // synthesis.
                let baseline = engine.baseline();
                let minimized = minimize(
                    &baseline.model,
                    &baseline.train,
                    None,
                    &MinimizationConfig::baseline().with_fine_tune_epochs(1),
                    1,
                )
                .expect("baseline quantization");
                let spec =
                    circuit_spec_from_layers(&minimized.integer_layers, 4).expect("circuit spec");
                let library = CellLibrary::egt();
                group.bench_function("synthesize_baseline_circuit", |b| {
                    b.iter(|| BespokeMlpCircuit::synthesize(&spec, &library).unwrap())
                });
            }
            UciDataset::Seeds => {
                let candidate = MinimizationConfig::default().with_clusters(3);
                group.bench_function(
                    "evaluate_cluster3_candidate",
                    evaluate_cold(&engine, candidate),
                );
                group.bench_function("evaluate_cluster3_cached", |b| {
                    engine.evaluate(&candidate).unwrap();
                    b.iter(|| engine.evaluate(&candidate).unwrap())
                });
                println!("engine stats after bench: {:?}", engine.stats());
            }
            other => unreachable!("{other} is not a Fig. 1 dataset"),
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
