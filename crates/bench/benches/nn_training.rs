//! Micro-benchmarks of the neural-network substrate: forward pass, one
//! training epoch and QAT fine-tuning on the Seeds classifier.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmlp_data::{load, UciDataset};
use pmlp_minimize::qat::quantization_aware_train;
use pmlp_minimize::QatConfig;
use pmlp_nn::{Matrix, MlpBuilder, MlpScratch, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_nn_training(c: &mut Criterion) {
    let data = load(UciDataset::Seeds, 42).expect("seeds dataset");
    let mut rng = StdRng::seed_from_u64(1);
    let mlp = MlpBuilder::new(data.feature_count())
        .hidden(10)
        .output(data.class_count())
        .build(&mut rng)
        .expect("mlp");

    let mut group = c.benchmark_group("nn_training");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    group.bench_function("forward_pass_full_dataset", |b| {
        b.iter(|| black_box(mlp.forward(data.features()).unwrap()))
    });

    group.bench_function("train_one_epoch_seeds", |b| {
        b.iter(|| {
            let mut model = mlp.clone();
            let mut rng = StdRng::seed_from_u64(2);
            Trainer::new(TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            })
            .fit(&mut model, &data, None, &mut rng)
            .unwrap()
            .best_accuracy
        })
    });

    group.bench_function("qat_two_epochs_4bit", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            quantization_aware_train(&mlp, &data, None, &QatConfig::new(4, 2), &mut rng)
                .unwrap()
                .1
                .best_accuracy
        })
    });

    // Hot-kernel comparisons: the buffer-reusing `matmul_into` vs the
    // allocating `matmul`, and the scratch-backed backward (cached-transpose
    // buffers) vs the allocating one.
    let a = Matrix::from_vec(
        64,
        32,
        (0..64 * 32).map(|i| (i % 17) as f32 * 0.11).collect(),
    )
    .expect("a");
    let w = Matrix::from_vec(
        32,
        48,
        (0..32 * 48).map(|i| (i % 13) as f32 * 0.07).collect(),
    )
    .expect("w");
    group.bench_function("matmul_alloc_64x32x48", |b| {
        b.iter(|| black_box(a.matmul(&w).unwrap().as_slice()[0]))
    });
    group.bench_function("matmul_into_64x32x48", |b| {
        let mut out = Matrix::zeros(0, 0);
        b.iter(|| {
            a.matmul_into(&w, &mut out).unwrap();
            black_box(out.as_slice()[0])
        })
    });

    let batch = Matrix::from_vec(
        32,
        data.feature_count(),
        (0..32 * data.feature_count())
            .map(|i| (i % 19) as f32 * 0.05)
            .collect(),
    )
    .expect("batch");
    let (logits, caches) = mlp.forward_with_caches(&batch).expect("forward");
    let grad = Matrix::filled(logits.rows(), logits.cols(), 0.01);
    group.bench_function("backward_alloc_transposes", |b| {
        b.iter(|| black_box(mlp.backward(&caches, &grad).unwrap().len()))
    });
    group.bench_function("backward_cached_transposes", |b| {
        let mut scratch = MlpScratch::default();
        b.iter(|| {
            black_box(
                mlp.backward_with_scratch(&caches, grad.clone(), &mut scratch)
                    .unwrap()
                    .len(),
            )
        })
    });

    // The strided `column_iter` vs the `Vec`-allocating `column`.
    let features = data.features();
    group.bench_function("column_alloc_sum", |b| {
        b.iter(|| {
            let mut total = 0.0_f32;
            for c in 0..features.cols() {
                total += features.column(c).iter().sum::<f32>();
            }
            black_box(total)
        })
    });
    group.bench_function("column_iter_sum", |b| {
        b.iter(|| {
            let mut total = 0.0_f32;
            for c in 0..features.cols() {
                total += features.column_iter(c).sum::<f32>();
            }
            black_box(total)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_nn_training);
criterion_main!(benches);
