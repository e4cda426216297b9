//! Micro-benchmarks of the neural-network substrate: forward pass, one
//! training epoch and QAT fine-tuning on the Seeds classifier, the matrix
//! products of a WhiteWine training step, one WhiteWine training epoch and
//! a WhiteWine QAT fine-tune.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmlp_data::{load, UciDataset};
use pmlp_minimize::qat::quantization_aware_train;
use pmlp_minimize::QatConfig;
use pmlp_nn::{Matrix, MlpBuilder, TrainConfig, Trainer};
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

    // The matrix products of one WhiteWine (11 -> 25 -> 5) training step
    // at batch 32: the hidden layer's forward product, the output layer's
    // forward product, its weight-gradient product `xᵀ·δ` (25x32 by 32x5,
    // reading the 32x25 batch input in place), and the output layer of the
    // per-epoch pass over the 374-row validation split.
    let operand = |rows: usize, cols: usize, seed: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i * 7 + seed) % 17) as f32 * 0.11 - 0.9)
                .collect(),
        )
        .expect("operand")
    };
    for (m, k, n) in [(32, 11, 25), (32, 25, 5), (374, 25, 5)] {
        let a = operand(m, k, 1);
        let b = operand(k, n, 2);
        let mut out = Matrix::zeros(0, 0);
        group.bench_function(&format!("matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                a.matmul_into(&b, &mut out).unwrap();
                black_box(out.as_slice()[0])
            })
        });
    }
    let (m, k, n) = (25, 32, 5);
    let input = operand(k, m, 1);
    let delta = operand(k, n, 2);
    let mut out = Matrix::zeros(0, 0);
    group.bench_function(&format!("transpose_matmul_{m}x{k}x{n}"), |bench| {
        bench.iter(|| {
            input.transpose_matmul_into(&delta, &mut out).unwrap();
            black_box(out.as_slice()[0])
        })
    });

    // One plain training epoch (batch 32) and one 10-epoch 4-bit QAT
    // fine-tune of a WhiteWine-shaped 11 -> 25 -> 5 model: the training
    // step every fresh candidate's fine-tuning repeats.
    let whitewine = load(UciDataset::WhiteWine, 42).expect("whitewine dataset");
    let mut rng = StdRng::seed_from_u64(4);
    let whitewine_mlp = MlpBuilder::new(whitewine.feature_count())
        .hidden(25)
        .output(whitewine.class_count())
        .build(&mut rng)
        .expect("mlp");
    group.bench_function("train_one_epoch_whitewine", |b| {
        b.iter(|| {
            let mut model = whitewine_mlp.clone();
            let mut rng = StdRng::seed_from_u64(6);
            Trainer::new(TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            })
            .fit(&mut model, &whitewine, None, &mut rng)
            .unwrap()
            .best_accuracy
        })
    });
    group.bench_function("qat_ten_epochs_4bit_whitewine", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            quantization_aware_train(
                &whitewine_mlp,
                &whitewine,
                None,
                &QatConfig::new(4, 10),
                &mut rng,
            )
            .unwrap()
            .1
            .best_accuracy
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
