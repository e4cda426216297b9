//! Ablation: quantization-aware training versus plain
//! post-training quantization at low bit-widths — the reason the paper uses
//! the QKeras QAT flow rather than simply rounding trained weights.
//!
//! The bench prints the accuracy of both flows at 2–5 bits on the Seeds
//! classifier, then measures the cost of each flow at 3 bits.

use criterion::{criterion_group, criterion_main, Criterion};
use pmlp_core::baseline::BaselineDesign;
use pmlp_core::experiment::Effort;
use pmlp_data::UciDataset;
use pmlp_minimize::qat::{post_training_quantize, quantization_aware_train};
use pmlp_minimize::{QatConfig, QuantizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_ablation_qat(c: &mut Criterion) {
    let baseline =
        BaselineDesign::train_with(UciDataset::Seeds, 42, &Effort::Quick.baseline_config())
            .expect("baseline");

    println!("=== ablation A2: QAT vs post-training quantization (Seeds) ===");
    println!(
        "float baseline accuracy: {:.1}%",
        baseline.model.accuracy(&baseline.test) * 100.0
    );
    for bits in [2u8, 3, 4, 5] {
        let ptq = post_training_quantize(
            &baseline.model,
            &QuantizationConfig {
                weight_bits: bits,
                input_bits: 4,
            },
        )
        .expect("ptq");
        let mut rng = StdRng::seed_from_u64(7);
        let (qat, _) = quantization_aware_train(
            &baseline.model,
            &baseline.train,
            None,
            &QatConfig::new(bits, 5),
            &mut rng,
        )
        .expect("qat");
        println!(
            "{bits}-bit: PTQ accuracy {:.1}%, QAT accuracy {:.1}%",
            ptq.model.accuracy(&baseline.test) * 100.0,
            qat.model.accuracy(&baseline.test) * 100.0,
        );
    }

    let mut group = c.benchmark_group("ablation_qat");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    group.bench_function("post_training_quantize_3bit", |b| {
        b.iter(|| {
            post_training_quantize(
                &baseline.model,
                &QuantizationConfig {
                    weight_bits: 3,
                    input_bits: 4,
                },
            )
            .unwrap()
            .code_sparsity()
        })
    });
    group.bench_function("qat_3bit_5_epochs", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            quantization_aware_train(
                &baseline.model,
                &baseline.train,
                None,
                &QatConfig::new(3, 5),
                &mut rng,
            )
            .unwrap()
            .0
            .code_sparsity()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation_qat);
criterion_main!(benches);
