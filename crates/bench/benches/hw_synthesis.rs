//! Micro-benchmarks of the bespoke hardware model: CSD recoding, constant
//! multiplier generation, neuron synthesis and full-circuit synthesis +
//! analysis.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pmlp_hw::adder::{input_word, Word};
use pmlp_hw::constmul::constant_multiplier;
use pmlp_hw::neuron::build_neuron;
use pmlp_hw::SharingStrategy::SharedPerInput;
use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, CsdDigits, HwActivation, LayerSpec, Netlist,
};
use std::time::Duration;

/// A WhiteWine-shaped spec (11 inputs, 25 hidden, 5 outputs) with
/// deterministic pseudo-random 5-bit weights.
fn whitewine_like_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(hidden, 5, HwActivation::ReLU).expect("hidden layer"),
            LayerSpec::new(output, 5, HwActivation::Argmax).expect("output layer"),
        ],
    )
    .expect("spec")
}

/// The same shape with 8-bit weights and nonzero biases: every seventh
/// weight is -1, -2 or -64, so inputs repeat products across neurons.
fn whitewine_like_spec_8bit_biased() -> CircuitSpec {
    let weight = |n: usize, i: usize| -> i64 {
        if (n + i).is_multiple_of(7) {
            [-1, -2, -64][(n + i) / 7 % 3]
        } else {
            ((n * 31 + i * 17 + 7) % 255) as i64 - 127
        }
    };
    let bias = |n: usize| -> i64 { ((n * 379 + 5) % 4001) as i64 - 2000 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::with_biases(hidden, (0..25).map(bias).collect(), 8, HwActivation::ReLU)
                .expect("hidden layer"),
            LayerSpec::with_biases(
                output,
                (100..105).map(bias).collect(),
                8,
                HwActivation::Argmax,
            )
            .expect("output layer"),
        ],
    )
    .expect("spec")
}

fn bench_hw_synthesis(c: &mut Criterion) {
    let library = CellLibrary::egt();
    let spec = whitewine_like_spec();
    let spec_8bit = whitewine_like_spec_8bit_biased();

    let mut group = c.benchmark_group("hw_synthesis");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));

    group.bench_function("csd_recoding_8bit_range", |b| {
        b.iter(|| {
            for v in -127_i64..=127 {
                black_box(CsdDigits::from_value(v).nonzero_count());
            }
        })
    });

    group.bench_function("constant_multiplier_6bit_input", |b| {
        b.iter(|| {
            let mut netlist = Netlist::new("mul");
            let x = input_word(&mut netlist, 6);
            for constant in [3_i64, -7, 23, 55, -101] {
                black_box(constant_multiplier(&mut netlist, &x, constant));
            }
            netlist.gate_count()
        })
    });

    group.bench_function("neuron_with_11_inputs", |b| {
        let weights = [5, -3, 7, 0, 2, -6, 1, 4, 0, -2, 3];
        b.iter(|| {
            let mut netlist = Netlist::new("neuron");
            let inputs: Vec<Word> = weights
                .iter()
                .map(|_| input_word(&mut netlist, 5))
                .collect();
            black_box(build_neuron(&mut netlist, &inputs, &weights, 0, true, None).unwrap());
            netlist.gate_count()
        })
    });

    group.bench_function("whitewine_circuit_synthesis", |b| {
        b.iter(|| {
            BespokeMlpCircuit::synthesize(&spec, &library)
                .unwrap()
                .netlist()
                .gate_count()
        })
    });

    // The one netlist walk behind the area, power and timing reports.
    group.bench_function("whitewine_circuit_report", |b| {
        let circuit = BespokeMlpCircuit::synthesize(&spec, &library).unwrap();
        b.iter(|| circuit.report().timing.critical_path_us)
    });

    // Candidate evaluation cost through the analytic fast path vs full
    // synthesis + its report (what finalist verification pays per finalist,
    // and what a search loop would otherwise pay per candidate).
    group.bench_function("whitewine_full_synthesis_with_analyses", |b| {
        b.iter(|| {
            let report = BespokeMlpCircuit::synthesize(&spec, &library)
                .unwrap()
                .report();
            black_box((
                report.area.total_mm2,
                report.power.total_uw,
                report.timing.critical_path_us,
            ))
        })
    });

    group.bench_function("whitewine_fast_path_estimate", |b| {
        b.iter(|| {
            let report =
                pmlp_hw::cost::estimate_circuit(&spec, &library, pmlp_hw::SharingStrategy::None)
                    .unwrap();
            black_box((
                report.area.total_mm2,
                report.power.total_uw,
                report.timing.critical_path_us,
            ))
        })
    });

    // The shared path adds the per-layer product cache, which the unshared
    // cases above never touch.
    group.bench_function("whitewine_8bit_shared_full_synthesis", |b| {
        b.iter(|| {
            let report = BespokeMlpCircuit::synthesize_with(&spec_8bit, &library, SharedPerInput)
                .unwrap()
                .report();
            black_box(report.area.total_mm2)
        })
    });

    group.bench_function("whitewine_8bit_shared_fast_path_estimate", |b| {
        b.iter(|| {
            let report =
                pmlp_hw::cost::estimate_circuit(&spec_8bit, &library, SharedPerInput).unwrap();
            black_box(report.area.total_mm2)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_hw_synthesis);
criterion_main!(benches);
