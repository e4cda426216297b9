//! Differential equivalence battery: [`IntInferEngine`] vs gate-level
//! netlist simulation.
//!
//! For randomized topologies, bit-widths (2–8 bits) and sharing
//! configurations, the integer engine's raw outputs and argmax class must be
//! bit-identical to synthesizing the same [`CircuitSpec`] with
//! [`BespokeMlpCircuit`] and simulating the netlist gate by gate. The
//! named `pinned_*` tests below freeze the corner cases the property suite's
//! seeds exercise (argmax ties, all-zero rows, negative ReLU sums,
//! single-neuron layers) so they survive any future change to the random
//! generator.

use pmlp_hw::{
    BespokeMlpCircuit, CellLibrary, CircuitSpec, HwActivation, IntInferEngine, LayerSpec,
    SharingStrategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a valid random spec: 1–4 inputs, 1–3 layers of 1–3 neurons,
/// weights in the signed `weight_bits` range with a 25% zero (pruned)
/// probability, biases on the product grid, argmax or identity output head.
fn random_spec(seed: u64, input_bits: u8, weight_bits: u8) -> CircuitSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_code = (1_i64 << (weight_bits - 1)) - 1;
    let inputs = rng.gen_range(1..5_usize);
    let depth = rng.gen_range(1..4_usize);
    let mut layers = Vec::with_capacity(depth);
    let mut fan_in = inputs;
    for li in 0..depth {
        let neurons = rng.gen_range(1..4_usize);
        let weights: Vec<Vec<i64>> = (0..neurons)
            .map(|_| {
                (0..fan_in)
                    .map(|_| {
                        if rng.gen_bool(0.25) {
                            0
                        } else {
                            rng.gen_range(-max_code..=max_code)
                        }
                    })
                    .collect()
            })
            .collect();
        let biases: Vec<i64> = (0..neurons)
            .map(|_| rng.gen_range(-4 * max_code..=4 * max_code))
            .collect();
        let activation = if li + 1 < depth {
            HwActivation::ReLU
        } else if rng.gen_bool(0.75) {
            HwActivation::Argmax
        } else {
            HwActivation::Identity
        };
        layers.push(LayerSpec::with_biases(weights, biases, weight_bits, activation).unwrap());
        fan_in = neurons;
    }
    CircuitSpec::new(input_bits, layers).unwrap()
}

fn random_rows(seed: u64, input_count: usize, input_bits: u8, n: usize) -> Vec<Vec<u16>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let limit = 1_u32 << input_bits;
    (0..n)
        .map(|_| {
            (0..input_count)
                .map(|_| rng.gen_range(0..limit) as u16)
                .collect()
        })
        .collect()
}

/// Asserts engine ≡ netlist under both sharing strategies on the given rows.
fn assert_equivalent(spec: &CircuitSpec, rows: &[Vec<u16>]) {
    let lib = CellLibrary::egt();
    for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
        let engine = IntInferEngine::from_spec_with(spec, sharing).unwrap();
        let circuit = BespokeMlpCircuit::synthesize_with(spec, &lib, sharing)
            .expect("synthesis of a validated spec");
        for row in rows {
            let wide: Vec<u64> = row.iter().map(|&v| v as u64).collect();
            assert_eq!(
                engine.outputs(row),
                circuit.evaluate(&wide),
                "raw outputs diverged: sharing {sharing:?} row {row:?}"
            );
            assert_eq!(
                engine.classify_row(row),
                circuit.classify(&wide),
                "argmax diverged: sharing {sharing:?} row {row:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn intinfer_vs_netlist(
        seed in 0_u64..u64::MAX,
        input_bits in 2_u8..9,
        weight_bits in 2_u8..9,
    ) {
        let spec = random_spec(seed, input_bits, weight_bits);
        let rows = random_rows(seed, spec.input_count(), input_bits, 4);
        assert_equivalent(&spec, &rows);
    }
}

/// Every class output ties: the comparator tree and the engine must both
/// resolve to the lowest index for every input vector.
#[test]
fn pinned_argmax_ties_resolve_to_lowest_index() {
    let spec = CircuitSpec::new(
        3,
        vec![LayerSpec::with_biases(
            vec![vec![2, -3], vec![2, -3], vec![2, -3]],
            vec![1, 1, 1],
            4,
            HwActivation::Argmax,
        )
        .unwrap()],
    )
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..8)
        .flat_map(|a| (0..8).map(move |b| vec![a, b]))
        .collect();
    assert_equivalent(&spec, &rows);
    let engine = IntInferEngine::from_spec(&spec).unwrap();
    for row in &rows {
        assert_eq!(engine.classify_row(row), 0);
    }
}

/// Fully pruned neurons (all weights zero) score biases alone — including a
/// neuron whose bias is negative under ReLU.
#[test]
fn pinned_all_zero_weights_and_negative_relu() {
    let spec = CircuitSpec::new(
        4,
        vec![
            LayerSpec::with_biases(
                vec![vec![0, 0, 0], vec![0, -7, 0]],
                vec![-11, 3],
                4,
                HwActivation::ReLU,
            )
            .unwrap(),
            LayerSpec::with_biases(
                vec![vec![1, -1], vec![-1, 1]],
                vec![0, 0],
                4,
                HwActivation::Argmax,
            )
            .unwrap(),
        ],
    )
    .unwrap();
    let rows = random_rows(7, 3, 4, 8);
    assert_equivalent(&spec, &rows);
    // The first hidden neuron is always ReLU-clamped to zero.
    let engine = IntInferEngine::from_spec(&spec).unwrap();
    assert_eq!(engine.outputs(&[15, 0, 15]), vec![-3, 3]);
}

/// Degenerate single-neuron layers, including a single-class argmax head
/// (the comparator tree collapses to a constant zero index).
#[test]
fn pinned_single_neuron_layers() {
    let spec = CircuitSpec::new(
        2,
        vec![
            LayerSpec::with_biases(vec![vec![3]], vec![-2], 3, HwActivation::ReLU).unwrap(),
            LayerSpec::with_biases(vec![vec![-3]], vec![5], 3, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..4).map(|v| vec![v]).collect();
    assert_equivalent(&spec, &rows);
    let engine = IntInferEngine::from_spec(&spec).unwrap();
    for row in &rows {
        assert_eq!(engine.classify_row(row), 0);
    }
}

/// Maximum-magnitude 8-bit weights at 8-bit inputs across both kernels'
/// boundary conditions (the i32 kernel still applies; the bound math must
/// keep it safe).
#[test]
fn pinned_extreme_codes_at_8_bits() {
    let max = (1_i64 << 7) - 1;
    let spec = CircuitSpec::new(
        8,
        vec![
            LayerSpec::with_biases(
                vec![vec![max, -max, max], vec![-max, max, -max]],
                vec![4 * max, -4 * max],
                8,
                HwActivation::ReLU,
            )
            .unwrap(),
            LayerSpec::with_biases(
                vec![vec![max, -max], vec![-max, max]],
                vec![0, 0],
                8,
                HwActivation::Argmax,
            )
            .unwrap(),
        ],
    )
    .unwrap();
    let rows = vec![vec![0_u16, 0, 0], vec![255, 255, 255], vec![255, 0, 255]];
    assert_equivalent(&spec, &rows);
}
