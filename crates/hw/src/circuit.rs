//! Whole-network bespoke circuit synthesis.
//!
//! A [`CircuitSpec`] describes a quantized MLP as integer weight matrices;
//! [`BespokeMlpCircuit::synthesize`] turns it into a gate-level netlist of
//! CSD shift-add multipliers and adder trees, costed on the EGT cell library,
//! with optional multiplier sharing for clustered weights and an argmax
//! comparator tree on the output layer.

use crate::adder::{self, Word};
use crate::cell::CellLibrary;
use crate::error::HwError;
use crate::netlist::{GateSink, Netlist};
use crate::neuron::{build_neuron, ProductCache};
use crate::report::SynthesisReport;
use serde::{Deserialize, Serialize};

/// Design name of every synthesized bespoke MLP and of its fast-path report.
pub(crate) const DESIGN_NAME: &str = "bespoke_mlp";

/// Activation implemented in hardware after a layer's adder trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HwActivation {
    /// Rectified linear unit (comparator + AND mask per bit).
    ReLU,
    /// No activation (raw sums).
    Identity,
    /// Argmax comparator/mux tree producing the index of the largest sum;
    /// only meaningful on the output layer of a classifier.
    Argmax,
}

/// Multiplier-sharing strategy used during synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SharingStrategy {
    /// One constant multiplier per non-zero weight (the baseline bespoke
    /// architecture of Mubarik et al.).
    #[default]
    None,
    /// Share the product of `(input, weight value)` pairs across the neurons
    /// of a layer — the hardware counterpart of weight clustering.
    SharedPerInput,
}

/// One fully-connected layer of a [`CircuitSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Integer weights, `weights[neuron][input]`.
    pub weights: Vec<Vec<i64>>,
    /// Integer biases, one per neuron (same fixed-point scale as products).
    pub biases: Vec<i64>,
    /// Bit-width the weights were quantized to (documentation / validation).
    pub weight_bits: u8,
    /// Hardware activation after this layer.
    pub activation: HwActivation,
}

impl LayerSpec {
    /// Creates a layer with zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidSpec`] when the weight matrix is empty or
    /// ragged, or when a weight does not fit in `weight_bits` signed bits.
    pub fn new(
        weights: Vec<Vec<i64>>,
        weight_bits: u8,
        activation: HwActivation,
    ) -> Result<Self, HwError> {
        let neurons = weights.len();
        let biases = vec![0; neurons];
        LayerSpec::with_biases(weights, biases, weight_bits, activation)
    }

    /// Creates a layer with explicit biases.
    ///
    /// # Errors
    ///
    /// Same as [`LayerSpec::new`], plus a bias-count mismatch.
    pub fn with_biases(
        weights: Vec<Vec<i64>>,
        biases: Vec<i64>,
        weight_bits: u8,
        activation: HwActivation,
    ) -> Result<Self, HwError> {
        let layer = LayerSpec {
            weights,
            biases,
            weight_bits,
            activation,
        };
        layer.validate()?;
        Ok(layer)
    }

    /// Re-checks the invariants [`LayerSpec::with_biases`] establishes; used
    /// by synthesis and the fast-path cost model so hand-constructed specs
    /// (the fields are public) cannot bypass validation.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidSpec`] / [`HwError::InvalidBitWidth`] exactly
    /// as construction would.
    pub fn validate(&self) -> Result<(), HwError> {
        let weights = &self.weights;
        let biases = &self.biases;
        let weight_bits = self.weight_bits;
        if weights.is_empty() {
            return Err(HwError::InvalidSpec {
                context: "layer has no neurons".into(),
            });
        }
        let inputs = weights[0].len();
        if inputs == 0 {
            return Err(HwError::InvalidSpec {
                context: "layer neurons have no inputs".into(),
            });
        }
        if weights.iter().any(|row| row.len() != inputs) {
            return Err(HwError::InvalidSpec {
                context: "ragged weight matrix".into(),
            });
        }
        if biases.len() != weights.len() {
            return Err(HwError::InvalidSpec {
                context: format!("{} biases for {} neurons", biases.len(), weights.len()),
            });
        }
        if weight_bits == 0 || weight_bits > 24 {
            return Err(HwError::InvalidBitWidth {
                context: format!("weight_bits must be in 1..=24, got {weight_bits}"),
            });
        }
        let min = -(1_i64 << (weight_bits - 1));
        let max = (1_i64 << (weight_bits - 1)) - 1;
        if let Some(&w) = weights.iter().flatten().find(|&&w| w < min || w > max) {
            return Err(HwError::InvalidSpec {
                context: format!("weight {w} does not fit in {weight_bits} signed bits"),
            });
        }
        Ok(())
    }

    /// Number of neurons in this layer.
    pub fn neuron_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of inputs each neuron consumes.
    pub fn input_count(&self) -> usize {
        self.weights[0].len()
    }
}

/// A full bespoke-MLP description: input precision plus a stack of layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitSpec {
    /// Bit-width of the (unsigned) primary inputs.
    pub input_bits: u8,
    /// The layers, input to output.
    pub layers: Vec<LayerSpec>,
}

impl CircuitSpec {
    /// Creates and validates a circuit spec.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidSpec`] when there are no layers, consecutive
    /// layer sizes do not chain or the worst-case accumulator exceeds `i64`,
    /// and [`HwError::InvalidBitWidth`] for an unsupported input precision.
    pub fn new(input_bits: u8, layers: Vec<LayerSpec>) -> Result<Self, HwError> {
        let spec = CircuitSpec { input_bits, layers };
        spec.validate()?;
        Ok(spec)
    }

    /// Re-checks every invariant [`CircuitSpec::new`] establishes, including
    /// the per-layer [`LayerSpec::validate`] checks. Synthesis, the
    /// fast-path cost model and the integer engine all call this, so
    /// hand-constructed specs (the fields are public) cannot bypass
    /// validation — without cloning the layer stack — and all three accept
    /// the same specs.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidSpec`] / [`HwError::InvalidBitWidth`] exactly
    /// as construction would.
    pub fn validate(&self) -> Result<(), HwError> {
        if self.input_bits == 0 || self.input_bits > 16 {
            return Err(HwError::InvalidBitWidth {
                context: format!("input_bits must be in 1..=16, got {}", self.input_bits),
            });
        }
        if self.layers.is_empty() {
            return Err(HwError::InvalidSpec {
                context: "circuit has no layers".into(),
            });
        }
        for layer in &self.layers {
            layer.validate()?;
        }
        for (i, pair) in self.layers.windows(2).enumerate() {
            if pair[1].input_count() != pair[0].neuron_count() {
                return Err(HwError::InvalidSpec {
                    context: format!(
                        "layer {} expects {} inputs but layer {i} has {} neurons",
                        i + 1,
                        pair[1].input_count(),
                        pair[0].neuron_count()
                    ),
                });
            }
        }
        let bound = self.accumulator_bound();
        if bound > i64::MAX as u128 {
            return Err(HwError::InvalidSpec {
                context: format!("worst-case accumulator {bound} exceeds i64"),
            });
        }
        Ok(())
    }

    /// Worst-case accumulator magnitude over all layers, assuming inputs
    /// bounded by `2^input_bits − 1`. ReLU and Identity both preserve the
    /// bound (ReLU can only shrink magnitudes), and every *partial* sum of
    /// `bias + Σ wᵢ·uᵢ` is bounded by the same sum of magnitudes, so a layer
    /// whose bound fits a type can be accumulated in that type without
    /// intermediate overflow.
    pub(crate) fn accumulator_bound(&self) -> u128 {
        let mut in_bound: u128 = (1_u128 << self.input_bits) - 1;
        let mut worst: u128 = in_bound;
        for layer in &self.layers {
            let mut layer_bound: u128 = 0;
            for (row, &bias) in layer.weights.iter().zip(layer.biases.iter()) {
                // Saturating: a bound past u128 is certainly past i64 and is
                // rejected, so clamping is safe.
                let neuron: u128 = row
                    .iter()
                    .map(|&w| (w.unsigned_abs() as u128).saturating_mul(in_bound))
                    .fold(bias.unsigned_abs() as u128, u128::saturating_add);
                layer_bound = layer_bound.max(neuron);
            }
            worst = worst.max(layer_bound);
            in_bound = layer_bound;
        }
        worst
    }

    /// Number of primary input features.
    pub fn input_count(&self) -> usize {
        self.layers[0].input_count()
    }

    /// Number of outputs (neurons of the last layer).
    pub fn output_count(&self) -> usize {
        self.layers
            .last()
            .expect("at least one layer")
            .neuron_count()
    }
}

/// A synthesized bespoke MLP circuit together with its analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct BespokeMlpCircuit {
    netlist: Netlist,
    library: CellLibrary,
    outputs: Vec<Word>,
    argmax_index: Option<Word>,
    input_bits: u8,
    input_count: usize,
}

impl BespokeMlpCircuit {
    /// Synthesizes `spec` without multiplier sharing.
    ///
    /// # Errors
    ///
    /// Propagates [`HwError`] from validation and construction.
    pub fn synthesize(spec: &CircuitSpec, library: &CellLibrary) -> Result<Self, HwError> {
        Self::synthesize_with(spec, library, SharingStrategy::None)
    }

    /// Synthesizes `spec` with an explicit sharing strategy.
    ///
    /// # Errors
    ///
    /// Propagates [`HwError`] from validation and construction.
    pub fn synthesize_with(
        spec: &CircuitSpec,
        library: &CellLibrary,
        sharing: SharingStrategy,
    ) -> Result<Self, HwError> {
        let mut netlist = Netlist::new(DESIGN_NAME);
        let (outputs, argmax_index) = build_mlp(&mut netlist, spec, sharing)?;

        // Mark primary outputs: the argmax index if present, otherwise the raw
        // output words.
        if let Some(index) = &argmax_index {
            for &net in index {
                netlist.mark_output(net);
            }
        } else {
            for word in &outputs {
                for &net in word {
                    netlist.mark_output(net);
                }
            }
        }

        Ok(BespokeMlpCircuit {
            netlist,
            library: library.clone(),
            outputs,
            argmax_index,
            input_bits: spec.input_bits,
            input_count: spec.input_count(),
        })
    }

    /// The synthesized netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Full synthesis-style report: area, power and timing from one walk
    /// over the netlist ([`Netlist::report`]).
    pub fn report(&self) -> SynthesisReport {
        self.netlist.report(&self.library)
    }

    /// Evaluates the circuit on unsigned integer inputs (each in
    /// `0..2^input_bits`), returning the raw output values of the last layer.
    /// Intended for functional verification and examples.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of circuit inputs.
    pub fn evaluate(&self, inputs: &[u64]) -> Vec<i64> {
        let values = self.simulate(inputs);
        self.outputs
            .iter()
            .map(|w| adder::word_value(&values, w))
            .collect()
    }

    /// Evaluates the circuit and returns the argmax class index (either from
    /// the hardware argmax tree, or computed from the raw outputs when the
    /// spec had no argmax layer).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of circuit inputs.
    pub fn classify(&self, inputs: &[u64]) -> usize {
        let values = self.simulate(inputs);
        match &self.argmax_index {
            Some(index) => adder::word_value(&values, index) as usize,
            None => {
                let outs: Vec<i64> = self
                    .outputs
                    .iter()
                    .map(|w| adder::word_value(&values, w))
                    .collect();
                outs.iter()
                    .enumerate()
                    .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        }
    }

    fn simulate(&self, inputs: &[u64]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.input_count,
            "expected {} inputs",
            self.input_count
        );
        let bits_per_input = self.input_bits as usize;
        let mut bits = Vec::with_capacity(inputs.len() * bits_per_input);
        for &v in inputs {
            assert!(
                v < (1_u64 << bits_per_input),
                "input {v} does not fit in {bits_per_input} unsigned bits"
            );
            for i in 0..bits_per_input {
                bits.push((v >> i) & 1 == 1);
            }
        }
        self.netlist.simulate(&bits)
    }
}

/// The words a circuit build leaves: the last layer's outputs, and the
/// argmax index when the last layer is an argmax layer.
type MlpWords<P> = (Vec<Word<P>>, Option<Word<P>>);

/// Hands the whole bespoke circuit of `spec` to `sink`: the primary-input
/// words, one neuron per weight row (sharing products within a layer under
/// [`SharingStrategy::SharedPerInput`]) and the argmax tree.
///
/// # Errors
///
/// Returns [`CircuitSpec::validate`]'s errors, and [`HwError::InvalidSpec`]
/// for an argmax activation on a non-output layer.
pub(crate) fn build_mlp<S: GateSink>(
    sink: &mut S,
    spec: &CircuitSpec,
    sharing: SharingStrategy,
) -> Result<MlpWords<S::Pin>, HwError> {
    // Re-validate so hand-constructed specs cannot bypass the checks
    // (without cloning the layer stack).
    spec.validate()?;
    // Primary inputs: unsigned `input_bits` values, carried as signed words
    // with one extra (zero) sign bit.
    let mut current: Vec<Word<S::Pin>> = (0..spec.input_count())
        .map(|_| {
            let mut w = adder::input_word(sink, spec.input_bits as usize);
            w.push(S::ZERO);
            w
        })
        .collect();

    let mut argmax_index = None;
    let layer_count = spec.layers.len();
    for (li, layer) in spec.layers.iter().enumerate() {
        let relu = layer.activation == HwActivation::ReLU;
        let mut cache = ProductCache::new();
        let mut outputs = Vec::with_capacity(layer.neuron_count());
        for (weights, &bias) in layer.weights.iter().zip(&layer.biases) {
            let cache = match sharing {
                SharingStrategy::SharedPerInput => Some(&mut cache),
                SharingStrategy::None => None,
            };
            outputs.push(build_neuron(sink, &current, weights, bias, relu, cache)?);
        }
        if layer.activation == HwActivation::Argmax {
            if li != layer_count - 1 {
                return Err(HwError::InvalidSpec {
                    context: format!("argmax activation on non-output layer {li}"),
                });
            }
            argmax_index = Some(build_argmax(sink, &outputs));
        }
        current = outputs;
    }
    Ok((current, argmax_index))
}

/// Builds an argmax comparator/mux tree over the neuron output words and
/// returns the word holding the winning index (ties go to the lower index).
fn build_argmax<S: GateSink>(sink: &mut S, outputs: &[Word<S::Pin>]) -> Word<S::Pin> {
    let n = outputs.len();
    let index_bits = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
    let mut best_value = outputs[0].clone();
    let mut best_index = adder::constant_word::<S>(0, index_bits + 1);
    for (i, candidate) in outputs.iter().enumerate().skip(1) {
        let is_greater = adder::greater_than(sink, candidate, &best_value);
        best_value = adder::mux_word(sink, is_greater, &best_value, candidate);
        let candidate_index = adder::constant_word::<S>(i as i64, index_bits + 1);
        best_index = adder::mux_word(sink, is_greater, &best_index, &candidate_index);
    }
    best_index
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_spec() -> CircuitSpec {
        // 3 inputs -> 2 hidden (ReLU) -> 2 outputs (argmax)
        CircuitSpec::new(
            4,
            vec![
                LayerSpec::new(vec![vec![2, -1, 3], vec![-2, 4, 1]], 4, HwActivation::ReLU)
                    .unwrap(),
                LayerSpec::new(vec![vec![1, -2], vec![-3, 2]], 4, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap()
    }

    fn reference_forward(spec: &CircuitSpec, inputs: &[i64]) -> Vec<i64> {
        let mut current: Vec<i64> = inputs.to_vec();
        for layer in &spec.layers {
            let mut next = Vec::new();
            for (row, &bias) in layer.weights.iter().zip(layer.biases.iter()) {
                let mut sum: i64 = row.iter().zip(current.iter()).map(|(w, x)| w * x).sum();
                sum += bias;
                if layer.activation == HwActivation::ReLU {
                    sum = sum.max(0);
                }
                next.push(sum);
            }
            current = next;
        }
        current
    }

    #[test]
    fn layer_spec_validation() {
        assert!(LayerSpec::new(vec![], 4, HwActivation::ReLU).is_err());
        assert!(LayerSpec::new(vec![vec![]], 4, HwActivation::ReLU).is_err());
        assert!(LayerSpec::new(vec![vec![1, 2], vec![3]], 4, HwActivation::ReLU).is_err());
        assert!(LayerSpec::new(vec![vec![100]], 4, HwActivation::ReLU).is_err());
        assert!(LayerSpec::new(vec![vec![1]], 0, HwActivation::ReLU).is_err());
        assert!(LayerSpec::with_biases(vec![vec![1]], vec![1, 2], 4, HwActivation::ReLU).is_err());
        assert!(LayerSpec::new(vec![vec![7, -8]], 4, HwActivation::ReLU).is_ok());
    }

    #[test]
    fn circuit_spec_validation() {
        let l1 = LayerSpec::new(vec![vec![1, 2]], 4, HwActivation::ReLU).unwrap();
        let l2_bad = LayerSpec::new(vec![vec![1, 2, 3]], 4, HwActivation::Identity).unwrap();
        assert!(CircuitSpec::new(4, vec![l1.clone(), l2_bad]).is_err());
        assert!(CircuitSpec::new(0, vec![l1.clone()]).is_err());
        assert!(CircuitSpec::new(4, vec![]).is_err());
        assert!(CircuitSpec::new(4, vec![l1]).is_ok());
    }

    #[test]
    fn argmax_must_be_on_last_layer() {
        let l1 = LayerSpec::new(vec![vec![1, 2], vec![2, 1]], 4, HwActivation::Argmax).unwrap();
        let l2 = LayerSpec::new(vec![vec![1, 1]], 4, HwActivation::Identity).unwrap();
        let spec = CircuitSpec::new(4, vec![l1, l2]).unwrap();
        assert!(BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt()).is_err());
    }

    #[test]
    fn circuit_matches_reference_forward_pass() {
        let spec = simple_spec();
        let circuit = BespokeMlpCircuit::synthesize(&spec, &CellLibrary::egt()).unwrap();
        for inputs in [
            [0_u64, 0, 0],
            [1, 2, 3],
            [15, 15, 15],
            [7, 0, 9],
            [3, 14, 5],
        ] {
            let signed: Vec<i64> = inputs.iter().map(|&v| v as i64).collect();
            let expected = reference_forward(&spec, &signed);
            assert_eq!(circuit.evaluate(&inputs), expected, "inputs {inputs:?}");
            let expected_class = expected
                .iter()
                .enumerate()
                .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(
                circuit.classify(&inputs),
                expected_class,
                "inputs {inputs:?}"
            );
        }
    }

    #[test]
    fn sharing_reduces_area_for_clustered_weights() {
        // All neurons share the same weight per input position (fully
        // clustered): sharing should remove redundant multipliers.
        let lib = CellLibrary::egt();
        let weights = vec![vec![5, -3, 7]; 6];
        let layer = LayerSpec::new(weights, 4, HwActivation::Identity).unwrap();
        let spec = CircuitSpec::new(4, vec![layer]).unwrap();
        let area = |sharing| {
            BespokeMlpCircuit::synthesize_with(&spec, &lib, sharing)
                .unwrap()
                .report()
                .area
                .total_mm2
        };
        assert!(area(SharingStrategy::SharedPerInput) < area(SharingStrategy::None));
    }

    #[test]
    fn sharing_preserves_functionality() {
        let spec = simple_spec();
        let lib = CellLibrary::egt();
        let unshared = BespokeMlpCircuit::synthesize(&spec, &lib).unwrap();
        let shared =
            BespokeMlpCircuit::synthesize_with(&spec, &lib, SharingStrategy::SharedPerInput)
                .unwrap();
        for inputs in [[0_u64, 5, 9], [12, 3, 1], [15, 0, 8]] {
            assert_eq!(unshared.evaluate(&inputs), shared.evaluate(&inputs));
        }
    }

    #[test]
    fn lower_weight_precision_gives_smaller_circuits() {
        // The quantization mechanism: the same real-valued weights quantized
        // to fewer bits produce smaller integer constants with fewer non-zero
        // digits, hence fewer gates.
        let lib = CellLibrary::egt();
        let real_weights = [0.63_f64, -0.41, 0.27, 0.88, -0.19, 0.55];
        let build = |bits: u8| {
            let scale = (1_i64 << (bits - 1)) as f64;
            let ints: Vec<i64> = real_weights
                .iter()
                .map(|w| {
                    ((w * scale).round() as i64).clamp(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
                })
                .collect();
            let layer = LayerSpec::new(
                vec![ints[0..3].to_vec(), ints[3..6].to_vec()],
                bits,
                HwActivation::ReLU,
            )
            .unwrap();
            let spec = CircuitSpec::new(4, vec![layer]).unwrap();
            BespokeMlpCircuit::synthesize(&spec, &lib)
                .unwrap()
                .report()
                .area
                .total_mm2
        };
        let a3 = build(3);
        let a5 = build(5);
        let a7 = build(7);
        assert!(a3 < a5, "3-bit {a3} vs 5-bit {a5}");
        assert!(a5 < a7, "5-bit {a5} vs 7-bit {a7}");
    }

    #[test]
    fn pruned_spec_is_smaller() {
        let lib = CellLibrary::egt();
        let dense = LayerSpec::new(
            vec![vec![3, 5, -7, 6], vec![2, -3, 4, -5]],
            4,
            HwActivation::ReLU,
        )
        .unwrap();
        let pruned = LayerSpec::new(
            vec![vec![3, 0, -7, 0], vec![0, -3, 0, -5]],
            4,
            HwActivation::ReLU,
        )
        .unwrap();
        let dense_area =
            BespokeMlpCircuit::synthesize(&CircuitSpec::new(4, vec![dense]).unwrap(), &lib)
                .unwrap()
                .report()
                .area
                .total_mm2;
        let pruned_area =
            BespokeMlpCircuit::synthesize(&CircuitSpec::new(4, vec![pruned]).unwrap(), &lib)
                .unwrap()
                .report()
                .area
                .total_mm2;
        assert!(pruned_area < dense_area);
    }

    #[test]
    fn extreme_biases_are_accepted_or_rejected_by_every_consumer() {
        use crate::cost::estimate_circuit;
        use crate::intinfer::IntInferEngine;
        let library = CellLibrary::egt();
        // Inputs reach 15, so the first neuron's sum reaches bias ± 45.
        for (bias, accepted) in [
            (1_i64 << 62, true),
            (-(1 << 62), true),
            (i64::MAX, false),
            (i64::MIN, false),
        ] {
            let layer = LayerSpec::with_biases(
                vec![vec![1, 2], vec![3, 4]],
                vec![bias, 0],
                4,
                HwActivation::Argmax,
            )
            .unwrap();
            // Built by hand: `CircuitSpec::new` applies the same rule.
            let spec = CircuitSpec {
                input_bits: 4,
                layers: vec![layer],
            };
            assert_eq!(spec.validate().is_ok(), accepted, "bias {bias}");
            for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
                let fast = estimate_circuit(&spec, &library, sharing);
                let full = BespokeMlpCircuit::synthesize_with(&spec, &library, sharing);
                let engine = IntInferEngine::from_spec_with(&spec, sharing);
                assert_eq!(fast.is_ok(), accepted, "fast path, bias {bias}");
                assert_eq!(full.is_ok(), accepted, "synthesis, bias {bias}");
                assert_eq!(engine.is_ok(), accepted, "integer engine, bias {bias}");
                if let (Ok(fast), Ok(full), Ok(engine)) = (fast, full, engine) {
                    assert_eq!(fast, full.report());
                    for row in [[0_u16, 0], [15, 15], [7, 3]] {
                        let inputs = row.map(u64::from);
                        assert_eq!(full.evaluate(&inputs), engine.outputs(&row));
                        assert_eq!(full.classify(&inputs), engine.classify_row(&row));
                    }
                }
            }
        }
    }

    #[test]
    fn report_contains_all_sections() {
        let circuit = BespokeMlpCircuit::synthesize(&simple_spec(), &CellLibrary::egt()).unwrap();
        let report = circuit.report();
        assert!(report.area.total_mm2 > 0.0);
        assert!(report.power.total_uw > 0.0);
        assert!(report.timing.critical_path_us > 0.0);
        let text = report.to_string();
        assert!(text.contains("bespoke_mlp"));
        assert!(text.contains("EGT"));
    }
}
