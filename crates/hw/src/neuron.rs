//! Bespoke neuron synthesis: hard-wired constant multipliers feeding an adder
//! tree, an optional bias term and an optional ReLU.

use crate::adder::{self, Word};
use crate::constmul::{constant_multiplier, RecodingStrategy};
use crate::error::HwError;
use crate::netlist::{GateSink, NetId, Netlist};
use std::collections::BTreeMap;

/// Minimum signed bit-width needed to represent `value`.
pub fn min_signed_width(value: i64) -> usize {
    if value == 0 {
        1
    } else if value > 0 {
        64 - value.leading_zeros() as usize + 1
    } else {
        64 - (-(value + 1)).leading_zeros() as usize + 1
    }
}

/// Cache of already-built products, keyed by `(input index, weight value)`.
///
/// When weight clustering forces several neurons to use the same weight value
/// for the same input, the corresponding product is computed once and shared —
/// the hardware mechanism that makes clustering save area in bespoke circuits.
pub type ProductCache<P = NetId> = BTreeMap<(usize, i64), Word<P>>;

/// Parameters of a single bespoke neuron.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeuronSpec {
    /// One hard-wired integer weight per input (zero = pruned connection).
    pub weights: Vec<i64>,
    /// Integer bias, expressed in the same fixed-point scale as the products.
    pub bias: i64,
    /// Apply a ReLU to the accumulated sum.
    pub relu: bool,
}

impl NeuronSpec {
    /// Creates a neuron spec without bias.
    pub fn new(weights: Vec<i64>, relu: bool) -> Self {
        NeuronSpec {
            weights,
            bias: 0,
            relu,
        }
    }

    /// Number of non-zero weights (i.e. multipliers before sharing).
    pub fn active_inputs(&self) -> usize {
        self.weights.iter().filter(|&&w| w != 0).count()
    }
}

/// Hands one bespoke neuron's gates to `sink`: a constant multiplier per
/// non-zero weight, an adder tree over the products and the bias, and a
/// ReLU when `relu`.
///
/// `inputs` holds one word per input of the layer and `weights` one weight
/// per input. When `cache` is `Some`, products are looked up / inserted by
/// `(input index, weight)` so identical products are shared between neurons
/// of the same layer.
///
/// Returns the output word of the neuron (post-activation).
///
/// # Errors
///
/// Returns [`HwError::InvalidSpec`] when the weight count does not match the
/// input count.
pub fn build_neuron<S: GateSink>(
    sink: &mut S,
    inputs: &[Word<S::Pin>],
    weights: &[i64],
    bias: i64,
    relu: bool,
    mut cache: Option<&mut ProductCache<S::Pin>>,
    recoding: RecodingStrategy,
) -> Result<Word<S::Pin>, HwError> {
    if weights.len() != inputs.len() {
        return Err(HwError::InvalidSpec {
            context: format!(
                "neuron has {} weights but the layer provides {} inputs",
                weights.len(),
                inputs.len()
            ),
        });
    }

    let mut operands: Vec<Word<S::Pin>> = Vec::new();
    for (i, (&w, input)) in weights.iter().zip(inputs).enumerate() {
        if w == 0 {
            continue;
        }
        let product = match cache.as_deref_mut() {
            Some(cache) => cache
                .entry((i, w))
                .or_insert_with(|| constant_multiplier(sink, input, w, recoding))
                .clone(),
            None => constant_multiplier(sink, input, w, recoding),
        };
        operands.push(product);
    }

    if bias != 0 {
        operands.push(adder::constant_word::<S>(bias, min_signed_width(bias)));
    }

    let sum = adder::adder_tree(sink, &operands);
    Ok(if relu { adder::relu(sink, &sum) } else { sum })
}

/// A standalone synthesized neuron, mainly useful for unit analysis and for
/// the documentation examples; whole networks are built by
/// [`crate::circuit::BespokeMlpCircuit`].
#[derive(Debug, Clone, PartialEq)]
pub struct NeuronCircuit {
    netlist: Netlist,
    output: Word,
    input_bits: usize,
}

impl NeuronCircuit {
    /// Synthesizes a standalone neuron with its own primary inputs of
    /// `input_bits` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidSpec`] when the spec is empty or
    /// [`HwError::InvalidBitWidth`] when `input_bits` is zero.
    pub fn synthesize(spec: &NeuronSpec, input_bits: usize) -> Result<Self, HwError> {
        if input_bits == 0 {
            return Err(HwError::InvalidBitWidth {
                context: "input_bits must be > 0".into(),
            });
        }
        if spec.weights.is_empty() {
            return Err(HwError::InvalidSpec {
                context: "neuron has no inputs".into(),
            });
        }
        let mut netlist = Netlist::new("neuron");
        let inputs: Vec<Word> = (0..spec.weights.len())
            .map(|_| adder::input_word(&mut netlist, input_bits))
            .collect();
        let output = build_neuron(
            &mut netlist,
            &inputs,
            &spec.weights,
            spec.bias,
            spec.relu,
            None,
            RecodingStrategy::Csd,
        )?;
        for &net in &output {
            netlist.mark_output(net);
        }
        Ok(NeuronCircuit {
            netlist,
            output,
            input_bits,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The output word of the neuron.
    pub fn output(&self) -> &[usize] {
        &self.output
    }

    /// Evaluates the neuron on integer inputs (two's complement of
    /// `input_bits` bits each). Intended for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of neuron inputs.
    pub fn evaluate(&self, inputs: &[i64]) -> i64 {
        let mut bits = Vec::new();
        for &v in inputs {
            bits.extend(adder::encode_value(v, self.input_bits));
        }
        let values = self.netlist.simulate(&bits);
        adder::word_value(&values, &self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;

    #[test]
    fn min_signed_width_known_values() {
        assert_eq!(min_signed_width(0), 1);
        assert_eq!(min_signed_width(1), 2);
        assert_eq!(min_signed_width(-1), 1);
        assert_eq!(min_signed_width(3), 3);
        assert_eq!(min_signed_width(-4), 3);
        assert_eq!(min_signed_width(7), 4);
        assert_eq!(min_signed_width(-8), 4);
    }

    #[test]
    fn neuron_computes_weighted_sum() {
        let spec = NeuronSpec {
            weights: vec![3, -2, 0, 5],
            bias: 0,
            relu: false,
        };
        let neuron = NeuronCircuit::synthesize(&spec, 5).unwrap();
        for inputs in [
            [1_i64, 2, 3, 4],
            [0, 0, 0, 0],
            [-5, 7, 1, -3],
            [15, -16, 8, 2],
        ] {
            let expected: i64 = spec
                .weights
                .iter()
                .zip(inputs.iter())
                .map(|(w, x)| w * x)
                .sum();
            assert_eq!(neuron.evaluate(&inputs), expected, "inputs {inputs:?}");
        }
    }

    #[test]
    fn neuron_with_bias_and_relu() {
        let spec = NeuronSpec {
            weights: vec![1, -1],
            bias: -4,
            relu: true,
        };
        let neuron = NeuronCircuit::synthesize(&spec, 4).unwrap();
        // 2 - 7 - 4 = -9 -> relu -> 0
        assert_eq!(neuron.evaluate(&[2, 7]), 0);
        // 7 - 1 - 4 = 2 -> relu -> 2
        assert_eq!(neuron.evaluate(&[7, 1]), 2);
    }

    #[test]
    fn pruned_weights_reduce_area() {
        let lib = CellLibrary::egt();
        let dense = NeuronSpec {
            weights: vec![3, 5, -7, 6],
            bias: 0,
            relu: false,
        };
        let pruned = NeuronSpec {
            weights: vec![3, 0, 0, 6],
            bias: 0,
            relu: false,
        };
        let dense_area = NeuronCircuit::synthesize(&dense, 4)
            .unwrap()
            .netlist()
            .area(&lib)
            .total_mm2;
        let pruned_area = NeuronCircuit::synthesize(&pruned, 4)
            .unwrap()
            .netlist()
            .area(&lib)
            .total_mm2;
        assert!(pruned_area < dense_area);
        assert_eq!(pruned.active_inputs(), 2);
    }

    #[test]
    fn all_zero_neuron_has_no_gates() {
        let spec = NeuronSpec {
            weights: vec![0, 0, 0],
            bias: 0,
            relu: false,
        };
        let neuron = NeuronCircuit::synthesize(&spec, 4).unwrap();
        assert_eq!(neuron.netlist().gate_count(), 0);
        assert_eq!(neuron.evaluate(&[5, -3, 7]), 0);
    }

    #[test]
    fn shared_products_are_built_once() {
        // Two neurons using the same weight on the same input share the
        // multiplier when a cache is provided.
        let mut netlist = Netlist::new("shared");
        let inputs: Vec<Word> = (0..2).map(|_| adder::input_word(&mut netlist, 4)).collect();
        let mut cache = ProductCache::new();
        let mut build = |netlist: &mut Netlist, weights: &[i64]| {
            build_neuron(
                netlist,
                &inputs,
                weights,
                0,
                false,
                Some(&mut cache),
                RecodingStrategy::Csd,
            )
            .unwrap()
        };
        let _ = build(&mut netlist, &[5, 3]);
        let gates_after_a = netlist.gate_count();
        let _ = build(&mut netlist, &[5, -3]);
        let gates_after_b = netlist.gate_count();
        // Neuron B reuses the (input 0, weight 5) product, so it must add
        // fewer gates than neuron A did.
        assert!(gates_after_b - gates_after_a < gates_after_a);
        assert_eq!(cache.len(), 3); // (0,5), (1,3), (1,-3)
    }

    #[test]
    fn weight_count_mismatch_is_rejected() {
        let mut netlist = Netlist::new("bad");
        let inputs: Vec<Word> = (0..3).map(|_| adder::input_word(&mut netlist, 4)).collect();
        let built = build_neuron(
            &mut netlist,
            &inputs,
            &[1, 2],
            0,
            false,
            None,
            RecodingStrategy::Csd,
        );
        assert!(built.is_err());
    }

    #[test]
    fn synthesize_rejects_degenerate_configs() {
        assert!(NeuronCircuit::synthesize(&NeuronSpec::new(vec![], false), 4).is_err());
        assert!(NeuronCircuit::synthesize(&NeuronSpec::new(vec![1], false), 0).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn neuron_matches_dot_product(
            weights in proptest::collection::vec(-15_i64..15, 1..5),
            inputs in proptest::collection::vec(-15_i64..15, 5)
        ) {
            let n = weights.len();
            let spec = NeuronSpec { weights: weights.clone(), bias: 0, relu: false };
            let neuron = NeuronCircuit::synthesize(&spec, 5).unwrap();
            let xs = &inputs[..n];
            let expected: i64 = weights.iter().zip(xs.iter()).map(|(w, x)| w * x).sum();
            prop_assert_eq!(neuron.evaluate(xs), expected);
        }
    }
}
