//! Analytic fast-path cost model: area / power / timing of a bespoke MLP
//! circuit **without materializing a netlist**.
//!
//! [`estimate_circuit`] runs the same circuit builder as
//! [`BespokeMlpCircuit::synthesize_with`](crate::BespokeMlpCircuit::synthesize_with)
//! (CSD shift-add multipliers, balanced adder trees, ReLU masks, the argmax
//! comparator tree and per-input multiplier sharing), but
//! hands its gates to a tally instead of a [`Netlist`](crate::Netlist). The
//! tally's words carry one signal arrival time per bit. For each gate it
//! counts the cell and applies [`Netlist::report`](crate::Netlist::report)'s
//! rule: the output arrives one cell delay after the latest input, and
//! constants and primary inputs arrive at 0. Both sinks see the same gates
//! in the same order, so the resulting [`SynthesisReport`] is **bit-for-bit
//! identical** to [`BespokeMlpCircuit::report`](crate::BespokeMlpCircuit::report)
//! after full synthesis, without allocating a gate or a net.
//!
//! This is what makes hardware-in-the-loop search loops cheap: the NSGA-II /
//! sweep layers evaluate thousands of candidates through this fast path and
//! reserve full synthesis for Pareto-front finalists that need a verifiable
//! netlist (functional simulation, Verilog export).
//!
//! # Example
//!
//! ```
//! use pmlp_hw::{CircuitSpec, LayerSpec, HwActivation, CellLibrary, BespokeMlpCircuit};
//! use pmlp_hw::cost::estimate_circuit;
//! use pmlp_hw::SharingStrategy;
//!
//! # fn main() -> Result<(), pmlp_hw::HwError> {
//! let spec = CircuitSpec::new(
//!     4,
//!     vec![LayerSpec::new(vec![vec![3, -2], vec![0, 5]], 4, HwActivation::Argmax)?],
//! )?;
//! let library = CellLibrary::egt();
//! let fast = estimate_circuit(&spec, &library, SharingStrategy::None)?;
//! let full = BespokeMlpCircuit::synthesize(&spec, &library)?;
//! assert_eq!(fast, full.report());
//! # Ok(())
//! # }
//! ```

use crate::analysis::{cell_delays, CellCounts};
use crate::cell::{CellKind, CellLibrary, KIND_COUNT};
use crate::circuit::{build_mlp, CircuitSpec, SharingStrategy, DESIGN_NAME};
use crate::error::HwError;
use crate::netlist::GateSink;
use crate::report::SynthesisReport;

/// Counters of a constant-multiplier cost memo.
///
/// The fast path keeps no memo, so both counters are always zero. The type
/// and [`multiplier_cache_stats`] remain only because `perfbench` still
/// reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostCacheStats {
    /// Multiplier cost requests answered from the memo: always 0.
    pub hits: u64,
    /// Multiplier cost requests that missed the memo: always 0.
    pub misses: u64,
}

/// Returns the multiplier memo counters: always zero, as there is no memo
/// (see [`CostCacheStats`]).
pub fn multiplier_cache_stats() -> CostCacheStats {
    CostCacheStats::default()
}

/// The fast path's [`GateSink`]: counts cells per kind and tracks the latest
/// arrival time, with each pin carrying its signal's arrival time (µs).
struct Tally {
    delays: [f64; KIND_COUNT],
    counts: CellCounts,
    critical: f64,
}

impl GateSink for Tally {
    type Pin = f64;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 0.0;

    fn input(&mut self) -> f64 {
        0.0
    }

    #[inline]
    fn gate<const N: usize>(&mut self, kind: CellKind, inputs: &[f64]) -> [f64; N] {
        self.counts.bump(kind);
        let ready = inputs.iter().copied().fold(0.0_f64, f64::max);
        let t = ready + self.delays[kind as usize];
        self.critical = self.critical.max(t);
        [t; N]
    }
}

/// Estimates area, power and timing of the bespoke circuit for `spec` without
/// building its netlist.
///
/// The result equals, float bit patterns and names included, the
/// [`SynthesisReport`] of the circuit
/// [`BespokeMlpCircuit::synthesize_with`](crate::BespokeMlpCircuit::synthesize_with)
/// builds from the same arguments; the equivalence tests in this module and
/// in `pmlp-core` assert exact equality.
///
/// # Errors
///
/// Returns the same validation errors full synthesis would:
/// [`HwError::InvalidSpec`] / [`HwError::InvalidBitWidth`] for inconsistent
/// specs and an argmax activation on a non-output layer.
pub fn estimate_circuit(
    spec: &CircuitSpec,
    library: &CellLibrary,
    sharing: SharingStrategy,
) -> Result<SynthesisReport, HwError> {
    let mut tally = Tally {
        delays: cell_delays(library),
        counts: CellCounts::default(),
        critical: 0.0,
    };
    build_mlp(&mut tally, spec, sharing)?;
    Ok(tally.counts.report(DESIGN_NAME, library, tally.critical))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{BespokeMlpCircuit, HwActivation, LayerSpec};

    /// Asserts the fast path equals full synthesis under both sharing
    /// strategies.
    fn assert_equivalent(spec: &CircuitSpec) {
        let library = CellLibrary::egt();
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            let fast = estimate_circuit(spec, &library, sharing).expect("fast path");
            let full = BespokeMlpCircuit::synthesize_with(spec, &library, sharing).expect("full");
            assert_eq!(fast, full.report(), "{sharing:?}");
        }
    }

    fn simple_spec() -> CircuitSpec {
        CircuitSpec::new(
            4,
            vec![
                LayerSpec::with_biases(
                    vec![vec![2, -1, 3], vec![-2, 4, 1]],
                    vec![3, -5],
                    4,
                    HwActivation::ReLU,
                )
                .unwrap(),
                LayerSpec::new(vec![vec![1, -2], vec![-3, 2]], 4, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_full_synthesis_on_the_simple_spec() {
        assert_equivalent(&simple_spec());
    }

    #[test]
    fn matches_full_synthesis_with_clustered_weights() {
        // Fully clustered weights exercise the product-sharing path.
        let layer = LayerSpec::new(vec![vec![5, -3, 7]; 6], 4, HwActivation::Identity).unwrap();
        assert_equivalent(&CircuitSpec::new(4, vec![layer]).unwrap());
    }

    #[test]
    fn matches_full_synthesis_on_degenerate_specs() {
        // All-zero weights: no gates at all.
        let zero = CircuitSpec::new(
            3,
            vec![LayerSpec::new(vec![vec![0, 0]], 4, HwActivation::Identity).unwrap()],
        )
        .unwrap();
        assert_equivalent(&zero);
        // Single argmax output (no comparator tree is built for n = 1).
        let single = CircuitSpec::new(
            3,
            vec![LayerSpec::new(vec![vec![3, -1]], 4, HwActivation::Argmax).unwrap()],
        )
        .unwrap();
        assert_equivalent(&single);
        // Power-of-two and negated power-of-two weights (pure wiring / negate).
        let pow2 = CircuitSpec::new(
            4,
            vec![LayerSpec::new(vec![vec![4, -8, 1, -1]], 5, HwActivation::ReLU).unwrap()],
        )
        .unwrap();
        assert_equivalent(&pow2);
    }

    #[test]
    fn rejects_the_same_specs_as_full_synthesis() {
        let l1 = LayerSpec::new(vec![vec![1, 2], vec![2, 1]], 4, HwActivation::Argmax).unwrap();
        let l2 = LayerSpec::new(vec![vec![1, 1]], 4, HwActivation::Identity).unwrap();
        let spec = CircuitSpec::new(4, vec![l1, l2]).unwrap();
        let library = CellLibrary::egt();
        assert!(estimate_circuit(&spec, &library, SharingStrategy::None).is_err());
        assert!(BespokeMlpCircuit::synthesize(&spec, &library).is_err());
    }

    #[test]
    fn estimate_is_much_lighter_than_synthesis_for_big_specs() {
        // Not a timing assertion (CI noise), just a sanity check that the
        // fast path scales to a realistically-sized spec and agrees.
        let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
        let hidden: Vec<Vec<i64>> = (0..20)
            .map(|n| (0..11).map(|i| weight(n, i)).collect())
            .collect();
        let output: Vec<Vec<i64>> = (0..5)
            .map(|n| (0..20).map(|i| weight(n + 100, i)).collect())
            .collect();
        let spec = CircuitSpec::new(
            4,
            vec![
                LayerSpec::new(hidden, 5, HwActivation::ReLU).unwrap(),
                LayerSpec::new(output, 5, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap();
        assert_equivalent(&spec);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::circuit::{BespokeMlpCircuit, HwActivation, LayerSpec};
    use proptest::prelude::*;

    /// Random layer stacks covering bit-widths 2–8, biases, ReLU/identity
    /// hidden activations and an argmax output.
    fn arbitrary_spec() -> impl Strategy<Value = CircuitSpec> {
        (
            (2_u8..=8, 2_usize..=4),    // (weight bits, inputs)
            (1_usize..=4, 2_usize..=3), // (hidden neurons, outputs)
            0_u64..u64::MAX,            // weight seed
            0_u8..2,                    // hidden relu?
        )
            .prop_map(|((bits, inputs), (hidden, outputs), seed, relu)| {
                let relu = relu == 1;
                let lo = -(1_i64 << (bits - 1));
                let hi = (1_i64 << (bits - 1)) - 1;
                let mut state = seed | 1;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let span = (hi - lo + 1) as u64;
                    lo + ((state >> 33) % span) as i64
                };
                let h: Vec<Vec<i64>> = (0..hidden)
                    .map(|_| (0..inputs).map(|_| next()).collect())
                    .collect();
                let hb: Vec<i64> = (0..hidden).map(|_| next()).collect();
                let o: Vec<Vec<i64>> = (0..outputs)
                    .map(|_| (0..hidden).map(|_| next()).collect())
                    .collect();
                let activation = if relu {
                    HwActivation::ReLU
                } else {
                    HwActivation::Identity
                };
                CircuitSpec::new(
                    4,
                    vec![
                        LayerSpec::with_biases(h, hb, bits, activation).unwrap(),
                        LayerSpec::new(o, bits, HwActivation::Argmax).unwrap(),
                    ],
                )
                .unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn fast_path_matches_full_synthesis(spec in arbitrary_spec()) {
            let library = CellLibrary::egt();
            for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
                let fast = estimate_circuit(&spec, &library, sharing).unwrap();
                let full = BespokeMlpCircuit::synthesize_with(&spec, &library, sharing).unwrap();
                prop_assert_eq!(fast, full.report());
            }
        }
    }
}
