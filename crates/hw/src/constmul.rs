//! Bespoke constant-coefficient multiplier synthesis.
//!
//! In a bespoke printed MLP every weight is a hard-wired constant, so a
//! "multiplier" is really a small shift-add network whose size depends on the
//! constant's digit pattern:
//!
//! * constant `0` — no hardware at all (the connection is pruned),
//! * `±2^k` — pure wiring (a shift, plus a negation for the minus sign),
//! * anything else — one shift per non-zero CSD digit combined by an adder
//!   tree, with subtractors for the negative digits.
//!
//! This is exactly the mechanism that makes quantization (fewer non-zero
//! digits), pruning (more zero constants) and weight clustering (shared
//! products) pay off in area.

use crate::adder::{self, Word};
use crate::csd::CsdDigits;
use crate::netlist::GateSink;

/// Strategy for recoding the constant before building the shift-add network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecodingStrategy {
    /// Canonical signed digit (fewest non-zero digits) — the default.
    #[default]
    Csd,
    /// Plain two's-complement binary digits (for the CSD-vs-binary ablation).
    Binary,
}

/// Builds a constant multiplier computing `constant * input` and returns the
/// product word (signed, wide enough to hold the full product).
///
/// The `input` word is interpreted as signed two's complement. A zero constant
/// returns the 1-bit constant-zero word without adding any gates.
pub fn constant_multiplier<S: GateSink>(
    sink: &mut S,
    input: &[S::Pin],
    constant: i64,
    strategy: RecodingStrategy,
) -> Word<S::Pin> {
    assert!(
        !input.is_empty(),
        "constant multiplier needs a non-empty input word"
    );
    if constant == 0 {
        return adder::constant_word::<S>(0, 1);
    }

    let terms: Vec<(u32, i8)> = match strategy {
        RecodingStrategy::Csd => CsdDigits::from_value(constant).terms(),
        RecodingStrategy::Binary => {
            let negative = constant < 0;
            let magnitude = constant.unsigned_abs();
            (0..64)
                .filter(|&i| (magnitude >> i) & 1 == 1)
                .map(|i| (i as u32, if negative { -1_i8 } else { 1_i8 }))
                .collect()
        }
    };

    // Split into positive and negative shift terms.
    let positive: Vec<Word<S::Pin>> = terms
        .iter()
        .filter(|&&(_, sign)| sign > 0)
        .map(|&(shift, _)| adder::shift_left::<S>(input, shift as usize))
        .collect();
    let negative: Vec<Word<S::Pin>> = terms
        .iter()
        .filter(|&&(_, sign)| sign < 0)
        .map(|&(shift, _)| adder::shift_left::<S>(input, shift as usize))
        .collect();

    let pos_sum = adder::adder_tree(sink, &positive);
    let neg_sum = adder::adder_tree(sink, &negative);

    match (positive.is_empty(), negative.is_empty()) {
        (true, true) => adder::constant_word::<S>(0, 1),
        (false, true) => pos_sum,
        (true, false) => adder::negate(sink, &neg_sum),
        (false, false) => adder::sub(sink, &pos_sum, &neg_sum),
    }
}

/// Cost summary of a constant multiplier without building the netlist —
/// useful for fast area estimation inside search loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplierCost {
    /// Number of add/sub stages.
    pub adders: usize,
    /// Number of non-zero digits of the recoded constant.
    pub nonzero_digits: usize,
    /// `true` when the multiplier is pure wiring (zero or power-of-two
    /// constant).
    pub is_free: bool,
}

/// Estimates the cost of multiplying by `constant` without building gates.
pub fn multiplier_cost(constant: i64, strategy: RecodingStrategy) -> MultiplierCost {
    let nonzero = match strategy {
        RecodingStrategy::Csd => CsdDigits::from_value(constant).nonzero_count(),
        RecodingStrategy::Binary => CsdDigits::binary_nonzero_count(constant),
    };
    MultiplierCost {
        adders: nonzero.saturating_sub(1),
        nonzero_digits: nonzero,
        is_free: nonzero <= 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{encode_value, input_word, word_value};
    use crate::cell::CellLibrary;
    use crate::netlist::Netlist;

    fn check_multiplier(constant: i64, width: usize, strategy: RecodingStrategy) {
        let mut netlist = Netlist::new("mul");
        let x = input_word(&mut netlist, width);
        let product = constant_multiplier(&mut netlist, &x, constant, strategy);
        let lo = -(1_i64 << (width - 1));
        let hi = (1_i64 << (width - 1)) - 1;
        for v in lo..=hi {
            let values = netlist.simulate(&encode_value(v, width));
            assert_eq!(
                word_value(&values, &product),
                constant * v,
                "constant {constant} * {v} (width {width}, {strategy:?})"
            );
        }
    }

    #[test]
    fn zero_constant_is_free() {
        let mut netlist = Netlist::new("zero");
        let x = input_word(&mut netlist, 4);
        let before = netlist.gate_count();
        let product = constant_multiplier(&mut netlist, &x, 0, RecodingStrategy::Csd);
        assert_eq!(netlist.gate_count(), before);
        let values = netlist.simulate(&encode_value(5, 4));
        assert_eq!(word_value(&values, &product), 0);
    }

    #[test]
    fn power_of_two_constants_add_no_adders() {
        for c in [1_i64, 2, 4, 8] {
            let mut netlist = Netlist::new("pow2");
            let x = input_word(&mut netlist, 4);
            let _ = constant_multiplier(&mut netlist, &x, c, RecodingStrategy::Csd);
            assert_eq!(
                netlist.gate_count(),
                0,
                "constant {c} should be pure wiring"
            );
        }
    }

    #[test]
    fn small_constants_are_functionally_correct_csd() {
        for c in -16_i64..=16 {
            check_multiplier(c, 5, RecodingStrategy::Csd);
        }
    }

    #[test]
    fn small_constants_are_functionally_correct_binary() {
        for c in -16_i64..=16 {
            check_multiplier(c, 5, RecodingStrategy::Binary);
        }
    }

    #[test]
    fn larger_constants_are_functionally_correct() {
        for c in [23_i64, -37, 55, 127, -128, 100] {
            check_multiplier(c, 6, RecodingStrategy::Csd);
        }
    }

    #[test]
    fn csd_never_needs_more_adder_stages_than_binary() {
        for c in 1_i64..=127 {
            let csd = multiplier_cost(c, RecodingStrategy::Csd);
            let bin = multiplier_cost(c, RecodingStrategy::Binary);
            assert!(
                csd.nonzero_digits <= bin.nonzero_digits,
                "CSD needs more digits than binary for constant {c}"
            );
        }
    }

    #[test]
    fn csd_multiplier_is_smaller_when_it_saves_digits() {
        // 15 = 16 - 1 in CSD (2 digits) but 1111b in binary (4 digits).
        let lib = CellLibrary::egt();
        let mut csd_net = Netlist::new("csd");
        let x = input_word(&mut csd_net, 8);
        let _ = constant_multiplier(&mut csd_net, &x, 15, RecodingStrategy::Csd);
        let mut bin_net = Netlist::new("bin");
        let x = input_word(&mut bin_net, 8);
        let _ = constant_multiplier(&mut bin_net, &x, 15, RecodingStrategy::Binary);
        assert!(csd_net.area(&lib).total_mm2 < bin_net.area(&lib).total_mm2);
    }

    #[test]
    fn area_grows_with_nonzero_digit_count() {
        let lib = CellLibrary::egt();
        // 0b101 = 5 has 2 CSD digits, 0b10101 = 21 has 3, 0b1010101 = 85 has 4.
        let mut areas = Vec::new();
        for c in [5_i64, 21, 85] {
            let mut netlist = Netlist::new("grow");
            let x = input_word(&mut netlist, 6);
            let _ = constant_multiplier(&mut netlist, &x, c, RecodingStrategy::Csd);
            areas.push(netlist.area(&lib).total_mm2);
        }
        assert!(areas[0] < areas[1]);
        assert!(areas[1] < areas[2]);
    }

    #[test]
    fn low_precision_constants_are_cheaper_on_average() {
        // The mechanism behind the paper's quantization gains: constants drawn
        // from a 3-bit grid have fewer non-zero digits than from a 7-bit grid.
        let avg_adders = |bits: u32| {
            let max = (1_i64 << (bits - 1)) - 1;
            let mut total = 0usize;
            let mut count = 0usize;
            for c in -(max + 1)..=max {
                total += multiplier_cost(c, RecodingStrategy::Csd).adders;
                count += 1;
            }
            total as f64 / count as f64
        };
        assert!(avg_adders(3) < avg_adders(5));
        assert!(avg_adders(5) < avg_adders(7));
    }

    #[test]
    fn multiplier_cost_matches_structure() {
        let c = multiplier_cost(7, RecodingStrategy::Csd); // 8 - 1
        assert_eq!(c.nonzero_digits, 2);
        assert_eq!(c.adders, 1);
        assert!(!c.is_free);
        let c = multiplier_cost(8, RecodingStrategy::Csd);
        assert!(c.is_free);
        let c = multiplier_cost(0, RecodingStrategy::Csd);
        assert!(c.is_free);
        assert_eq!(c.adders, 0);
        // Binary recoding of 7 has 3 ones.
        let c = multiplier_cost(7, RecodingStrategy::Binary);
        assert_eq!(c.nonzero_digits, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::adder::{encode_value, input_word, word_value};
    use crate::netlist::Netlist;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn multiplier_matches_integer_product(c in -127_i64..127, v in -32_i64..31) {
            let mut netlist = Netlist::new("p");
            let x = input_word(&mut netlist, 6);
            let product = constant_multiplier(&mut netlist, &x, c, RecodingStrategy::Csd);
            let values = netlist.simulate(&encode_value(v, 6));
            prop_assert_eq!(word_value(&values, &product), c * v);
        }
    }
}
