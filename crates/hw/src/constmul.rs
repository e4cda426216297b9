//! Bespoke constant-coefficient multiplier synthesis.
//!
//! In a bespoke printed MLP every weight is a hard-wired constant, so a
//! "multiplier" is really a small shift-add network whose size depends on the
//! constant's digit pattern:
//!
//! * constant `0` — no hardware at all (the connection is pruned),
//! * `±2^k` — pure wiring (a shift, plus a negation for the minus sign),
//! * anything else — one shift per non-zero canonical-signed-digit (CSD)
//!   digit combined by an adder tree, with subtractors for the negative
//!   digits.
//!
//! This is exactly the mechanism that makes quantization (fewer non-zero
//! digits), pruning (more zero constants) and weight clustering (shared
//! products) pay off in area.
//!
//! The builder walks the CSD terms straight from [`CsdDigits`]' digit masks
//! and hands the shifted input words to [`adder::adder_tree`] by value, so a
//! multiplier allocates one word per term, one per adder and one vector per
//! digit sign.

use crate::adder::{self, Word};
use crate::csd::CsdDigits;
use crate::netlist::GateSink;

/// Builds a constant multiplier computing `constant * input` from the CSD
/// recoding of `constant` and returns the product word (signed, wide enough
/// to hold the full product).
///
/// The `input` word is interpreted as signed two's complement. A zero constant
/// returns the 1-bit constant-zero word without adding any gates.
pub fn constant_multiplier<S: GateSink>(
    sink: &mut S,
    input: &[S::Pin],
    constant: i64,
) -> Word<S::Pin> {
    assert!(
        !input.is_empty(),
        "constant multiplier needs a non-empty input word"
    );
    if constant == 0 {
        return adder::constant_word::<S>(0, 1);
    }

    // One shifted copy of `input` per CSD digit of each sign; the copies go
    // to the adder trees by value.
    let csd = CsdDigits::from_value(constant);
    let shifted = |sign: i8| -> Vec<Word<S::Pin>> {
        csd.terms()
            .filter(|&(_, s)| s == sign)
            .map(|(shift, _)| adder::shift_left::<S>(input, shift as usize))
            .collect()
    };
    let (positive, negative) = (shifted(1), shifted(-1));

    // A nonzero constant has at least one digit.
    match (positive.is_empty(), negative.is_empty()) {
        (false, true) => adder::adder_tree(sink, positive),
        (true, false) => {
            let neg_sum = adder::adder_tree(sink, negative);
            adder::negate(sink, &neg_sum)
        }
        _ => {
            let pos_sum = adder::adder_tree(sink, positive);
            let neg_sum = adder::adder_tree(sink, negative);
            adder::sub(sink, &pos_sum, &neg_sum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::{encode_value, input_word, word_value};
    use crate::cell::CellLibrary;
    use crate::netlist::Netlist;

    fn check_multiplier(constant: i64, width: usize) {
        let mut netlist = Netlist::new("mul");
        let x = input_word(&mut netlist, width);
        let product = constant_multiplier(&mut netlist, &x, constant);
        let lo = -(1_i64 << (width - 1));
        let hi = (1_i64 << (width - 1)) - 1;
        for v in lo..=hi {
            let values = netlist.simulate(&encode_value(v, width));
            assert_eq!(
                word_value(&values, &product),
                constant * v,
                "constant {constant} * {v} (width {width})"
            );
        }
    }

    #[test]
    fn zero_constant_is_free() {
        let mut netlist = Netlist::new("zero");
        let x = input_word(&mut netlist, 4);
        let before = netlist.gate_count();
        let product = constant_multiplier(&mut netlist, &x, 0);
        assert_eq!(netlist.gate_count(), before);
        let values = netlist.simulate(&encode_value(5, 4));
        assert_eq!(word_value(&values, &product), 0);
    }

    #[test]
    fn power_of_two_constants_add_no_adders() {
        for c in [1_i64, 2, 4, 8] {
            let mut netlist = Netlist::new("pow2");
            let x = input_word(&mut netlist, 4);
            let _ = constant_multiplier(&mut netlist, &x, c);
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
            check_multiplier(c, 5);
        }
    }

    #[test]
    fn larger_constants_are_functionally_correct() {
        for c in [23_i64, -37, 55, 127, -128, 100] {
            check_multiplier(c, 6);
        }
    }

    #[test]
    fn area_grows_with_nonzero_digit_count() {
        let lib = CellLibrary::egt();
        // 0b101 = 5 has 2 CSD digits, 0b10101 = 21 has 3, 0b1010101 = 85 has 4.
        let mut areas = Vec::new();
        for c in [5_i64, 21, 85] {
            let mut netlist = Netlist::new("grow");
            let x = input_word(&mut netlist, 6);
            let _ = constant_multiplier(&mut netlist, &x, c);
            areas.push(netlist.report(&lib).area.total_mm2);
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
                total += CsdDigits::from_value(c).adder_count();
                count += 1;
            }
            total as f64 / count as f64
        };
        assert!(avg_adders(3) < avg_adders(5));
        assert!(avg_adders(5) < avg_adders(7));
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
            let product = constant_multiplier(&mut netlist, &x, c);
            let values = netlist.simulate(&encode_value(v, 6));
            prop_assert_eq!(word_value(&values, &product), c * v);
        }
    }
}
