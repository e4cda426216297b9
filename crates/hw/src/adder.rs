//! Word-level arithmetic builders: two's-complement ripple-carry adders,
//! subtractors, negation, balanced adder trees and comparators.
//!
//! A *word* is a little-endian vector of net ids interpreted as a signed
//! two's-complement value of fixed width. All builders append gates to a
//! caller-supplied [`Netlist`] and return the nets of the result word.
//! Sign extension and shifting are pure wiring (no gates), matching how a
//! bespoke printed circuit would route them.

use crate::cell::CellKind;
use crate::netlist::{NetId, Netlist, CONST_ONE, CONST_ZERO};

/// A signed two's-complement word: little-endian bit nets.
pub type Word = Vec<NetId>;

/// Builds a word holding the constant `value` in `width` bits (pure wiring to
/// the constant nets, no gates).
///
/// # Panics
///
/// Panics if `width` is 0 or the value does not fit in `width` signed bits.
pub fn constant_word(value: i64, width: usize) -> Word {
    assert!(width > 0, "constant word width must be > 0");
    let min = -(1_i64 << (width - 1));
    let max = (1_i64 << (width - 1)) - 1;
    assert!(
        (min..=max).contains(&value),
        "constant {value} does not fit in {width} signed bits"
    );
    (0..width)
        .map(|i| {
            if (value >> i) & 1 == 1 {
                CONST_ONE
            } else {
                CONST_ZERO
            }
        })
        .collect()
}

/// Allocates a primary-input word of `width` bits.
pub fn input_word(netlist: &mut Netlist, width: usize) -> Word {
    (0..width).map(|_| netlist.add_input()).collect()
}

/// Sign-extends (or truncates) `word` to `width` bits. Pure wiring.
///
/// # Panics
///
/// Panics if `word` is empty.
pub fn resize(word: &[NetId], width: usize) -> Word {
    assert!(!word.is_empty(), "cannot resize an empty word");
    let sign = *word.last().expect("non-empty word");
    (0..width)
        .map(|i| if i < word.len() { word[i] } else { sign })
        .collect()
}

/// Shifts `word` left by `k` bits (multiplication by `2^k`), widening the
/// result by `k` bits. Pure wiring.
pub fn shift_left(word: &[NetId], k: usize) -> Word {
    let mut out = vec![CONST_ZERO; k];
    out.extend_from_slice(word);
    out
}

/// Adds two signed words, producing a `max(len) + 1`-bit result (no overflow).
pub fn add(netlist: &mut Netlist, a: &[NetId], b: &[NetId]) -> Word {
    add_with_carry(netlist, a, b, CONST_ZERO, false)
}

/// Subtracts `b` from `a` (`a - b`), producing a `max(len) + 1`-bit result.
pub fn sub(netlist: &mut Netlist, a: &[NetId], b: &[NetId]) -> Word {
    add_with_carry(netlist, a, b, CONST_ONE, true)
}

/// Two's-complement negation of a word (`-a`), one bit wider than the input.
pub fn negate(netlist: &mut Netlist, a: &[NetId]) -> Word {
    let zero = constant_word(0, a.len());
    sub(netlist, &zero, a)
}

fn add_with_carry(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    carry_in: NetId,
    invert_b: bool,
) -> Word {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "adder operands must be non-empty"
    );
    let width = a.len().max(b.len()) + 1;
    let a_ext = resize(a, width);
    let b_ext = resize(b, width);
    let mut carry = carry_in;
    let mut sum = Vec::with_capacity(width);
    for i in 0..width {
        let b_bit = if invert_b {
            let inv = netlist.add_net();
            netlist.add_gate(CellKind::Inverter, &[b_ext[i]], &[inv]);
            inv
        } else {
            b_ext[i]
        };
        let s = netlist.add_net();
        let c = netlist.add_net();
        // Use a half adder when the carry-in is the constant zero (first stage
        // of a plain addition), a full adder otherwise.
        if carry == CONST_ZERO {
            netlist.add_gate(CellKind::HalfAdder, &[a_ext[i], b_bit], &[s, c]);
        } else {
            netlist.add_gate(CellKind::FullAdder, &[a_ext[i], b_bit, carry], &[s, c]);
        }
        sum.push(s);
        carry = c;
    }
    sum
}

/// Sums an arbitrary number of signed words with a balanced binary adder tree.
/// Returns a word wide enough to hold the full sum; an empty operand list
/// yields the 1-bit constant zero.
pub fn adder_tree(netlist: &mut Netlist, operands: &[Word]) -> Word {
    match operands.len() {
        0 => constant_word(0, 1),
        1 => operands[0].clone(),
        _ => {
            let mut level: Vec<Word> = operands.to_vec();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut iter = level.chunks(2);
                for chunk in &mut iter {
                    if chunk.len() == 2 {
                        next.push(add(netlist, &chunk[0], &chunk[1]));
                    } else {
                        next.push(chunk[0].clone());
                    }
                }
                level = next;
            }
            level.pop().expect("adder tree leaves a single word")
        }
    }
}

/// Rectified linear unit on a signed word: outputs `a` when `a >= 0` and `0`
/// otherwise (one inverter on the sign bit plus one AND gate per bit).
pub fn relu(netlist: &mut Netlist, a: &[NetId]) -> Word {
    assert!(!a.is_empty(), "relu operand must be non-empty");
    let sign = *a.last().expect("non-empty word");
    let not_sign = netlist.add_net();
    netlist.add_gate(CellKind::Inverter, &[sign], &[not_sign]);
    a.iter()
        .map(|&bit| {
            let out = netlist.add_net();
            netlist.add_gate(CellKind::And2, &[bit, not_sign], &[out]);
            out
        })
        .collect()
}

/// Greater-than comparator for signed words: the returned net is 1 when
/// `a > b` (computed as the sign of `b - a`).
pub fn greater_than(netlist: &mut Netlist, a: &[NetId], b: &[NetId]) -> NetId {
    let diff = sub(netlist, b, a);
    *diff.last().expect("difference word is non-empty")
}

/// Selects between two words with a shared select net (`sel ? on_true :
/// on_false`), one mux per bit. Both words are resized to the wider width.
pub fn mux_word(netlist: &mut Netlist, sel: NetId, on_false: &[NetId], on_true: &[NetId]) -> Word {
    let width = on_false.len().max(on_true.len());
    let f = resize(on_false, width);
    let t = resize(on_true, width);
    (0..width)
        .map(|i| {
            let out = netlist.add_net();
            netlist.add_gate(CellKind::Mux2, &[sel, f[i], t[i]], &[out]);
            out
        })
        .collect()
}

/// Decodes a word from simulated net values into a signed integer
/// (two's complement). Intended for tests and functional verification.
pub fn word_value(values: &[bool], word: &[NetId]) -> i64 {
    let mut v: i64 = 0;
    for (i, &net) in word.iter().enumerate() {
        if values[net] {
            v |= 1_i64 << i;
        }
    }
    // Sign-extend from the word's MSB.
    let width = word.len();
    if width < 64 && (v >> (width - 1)) & 1 == 1 {
        v -= 1_i64 << width;
    }
    v
}

/// Drives a word's nets as primary-input values for simulation (little-endian
/// two's complement). Intended for tests.
pub fn encode_value(value: i64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_binary_op(
        op: impl Fn(&mut Netlist, &[NetId], &[NetId]) -> Word,
        reference: impl Fn(i64, i64) -> i64,
        width: usize,
    ) {
        let mut netlist = Netlist::new("op");
        let a = input_word(&mut netlist, width);
        let b = input_word(&mut netlist, width);
        let y = op(&mut netlist, &a, &b);
        let lo = -(1_i64 << (width - 1));
        let hi = (1_i64 << (width - 1)) - 1;
        for av in lo..=hi {
            for bv in lo..=hi {
                let mut inputs = encode_value(av, width);
                inputs.extend(encode_value(bv, width));
                let values = netlist.simulate(&inputs);
                assert_eq!(
                    word_value(&values, &y),
                    reference(av, bv),
                    "op({av}, {bv}) with width {width}"
                );
            }
        }
    }

    #[test]
    fn addition_is_exact_for_all_4_bit_pairs() {
        check_binary_op(add, |a, b| a + b, 4);
    }

    #[test]
    fn subtraction_is_exact_for_all_4_bit_pairs() {
        check_binary_op(sub, |a, b| a - b, 4);
    }

    #[test]
    fn negation_matches_reference() {
        let width = 5;
        let mut netlist = Netlist::new("neg");
        let a = input_word(&mut netlist, width);
        let y = negate(&mut netlist, &a);
        for v in -16_i64..=15 {
            let values = netlist.simulate(&encode_value(v, width));
            assert_eq!(word_value(&values, &y), -v, "negate({v})");
        }
    }

    #[test]
    fn constant_word_encodes_twos_complement() {
        let w = constant_word(-3, 4);
        // -3 = 1101b
        assert_eq!(w, vec![CONST_ONE, CONST_ZERO, CONST_ONE, CONST_ONE]);
        let zeros = constant_word(0, 3);
        assert_eq!(zeros, vec![CONST_ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn constant_word_rejects_overflow() {
        let _ = constant_word(8, 4);
    }

    #[test]
    fn resize_sign_extends() {
        let mut netlist = Netlist::new("rs");
        let a = input_word(&mut netlist, 3);
        let wide = resize(&a, 6);
        assert_eq!(wide.len(), 6);
        assert_eq!(wide[3], a[2]);
        assert_eq!(wide[5], a[2]);
        // Value is preserved under sign extension.
        for v in -4_i64..=3 {
            let values = netlist.simulate(&encode_value(v, 3));
            assert_eq!(word_value(&values, &wide), v);
        }
    }

    #[test]
    fn shift_left_multiplies_by_power_of_two() {
        let mut netlist = Netlist::new("shl");
        let a = input_word(&mut netlist, 4);
        let shifted = shift_left(&a, 3);
        for v in -8_i64..=7 {
            let values = netlist.simulate(&encode_value(v, 4));
            assert_eq!(word_value(&values, &shifted), v * 8);
        }
    }

    #[test]
    fn adder_tree_sums_many_operands() {
        let mut netlist = Netlist::new("tree");
        let words: Vec<Word> = (0..5).map(|_| input_word(&mut netlist, 4)).collect();
        let sum = adder_tree(&mut netlist, &words);
        let operands = [3_i64, -8, 7, 0, -1];
        let mut inputs = Vec::new();
        for &v in &operands {
            inputs.extend(encode_value(v, 4));
        }
        let values = netlist.simulate(&inputs);
        assert_eq!(word_value(&values, &sum), operands.iter().sum::<i64>());
    }

    #[test]
    fn adder_tree_handles_empty_and_single() {
        let mut netlist = Netlist::new("tree0");
        assert_eq!(adder_tree(&mut netlist, &[]), constant_word(0, 1));
        let w = input_word(&mut netlist, 3);
        assert_eq!(adder_tree(&mut netlist, std::slice::from_ref(&w)), w);
    }

    #[test]
    fn relu_clamps_negative_values_to_zero() {
        let mut netlist = Netlist::new("relu");
        let a = input_word(&mut netlist, 5);
        let y = relu(&mut netlist, &a);
        for v in -16_i64..=15 {
            let values = netlist.simulate(&encode_value(v, 5));
            assert_eq!(word_value(&values, &y), v.max(0), "relu({v})");
        }
    }

    #[test]
    fn greater_than_compares_signed_values() {
        let mut netlist = Netlist::new("gt");
        let a = input_word(&mut netlist, 4);
        let b = input_word(&mut netlist, 4);
        let gt = greater_than(&mut netlist, &a, &b);
        for av in -8_i64..=7 {
            for bv in -8_i64..=7 {
                let mut inputs = encode_value(av, 4);
                inputs.extend(encode_value(bv, 4));
                let values = netlist.simulate(&inputs);
                assert_eq!(values[gt], av > bv, "{av} > {bv}");
            }
        }
    }

    #[test]
    fn mux_word_selects_between_words() {
        let mut netlist = Netlist::new("muxw");
        let sel = netlist.add_input();
        let a = input_word(&mut netlist, 3);
        let b = input_word(&mut netlist, 3);
        let y = mux_word(&mut netlist, sel, &a, &b);
        let mut inputs = vec![false];
        inputs.extend(encode_value(2, 3));
        inputs.extend(encode_value(-3, 3));
        let values = netlist.simulate(&inputs);
        assert_eq!(word_value(&values, &y), 2);
        let mut inputs = vec![true];
        inputs.extend(encode_value(2, 3));
        inputs.extend(encode_value(-3, 3));
        let values = netlist.simulate(&inputs);
        assert_eq!(word_value(&values, &y), -3);
    }

    #[test]
    fn adder_uses_half_adders_for_initial_carry() {
        let mut netlist = Netlist::new("ha");
        let a = input_word(&mut netlist, 4);
        let b = input_word(&mut netlist, 4);
        let _ = add(&mut netlist, &a, &b);
        let area = netlist.area(&crate::cell::CellLibrary::egt());
        assert!(area.by_kind.contains_key(&CellKind::HalfAdder));
    }

    #[test]
    fn subtractor_is_larger_than_adder() {
        let lib = crate::cell::CellLibrary::egt();
        let mut na = Netlist::new("a");
        let a = input_word(&mut na, 6);
        let b = input_word(&mut na, 6);
        let _ = add(&mut na, &a, &b);
        let mut ns = Netlist::new("s");
        let a = input_word(&mut ns, 6);
        let b = input_word(&mut ns, 6);
        let _ = sub(&mut ns, &a, &b);
        assert!(ns.area(&lib).total_mm2 > na.area(&lib).total_mm2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn add_matches_integer_addition(a in -128_i64..127, b in -128_i64..127) {
            let width = 8;
            let mut netlist = Netlist::new("p");
            let wa = input_word(&mut netlist, width);
            let wb = input_word(&mut netlist, width);
            let y = add(&mut netlist, &wa, &wb);
            let mut inputs = encode_value(a, width);
            inputs.extend(encode_value(b, width));
            let values = netlist.simulate(&inputs);
            prop_assert_eq!(word_value(&values, &y), a + b);
        }

        #[test]
        fn tree_sum_matches_reference(values_in in proptest::collection::vec(-64_i64..63, 1..8)) {
            let width = 7;
            let mut netlist = Netlist::new("p");
            let words: Vec<Word> = (0..values_in.len()).map(|_| input_word(&mut netlist, width)).collect();
            let sum = adder_tree(&mut netlist, &words);
            let mut inputs = Vec::new();
            for &v in &values_in {
                inputs.extend(encode_value(v, width));
            }
            let sim = netlist.simulate(&inputs);
            prop_assert_eq!(word_value(&sim, &sum), values_in.iter().sum::<i64>());
        }
    }
}
