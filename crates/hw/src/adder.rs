//! Word-level arithmetic builders: two's-complement ripple-carry adders,
//! subtractors, negation, balanced adder trees and comparators.
//!
//! A *word* is a little-endian vector of signals interpreted as a signed
//! two's-complement value of fixed width. All builders hand their gates to a
//! caller-supplied [`GateSink`] (usually a [`Netlist`](crate::Netlist)) and
//! return the signals of the result word. Sign extension and shifting are
//! pure wiring (no gates), matching how a bespoke printed circuit would
//! route them. The helpers read their operand words in place, sign-extending
//! by index, so the only word a builder allocates is its result;
//! [`adder_tree`] takes its operands by value and sums them in place.

use crate::cell::CellKind;
use crate::netlist::{GateSink, NetId};

/// A signed two's-complement word: little-endian bit signals, net ids unless
/// stated otherwise.
pub type Word<P = NetId> = Vec<P>;

/// Builds a word holding the constant `value` in `width` bits (pure wiring to
/// the constant signals, no gates).
///
/// # Panics
///
/// Panics if `width` is 0 or the value does not fit in `width` signed bits.
pub fn constant_word<S: GateSink>(value: i64, width: usize) -> Word<S::Pin> {
    assert!(width > 0, "constant word width must be > 0");
    // `value` fits iff every bit from the word's sign bit up copies the sign.
    assert!(
        width >= 64 || value >> (width - 1) == value >> 63,
        "constant {value} does not fit in {width} signed bits"
    );
    (0..width)
        .map(|i| {
            if (value >> i.min(63)) & 1 == 1 {
                S::ONE
            } else {
                S::ZERO
            }
        })
        .collect()
}

/// Allocates a primary-input word of `width` bits.
pub fn input_word<S: GateSink>(sink: &mut S, width: usize) -> Word<S::Pin> {
    (0..width).map(|_| sink.input()).collect()
}

/// Bit `i` of `word` sign-extended to any width: the word's own bit, or its
/// sign bit past its end. Pure wiring.
fn extended_bit<P: Copy>(word: &[P], i: usize) -> P {
    match word.get(i) {
        Some(&bit) => bit,
        None => word[word.len() - 1],
    }
}

/// Shifts `word` left by `k` bits (multiplication by `2^k`), widening the
/// result by `k` bits. Pure wiring.
pub fn shift_left<S: GateSink>(word: &[S::Pin], k: usize) -> Word<S::Pin> {
    let mut out = Vec::with_capacity(k + word.len());
    out.resize(k, S::ZERO);
    out.extend_from_slice(word);
    out
}

/// Adds two signed words, producing a `max(len) + 1`-bit result (no overflow).
pub fn add<S: GateSink>(sink: &mut S, a: &[S::Pin], b: &[S::Pin]) -> Word<S::Pin> {
    add_with_carry(sink, a, b, false)
}

/// Subtracts `b` from `a` (`a - b`), producing a `max(len) + 1`-bit result.
pub fn sub<S: GateSink>(sink: &mut S, a: &[S::Pin], b: &[S::Pin]) -> Word<S::Pin> {
    add_with_carry(sink, a, b, true)
}

/// Two's-complement negation of a word (`-a`), one bit wider than the input.
pub fn negate<S: GateSink>(sink: &mut S, a: &[S::Pin]) -> Word<S::Pin> {
    // The one-bit zero sign-extends to a zero as wide as `a`.
    sub(sink, &[S::ZERO], a)
}

/// Ripple-carry `a + b`, or `a - b` as `a + !b + 1` when `subtract`.
fn add_with_carry<S: GateSink>(
    sink: &mut S,
    a: &[S::Pin],
    b: &[S::Pin],
    subtract: bool,
) -> Word<S::Pin> {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "adder operands must be non-empty"
    );
    let width = a.len().max(b.len()) + 1;
    // A subtraction's carry-in is the constant one; a plain addition has
    // none, so its first stage is a half adder.
    let mut carry = S::ONE;
    let mut sum = Vec::with_capacity(width);
    for i in 0..width {
        let a_bit = extended_bit(a, i);
        let b_bit = extended_bit(b, i);
        let b_bit = if subtract {
            let [inv] = sink.gate(CellKind::Inverter, &[b_bit]);
            inv
        } else {
            b_bit
        };
        let [s, c] = if i == 0 && !subtract {
            sink.gate(CellKind::HalfAdder, &[a_bit, b_bit])
        } else {
            sink.gate(CellKind::FullAdder, &[a_bit, b_bit, carry])
        };
        sum.push(s);
        carry = c;
    }
    sum
}

/// Sums an arbitrary number of signed words with a balanced binary adder tree.
/// Returns a word wide enough to hold the full sum; an empty operand list
/// yields the 1-bit constant zero.
///
/// Each level adds neighbouring pairs in order, and an odd last operand moves
/// up a level unchanged. The sums overwrite the operands they replace, so a
/// level allocates only its sum words.
pub fn adder_tree<S: GateSink>(sink: &mut S, mut operands: Vec<Word<S::Pin>>) -> Word<S::Pin> {
    while operands.len() > 1 {
        let len = operands.len();
        for j in 0..len / 2 {
            // Slot `j` was read at pair `j / 2 <= j`, so it is free to take
            // pair `j`'s sum.
            operands[j] = add(sink, &operands[2 * j], &operands[2 * j + 1]);
        }
        if len % 2 == 1 {
            operands.swap(len / 2, len - 1);
        }
        operands.truncate(len.div_ceil(2));
    }
    operands.pop().unwrap_or_else(|| constant_word::<S>(0, 1))
}

/// Rectified linear unit on a signed word: outputs `a` when `a >= 0` and `0`
/// otherwise (one inverter on the sign bit plus one AND gate per bit).
pub fn relu<S: GateSink>(sink: &mut S, a: &[S::Pin]) -> Word<S::Pin> {
    assert!(!a.is_empty(), "relu operand must be non-empty");
    let sign = *a.last().expect("non-empty word");
    let [not_sign] = sink.gate(CellKind::Inverter, &[sign]);
    a.iter()
        .map(|&bit| {
            let [out] = sink.gate(CellKind::And2, &[bit, not_sign]);
            out
        })
        .collect()
}

/// Greater-than comparator for signed words: the returned signal is 1 when
/// `a > b` (computed as the sign of `b - a`).
pub fn greater_than<S: GateSink>(sink: &mut S, a: &[S::Pin], b: &[S::Pin]) -> S::Pin {
    let diff = sub(sink, b, a);
    *diff.last().expect("difference word is non-empty")
}

/// Selects between two words with a shared select signal (`sel ? on_true :
/// on_false`), one mux per bit. Both words are sign-extended to the wider width.
pub fn mux_word<S: GateSink>(
    sink: &mut S,
    sel: S::Pin,
    on_false: &[S::Pin],
    on_true: &[S::Pin],
) -> Word<S::Pin> {
    let width = on_false.len().max(on_true.len());
    (0..width)
        .map(|i| {
            let pins = [sel, extended_bit(on_false, i), extended_bit(on_true, i)];
            let [out] = sink.gate(CellKind::Mux2, &pins);
            out
        })
        .collect()
}

/// Decodes a word from simulated net values into a signed integer
/// (two's complement). Intended for tests and functional verification.
pub fn word_value(values: &[bool], word: &[NetId]) -> i64 {
    // Past bit 63 a word that holds an `i64` only repeats its sign bit.
    let mut v: i64 = 0;
    for (i, &net) in word.iter().take(64).enumerate() {
        if values[net] {
            v |= 1_i64 << i;
        }
    }
    // Sign-extend from the word's MSB.
    let unused = 64 - word.len().min(64);
    v << unused >> unused
}

/// Drives a word's nets as primary-input values for simulation (little-endian
/// two's complement). Intended for tests.
pub fn encode_value(value: i64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, CONST_ONE, CONST_ZERO};

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
        let w = constant_word::<Netlist>(-3, 4);
        // -3 = 1101b
        assert_eq!(w, vec![CONST_ONE, CONST_ZERO, CONST_ONE, CONST_ONE]);
        let zeros = constant_word::<Netlist>(0, 3);
        assert_eq!(zeros, vec![CONST_ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn constant_word_rejects_overflow() {
        let _ = constant_word::<Netlist>(8, 4);
    }

    #[test]
    fn constant_word_spans_the_i64_range_at_width_64() {
        let netlist = Netlist::new("c64");
        let values = netlist.simulate(&[]);
        for v in [i64::MIN, i64::MAX, 1 << 62, -(1 << 62), -1] {
            let w = constant_word::<Netlist>(v, 64);
            assert_eq!(word_value(&values, &w), v);
        }
        // -2^62 is the narrowest 63-bit value; 2^62 needs 64 bits.
        let w = constant_word::<Netlist>(-(1 << 62), 63);
        assert_eq!(word_value(&values, &w), -(1 << 62));
        assert!(std::panic::catch_unwind(|| constant_word::<Netlist>(1 << 62, 63)).is_err());
    }

    #[test]
    fn resize_sign_extends() {
        let mut netlist = Netlist::new("rs");
        let a = input_word(&mut netlist, 3);
        let wide: Word = (0..6).map(|i| extended_bit(&a, i)).collect();
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
        let shifted = shift_left::<Netlist>(&a, 3);
        for v in -8_i64..=7 {
            let values = netlist.simulate(&encode_value(v, 4));
            assert_eq!(word_value(&values, &shifted), v * 8);
        }
    }

    #[test]
    fn adder_tree_sums_many_operands() {
        let mut netlist = Netlist::new("tree");
        let words: Vec<Word> = (0..5).map(|_| input_word(&mut netlist, 4)).collect();
        let sum = adder_tree(&mut netlist, words);
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
        assert_eq!(
            adder_tree(&mut netlist, vec![]),
            constant_word::<Netlist>(0, 1)
        );
        let w = input_word(&mut netlist, 3);
        assert_eq!(adder_tree(&mut netlist, vec![w.clone()]), w);
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
        let sel = netlist.input();
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
        let area = netlist.report(&crate::cell::CellLibrary::egt()).area;
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
        assert!(ns.report(&lib).area.total_mm2 > na.report(&lib).area.total_mm2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::netlist::Netlist;
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
            let sum = adder_tree(&mut netlist, words);
            let mut inputs = Vec::new();
            for &v in &values_in {
                inputs.extend(encode_value(v, width));
            }
            let sim = netlist.simulate(&inputs);
            prop_assert_eq!(word_value(&sim, &sum), values_in.iter().sum::<i64>());
        }
    }
}
