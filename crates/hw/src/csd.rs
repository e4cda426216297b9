//! Canonical Signed Digit (CSD) recoding of hard-wired constants.
//!
//! A CSD representation writes an integer with digits in `{-1, 0, +1}` such
//! that no two consecutive digits are non-zero. It is the standard recoding
//! for constant-coefficient multipliers because the number of shift-add/sub
//! stages equals the number of non-zero digits, which CSD minimizes (at most
//! ⌈(n+1)/2⌉ non-zero digits for an n-bit constant, ~n/3 on average).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The CSD representation of a signed integer constant.
///
/// Digit `i` (little-endian) carries weight `digit[i] * 2^i`.
///
/// # Example
///
/// ```
/// use pmlp_hw::CsdDigits;
///
/// // 7 = 8 - 1 -> CSD "+00-" i.e. [-1, 0, 0, +1]: two non-zero digits
/// let csd = CsdDigits::from_value(7);
/// assert_eq!(csd.nonzero_count(), 2);
/// assert_eq!(csd.value(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CsdDigits {
    digits: Vec<i8>,
    value: i64,
}

impl CsdDigits {
    /// Recodes `value` into canonical signed-digit form.
    pub fn from_value(value: i64) -> Self {
        if value == 0 {
            return CsdDigits {
                digits: Vec::new(),
                value: 0,
            };
        }
        // Work on the magnitude, then negate the digits for negative values.
        let negative = value < 0;
        let mut x = value.unsigned_abs() as u128;
        let mut digits: Vec<i8> = Vec::new();
        while x != 0 {
            if x & 1 == 1 {
                // Choose +1 or -1 so that the remaining value becomes even and
                // the "no two adjacent non-zeros" property holds: pick -1 when
                // the next two bits are "11" (i.e. x mod 4 == 3).
                let digit: i8 = if x & 3 == 3 { -1 } else { 1 };
                digits.push(digit);
                if digit == 1 {
                    x -= 1;
                } else {
                    x += 1;
                }
            } else {
                digits.push(0);
            }
            x >>= 1;
        }
        if negative {
            for d in &mut digits {
                *d = -*d;
            }
        }
        // Trim trailing zeros (most-significant side).
        while digits.last() == Some(&0) {
            digits.pop();
        }
        CsdDigits { digits, value }
    }

    /// The digits, little-endian (`digits()[i]` weighs `2^i`).
    pub fn digits(&self) -> &[i8] {
        &self.digits
    }

    /// The original integer value.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// Number of non-zero digits = number of shift-add/sub terms a bespoke
    /// constant multiplier needs.
    pub fn nonzero_count(&self) -> usize {
        self.digits.iter().filter(|&&d| d != 0).count()
    }

    /// Number of digits (position of the most significant non-zero digit + 1);
    /// zero for the constant 0.
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// `true` when the constant is zero.
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// `true` when the constant is zero (a pruned weight: no multiplier at all).
    pub fn is_zero(&self) -> bool {
        self.value == 0
    }

    /// `true` when the constant is an exact power of two (possibly negated):
    /// the "multiplier" degenerates to pure wiring (a shift).
    pub fn is_power_of_two(&self) -> bool {
        self.nonzero_count() == 1
    }

    /// The shift amounts (bit positions) of all non-zero digits together with
    /// their signs, i.e. the terms of the shift-add decomposition.
    pub fn terms(&self) -> Vec<(u32, i8)> {
        self.digits
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != 0)
            .map(|(i, &d)| (i as u32, d))
            .collect()
    }

    /// Number of add/sub operations a shift-add multiplier built from this
    /// recoding needs (`nonzero_count - 1`, or 0 for zero / power-of-two
    /// constants).
    pub fn adder_count(&self) -> usize {
        self.nonzero_count().saturating_sub(1)
    }
}

impl fmt::Display for CsdDigits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.digits.is_empty() {
            return f.write_str("0");
        }
        // Most-significant digit first.
        for &d in self.digits.iter().rev() {
            let c = match d {
                1 => '+',
                -1 => '-',
                _ => '0',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(csd: &CsdDigits) -> i64 {
        csd.digits()
            .iter()
            .enumerate()
            .map(|(i, &d)| d as i64 * (1_i64 << i))
            .sum()
    }

    #[test]
    fn zero_has_no_digits() {
        let csd = CsdDigits::from_value(0);
        assert!(csd.is_zero());
        assert!(csd.is_empty());
        assert_eq!(csd.nonzero_count(), 0);
        assert_eq!(csd.adder_count(), 0);
        assert_eq!(csd.to_string(), "0");
    }

    #[test]
    fn known_recodings() {
        // 7 = 8 - 1 -> 2 nonzero digits (better than binary's 3)
        assert_eq!(CsdDigits::from_value(7).nonzero_count(), 2);
        // 15 = 16 - 1
        assert_eq!(CsdDigits::from_value(15).nonzero_count(), 2);
        // 5 = 4 + 1 (already CSD)
        assert_eq!(CsdDigits::from_value(5).nonzero_count(), 2);
        // 3 = 4 - 1
        assert_eq!(CsdDigits::from_value(3).nonzero_count(), 2);
        // powers of two have exactly one digit
        for p in [1_i64, 2, 4, 8, 16, 64] {
            assert!(CsdDigits::from_value(p).is_power_of_two(), "{p}");
            assert_eq!(CsdDigits::from_value(p).adder_count(), 0);
        }
    }

    #[test]
    fn reconstruction_matches_value_for_small_range() {
        for v in -256_i64..=256 {
            let csd = CsdDigits::from_value(v);
            assert_eq!(reconstruct(&csd), v, "reconstruction failed for {v}");
            assert_eq!(csd.value(), v);
        }
    }

    #[test]
    fn no_two_adjacent_nonzero_digits() {
        for v in -512_i64..=512 {
            let csd = CsdDigits::from_value(v);
            for pair in csd.digits().windows(2) {
                assert!(
                    pair[0] == 0 || pair[1] == 0,
                    "adjacent non-zero digits in CSD of {v}: {:?}",
                    csd.digits()
                );
            }
        }
    }

    #[test]
    fn csd_never_needs_more_nonzeros_than_binary() {
        for v in 1_i64..=1024 {
            let csd = CsdDigits::from_value(v).nonzero_count();
            let bin = v.count_ones() as usize;
            assert!(csd <= bin, "CSD worse than binary for {v}: {csd} vs {bin}");
        }
    }

    #[test]
    fn negative_values_mirror_positive_ones() {
        for v in 1_i64..=100 {
            let pos = CsdDigits::from_value(v);
            let neg = CsdDigits::from_value(-v);
            assert_eq!(pos.nonzero_count(), neg.nonzero_count());
            assert_eq!(reconstruct(&neg), -v);
        }
    }

    #[test]
    fn terms_describe_shift_add_decomposition() {
        let csd = CsdDigits::from_value(7); // 8 - 1
        let terms = csd.terms();
        assert_eq!(terms.len(), 2);
        let total: i64 = terms
            .iter()
            .map(|&(shift, sign)| sign as i64 * (1_i64 << shift))
            .sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn display_is_msb_first() {
        // 7 -> +00- (8 - 1)
        assert_eq!(CsdDigits::from_value(7).to_string(), "+00-");
        assert_eq!(CsdDigits::from_value(-7).to_string(), "-00+");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn csd_reconstructs_every_value(v in -100_000_i64..100_000) {
            let csd = CsdDigits::from_value(v);
            let rec: i64 = csd
                .digits()
                .iter()
                .enumerate()
                .map(|(i, &d)| d as i64 * (1_i64 << i))
                .sum();
            prop_assert_eq!(rec, v);
        }

        #[test]
        fn csd_is_canonical(v in -100_000_i64..100_000) {
            let csd = CsdDigits::from_value(v);
            for pair in csd.digits().windows(2) {
                prop_assert!(pair[0] == 0 || pair[1] == 0);
            }
        }

        #[test]
        fn nonzero_count_at_most_half_plus_one(v in 0_i64..(1 << 16)) {
            let csd = CsdDigits::from_value(v);
            let n = 64 - v.leading_zeros() as usize;
            prop_assert!(csd.nonzero_count() <= n / 2 + 1);
        }
    }
}
