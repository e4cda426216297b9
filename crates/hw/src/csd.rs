//! Canonical Signed Digit (CSD) recoding of hard-wired constants.
//!
//! A CSD representation writes an integer with digits in `{-1, 0, +1}` such
//! that no two consecutive digits are non-zero. It is the standard recoding
//! for constant-coefficient multipliers because the number of shift-add/sub
//! stages equals the number of non-zero digits, which CSD minimizes (at most
//! ⌈(n+1)/2⌉ non-zero digits for an n-bit constant, ~n/3 on average).
//!
//! A [`CsdDigits`] is two 64-bit masks, one per digit sign, so recoding and
//! walking the terms allocate nothing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The CSD representation of a signed integer constant.
///
/// Digit `i` (little-endian) carries weight `±2^i`. Every `i64` fits in 64
/// digits: a magnitude of at most `2^63` needs no digit above bit 63.
///
/// # Example
///
/// ```
/// use pmlp_hw::CsdDigits;
///
/// // 7 = 8 - 1 -> CSD "+00-": two non-zero digits
/// let csd = CsdDigits::from_value(7);
/// assert_eq!(csd.nonzero_count(), 2);
/// assert_eq!(csd.terms().collect::<Vec<_>>(), [(0, -1), (3, 1)]);
/// assert_eq!(csd.value(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CsdDigits {
    /// Bit `i` set: digit `i` is `+1`.
    positive: u64,
    /// Bit `i` set: digit `i` is `-1`.
    negative: u64,
}

impl CsdDigits {
    /// Recodes `value` into canonical signed-digit form.
    pub fn from_value(value: i64) -> Self {
        // Recode the magnitude, then swap the digit signs for negative values.
        let mut x = value.unsigned_abs();
        let (mut positive, mut negative) = (0_u64, 0_u64);
        let mut bit = 0;
        while x != 0 {
            if x & 1 == 1 {
                // Choose +1 or -1 so that the remaining value becomes even and
                // the "no two adjacent non-zeros" property holds: pick -1 when
                // the next two bits are "11" (i.e. x mod 4 == 3). `x` is at
                // most 2^63, so `x + 1` cannot overflow.
                if x & 3 == 3 {
                    negative |= 1 << bit;
                    x += 1;
                } else {
                    positive |= 1 << bit;
                    x -= 1;
                }
            }
            x >>= 1;
            bit += 1;
        }
        if value < 0 {
            std::mem::swap(&mut positive, &mut negative);
        }
        CsdDigits { positive, negative }
    }

    /// The original integer value.
    pub fn value(&self) -> i64 {
        // Exact modulo 2^64, and the value is an i64.
        (self.positive as i64).wrapping_sub(self.negative as i64)
    }

    /// Number of non-zero digits = number of shift-add/sub terms a bespoke
    /// constant multiplier needs.
    pub fn nonzero_count(&self) -> usize {
        (self.positive | self.negative).count_ones() as usize
    }

    /// Number of digits (position of the most significant non-zero digit + 1);
    /// zero for the constant 0.
    pub fn len(&self) -> usize {
        (u64::BITS - (self.positive | self.negative).leading_zeros()) as usize
    }

    /// `true` when the constant is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the constant is zero (a pruned weight: no multiplier at all).
    pub fn is_zero(&self) -> bool {
        self.is_empty()
    }

    /// `true` when the constant is an exact power of two (possibly negated):
    /// the "multiplier" degenerates to pure wiring (a shift).
    pub fn is_power_of_two(&self) -> bool {
        self.nonzero_count() == 1
    }

    /// The terms of the shift-add decomposition: the shift amount (bit
    /// position) and sign of every non-zero digit, least significant first.
    pub fn terms(&self) -> impl Iterator<Item = (u32, i8)> {
        let (positive, mut rest) = (self.positive, self.positive | self.negative);
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let shift = rest.trailing_zeros();
                rest &= rest - 1;
                let sign = if positive >> shift & 1 == 1 { 1 } else { -1 };
                (shift, sign)
            })
        })
    }

    /// Number of add/sub operations a shift-add multiplier built from this
    /// recoding needs (`nonzero_count - 1`, or 0 for zero / power-of-two
    /// constants).
    pub fn adder_count(&self) -> usize {
        self.nonzero_count().saturating_sub(1)
    }

    /// Digit `i < 64`: `-1`, `0` or `+1`.
    fn digit(&self, i: u32) -> i8 {
        (self.positive >> i & 1) as i8 - (self.negative >> i & 1) as i8
    }
}

impl fmt::Display for CsdDigits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("0");
        }
        // Most-significant digit first.
        for i in (0..self.len() as u32).rev() {
            let c = match self.digit(i) {
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

    fn reconstruct(csd: &CsdDigits) -> i128 {
        csd.terms()
            .map(|(shift, sign)| i128::from(sign) << shift)
            .sum()
    }

    /// `true` when no two non-zero digits are adjacent.
    fn is_canonical(csd: &CsdDigits) -> bool {
        let shifts: Vec<u32> = csd.terms().map(|(shift, _)| shift).collect();
        shifts.windows(2).all(|pair| pair[1] > pair[0] + 1)
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
            assert_eq!(reconstruct(&csd), v.into(), "reconstruction failed for {v}");
            assert_eq!(csd.value(), v);
        }
    }

    #[test]
    fn no_two_adjacent_nonzero_digits() {
        for v in -512_i64..=512 {
            let csd = CsdDigits::from_value(v);
            assert!(
                is_canonical(&csd),
                "adjacent non-zero digits in CSD of {v}: {csd}"
            );
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
            assert_eq!(reconstruct(&neg), (-v).into());
        }
    }

    #[test]
    fn terms_describe_shift_add_decomposition() {
        let csd = CsdDigits::from_value(7); // 8 - 1
        let terms: Vec<(u32, i8)> = csd.terms().collect();
        assert_eq!(terms, [(0, -1), (3, 1)]);
        assert_eq!(reconstruct(&csd), 7);
    }

    #[test]
    fn extreme_values_fit_in_64_digits() {
        for v in [
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            1 << 62,
            -(1 << 62),
        ] {
            let csd = CsdDigits::from_value(v);
            assert_eq!(csd.value(), v);
            assert_eq!(reconstruct(&csd), v.into(), "{v}");
            assert!(is_canonical(&csd), "{v}: {csd}");
        }
        assert_eq!(CsdDigits::from_value(i64::MIN).to_string().len(), 64);
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
                .terms()
                .map(|(shift, sign)| i64::from(sign) << shift)
                .sum();
            prop_assert_eq!(rec, v);
        }

        #[test]
        fn csd_is_canonical(v in -100_000_i64..100_000) {
            let csd = CsdDigits::from_value(v);
            let shifts: Vec<u32> = csd.terms().map(|(shift, _)| shift).collect();
            prop_assert!(shifts.windows(2).all(|pair| pair[1] > pair[0] + 1));
        }

        #[test]
        fn nonzero_count_at_most_half_plus_one(v in 0_i64..(1 << 16)) {
            let csd = CsdDigits::from_value(v);
            let n = 64 - v.leading_zeros() as usize;
            prop_assert!(csd.nonzero_count() <= n / 2 + 1);
        }
    }
}
