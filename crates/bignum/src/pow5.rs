//! The shared 128-bit power-of-five table and the integer logarithms that
//! index it.
//!
//! `10^q = 5^q · 2^q`, so a binary significand of `5^q` is a significand
//! of `10^q`: only the binary exponent differs. Both conversion directions
//! use this one table:
//!
//! * the reader's Eisel–Lemire tier multiplies a decimal coefficient by the
//!   128-bit entry for `10^q` (Lemire, *Number Parsing at a Gigabyte per
//!   Second*);
//! * the printer's shortest tier multiplies by the entry for `10^(2−k)`,
//!   rounded up, and reads the interval's width off its high word (Jeon,
//!   *Dragonbox*).
//!
//! The table is not a baked-in literal blob: it is generated at first use
//! from exact [`Nat`] exponentiation and checked against exact interval
//! arithmetic by the unit tests below. The logarithm helpers are pure
//! integer multiply-and-shift forms, checked exhaustively against exact
//! power comparisons over every exponent either direction reaches.

use crate::Nat;
use std::sync::LazyLock;

/// Smallest `q` in the table. Below `10^-342` even a coefficient of
/// `u64::MAX` is under half the smallest subnormal `f64`, so the reader
/// needs nothing smaller.
pub const MIN_Q: i32 = -342;

/// Largest `q` in the table: the printer works two decimal places below
/// the answer's scale, so it scales the smallest subnormal `f64`
/// (`≈ 4.9·10^-324`) by `10^326`.
pub const MAX_Q: i32 = 326;

/// One 128-bit power-of-five significand, normalized to `[2^127, 2^128)`:
/// `5^q ≈ (hi·2^64 + lo) × 2^(⌊q·log2 5⌋ − 127)`.
///
/// Truncation direction is part of the contract both tiers rely on:
/// entries for `q ≥ 0` are floor-truncated (exact for `q ≤ 55`, where
/// `5^q` fits in 128 bits); entries for `q < 0` are ceilings (`5^m` is odd,
/// so the reciprocal is never exact and the ceiling is `floor + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pow5 {
    /// High 64 bits of the significand (top bit set).
    pub hi: u64,
    /// Low 64 bits of the significand.
    pub lo: u64,
}

impl Pow5 {
    /// The significand as one 128-bit integer.
    #[must_use]
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// The table for `q ∈ MIN_Q..=MAX_Q` (669 entries, ~10 KiB), built on
/// first use.
static POWERS_OF_FIVE: LazyLock<Vec<Pow5>> =
    LazyLock::new(|| (MIN_Q..=MAX_Q).map(significand).collect());

/// The table entry for `5^q` (equivalently `10^q`).
///
/// # Panics
///
/// Panics if `q` is outside `MIN_Q..=MAX_Q`.
#[inline]
#[must_use]
pub fn entry(q: i32) -> Pow5 {
    POWERS_OF_FIVE[(q - MIN_Q) as usize]
}

/// Computes one table entry exactly with [`Nat`] arithmetic.
fn significand(q: i32) -> Pow5 {
    let value = if q >= 0 {
        let p = Nat::u64_pow(5, q.unsigned_abs());
        let bits = p.bit_len();
        if bits <= 128 {
            &p << u32::try_from(128 - bits).expect("small shift")
        } else {
            &p >> u32::try_from(bits - 128).expect("small shift")
        }
    } else {
        // ⌈2^(b+127) / 5^m⌉ where b = bit length of 5^m: the quotient of a
        // number in [2^127·5^m, 2^128·5^m) by 5^m, hence 128 bits.
        let den = Nat::u64_pow(5, q.unsigned_abs());
        let num = &Nat::one() << u32::try_from(den.bit_len() + 127).expect("shift fits");
        let (mut quot, rem) = num.div_rem(&den);
        debug_assert!(!rem.is_zero(), "5^m never divides a power of two");
        quot.add_u64(1);
        quot
    };
    debug_assert_eq!(value.bit_len(), 128, "normalized to [2^127, 2^128)");
    let limbs = value.limbs();
    Pow5 {
        hi: limbs[1],
        lo: limbs[0],
    }
}

/// `⌊q·log10 2⌋`: the decimal exponent of `2^q`. Exact for
/// `|q| ≤ 5_456_721`; the tests check `-1100..=1100` against exact powers.
#[inline]
#[must_use]
pub const fn floor_log10_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083) >> 41) as i32
}

/// `⌊q·log10 2 − log10(4/3)⌋ = ⌊log10(3·2^(q−2))⌋`: the decimal exponent
/// of `¾·2^q`, the width of the rounding interval of a power-of-two
/// significand. The tests check `-1100..=1100` against exact powers.
#[inline]
#[must_use]
pub const fn floor_log10_three_quarters_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `⌊k·log2 10⌋`: the binary exponent of `10^k`. Exact for
/// `|k| ≤ 1_838_394`; the tests check the whole table range against exact
/// powers.
#[inline]
#[must_use]
pub const fn floor_log2_pow10(k: i32) -> i32 {
    ((k as i64 * 913_124_641_741) >> 38) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// `2^a · 3^t · 10^b` as an exact fraction `(numerator, denominator)`.
    fn frac(a: i32, t: u32, b: i32) -> (Nat, Nat) {
        let mut num = Nat::u64_pow(3, t);
        let mut den = Nat::one();
        if a >= 0 {
            num <<= a.unsigned_abs();
        } else {
            den <<= a.unsigned_abs();
        }
        let ten = Nat::u64_pow(10, b.unsigned_abs());
        if b >= 0 {
            num = &num * &ten;
        } else {
            den = &den * &ten;
        }
        (num, den)
    }

    /// Compares two exact fractions by cross-multiplying.
    fn cmp(x: &(Nat, Nat), y: &(Nat, Nat)) -> Ordering {
        (&x.0 * &y.1).cmp(&(&y.0 * &x.1))
    }

    /// `10^k ≤ 2^q < 10^(k+1)` with `k = floor_log10_pow2(q)`.
    #[test]
    fn floor_log10_pow2_is_exact() {
        for q in -1100..=1100 {
            let k = floor_log10_pow2(q);
            let v = frac(q, 0, 0);
            assert_ne!(cmp(&frac(0, 0, k), &v), Ordering::Greater, "q = {q}");
            assert_eq!(cmp(&v, &frac(0, 0, k + 1)), Ordering::Less, "q = {q}");
        }
    }

    /// `10^k ≤ 3·2^(q−2) < 10^(k+1)` with
    /// `k = floor_log10_three_quarters_pow2(q)`.
    #[test]
    fn floor_log10_three_quarters_pow2_is_exact() {
        for q in -1100..=1100 {
            let k = floor_log10_three_quarters_pow2(q);
            let v = frac(q - 2, 1, 0);
            assert_ne!(cmp(&frac(0, 0, k), &v), Ordering::Greater, "q = {q}");
            assert_eq!(cmp(&v, &frac(0, 0, k + 1)), Ordering::Less, "q = {q}");
        }
    }

    /// `2^j ≤ 10^k < 2^(j+1)` with `j = floor_log2_pow10(k)`.
    #[test]
    fn floor_log2_pow10_is_exact() {
        for k in MIN_Q..=MAX_Q {
            let j = floor_log2_pow10(k);
            let v = frac(0, 0, k);
            assert_ne!(cmp(&frac(j, 0, 0), &v), Ordering::Greater, "k = {k}");
            assert_eq!(cmp(&v, &frac(j + 1, 0, 0)), Ordering::Less, "k = {k}");
        }
    }

    /// Every generated entry brackets the true `5^q` from the documented
    /// side, proven in exact integer arithmetic. With `M = hi·2^64 + lo`
    /// and `b` the bit length of `5^|q|`:
    /// - `q ≥ 0`: `M·2^(b−128) ≤ 5^q < (M+1)·2^(b−128)` (floor),
    /// - `q < 0`: `(M−1)·5^m < 2^(b+127) ≤ M·5^m` (ceiling, `m = −q`).
    ///
    /// It also pins the binary exponent: `⌊q·log2 10⌋ = ⌊q·log2 5⌋ + q`,
    /// and `5^|q| ∈ [2^(b−1), 2^b)` makes `⌊q·log2 5⌋` equal `b − 1` (or
    /// `−b` for `q < 0`).
    #[test]
    fn entries_bracket_exact_powers() {
        assert_eq!(POWERS_OF_FIVE.len(), (MAX_Q - MIN_Q + 1) as usize);
        for q in MIN_Q..=MAX_Q {
            let e = entry(q);
            assert!(e.hi >> 63 == 1, "5^{q}: significand not normalized");
            let m = Nat::from_limbs(vec![e.lo, e.hi]);
            let p = Nat::u64_pow(5, q.unsigned_abs());
            let b = p.bit_len();
            if q >= 0 {
                if b <= 128 {
                    let scaled = &p << u32::try_from(128 - b).expect("shift");
                    assert_eq!(m, scaled, "5^{q}: small powers are exact");
                } else {
                    let shift = u32::try_from(b - 128).expect("shift");
                    assert!(&m << shift <= p, "5^{q}: floor lower bound");
                    let mut m1 = m.clone();
                    m1.add_u64(1);
                    assert!(p < &m1 << shift, "5^{q}: floor upper bound");
                }
            } else {
                let pow2 = &Nat::one() << u32::try_from(b + 127).expect("shift");
                assert!(pow2 <= &m * &p, "5^{q}: ceiling lower bound");
                let mut m_minus = m.clone();
                m_minus.sub_u64(1);
                assert!(&m_minus * &p < pow2, "5^{q}: ceiling upper bound");
            }
            let b = i32::try_from(b).expect("fits");
            let floor_log2_pow5 = if q >= 0 { b - 1 } else { -b };
            assert_eq!(floor_log2_pow10(q), floor_log2_pow5 + q, "5^{q}: exponent");
        }
    }
}
