//! The Eisel–Lemire tier: correctly rounded `w × 10^q → binary` via one
//! (sometimes two) 64×128-bit truncated multiplications against a cached
//! table of 128-bit power-of-five significands.
//!
//! Lemire, *Number Parsing at a Gigabyte per Second* (SPE 2021), rounds
//! from the truncated product and declines when its low word is saturated
//! and `5^|q|` does not fit in 128 bits, since the discarded tail could
//! then carry into the mantissa. Mushtak and Lemire, *Fast Number Parsing
//! Without Fallback* (SPE 2023), show that the carry never changes the
//! answer. `tests/theorems.rs` proves it for this table: in exact
//! arithmetic it finds every saturated product of every `u64` coefficient
//! and every table exponent (138 for `f64` and 10 for `f32`, none of them
//! widened) and checks each answer against the exact reader. So the tier
//! answers every `u64` coefficient. Only a literal of more than 19 digits,
//! whose `(w, w+1)` bracket the caller checks, can still reach the exact
//! reader.
//!
//! The power-of-five table is the one [`fpp_bignum::pow5`] shares with the
//! printer's shortest tier: generated at first use from exact big-integer
//! exponentiation (floor-truncated for `q ≥ 0`, ceiling for `q < 0`, the
//! convention Lemire's error analysis assumes) and cross-checked against
//! exact interval arithmetic there.

use fpp_bignum::pow5;
use fpp_float::FloatFormat;

/// Smallest decimal exponent in the cached table: below `10^-342` even a
/// coefficient of `u64::MAX` (< 1.85×10^19) is under half the smallest
/// subnormal `f64`, so the value rounds to zero under nearest-even without
/// any arithmetic.
pub(crate) const SMALLEST_POWER_OF_TEN: i32 = -342;

/// Largest decimal exponent in the cached table: above `10^308` any
/// non-zero coefficient overflows `f64` to infinity.
pub(crate) const LARGEST_POWER_OF_TEN: i32 = 308;

/// Format-specific Eisel–Lemire bounds, derived from the IEEE parameters
/// the same way the reference analysis derives them.
pub(crate) trait LemireFloat: FloatFormat + Copy + std::ops::Neg<Output = Self> {
    /// Exponents below this certainly round to zero for this format (with
    /// any `u64` coefficient).
    const SMALLEST_POWER: i32;
    /// Exponents above this certainly overflow for this format (with any
    /// non-zero coefficient).
    const LARGEST_POWER: i32;
    /// Inclusive range of `q` in which an exact halfway product is
    /// representable and the round-to-even correction must be applied.
    const MIN_EXPONENT_ROUND_TO_EVEN: i32;
    /// See [`Self::MIN_EXPONENT_ROUND_TO_EVEN`].
    const MAX_EXPONENT_ROUND_TO_EVEN: i32;
    /// Converts the algorithm's (mantissa-with-hidden-bit, biased-exponent)
    /// pair into the concrete positive float.
    fn from_biased(mantissa: u64, biased_exponent: i32) -> Self;
    /// The raw IEEE bit pattern, widened to `u64` (for exact comparisons).
    fn to_bits_u64(self) -> u64;
}

impl LemireFloat for f64 {
    const SMALLEST_POWER: i32 = -342;
    const LARGEST_POWER: i32 = 308;
    const MIN_EXPONENT_ROUND_TO_EVEN: i32 = -4;
    const MAX_EXPONENT_ROUND_TO_EVEN: i32 = 23;
    fn from_biased(mantissa: u64, biased_exponent: i32) -> f64 {
        from_biased::<f64>(mantissa, biased_exponent)
    }
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
}

impl LemireFloat for f32 {
    const SMALLEST_POWER: i32 = -65;
    const LARGEST_POWER: i32 = 38;
    const MIN_EXPONENT_ROUND_TO_EVEN: i32 = -17;
    const MAX_EXPONENT_ROUND_TO_EVEN: i32 = 10;
    fn from_biased(mantissa: u64, biased_exponent: i32) -> f32 {
        from_biased::<f32>(mantissa, biased_exponent)
    }
    fn to_bits_u64(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Rebuilds a positive float from the algorithm's biased form. `mantissa`
/// carries the hidden bit for normals; biased exponent `0` means subnormal
/// (or zero when the mantissa is also zero).
fn from_biased<F: FloatFormat>(mantissa: u64, biased_exponent: i32) -> F {
    if mantissa == 0 {
        return F::encode(false, 0, 0);
    }
    let exponent = if biased_exponent == 0 {
        F::MIN_EXP
    } else {
        F::MIN_EXP + biased_exponent - 1
    };
    F::encode(false, mantissa, exponent)
}

/// `⌊q·log2 10⌋ + 63` for `q` in the table range — the binary magnitude
/// bookkeeping of the product (the integer logarithm is checked against
/// exact powers in `fpp_bignum::pow5`).
fn power(q: i32) -> i32 {
    pow5::floor_log2_pow10(q) + 63
}

/// `a × b` as (low, high) 64-bit halves.
fn full_multiplication(a: u64, b: u64) -> (u64, u64) {
    let p = u128::from(a) * u128::from(b);
    (p as u64, (p >> 64) as u64)
}

/// The truncated 128-bit product of the normalized coefficient `w` with the
/// 128-bit significand of `10^q`, returned as (low, high) halves of
/// `(w × M) >> 64`.
///
/// One multiplication by the high half usually suffices: the neglected
/// `w × M_lo` term can only matter when the high word's bits below the
/// needed `precision` are all ones, and exactly then a second
/// multiplication refines the product (Lemire's §5 argument).
fn compute_product_approx(q: i32, w: u64, precision: u32) -> (u64, u64) {
    debug_assert!((SMALLEST_POWER_OF_TEN..=LARGEST_POWER_OF_TEN).contains(&q));
    let mask = if precision < 64 {
        u64::MAX >> precision
    } else {
        u64::MAX
    };
    let entry = pow5::entry(q);
    let (mut first_lo, mut first_hi) = full_multiplication(w, entry.hi);
    if first_hi & mask == mask {
        let (_, second_hi) = full_multiplication(w, entry.lo);
        first_lo = first_lo.wrapping_add(second_hi);
        if second_hi > first_lo {
            first_hi += 1;
        }
    }
    (first_lo, first_hi)
}

/// The Eisel–Lemire conversion of the non-negative decimal `w × 10^q`
/// into format `F`, rounded to nearest-even. It answers every `u64`
/// coefficient (see the module docs); the adversarial and differential
/// suites check it bit-for-bit against the exact reader and `str::parse`.
pub(crate) fn eisel_lemire<F: LemireFloat>(w: u64, q: i64) -> F {
    if w == 0 || q < i64::from(F::SMALLEST_POWER) {
        return F::from_biased(0, 0);
    }
    if q > i64::from(F::LARGEST_POWER) {
        return F::infinity(false);
    }
    let q = q as i32;
    let explicit_bits = F::PRECISION as i32 - 1;
    let minimum_exponent = F::MIN_EXP + F::PRECISION as i32 - 2; // −bias
    let infinite_power = F::MAX_EXP - F::MIN_EXP + 2;

    let lz = w.leading_zeros() as i32;
    let w = w << lz;
    let (lo, hi) = compute_product_approx(q, w, (explicit_bits + 3) as u32);
    let upperbit = (hi >> 63) as i32;
    let mut mantissa = hi >> (upperbit + 64 - explicit_bits - 3);
    let mut power2 = power(q) + upperbit - lz - minimum_exponent;
    if power2 <= 0 {
        // Subnormal range (or complete underflow).
        if -power2 + 1 >= 64 {
            return F::from_biased(0, 0);
        }
        mantissa >>= -power2 + 1;
        // Round half up with no round-to-even correction: no literal with a
        // `u64` coefficient is exactly halfway between two subnormals. The
        // midpoint `(2m+1)·2^(MIN_EXP−1)` is `(2m+1)·5^(1−MIN_EXP)` over a
        // power of ten, and its coefficient keeps that power of five after
        // any trailing zeros are stripped: `5^1075` for `f64` and `5^150`
        // for `f32`, both above `2^64`. binary16 breaks this (`5^25 <
        // 2^64`), which is why `scanned_to_any` routes only `f64` and `f32`
        // here.
        mantissa += mantissa & 1; // round up on half
        mantissa >>= 1;
        // Rounding can carry back up into the smallest normal.
        let biased = i32::from(mantissa >= (1u64 << explicit_bits));
        return F::from_biased(mantissa, biased);
    }
    // Round-to-even correction: if the product is exact (`lo ≤ 1` after a
    // possibly-exact second multiply, within the `q` range where halfway
    // decimals exist) and sits exactly on a halfway pattern, drop the low
    // bit so the round-half-up below lands on the even neighbour.
    if lo <= 1
        && q >= F::MIN_EXPONENT_ROUND_TO_EVEN
        && q <= F::MAX_EXPONENT_ROUND_TO_EVEN
        && mantissa & 3 == 1
        && (mantissa << (upperbit + 64 - explicit_bits - 3)) == hi
    {
        mantissa &= !1u64;
    }
    mantissa += mantissa & 1; // round half up
    mantissa >>= 1;
    if mantissa >= (2u64 << explicit_bits) {
        // The round-up carried out of the mantissa: renormalize.
        mantissa = 1u64 << explicit_bits;
        power2 += 1;
    }
    if power2 >= infinite_power {
        return F::infinity(false);
    }
    F::from_biased(mantissa, power2)
}

/// The Eisel–Lemire conversion of `digits × 10^exponent` to a
/// **non-negative** `f64` under round-to-nearest-even.
///
/// Always `Some`: the tier answers every coefficient and exponent (see the
/// module docs for the proof). The `Option` stays so that callers written
/// when the tier could decline keep compiling.
///
/// ```
/// assert_eq!(fpp_reader::eisel_lemire_f64(3, -1), Some(0.3));
/// assert_eq!(fpp_reader::eisel_lemire_f64(17976931348623157, 292), Some(f64::MAX));
/// assert_eq!(fpp_reader::eisel_lemire_f64(1, 400), Some(f64::INFINITY));
/// ```
#[must_use]
pub fn eisel_lemire_f64(digits: u64, exponent: i64) -> Option<f64> {
    Some(eisel_lemire::<f64>(digits, exponent))
}

/// The Eisel–Lemire conversion of `digits × 10^exponent` to a
/// **non-negative** `f32` under round-to-nearest-even. Always `Some`, as
/// [`eisel_lemire_f64`].
///
/// ```
/// assert_eq!(fpp_reader::eisel_lemire_f32(1, -1), Some(0.1f32));
/// ```
#[must_use]
pub fn eisel_lemire_f32(digits: u64, exponent: i64) -> Option<f32> {
    Some(eisel_lemire::<f32>(digits, exponent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_round_correctly() {
        let cases: &[(u64, i64, f64)] = &[
            (1, 0, 1.0),
            (1, -1, 0.1),
            (3, -1, 0.3),
            (1, 23, 1e23),                      // exact halfway, round to even
            (17976931348623157, 292, f64::MAX), // largest finite
            (22250738585072014, -324, 2.2250738585072014e-308), // smallest normal
            (5, -324, 5e-324),                  // smallest subnormal
            (1, 309, f64::INFINITY),
            (u64::MAX, 0, 18446744073709551615.0),
        ];
        for &(w, q, expect) in cases {
            let got = eisel_lemire::<f64>(w, q);
            assert_eq!(got.to_bits(), expect.to_bits(), "{w}e{q}");
        }
        // Certain underflow / overflow outside the table range.
        assert_eq!(eisel_lemire_f64(u64::MAX, -400), Some(0.0));
        assert_eq!(eisel_lemire_f64(1, 400), Some(f64::INFINITY));
        assert_eq!(eisel_lemire_f64(0, 1000), Some(0.0));
    }

    #[test]
    fn f32_known_values() {
        let cases: &[(u64, i64, f32)] = &[
            (1, -1, 0.1f32),
            (16777217, 0, 16777216.0f32), // 2^24 + 1: halfway, rounds to even
            (34028235, 31, f32::MAX),
            (1, -45, 1e-45f32), // smallest subnormal neighbourhood
            (1, 39, f32::INFINITY),
        ];
        for &(w, q, expect) in cases {
            let got = eisel_lemire::<f32>(w, q);
            assert_eq!(got.to_bits(), expect.to_bits(), "{w}e{q}");
        }
    }
}
