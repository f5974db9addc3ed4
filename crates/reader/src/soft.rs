//! Correctly rounded reading into arbitrary software float formats.
//!
//! Clinger's algorithm is generic in the target format, and this module
//! holds the one exact converter the crate has: a literal in any base 2–36
//! is read into any [`SoftFormat`] — any target base, precision and
//! exponent range — correctly rounded under any [`RoundingMode`]. It is the
//! read half that completes the round-trip story for the toy formats the
//! test suite enumerates exhaustively, and with `base: 2` and a hardware
//! format's precision and exponent range it is also the exact route of
//! [`crate::decimal_to_float`] (a binary target shifts instead of
//! multiplying by powers).

use crate::parse::Literal;
use crate::{parse_literal, DecimalParts, ParseFloatError};
use fpp_bignum::Nat;
use fpp_float::{RoundingMode, SoftFloat};

/// A target software floating-point format for [`read_soft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFormat {
    /// The format's base `b ≥ 2`.
    pub base: u64,
    /// Precision `p ≥ 1` in base-`b` digits.
    pub precision: u32,
    /// Minimum exponent of the integral significand.
    pub min_exp: i32,
    /// Maximum exponent of the integral significand.
    pub max_exp: i32,
}

/// Outcome of reading a literal into a software format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoftReadResult {
    /// The magnitude rounded to zero.
    Zero,
    /// A representable positive magnitude.
    Finite(SoftFloat),
    /// The magnitude rounded past the largest representable value.
    Overflow,
}

/// Reads a literal (in `literal_base`) into the given software format,
/// correctly rounded. The returned flag is the literal's sign (`SoftFloat`
/// models magnitudes; NaN/inf literals map to `Overflow` with the sign).
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
///
/// # Panics
///
/// Panics if `literal_base` is outside `2..=36` or the format is invalid
/// (`base < 2`, `precision == 0`, or `min_exp > max_exp`).
///
/// ```
/// use fpp_float::RoundingMode;
/// use fpp_reader::{read_soft, SoftFormat, SoftReadResult};
///
/// // A 3-digit decimal format: 1/3 reads as 333 × 10⁻³.
/// let fmt = SoftFormat { base: 10, precision: 3, min_exp: -10, max_exp: 10 };
/// let (neg, r) = read_soft("0.33333", 10, RoundingMode::NearestEven, &fmt).unwrap();
/// assert!(!neg);
/// match r {
///     SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "333 x 10^-3"),
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn read_soft(
    s: &str,
    literal_base: u64,
    rounding: RoundingMode,
    format: &SoftFormat,
) -> Result<(bool, SoftReadResult), ParseFloatError> {
    assert!(
        (2..=36).contains(&literal_base),
        "literal base must be in 2..=36"
    );
    assert!(format.base >= 2, "format base must be >= 2");
    assert!(format.precision >= 1, "format precision must be >= 1");
    assert!(format.min_exp <= format.max_exp, "empty exponent range");
    let parts = match parse_literal(s, literal_base)? {
        Literal::Nan => return Ok((false, SoftReadResult::Overflow)),
        Literal::Infinity { negative } => return Ok((negative, SoftReadResult::Overflow)),
        Literal::Finite(parts) => parts,
    };
    let result = match round_to_format(&parts, literal_base, rounding, format) {
        Rounded::Zero => SoftReadResult::Zero,
        Rounded::Finite(f, e) => SoftReadResult::Finite(
            SoftFloat::new(f, e, format.base, format.precision, format.min_exp)
                .expect("normalized result satisfies the invariants"),
        ),
        Rounded::Overflow => SoftReadResult::Overflow,
    };
    Ok((parts.negative, result))
}

/// A literal's magnitude rounded into a [`SoftFormat`].
pub(crate) enum Rounded {
    /// The magnitude rounded to zero.
    Zero,
    /// `f × baseᵉ`: `f` has `precision` digits, or fewer at `e = min_exp`.
    Finite(Nat, i32),
    /// The magnitude rounded past the largest representable value.
    Overflow,
}

/// The exact converter: scaled division locates the unique representable
/// significand, which is then rounded per `rounding` by an exact remainder
/// comparison, with `parts.truncated` as the sticky bit for the dropped
/// tail. [`RoundingMode::Conservative`] rounds as
/// [`RoundingMode::NearestEven`]. The sign is the caller's.
pub(crate) fn round_to_format(
    parts: &DecimalParts,
    literal_base: u64,
    rounding: RoundingMode,
    format: &SoftFormat,
) -> Rounded {
    if parts.digits.is_zero() && !parts.truncated {
        return Rounded::Zero;
    }
    let bt = format.base;
    let p = format.precision;
    let min_e = format.min_exp;
    let max_e = format.max_exp;

    // Magnitude screen in log2 to avoid astronomically large powers.
    let log2_lit = (literal_base as f64).log2();
    let log2_bt = (bt as f64).log2();
    let approx_log2 = parts.digits.bit_len() as f64 + parts.exponent as f64 * log2_lit;
    let max_log2 = (max_e as f64 + p as f64) * log2_bt;
    let min_log2 = min_e as f64 * log2_bt;
    if approx_log2 > max_log2 + 8.0 * log2_bt {
        return overflow(rounding, format);
    }
    if approx_log2 < min_log2 - 8.0 * log2_bt {
        return underflow(rounding, format);
    }

    // num/den = |value| exactly, in terms of the literal base.
    let (num, den) = if parts.exponent >= 0 {
        let scale = Nat::from(literal_base).pow(u32::try_from(parts.exponent).expect("screened"));
        (&parts.digits * &scale, Nat::one())
    } else {
        let scale = Nat::from(literal_base).pow(u32::try_from(-parts.exponent).expect("screened"));
        (parts.digits.clone(), scale)
    };
    if num.is_zero() {
        // All retained digits were zero but truncation dropped non-zeros:
        // the value is a positive infinitesimal for rounding purposes.
        return underflow(rounding, format);
    }

    // Find e with f = round(num / (den·btᵉ)) in [bt^(p−1), bt^p), or e = min_e.
    let mut e =
        ((num.bit_len() as f64 - den.bit_len() as f64) / log2_bt).floor() as i64 - i64::from(p);
    e = e.max(i64::from(min_e));
    let bt_lo = scale_up(&Nat::one(), bt, p - 1);
    let bt_hi = bt_lo.mul_u64_ref(bt);
    let (mut f, mut rem, mut eff_den) = divide_at_base(&num, &den, bt, e);
    let mut guard = 0;
    while e > i64::from(min_e) && f < bt_lo {
        e -= 1;
        (f, rem, eff_den) = divide_at_base(&num, &den, bt, e);
        guard += 1;
        assert!(guard < 80, "normalization diverged");
    }
    while f >= bt_hi {
        e += 1;
        (f, rem, eff_den) = divide_at_base(&num, &den, bt, e);
        guard += 1;
        assert!(guard < 160, "normalization diverged");
    }

    // Round per mode with the sticky flag.
    let sticky = parts.truncated;
    let exact = rem.is_zero() && !sticky;
    let round_up = if exact {
        false
    } else {
        match rounding {
            RoundingMode::TowardZero => false,
            RoundingMode::AwayFromZero => true,
            _ => {
                let twice = rem.mul_u64_ref(2);
                match twice.cmp(&eff_den) {
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => {
                        if sticky {
                            true // the dropped tail pushes past the midpoint
                        } else {
                            match rounding {
                                RoundingMode::NearestEven | RoundingMode::Conservative => {
                                    !f.is_even()
                                }
                                RoundingMode::NearestAwayFromZero => true,
                                RoundingMode::NearestTowardZero => false,
                                _ => unreachable!(),
                            }
                        }
                    }
                }
            }
        }
    };
    if round_up {
        f.add_u64(1);
        if f == bt_hi {
            f = bt_lo;
            e += 1;
        }
    }
    if f.is_zero() {
        return underflow(rounding, format);
    }
    if e > i64::from(max_e) {
        return overflow(rounding, format);
    }
    Rounded::Finite(f, e as i32)
}

/// `n × btᵇʸ`, by shifting for a binary target.
fn scale_up(n: &Nat, bt: u64, by: u32) -> Nat {
    if bt == 2 {
        n << by
    } else {
        n * &Nat::from(bt).pow(by)
    }
}

/// `f = ⌊num / (den·btᵉ)⌋` with remainder and effective denominator.
fn divide_at_base(num: &Nat, den: &Nat, bt: u64, e: i64) -> (Nat, Nat, Nat) {
    if e >= 0 {
        let eff = scale_up(den, bt, u32::try_from(e).expect("fits"));
        let (q, rem) = num.div_rem(&eff);
        (q, rem, eff)
    } else {
        let scaled = scale_up(num, bt, u32::try_from(-e).expect("fits"));
        let (q, rem) = scaled.div_rem(den);
        (q, rem, den.clone())
    }
}

/// Past the largest finite value: [`RoundingMode::TowardZero`] stops at it.
fn overflow(rounding: RoundingMode, format: &SoftFormat) -> Rounded {
    match rounding {
        RoundingMode::TowardZero => Rounded::Finite(
            scale_up(&Nat::one(), format.base, format.precision) - Nat::one(),
            format.max_exp,
        ),
        _ => Rounded::Overflow,
    }
}

/// A non-zero magnitude below the format's reach:
/// [`RoundingMode::AwayFromZero`] rounds it up to the smallest subnormal.
fn underflow(rounding: RoundingMode, format: &SoftFormat) -> Rounded {
    match rounding {
        RoundingMode::AwayFromZero => Rounded::Finite(Nat::one(), format.min_exp),
        _ => Rounded::Zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEC3: SoftFormat = SoftFormat {
        base: 10,
        precision: 3,
        min_exp: -10,
        max_exp: 10,
    };

    fn finite(s: &str, fmt: &SoftFormat) -> SoftFloat {
        match read_soft(s, 10, RoundingMode::NearestEven, fmt).unwrap() {
            (false, SoftReadResult::Finite(v)) => v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decimal_format_rounds_to_three_digits() {
        assert_eq!(finite("12345", &DEC3).to_string(), "123 x 10^2");
        assert_eq!(finite("12355", &DEC3).to_string(), "124 x 10^2"); // round up
        assert_eq!(finite("12350", &DEC3).to_string(), "124 x 10^2"); // tie → even
        assert_eq!(finite("12450", &DEC3).to_string(), "124 x 10^2"); // tie → even
        assert_eq!(finite("0.33333", &DEC3).to_string(), "333 x 10^-3");
    }

    #[test]
    fn denormals_at_min_exp() {
        // 7 × 10^-10 is below the normalized range but representable.
        let v = finite("7e-10", &DEC3);
        assert_eq!(v.to_string(), "7 x 10^-10");
        // Half of the smallest subnormal rounds to zero...
        let r = read_soft("4.9e-11", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Zero));
        // ...but away-from-zero rounds it up to the smallest subnormal.
        let r = read_soft("4.9e-11", 10, RoundingMode::AwayFromZero, &DEC3).unwrap();
        match r.1 {
            SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "1 x 10^-10"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overflow_behaviour_by_mode() {
        let r = read_soft("1e20", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Overflow));
        let r = read_soft("-1e20", 10, RoundingMode::TowardZero, &DEC3).unwrap();
        match r {
            (true, SoftReadResult::Finite(v)) => assert_eq!(v.to_string(), "999 x 10^10"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn binary_target_format_matches_f64_semantics() {
        // Reading into (2, 53, -1074, 971) must agree with the f64 reader.
        let fmt = SoftFormat {
            base: 2,
            precision: 53,
            min_exp: -1074,
            max_exp: 971,
        };
        for s in ["0.1", "1e23", "2.2250738585072011e-308", "5e-324", "1.5"] {
            let v = finite(s, &fmt);
            let expected = SoftFloat::from_f64(crate::read_f64(s).unwrap()).unwrap();
            assert_eq!(v, expected, "{s}");
        }
    }

    #[test]
    fn ternary_target_format() {
        // 1/3 is exact in base 3: one digit.
        let fmt = SoftFormat {
            base: 3,
            precision: 4,
            min_exp: -20,
            max_exp: 20,
        };
        let v = finite("0.333333333333", &fmt);
        // closest 4-trit value to 0.333…: 1/3 = 0.1₃ exactly → f×3^e with
        // normalized f in [27, 81): 27 × 3^-4 = 1/3.
        assert_eq!(v.to_string(), "27 x 3^-4");
    }

    #[test]
    fn literal_and_target_bases_mix() {
        // Read a hexadecimal literal into the 3-digit decimal format.
        let fmt = DEC3;
        let r = read_soft("ff.8", 16, RoundingMode::NearestEven, &fmt).unwrap();
        match r.1 {
            SoftReadResult::Finite(v) => assert_eq!(v.to_string(), "256 x 10^0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn specials_map_to_overflow_and_zero() {
        let r = read_soft("inf", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Overflow));
        let r = read_soft("-infinity", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (true, SoftReadResult::Overflow));
        let r = read_soft("0", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (false, SoftReadResult::Zero));
        let r = read_soft("-0.000", 10, RoundingMode::NearestEven, &DEC3).unwrap();
        assert_eq!(r, (true, SoftReadResult::Zero));
    }
}
