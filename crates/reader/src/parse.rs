//! Lexing of floating-point literals in bases 2–36.

use fpp_bignum::Nat;
use std::fmt;

/// Maximum number of significant digits retained exactly; further digits are
/// folded into a sticky "truncated" flag. 1100 comfortably exceeds the 767
/// digits that the worst-case `f64` halfway decisions require (Gay 1990).
const MAX_EXACT_DIGITS: usize = 1100;

/// A parsed floating-point literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// `nan` (any case).
    Nan,
    /// `inf` / `infinity` (any case), optionally signed.
    Infinity {
        /// `true` for `-inf`.
        negative: bool,
    },
    /// A finite literal in coefficient–exponent form.
    Finite(crate::DecimalParts),
}

/// Error produced when a literal is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFloatError {
    reason: &'static str,
}

impl ParseFloatError {
    pub(crate) fn new(reason: &'static str) -> Self {
        ParseFloatError { reason }
    }
}

impl fmt::Display for ParseFloatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid float literal: {}", self.reason)
    }
}

impl std::error::Error for ParseFloatError {}

/// Parses a literal in the given base into coefficient–exponent form.
///
/// Grammar (all parts in base `base` except the exponent, which is decimal):
///
/// ```text
/// literal  := sign? (special | number)
/// special  := "inf" | "infinity" | "nan"          (case-insensitive)
/// number   := digits ["." digits?] exp? | "." digits exp?
/// exp      := ("@" | "e" | "E") sign? dec-digits  ("e" only when base ≤ 14)
/// ```
///
/// `#` characters in the digit string are accepted and treated as `0` with
/// the truncation flag set — so fixed-format output containing insignificant
/// `#` marks reads back in (§4: a `#` may be replaced by any digit without
/// changing the value read).
///
/// # Errors
///
/// Returns [`ParseFloatError`] on empty input, invalid digits, or a
/// malformed exponent.
///
/// # Panics
///
/// Panics if `base` is outside `2..=36`.
pub fn parse_literal(s: &str, base: u64) -> Result<Literal, ParseFloatError> {
    assert!((2..=36).contains(&base), "input base must be in 2..=36");
    let bytes = s.as_bytes();
    let mut pos = 0usize;

    let negative = match bytes.first() {
        Some(b'+') => {
            pos += 1;
            false
        }
        Some(b'-') => {
            pos += 1;
            true
        }
        _ => false,
    };

    let rest = &s[pos..];
    if let Some(special) = special_word(rest, negative) {
        return Ok(special);
    }

    // Accumulate coefficient digits exactly (up to the cap), tracking the
    // number of digits that follow the radix point.
    let mut digits = Nat::zero();
    let mut kept = 0usize;
    let mut dropped_after_point = 0i64;
    let mut dropped_before_point = 0i64;
    let mut truncated = false;
    let mut any_digit = false;
    let mut seen_point = false;
    let mut frac_digits = 0i64;

    let exp_marker_allowed = base <= 14;
    let mut exponent_part: i64 = 0;

    let mut chars = rest.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        if c == '.' {
            if seen_point {
                return Err(ParseFloatError::new("multiple radix points"));
            }
            seen_point = true;
            chars.next();
            continue;
        }
        let digit = if c == '#' {
            // Insignificant-position mark from fixed-format output.
            truncated = true;
            Some(0)
        } else {
            c.to_digit(base as u32).map(|d| d as u64)
        };
        match digit {
            Some(d) => {
                any_digit = true;
                if d == 0 && kept == 0 {
                    // A zero before the first significant digit takes no
                    // slot of the cap; after the point it still scales.
                    if seen_point {
                        frac_digits += 1;
                    }
                } else if kept < MAX_EXACT_DIGITS {
                    digits.mul_u64(base);
                    digits.add_u64(d);
                    kept += 1;
                    if seen_point {
                        frac_digits += 1;
                    }
                } else {
                    if d != 0 {
                        truncated = true;
                    }
                    if seen_point {
                        dropped_after_point += 1;
                    } else {
                        dropped_before_point += 1;
                    }
                }
                chars.next();
            }
            None => {
                // Possibly the exponent marker.
                let is_marker = c == '@' || (exp_marker_allowed && (c == 'e' || c == 'E'));
                if !is_marker {
                    return Err(ParseFloatError::new("invalid digit"));
                }
                if !any_digit {
                    return Err(ParseFloatError::new("exponent with no mantissa digits"));
                }
                let exp_str = &rest[i + c.len_utf8()..];
                exponent_part = parse_exponent(exp_str)?;
                while chars.next().is_some() {}
                break;
            }
        }
    }

    if !any_digit {
        return Err(ParseFloatError::new("no digits"));
    }

    // value = digits × base^(exponent_part − frac_digits + dropped_before
    //          − 0) : dropped integer digits shift the scale up, dropped
    //          fraction digits were never included in `digits`.
    let _ = dropped_after_point; // dropped fraction digits only affect stickiness
    let exponent = exponent_part - frac_digits + dropped_before_point;
    Ok(Literal::Finite(crate::DecimalParts {
        negative,
        digits,
        exponent,
        truncated,
    }))
}

/// Parses a C99 hexadecimal floating-point literal: `0x1.8p+1`,
/// `-0X.ABCP-3`, `0x1p0`. The significand is hexadecimal; the mandatory
/// `p` exponent is a *decimal* power of two. The result is coefficient–
/// exponent form over base **2** (pass `base = 2` to the conversion
/// routines).
///
/// # Errors
///
/// Returns [`ParseFloatError`] when the literal is not a well-formed hex
/// float (missing `0x` prefix, no significand digits, missing or malformed
/// `p` exponent).
///
/// ```
/// use fpp_reader::{parse_hex_literal, Literal};
/// let lit = parse_hex_literal("0x1.8p+1").unwrap();
/// match lit {
///     Literal::Finite(parts) => {
///         // 0x18 × 2^(1-4) = 24/8 = 3
///         assert_eq!(parts.digits.to_string(), "24");
///         assert_eq!(parts.exponent, -3);
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn parse_hex_literal(s: &str) -> Result<Literal, ParseFloatError> {
    let mut rest = s;
    let negative = match rest.as_bytes().first() {
        Some(b'+') => {
            rest = &rest[1..];
            false
        }
        Some(b'-') => {
            rest = &rest[1..];
            true
        }
        _ => false,
    };
    if let Some(special) = special_word(rest, negative) {
        return Ok(special);
    }
    let body = rest
        .strip_prefix("0x")
        .or_else(|| rest.strip_prefix("0X"))
        .ok_or(ParseFloatError::new("missing 0x prefix"))?;
    let (mantissa_txt, exp_txt) = body
        .split_once(['p', 'P'])
        .ok_or(ParseFloatError::new("missing p exponent"))?;
    let mut digits = Nat::zero();
    let mut any = false;
    let mut seen_point = false;
    let mut frac_nibbles: i64 = 0;
    for c in mantissa_txt.chars() {
        if c == '.' {
            if seen_point {
                return Err(ParseFloatError::new("multiple radix points"));
            }
            seen_point = true;
            continue;
        }
        let d = c
            .to_digit(16)
            .ok_or(ParseFloatError::new("invalid hex digit"))?;
        any = true;
        digits.mul_u64(16);
        digits.add_u64(u64::from(d));
        if seen_point {
            frac_nibbles += 1;
        }
    }
    if !any {
        return Err(ParseFloatError::new("no significand digits"));
    }
    let exp2 = parse_exponent(exp_txt)?;
    Ok(Literal::Finite(crate::DecimalParts {
        negative,
        digits,
        exponent: exp2 - 4 * frac_nibbles, // base-2 exponent
        truncated: false,
    }))
}

/// `inf` / `infinity` / `nan` in any case (after the sign), compared in
/// place rather than through a lowercased copy.
fn special_word(rest: &str, negative: bool) -> Option<Literal> {
    if rest.eq_ignore_ascii_case("inf") || rest.eq_ignore_ascii_case("infinity") {
        Some(Literal::Infinity { negative })
    } else if rest.eq_ignore_ascii_case("nan") {
        Some(Literal::Nan)
    } else {
        None
    }
}

/// Parses the decimal exponent field (which may itself be absurdly long;
/// values are clamped to ±`i64::MAX/4`, far beyond any representable float).
fn parse_exponent(s: &str) -> Result<i64, ParseFloatError> {
    let bytes = s.as_bytes();
    let (neg, digits) = match bytes.first() {
        Some(b'+') => (false, &s[1..]),
        Some(b'-') => (true, &s[1..]),
        _ => (false, s),
    };
    if digits.is_empty() {
        return Err(ParseFloatError::new("empty exponent"));
    }
    let mut value: i64 = 0;
    const CLAMP: i64 = i64::MAX / 4;
    for c in digits.chars() {
        let d = c
            .to_digit(10)
            .ok_or_else(|| ParseFloatError::new("invalid exponent digit"))?;
        value = value.saturating_mul(10).saturating_add(d as i64);
        if value > CLAMP {
            value = CLAMP;
        }
    }
    Ok(if neg { -value } else { value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite(s: &str, base: u64) -> crate::DecimalParts {
        match parse_literal(s, base).unwrap() {
            Literal::Finite(p) => p,
            other => panic!("expected finite, got {other:?}"),
        }
    }

    #[test]
    fn basic_forms() {
        let p = finite("123", 10);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("123", 0));
        let p = finite("1.25", 10);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("125", -2));
        let p = finite(".5", 10);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("5", -1));
        let p = finite("3.", 10);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("3", 0));
        let p = finite("-2.5e-3", 10);
        assert!(p.negative);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("25", -4));
        let p = finite("1E10", 10);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("1", 10));
    }

    #[test]
    fn specials() {
        assert_eq!(
            parse_literal("inf", 10).unwrap(),
            Literal::Infinity { negative: false }
        );
        assert_eq!(
            parse_literal("-Infinity", 10).unwrap(),
            Literal::Infinity { negative: true }
        );
        assert_eq!(parse_literal("NaN", 10).unwrap(), Literal::Nan);
        assert_eq!(parse_literal("+nan", 10).unwrap(), Literal::Nan);
    }

    #[test]
    fn base16_uses_at_marker() {
        let p = finite("ff.8", 16);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("4088", -1));
        // 'e' is a digit in base 16:
        let p = finite("e", 16);
        assert_eq!(p.digits.to_string(), "14");
        let p = finite("1@3", 16);
        assert_eq!((p.digits.to_string().as_str(), p.exponent), ("1", 3));
    }

    #[test]
    fn hash_marks_read_as_zero_with_sticky() {
        let p = finite("0.3333333###", 10);
        assert!(p.truncated);
        assert_eq!(p.digits.to_string(), "3333333000");
        assert_eq!(p.exponent, -10);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "-", ".", "e5", "1..2", "1ee5", "1e", "1e+", "0x1", "12 3",
        ] {
            assert!(parse_literal(bad, 10).is_err(), "{bad:?}");
        }
        assert!(parse_literal("z", 35).is_err());
        assert!(parse_literal("z", 36).is_ok());
    }

    #[test]
    fn digit_cap_sets_sticky_and_preserves_scale() {
        // 1 followed by 1200 zeros and a final 7: the 7 is dropped but
        // remembered via the sticky flag; the scale reflects all 1201 digits.
        let mut s = String::from("1");
        s.push_str(&"0".repeat(1199));
        s.push('7');
        let p = finite(&s, 10);
        assert!(p.truncated);
        assert_eq!(p.exponent, 1201 - MAX_EXACT_DIGITS as i64);
        // coefficient holds the first MAX_EXACT_DIGITS digits: 10^1099
        assert_eq!(p.digits.to_str_radix(10).len(), MAX_EXACT_DIGITS);
    }

    #[test]
    fn huge_exponent_clamps() {
        let p = finite("1e99999999999999999999999", 10);
        assert!(p.exponent > 1_000_000_000);
    }
}
