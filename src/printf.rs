//! C `printf`-style conversions (`%e`, `%f`, `%g`) built on the exact
//! conversion engines — what a libc would look like if it used this
//! repository: always correctly rounded (round half to even, like a
//! conforming IEEE `printf`), for any precision, with none of the
//! platform-dependent mis-roundings Table 3 counts.

use fpp_baseline::simple_fixed::{leading_position, simple_fixed_digits};
use fpp_bignum::{PowerTable, Rat};
use fpp_core::{
    render_fixed_into, with_thread_powers, ExponentStyle, FixedLayout, Notation, RenderOptions,
};
use fpp_float::{Decoded, FloatFormat, SoftFloat};

/// The largest precision the conversions accept: 2²⁴ digits.
pub const MAX_PRECISION: u32 = 1 << 24;

fn special(v: f64) -> Option<String> {
    match v.decode() {
        Decoded::Nan => Some("nan".to_string()),
        Decoded::Infinite { negative } => Some(if negative { "-inf" } else { "inf" }.to_string()),
        _ => None,
    }
}

fn check_precision(precision: u32) {
    assert!(
        precision <= MAX_PRECISION,
        "precision above MAX_PRECISION (2^24 digits)"
    );
}

/// Zero's digits: the single digit 0 at `k = 1`.
fn zero() -> (Vec<u8>, i32) {
    (vec![0], 1)
}

/// The digits of `|v|` from `source`, read `0.d₁d₂… × 10ᵏ`.
fn digits_of(
    v: f64,
    source: impl FnOnce(&SoftFloat, &mut PowerTable) -> (Vec<u8>, i32),
) -> (Vec<u8>, i32) {
    SoftFloat::from_f64(v.abs()).map_or_else(zero, |sf| {
        with_thread_powers(10, |powers| source(&sf, powers))
    })
}

/// Lays out the sign of `v`, then `digits` (`0.d₁d₂… × 10ᵏ`) padded with
/// zeros to `positions` digit positions, with C's signed two-digit exponent
/// wherever `notation` picks scientific form.
fn emit(v: f64, digits: &[u8], k: i32, positions: usize, notation: Notation) -> String {
    let mut out = Vec::with_capacity(positions + 8);
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let layout = FixedLayout {
        digits,
        k,
        insignificant: positions - digits.len(),
        position: k - positions as i32,
        hash_marks: false,
    };
    let opts = RenderOptions {
        exponent_style: ExponentStyle::PrintfSigned,
        ..RenderOptions::default()
    };
    render_fixed_into(&mut out, &layout, notation, 10, &opts);
    String::from_utf8(out).expect("renderer emits ASCII")
}

/// `%.*e`: scientific notation with `precision` digits after the point and
/// a signed two-digit exponent, correctly rounded.
///
/// ```
/// assert_eq!(fpp::printf::format_e(1234.5678, 3), "1.235e+03");
/// assert_eq!(fpp::printf::format_e(0.0, 2), "0.00e+00");
/// assert_eq!(fpp::printf::format_e(-2.5, 0), "-2e+00"); // half-to-even
/// ```
///
/// # Panics
///
/// Panics if `precision` exceeds [`MAX_PRECISION`].
#[must_use]
pub fn format_e(v: f64, precision: u32) -> String {
    check_precision(precision);
    if let Some(s) = special(v) {
        return s;
    }
    let (digits, k) = digits_of(v, |sf, powers| {
        simple_fixed_digits(sf, precision + 1, powers)
    });
    emit(v, &digits, k, precision as usize + 1, Notation::Scientific)
}

/// `%.*f`: positional notation with exactly `precision` fractional digits,
/// correctly rounded at that position.
///
/// ```
/// assert_eq!(fpp::printf::format_f(3.14159, 2), "3.14");
/// assert_eq!(fpp::printf::format_f(2.675, 2), "2.67"); // 2.675 is stored below 2.675
/// assert_eq!(fpp::printf::format_f(-0.0004, 3), "-0.000");
/// assert_eq!(fpp::printf::format_f(1e21, 0), "1000000000000000000000");
/// ```
///
/// # Panics
///
/// Panics if `precision` exceeds [`MAX_PRECISION`].
#[must_use]
pub fn format_f(v: f64, precision: u32) -> String {
    check_precision(precision);
    if let Some(s) = special(v) {
        return s;
    }
    let j = -(precision as i32);
    let (digits, k) = digits_of(v, |sf, powers| absolute_digits(sf, j, powers));
    // Positions run from k-1 down to j; after a decade carry the last one
    // lies below the digits and prints as a zero.
    emit(v, &digits, k, (k - j) as usize, Notation::Positional)
}

/// Correctly rounded digits of `v` ending exactly at absolute position `j`
/// (straightforward `printf` semantics, not the `#`-mark semantics of the
/// core fixed format). A value that rounds to zero gets [`zero`]'s digits.
fn absolute_digits(v: &SoftFloat, j: i32, powers: &mut PowerTable) -> (Vec<u8>, i32) {
    // Zero check: v < 10^j / 2 rounds to zero; the exact tie rounds to even
    // (zero), matching round-half-even.
    let half = Rat::pow_i32(10, j) * Rat::from_ratio_u64(1, 2);
    if v.value() <= half {
        return zero();
    }
    // Rounding `count = k_v − j` significant digits rounds exactly at
    // position j (k_v is v's true leading position). A carry across a
    // decade (99.996 → 100.00) returns k = k_v + 1 with the same digit
    // vector, one position short of j.
    let k_v = leading_position(v, powers);
    let count = k_v - j;
    if count < 1 {
        // v is entirely below the cut but above half of it: rounds to 10^j.
        return (vec![1], j + 1);
    }
    simple_fixed_digits(v, count as u32, powers)
}

/// `%.*g`: the shorter of `%e`/`%f` per C's rules — `precision` significant
/// digits (minimum 1), `%e` when the decimal exponent is `< -4` or `≥
/// precision`, trailing zeros removed.
///
/// ```
/// assert_eq!(fpp::printf::format_g(0.00012345, 3), "0.000123");
/// assert_eq!(fpp::printf::format_g(123456.0, 3), "1.23e+05");
/// assert_eq!(fpp::printf::format_g(1500.0, 6), "1500");
/// ```
///
/// # Panics
///
/// Panics if `precision` exceeds [`MAX_PRECISION`].
#[must_use]
pub fn format_g(v: f64, precision: u32) -> String {
    check_precision(precision);
    if let Some(s) = special(v) {
        return s;
    }
    let p = precision.max(1);
    let (mut digits, k) = digits_of(v, |sf, powers| simple_fixed_digits(sf, p, powers));
    while digits.len() > 1 && digits.last() == Some(&0) {
        digits.pop();
    }
    // C: %e iff the exponent k-1 is < -4 or >= p.
    let notation = Notation::Auto {
        low: -4,
        high: p as i32,
    };
    emit(v, &digits, k, digits.len(), notation)
}

/// `%a`: C99 hexadecimal floating-point notation — exact by construction
/// (the significand is binary, so no rounding range is involved unless a
/// precision is requested).
///
/// `precision` is the number of hex digits after the point: `None` prints
/// exactly as many as needed (trailing zeros trimmed, like glibc);
/// `Some(p)` rounds the fraction to `p` digits half-to-even. Normal values
/// print with leading digit 1; subnormals with leading digit 0 and the
/// fixed exponent `p-1022` (f64), matching glibc.
///
/// ```
/// assert_eq!(fpp::printf::format_a(3.0, None), "0x1.8p+1");
/// assert_eq!(fpp::printf::format_a(1.0, None), "0x1p+0");
/// assert_eq!(fpp::printf::format_a(0.1, None), "0x1.999999999999ap-4");
/// assert_eq!(fpp::printf::format_a(5e-324, None), "0x0.0000000000001p-1022");
/// assert_eq!(fpp::printf::format_a(3.0, Some(3)), "0x1.800p+1");
/// assert_eq!(fpp::printf::format_a(0.1, Some(2)), "0x1.9ap-4");
/// ```
///
/// # Panics
///
/// Panics if `precision` exceeds [`MAX_PRECISION`].
#[must_use]
pub fn format_a(v: f64, precision: Option<u32>) -> String {
    check_precision(precision.unwrap_or(0));
    if let Some(s) = special(v) {
        return s;
    }
    let negative = v.is_sign_negative();
    let sign = if negative { "-" } else { "" };
    let mag = v.abs();
    if mag == 0.0 {
        return match precision {
            None | Some(0) => format!("{sign}0x0p+0"),
            Some(p) => format!("{sign}0x0.{}p+0", "0".repeat(p as usize)),
        };
    }
    let (_, mantissa, exponent) = mag.decode().finite_parts().expect("finite");
    // Normal: 1.frac × 2^E with 52 fraction bits; subnormal: 0.frac × 2^-1022.
    let subnormal = mantissa < (1 << 52);
    let (lead, mut frac52, exp2) = if subnormal {
        (0u8, mantissa, -1022i32)
    } else {
        (1u8, mantissa & ((1 << 52) - 1), exponent + 52)
    };
    // Round the 13-nibble fraction to the requested precision (half-even).
    let digits_kept = match precision {
        Some(p) if p < 13 => {
            let drop_bits = 4 * (13 - p);
            let kept = frac52 >> drop_bits;
            let rem = frac52 & ((1u64 << drop_bits) - 1);
            let half = 1u64 << (drop_bits - 1);
            // Half-to-even on the last retained digit — which is the lead
            // hex digit itself when p == 0.
            let parity = if p == 0 {
                u64::from(lead & 1)
            } else {
                kept & 1
            };
            let rounded = match rem.cmp(&half) {
                std::cmp::Ordering::Greater => kept + 1,
                std::cmp::Ordering::Less => kept,
                std::cmp::Ordering::Equal => kept + parity,
            };
            if p == 0 {
                // Rounding applies to the leading digit instead.
                // (kept has 0 nibbles; rounded is 0 or 1 carry)
                let carry = rounded; // 0 or 1
                let lead2 = lead + carry as u8;
                // carry past 1 -> 2..., and past 0xF impossible for lead<=1
                return format!(
                    "{sign}0x{lead2:x}p{}{}",
                    if exp2 < 0 { '-' } else { '+' },
                    exp2.abs()
                );
            }
            if rounded >> (4 * p) != 0 {
                // carried out of the fraction into the lead digit
                let lead2 = lead + 1;
                let body = "0".repeat(p as usize);
                return format!(
                    "{sign}0x{lead2:x}.{body}p{}{}",
                    if exp2 < 0 { '-' } else { '+' },
                    exp2.abs()
                );
            }
            frac52 = rounded << (4 * (13 - p));
            p
        }
        Some(p) => p,
        None => 13,
    };
    let mut body = String::new();
    let mut nibbles = Vec::with_capacity(13);
    for i in (0..13).rev() {
        nibbles.push(((frac52 >> (4 * i)) & 0xF) as u8);
    }
    let wanted = digits_kept as usize;
    let mut frac_digits: Vec<u8> = nibbles.into_iter().take(13.min(wanted)).collect();
    // pad when precision exceeds the 13 real nibbles
    while frac_digits.len() < wanted {
        frac_digits.push(0);
    }
    if precision.is_none() {
        while frac_digits.last() == Some(&0) {
            frac_digits.pop();
        }
    }
    for d in &frac_digits {
        body.push(char::from_digit(u32::from(*d), 16).expect("nibble"));
    }
    let exp_sign = if exp2 < 0 { '-' } else { '+' };
    if body.is_empty() {
        format!("{sign}0x{lead:x}p{exp_sign}{}", exp2.abs())
    } else {
        format!("{sign}0x{lead:x}.{body}p{exp_sign}{}", exp2.abs())
    }
}

/// Error from [`format_spec`] on a malformed conversion specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    reason: &'static str,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid format spec: {}", self.reason)
    }
}

impl std::error::Error for SpecError {}

/// Formats `v` according to a C-style conversion specification:
/// `%[.precision](e|E|f|F|g|G|a|A)`.
///
/// Default precisions follow C: 6 for `e`/`f`/`g`, "as needed" for `a`.
/// Uppercase conversions produce uppercase digits, markers and specials.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec does not match the grammar above or
/// its precision exceeds [`MAX_PRECISION`].
///
/// ```
/// use fpp::printf::format_spec;
/// assert_eq!(format_spec("%.2f", 3.14159).unwrap(), "3.14");
/// assert_eq!(format_spec("%e", 12345.678).unwrap(), "1.234568e+04");
/// assert_eq!(format_spec("%.3G", 0.00001).unwrap(), "1E-05");
/// assert_eq!(format_spec("%a", 3.0).unwrap(), "0x1.8p+1");
/// assert_eq!(format_spec("%.0A", f64::NAN).unwrap(), "NAN");
/// ```
pub fn format_spec(spec: &str, v: f64) -> Result<String, SpecError> {
    let body = spec.strip_prefix('%').ok_or(SpecError {
        reason: "missing %",
    })?;
    let (precision, conv) = match body.strip_prefix('.') {
        None => (None, body),
        Some(rest) => {
            let digits_end = rest.find(|c: char| !c.is_ascii_digit()).ok_or(SpecError {
                reason: "missing conversion letter",
            })?;
            if digits_end == 0 {
                return Err(SpecError {
                    reason: "empty precision",
                });
            }
            let p = rest[..digits_end]
                .parse()
                .ok()
                .filter(|&p| p <= MAX_PRECISION)
                .ok_or(SpecError {
                    reason: "precision too large",
                })?;
            (Some(p), &rest[digits_end..])
        }
    };
    if conv.chars().count() != 1 {
        return Err(SpecError {
            reason: "conversion must be one letter",
        });
    }
    let c = conv.chars().next().expect("one char");
    let lower = c.to_ascii_lowercase();
    let out = match lower {
        'e' => format_e(v, precision.unwrap_or(6)),
        'f' => format_f(v, precision.unwrap_or(6)),
        'g' => format_g(v, precision.unwrap_or(6)),
        'a' => format_a(v, precision),
        _ => {
            return Err(SpecError {
                reason: "unknown conversion letter",
            })
        }
    };
    Ok(if c.is_ascii_uppercase() {
        out.to_ascii_uppercase()
    } else {
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_e_matches_rust_std_digits() {
        // Rust's {:.*e} is also correctly rounded; layouts differ only in
        // the exponent field.
        for v in [1234.5678f64, 0.1, 1.0 / 3.0, 9.999, 1e-300, 7.0] {
            for p in [0u32, 1, 5, 12] {
                let ours = format_e(v, p);
                let std = format!("{:.*e}", p as usize, v);
                let ours_mantissa = ours.split('e').next().unwrap();
                let std_mantissa = std.split('e').next().unwrap();
                assert_eq!(ours_mantissa, std_mantissa, "{v} at {p}");
            }
        }
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14159 is deliberate imprecise test data
    fn format_f_matches_rust_std() {
        for v in [
            3.14159f64, 0.1, 2.5, -2.5, 1234.9996, 0.0004, -0.0004, 99.995, 0.0,
        ] {
            for p in [0u32, 1, 2, 3, 8] {
                let ours = format_f(v, p);
                let std = format!("{:.*}", p as usize, v);
                assert_eq!(ours, std, "{v} at {p}");
            }
        }
    }

    #[test]
    fn format_f_huge_and_tiny() {
        assert_eq!(format_f(1e21, 0).len(), 22);
        assert_eq!(format_f(5e-324, 2), "0.00");
        let s = format_f(5e-324, 330);
        assert!(s.starts_with("0.000"));
        assert_eq!(s.len(), 332); // "0." + 330 digits
        assert!(s.contains("494065"), "{s}");
    }

    #[test]
    fn format_e_specials() {
        assert_eq!(format_e(f64::NAN, 3), "nan");
        assert_eq!(format_e(f64::INFINITY, 3), "inf");
        assert_eq!(format_e(f64::NEG_INFINITY, 3), "-inf");
        assert_eq!(format_e(-0.0, 1), "-0.0e+00");
    }

    #[test]
    fn format_a_round_trips_exhaustively_sampled() {
        let mut state: u64 = 0xabcdef;
        for _ in 0..3000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            if !v.is_finite() {
                continue;
            }
            let s = format_a(v, None);
            let back: f64 = fpp_reader::read_hex(&s).expect("well-formed");
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn format_a_goldens() {
        assert_eq!(format_a(1.0, None), "0x1p+0");
        assert_eq!(format_a(-2.0, None), "-0x1p+1");
        assert_eq!(format_a(0.5, None), "0x1p-1");
        assert_eq!(format_a(f64::MAX, None), "0x1.fffffffffffffp+1023");
        assert_eq!(format_a(f64::MIN_POSITIVE, None), "0x1p-1022");
        assert_eq!(format_a(0.0, None), "0x0p+0");
        assert_eq!(format_a(-0.0, Some(2)), "-0x0.00p+0");
        assert_eq!(format_a(f64::NAN, None), "nan");
        // precision rounding (Rust has no hex-float literals; build exactly)
        let x1_15 = 1.0 + 0x15 as f64 / 256.0; // 0x1.15p+0
        assert_eq!(format_a(x1_15, Some(1)), "0x1.1p+0"); // tie: .15 → even .1
        let x1_18 = 1.0 + 0x18 as f64 / 256.0; // 0x1.18p+0
        assert_eq!(format_a(x1_18, Some(1)), "0x1.2p+0"); // tie: .18 → even .2
                                                          // carry out of the fraction: 0x1.fffp+0 at 2 digits → 0x2.00p+0
        let x1_fff = 1.0 + 0xfff as f64 / 4096.0;
        assert_eq!(format_a(x1_fff, Some(2)), "0x2.00p+0");
        // precision 0 rounds the lead digit
        assert_eq!(format_a(1.5, Some(0)), "0x2p+0");
        assert_eq!(format_a(1.25, Some(0)), "0x1p+0");
        // padding beyond 13 nibbles
        assert_eq!(format_a(1.0, Some(15)), "0x1.000000000000000p+0");
    }

    #[test]
    fn format_spec_parsing_and_dispatch() {
        assert_eq!(format_spec("%f", 1.5).unwrap(), "1.500000");
        assert_eq!(format_spec("%.0f", 1.5).unwrap(), "2");
        assert_eq!(format_spec("%.3e", -0.000271828).unwrap(), "-2.718e-04");
        assert_eq!(format_spec("%E", 12345.0).unwrap(), "1.234500E+04");
        assert_eq!(format_spec("%g", 0.0001).unwrap(), "0.0001");
        assert_eq!(format_spec("%.13a", 0.1).unwrap(), "0x1.999999999999ap-4");
        assert_eq!(format_spec("%A", 3.0).unwrap(), "0X1.8P+1");
        assert_eq!(format_spec("%F", f64::INFINITY).unwrap(), "INF");
        for bad in ["f", "%", "%.f", "%q", "%.2", "%.2x", "%ff"] {
            assert!(format_spec(bad, 1.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn format_spec_rejects_precision_above_max() {
        for conv in ['e', 'f', 'g', 'a', 'E', 'F', 'G', 'A'] {
            let spec = format!("%.{}{conv}", MAX_PRECISION + 1);
            assert!(format_spec(&spec, 1.5).is_err(), "{spec}");
        }
        for spec in [
            "%.99999999e",
            "%.99999999f",
            "%.4000000000g",
            "%.4000000000a",
        ] {
            assert!(format_spec(spec, 1.5).is_err(), "{spec}");
        }
    }

    #[test]
    #[should_panic(expected = "precision above MAX_PRECISION")]
    fn format_g_panics_above_max_precision() {
        let _ = format_g(1.5, MAX_PRECISION + 1);
    }

    #[test]
    #[should_panic(expected = "precision above MAX_PRECISION")]
    fn format_a_panics_above_max_precision() {
        let _ = format_a(1.5, Some(MAX_PRECISION + 1));
    }

    #[test]
    fn format_g_rules() {
        assert_eq!(format_g(100.0, 6), "100");
        assert_eq!(format_g(0.0001, 6), "0.0001");
        assert_eq!(format_g(0.00001, 6), "1e-05");
        assert_eq!(format_g(1234567.0, 6), "1.23457e+06");
        assert_eq!(format_g(0.0, 6), "0");
        assert_eq!(format_g(-1.5, 6), "-1.5");
    }
}
