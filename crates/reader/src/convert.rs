//! Exact big-integer conversion of a parsed literal to a correctly rounded
//! hardware float (Clinger's AlgorithmM/AlgorithmR family).

use crate::fast::fast_path;
use crate::lemire::eisel_lemire;
use crate::parse::Literal;
use crate::scan::ScannedDecimal;
use fpp_bignum::Nat;
use fpp_float::{FloatFormat, RoundingMode};
use fpp_telemetry::ReadPath;

/// A finite literal in coefficient–exponent form: the value is
/// `± digits × base^exponent`, with `truncated` recording that additional
/// non-zero digits were dropped beyond the retained coefficient (they can
/// only matter as a sticky bit in exact-tie decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecimalParts {
    /// Sign of the literal.
    pub negative: bool,
    /// The retained significant digits as one big natural.
    pub digits: Nat,
    /// Power of the literal base scaling `digits`.
    pub exponent: i64,
    /// Whether non-zero digits beyond the retained coefficient were dropped.
    pub truncated: bool,
}

/// Converts a parsed literal to a correctly rounded float under the given
/// rounding mode ([`RoundingMode::Conservative`] behaves as
/// [`RoundingMode::NearestEven`]).
///
/// Handles overflow (to infinity, or to the largest finite value under
/// [`RoundingMode::TowardZero`]) and underflow (to zero, or to the smallest
/// subnormal under [`RoundingMode::AwayFromZero`]) per IEEE 754 semantics.
#[must_use]
pub fn decimal_to_float<F: FloatFormat>(lit: &Literal, base: u64, rounding: RoundingMode) -> F {
    let parts = match lit {
        Literal::Nan => return F::nan(),
        Literal::Infinity { negative } => return F::infinity(*negative),
        Literal::Finite(parts) => parts,
    };
    if parts.digits.is_zero() && !parts.truncated {
        return F::encode(parts.negative, 0, 0);
    }
    // Fast tiers: base-10 literals with a u64-sized coefficient under
    // round-to-nearest-even, when the target is a hardware format. Clinger's
    // one-operation path first (f64 only), then the Eisel–Lemire truncated
    // product; its rejections fall through to the exact path below.
    if base == 10 && !parts.truncated && matches!(rounding, RoundingMode::NearestEven) {
        if F::PRECISION == 53 && F::MIN_EXP == -1074 {
            if let Ok(d) = u64::try_from(&parts.digits) {
                if let Some(v) = fast_path(d, parts.exponent) {
                    fpp_telemetry::record_read(ReadPath::FastPath);
                    return encode_from_f64::<F>(v, parts.negative);
                }
                if let Some(v) = eisel_lemire::<f64>(d, parts.exponent) {
                    fpp_telemetry::record_read(ReadPath::EiselLemire);
                    return encode_from_f64::<F>(v, parts.negative);
                }
            }
        } else if F::PRECISION == 24 && F::MIN_EXP == -149 {
            if let Ok(d) = u64::try_from(&parts.digits) {
                if let Some(v) = eisel_lemire::<f32>(d, parts.exponent) {
                    fpp_telemetry::record_read(ReadPath::EiselLemire);
                    return encode_from_f32::<F>(v, parts.negative);
                }
            }
        }
    }
    fpp_telemetry::record_read(ReadPath::Exact);
    convert_exact::<F>(parts, base, rounding)
}

/// Converts a parsed literal through the exact big-integer path **only**,
/// skipping every fast tier — the oracle the differential and round-trip
/// suites (and the `roundtrip` bench's baseline) compare against. Output is
/// bit-identical to [`decimal_to_float`] for every input, by construction:
/// the fast tiers reject rather than approximate.
#[must_use]
pub fn decimal_to_float_exact<F: FloatFormat>(
    lit: &Literal,
    base: u64,
    rounding: RoundingMode,
) -> F {
    let parts = match lit {
        Literal::Nan => return F::nan(),
        Literal::Infinity { negative } => return F::infinity(*negative),
        Literal::Finite(parts) => parts,
    };
    if parts.digits.is_zero() && !parts.truncated {
        return F::encode(parts.negative, 0, 0);
    }
    fpp_telemetry::record_read(ReadPath::Exact);
    convert_exact::<F>(parts, base, rounding)
}

/// Converts a scanned base-10 literal to `f64` through the fast tiers
/// only, under round-to-nearest-even: Clinger's one-operation path first,
/// then Eisel–Lemire. `None` means no tier could certify the rounding and
/// the caller must take the general parse → exact route. The tiers compute
/// the magnitude; the sign is applied by negating it. Records reader
/// telemetry on success.
pub(crate) fn scanned_to_f64(sc: &ScannedDecimal) -> Option<f64> {
    let clinger = if sc.truncated {
        None
    } else {
        fast_path(sc.mantissa, sc.exponent)
    };
    let v = match clinger {
        Some(v) => {
            fpp_telemetry::record_read(ReadPath::FastPath);
            v
        }
        None => {
            let v = scanned_eisel_lemire::<f64>(sc)?;
            fpp_telemetry::record_read(ReadPath::EiselLemire);
            v
        }
    };
    Some(if sc.negative { -v } else { v })
}

/// `f32` counterpart of [`scanned_to_f64`] (Eisel–Lemire only: Clinger's
/// path is `f64` arithmetic).
pub(crate) fn scanned_to_f32(sc: &ScannedDecimal) -> Option<f32> {
    let v = scanned_eisel_lemire::<f32>(sc)?;
    fpp_telemetry::record_read(ReadPath::EiselLemire);
    Some(if sc.negative { -v } else { v })
}

/// [`scanned_to_f64`] / [`scanned_to_f32`] for a generic target: `None`
/// (take the general route) unless `F` is one of the hardware formats.
pub(crate) fn scanned_to_float<F: FloatFormat>(sc: &ScannedDecimal) -> Option<F> {
    if F::PRECISION == 53 && F::MIN_EXP == -1074 {
        scanned_to_f64(sc).map(|v| encode_from_f64::<F>(v, sc.negative))
    } else if F::PRECISION == 24 && F::MIN_EXP == -149 {
        scanned_to_f32(sc).map(|v| encode_from_f32::<F>(v, sc.negative))
    } else {
        None
    }
}

/// The magnitude of a scanned literal via Eisel–Lemire, including the
/// truncated-tail bracketing trick: a 19-digit prefix `w` with a dropped
/// non-zero tail pins the true value inside `(w, w+1) × 10^q`, so when
/// both endpoints round to the same float, every value between them does
/// too (rounding is monotone) and that float is the answer. Disagreement —
/// or a tier rejection — returns `None`.
fn scanned_eisel_lemire<F: crate::lemire::LemireFloat>(sc: &ScannedDecimal) -> Option<F> {
    let low = eisel_lemire::<F>(sc.mantissa, sc.exponent)?;
    if sc.truncated {
        let high = eisel_lemire::<F>(sc.mantissa + 1, sc.exponent)?;
        if low.to_bits_u64() != high.to_bits_u64() {
            return None;
        }
    }
    Some(low)
}

/// Re-encodes the magnitude of a fast-tier `f64` as the generic target `F`
/// (which the callers have checked is `f64`-shaped) with the given sign.
fn encode_from_f64<F: FloatFormat>(v: f64, negative: bool) -> F {
    // The fast tiers only run when F is f64 (53-bit significand).
    debug_assert!(F::PRECISION == 53);
    match v.decode() {
        fpp_float::Decoded::Finite {
            mantissa, exponent, ..
        } => F::encode(negative, mantissa, exponent),
        fpp_float::Decoded::Zero { .. } => F::encode(negative, 0, 0),
        // Eisel–Lemire reports certain overflow as infinity.
        fpp_float::Decoded::Infinite { .. } => F::infinity(negative),
        fpp_float::Decoded::Nan => unreachable!("fast tiers never produce NaN"),
    }
}

/// `f32` counterpart of [`encode_from_f64`], for the `f32` fast tier.
fn encode_from_f32<F: FloatFormat>(v: f32, negative: bool) -> F {
    debug_assert!(F::PRECISION == 24);
    match v.decode() {
        fpp_float::Decoded::Finite {
            mantissa, exponent, ..
        } => F::encode(negative, mantissa, exponent),
        fpp_float::Decoded::Zero { .. } => F::encode(negative, 0, 0),
        fpp_float::Decoded::Infinite { .. } => F::infinity(negative),
        fpp_float::Decoded::Nan => unreachable!("fast tiers never produce NaN"),
    }
}

/// The exact path: scaled division with sticky-aware rounding.
fn convert_exact<F: FloatFormat>(parts: &DecimalParts, base: u64, rounding: RoundingMode) -> F {
    let neg = parts.negative;
    let p = F::PRECISION;
    let min_e = F::MIN_EXP;
    let max_e = F::MAX_EXP;

    // Magnitude screen: log2(value) = log2(digits) + exponent·log2(base).
    // Values that are out of range by a wide margin skip the big arithmetic
    // (the exponent may be astronomically large).
    let log2_base = (base as f64).log2();
    let approx_log2 = parts.digits.bit_len() as f64 + parts.exponent as f64 * log2_base;
    if approx_log2 > (max_e + p as i32) as f64 + 8.0 {
        return overflow::<F>(neg, rounding);
    }
    if approx_log2 < (min_e - 8) as f64 {
        return underflow::<F>(neg, rounding, /*exactly_zero=*/ false);
    }

    // num/den = |value| exactly.
    let (num, den) = if parts.exponent >= 0 {
        let scale = Nat::from(base).pow(u32::try_from(parts.exponent).expect("screened"));
        (&parts.digits * &scale, Nat::one())
    } else {
        let scale = Nat::from(base).pow(u32::try_from(-parts.exponent).expect("screened"));
        (parts.digits.clone(), scale)
    };
    if num.is_zero() {
        // All retained digits were zero but truncation dropped non-zeros:
        // the value is a positive infinitesimal for rounding purposes.
        return underflow::<F>(neg, rounding, false);
    }

    // Find e with q = ⌊num / (den·2^e)⌋ in [2^(p−1), 2^p), or e = min_e.
    let mut e = num.bit_len() as i64 - den.bit_len() as i64 - p as i64;
    e = e.max(min_e as i64);
    let (mut q, mut rem, mut eff_den) = divide_at(&num, &den, e);
    // Adjust downward while too small (at most a couple of iterations).
    while e > min_e as i64 && q.bit_len() < p as u64 {
        e -= 1;
        (q, rem, eff_den) = divide_at(&num, &den, e);
    }
    // Adjust upward while too large.
    while q.bit_len() > p as u64 {
        e += 1;
        (q, rem, eff_den) = divide_at(&num, &den, e);
    }

    // Round the quotient per the mode, with the sticky flag standing in for
    // the dropped tail.
    let sticky = parts.truncated;
    let exact = rem.is_zero() && !sticky;
    let round_up = if exact {
        false
    } else {
        match rounding {
            RoundingMode::TowardZero => false,
            RoundingMode::AwayFromZero => true,
            RoundingMode::NearestEven
            | RoundingMode::Conservative
            | RoundingMode::NearestAwayFromZero
            | RoundingMode::NearestTowardZero => {
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
                                    !q.is_even()
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
        q.add_u64(1);
        if q.bit_len() > p as u64 {
            // Carried into a new bit: renormalize (q = 2^p → 2^(p−1)).
            q >>= 1;
            e += 1;
        }
    }

    if q.is_zero() {
        return underflow::<F>(neg, rounding, exact);
    }
    if e > max_e as i64 {
        return overflow::<F>(neg, rounding);
    }
    let mantissa = u64::try_from(&q).expect("mantissa fits u64 for p <= 64");
    F::encode(neg, mantissa, e as i32)
}

/// `(q, rem, eff_den)` with `num = q·eff_den·... `: divides `num` by
/// `den·2^e`, returning the effective denominator for remainder comparisons.
fn divide_at(num: &Nat, den: &Nat, e: i64) -> (Nat, Nat, Nat) {
    if e >= 0 {
        let eff = den << u32::try_from(e).expect("exponent fits");
        let (q, rem) = num.div_rem(&eff);
        (q, rem, eff)
    } else {
        let shifted = num << u32::try_from(-e).expect("exponent fits");
        let (q, rem) = shifted.div_rem(den);
        (q, rem, den.clone())
    }
}

fn overflow<F: FloatFormat>(neg: bool, rounding: RoundingMode) -> F {
    match rounding {
        RoundingMode::TowardZero => {
            let m = F::max_finite();
            if neg {
                negate::<F>(m)
            } else {
                m
            }
        }
        _ => F::infinity(neg),
    }
}

fn underflow<F: FloatFormat>(neg: bool, rounding: RoundingMode, exactly_zero: bool) -> F {
    if !exactly_zero && matches!(rounding, RoundingMode::AwayFromZero) {
        // Any non-zero magnitude rounds away to the smallest subnormal.
        return F::encode(neg, 1, F::MIN_EXP);
    }
    F::encode(neg, 0, 0)
}

fn negate<F: FloatFormat>(v: F) -> F {
    match v.decode() {
        fpp_float::Decoded::Finite {
            mantissa, exponent, ..
        } => F::encode(true, mantissa, exponent),
        fpp_float::Decoded::Zero { .. } => F::encode(true, 0, 0),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_literal;

    fn read(s: &str) -> f64 {
        decimal_to_float::<f64>(
            &parse_literal(s, 10).unwrap(),
            10,
            RoundingMode::NearestEven,
        )
    }

    #[test]
    fn matches_std_parse_on_samples() {
        for s in [
            "0.1",
            "0.3",
            "1e23",
            "9.999999999999999e22",
            "1.7976931348623157e308",
            "4.9e-324",
            "5e-324",
            "2.2250738585072014e-308",
            "2.2250738585072011e-308", // famous PHP hang value
            "123456789.123456789",
            "0.000001",
            "1e-400",
            "1e400",
            "0",
            "-0",
        ] {
            let expect: f64 = s.parse().unwrap();
            let got = read(s);
            assert!(
                got == expect || (got.is_nan() && expect.is_nan()),
                "{s}: got {got}, expect {expect}"
            );
            assert_eq!(got.to_bits(), expect.to_bits(), "{s} bit pattern");
        }
    }

    #[test]
    fn halfway_cases_round_to_even() {
        // 1e23 is exactly halfway between two doubles; round-to-even picks
        // the one with even mantissa (the smaller, per the paper §3.1).
        let v = read("100000000000000000000000");
        assert_eq!(v, 1e23);
        let below = read("99999999999999991611392"); // exact value of the smaller neighbour
        assert_eq!(v, below);
    }

    #[test]
    fn directed_modes() {
        let lit = parse_literal("0.1", 10).unwrap();
        let down = decimal_to_float::<f64>(&lit, 10, RoundingMode::TowardZero);
        let up = decimal_to_float::<f64>(&lit, 10, RoundingMode::AwayFromZero);
        let near = decimal_to_float::<f64>(&lit, 10, RoundingMode::NearestEven);
        assert!(down < up);
        assert_eq!(up, down + down.ulp_gap(), "adjacent");
        assert!(near == down || near == up);

        // Negative literals: toward zero truncates toward 0.
        let lit = parse_literal("-0.1", 10).unwrap();
        let down = decimal_to_float::<f64>(&lit, 10, RoundingMode::TowardZero);
        assert_eq!(down, -0.09999999999999999);
    }

    trait UlpGap {
        fn ulp_gap(self) -> f64;
    }
    impl UlpGap for f64 {
        fn ulp_gap(self) -> f64 {
            self.next_up() - self
        }
    }

    #[test]
    fn overflow_and_underflow_by_mode() {
        let lit = parse_literal("1e309", 10).unwrap();
        assert!(decimal_to_float::<f64>(&lit, 10, RoundingMode::NearestEven).is_infinite());
        assert_eq!(
            decimal_to_float::<f64>(&lit, 10, RoundingMode::TowardZero),
            f64::MAX
        );
        let lit = parse_literal("-1e309", 10).unwrap();
        assert_eq!(
            decimal_to_float::<f64>(&lit, 10, RoundingMode::TowardZero),
            -f64::MAX
        );
        let lit = parse_literal("1e-500", 10).unwrap();
        assert_eq!(
            decimal_to_float::<f64>(&lit, 10, RoundingMode::NearestEven),
            0.0
        );
        assert_eq!(
            decimal_to_float::<f64>(&lit, 10, RoundingMode::AwayFromZero),
            f64::from_bits(1)
        );
    }

    #[test]
    fn subnormal_boundaries() {
        // Halfway between 0 and the smallest subnormal: 2^-1075 ≈ 2.47e-324.
        assert_eq!(read("2.470328229206232e-324"), f64::from_bits(0)); // just below half
        assert_eq!(read("2.5e-324"), f64::from_bits(1)); // above half
        assert_eq!(read("7.4e-324"), f64::from_bits(1)); // rounds to 1·2^-1074? (7.4 < 7.41)
    }

    #[test]
    fn f32_conversion() {
        let lit = parse_literal("0.1", 10).unwrap();
        let v = decimal_to_float::<f32>(&lit, 10, RoundingMode::NearestEven);
        assert_eq!(v, 0.1f32);
        let lit = parse_literal("3.4028236e38", 10).unwrap();
        assert!(decimal_to_float::<f32>(&lit, 10, RoundingMode::NearestEven).is_infinite());
    }

    #[test]
    fn long_literals_use_sticky_correctly() {
        // A literal exactly at a halfway point followed by 800 zeros and a 1:
        // the sticky digit forces rounding up instead of to-even.
        let half = "100000000000000000000000"; // 1e23, exact halfway
        let mut bumped = half.to_string();
        bumped.push_str(&format!(".{}1", "0".repeat(800)));
        let v_even: f64 = read(half);
        let v_bumped: f64 = read(&bumped);
        assert!(v_bumped > v_even);
    }

    #[test]
    fn other_bases() {
        let lit = parse_literal("0.1", 2).unwrap();
        assert_eq!(
            decimal_to_float::<f64>(&lit, 2, RoundingMode::NearestEven),
            0.5
        );
        let lit = parse_literal("ff.8", 16).unwrap();
        assert_eq!(
            decimal_to_float::<f64>(&lit, 16, RoundingMode::NearestEven),
            255.5
        );
    }
}
