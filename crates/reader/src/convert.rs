//! Conversion of a literal to a correctly rounded hardware float: the
//! Eisel–Lemire tier over a scanned decimal, and the exact route, which is
//! the binary instance of the format-generic converter behind
//! [`crate::read_soft`].

use crate::lemire::{eisel_lemire, LemireFloat};
use crate::parse::Literal;
use crate::scan::ScannedDecimal;
use crate::soft::{round_to_format, Rounded, SoftFormat};
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
    fpp_telemetry::record_read(ReadPath::Exact);
    let format = SoftFormat {
        base: 2,
        precision: F::PRECISION,
        min_exp: F::MIN_EXP,
        max_exp: F::MAX_EXP,
    };
    match round_to_format(parts, base, rounding, &format) {
        Rounded::Zero => F::encode(parts.negative, 0, 0),
        Rounded::Finite(f, e) => F::encode(
            parts.negative,
            u64::try_from(&f).expect("significand fits u64 for p <= 64"),
            e,
        ),
        Rounded::Overflow => F::infinity(parts.negative),
    }
}

/// Converts a scanned base-10 literal to `F` through the Eisel–Lemire tier
/// under round-to-nearest-even, recording reader telemetry on success. The
/// tier answers every literal of at most 19 significant digits. A longer
/// one was scanned as a 19-digit prefix `w` with a dropped non-zero tail,
/// which pins its value inside `(w, w+1) × 10^q`: when both ends round to
/// the same float, every value between them does too (rounding is
/// monotone) and that float is the answer. Otherwise `None`, and the
/// caller takes the general parse → exact route. The tier computes the
/// magnitude; the sign is applied by negating it.
pub(crate) fn scanned_to_float<F: LemireFloat>(sc: &ScannedDecimal) -> Option<F> {
    let v = eisel_lemire::<F>(sc.mantissa, sc.exponent);
    if sc.truncated
        && v.to_bits_u64() != eisel_lemire::<F>(sc.mantissa + 1, sc.exponent).to_bits_u64()
    {
        return None;
    }
    fpp_telemetry::record_read(ReadPath::EiselLemire);
    Some(if sc.negative { -v } else { v })
}

/// [`scanned_to_float`] for a generic target: `None` (take the general
/// route) unless `F` is one of the hardware formats.
///
/// The tier stays on `f64` and `f32` because its subnormal branch rounds
/// half up, which is right only when no exact subnormal midpoint has a
/// `u64` coefficient. Such a midpoint `(2m+1)·2^(MIN_EXP−1)` needs the
/// coefficient `(2m+1)·5^(1−MIN_EXP)`, above `2^64` for both hardware
/// formats. For binary16 it is not (`5^25 < 2^64`): through this tier,
/// `149011611938476562500000000000e-36`, the midpoint of the subnormals
/// `0x0002` and `0x0003`, would read as `0x0003` instead of the even
/// `0x0002`.
pub(crate) fn scanned_to_any<F: FloatFormat>(sc: &ScannedDecimal) -> Option<F> {
    if F::PRECISION == 53 && F::MIN_EXP == -1074 {
        scanned_to_float::<f64>(sc).map(reencode::<f64, F>)
    } else if F::PRECISION == 24 && F::MIN_EXP == -149 {
        scanned_to_float::<f32>(sc).map(reencode::<f32, F>)
    } else {
        None
    }
}

/// Re-encodes an Eisel–Lemire float `H` as the generic target `F`, which the
/// caller has checked has the same format.
fn reencode<H: FloatFormat, F: FloatFormat>(v: H) -> F {
    debug_assert!(F::PRECISION == H::PRECISION && F::MIN_EXP == H::MIN_EXP);
    match v.decode() {
        fpp_float::Decoded::Finite {
            negative,
            mantissa,
            exponent,
        } => F::encode(negative, mantissa, exponent),
        fpp_float::Decoded::Zero { negative } => F::encode(negative, 0, 0),
        // Eisel–Lemire reports certain overflow as infinity.
        fpp_float::Decoded::Infinite { negative } => F::infinity(negative),
        fpp_float::Decoded::Nan => unreachable!("Eisel–Lemire never produces NaN"),
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
