//! Reader edge cases: unusual-but-legal literals, hostile inputs, and the
//! corners of the grammar.

use fpp::float::RoundingMode;
use fpp::reader::{read_f64, read_f64_exact, read_f64_fast, read_float, read_hex};

#[test]
fn leading_zeros_and_redundant_forms() {
    assert_eq!(read_f64("000123.4500").unwrap(), 123.45);
    assert_eq!(read_f64("0000.5").unwrap(), 0.5);
    assert_eq!(read_f64("+0.5").unwrap(), 0.5);
    assert_eq!(read_f64("5.").unwrap(), 5.0);
    assert_eq!(read_f64(".5").unwrap(), 0.5);
    assert_eq!(read_f64("1e+0").unwrap(), 1.0);
    assert_eq!(read_f64("1E-0").unwrap(), 1.0);
}

#[test]
fn zero_spellings() {
    for s in ["0", "0.0", "0e99", "0.000e-99", "-0", "-0.0e5", ".0"] {
        let v = read_f64(s).unwrap();
        assert_eq!(v, 0.0, "{s}");
        assert_eq!(v.is_sign_negative(), s.starts_with('-'), "{s}");
    }
}

#[test]
fn enormous_exponents_on_zero_and_nonzero() {
    assert_eq!(read_f64("0e999999999999999999999999").unwrap(), 0.0);
    assert!(read_f64("1e999999999999999999999999")
        .unwrap()
        .is_infinite());
    assert_eq!(read_f64("1e-999999999999999999999999").unwrap(), 0.0);
}

#[test]
fn exponent_applies_to_truncated_coefficients() {
    // More digits than the exact-retention cap, balanced by the exponent:
    // the value is still correctly rounded.
    let mut s = "1".to_string();
    s.push_str(&"0".repeat(2000));
    s.push_str("e-2000");
    assert_eq!(read_f64(&s).unwrap(), 1.0);
    // ...and a sticky digit at the far end still influences rounding of a
    // halfway literal.
    let base = "2.5000000000000000000000000000000000000000000000000"; // exact tie at 1 digit? no: full f64 literal
    let v = read_f64(base).unwrap();
    assert_eq!(v, 2.5);
}

#[test]
fn base36_extremes() {
    let v: f64 = read_float("zz.z", 36, RoundingMode::NearestEven).unwrap();
    assert!((v - (35.0 * 36.0 + 35.0 + 35.0 / 36.0)).abs() < 1e-9);
    let v: f64 = read_float("1@-3", 36, RoundingMode::NearestEven).unwrap();
    assert_eq!(v, 36f64.powi(-3));
}

#[test]
fn hash_marks_interact_with_exponents() {
    // Fixed-format output in scientific notation includes marks before the
    // exponent: "1.23##e-5" must parse (marks read as sticky zeros).
    let v = read_f64("1.23##e-5").unwrap();
    // The marks are sticky zeros: the value reads as 1.23e-5 (they could
    // only matter on an exact halfway literal).
    assert_eq!(v, 1.23e-5);
    // Marks cannot appear in the exponent field.
    assert!(read_f64("1.23e-5#").is_err());
}

#[test]
fn rejected_forms() {
    for bad in [
        "", " ", "1 ", " 1", "+", "-", ".", "e", "1e", "1e+", "1e-", "0x1", "1.2e3.4", "..1",
        "1..", "--1", "++1", "1_000", "NaN%",
    ] {
        assert!(read_f64(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn hex_float_edges() {
    assert_eq!(read_hex::<f64>("0x.8p1").unwrap(), 1.0);
    assert_eq!(read_hex::<f64>("0x10p-4").unwrap(), 1.0);
    assert_eq!(read_hex::<f64>("-0x1p0").unwrap(), -1.0);
    // rounding at 53 bits: 14 hex digits need rounding
    let v = read_hex::<f64>("0x1.00000000000008p0").unwrap(); // exact tie -> even
    assert_eq!(v, 1.0);
    let v = read_hex::<f64>("0x1.00000000000008000001p0").unwrap(); // above tie
    assert_eq!(v, 1.0 + f64::EPSILON);
    // overflow / underflow
    assert!(read_hex::<f64>("0x1p99999").unwrap().is_infinite());
    assert_eq!(read_hex::<f64>("0x1p-99999").unwrap(), 0.0);
    for bad in ["0x", "0xp1", "0x1", "0x1.8", "0x1.8q1", "1.8p1"] {
        assert!(read_hex::<f64>(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn fast_tiers_preserve_negative_zero() {
    // The fast scanner handles the sign itself; every zero spelling it
    // accepts must carry the sign bit through, matching the general parser.
    for s in ["-0", "-0.0", "-0e99", "-0.000e-99", "-0.0e5", "-.0"] {
        let fast = read_f64_fast(s).unwrap_or_else(|| panic!("{s:?} is fast-grammar"));
        assert_eq!(fast.to_bits(), (-0.0f64).to_bits(), "{s}");
        assert_eq!(read_f64(s).unwrap().to_bits(), fast.to_bits(), "{s}");
    }
    for s in ["0", "+0.0", "0e-99", ".0"] {
        let fast = read_f64_fast(s).unwrap_or_else(|| panic!("{s:?} is fast-grammar"));
        assert_eq!(fast.to_bits(), 0.0f64.to_bits(), "{s}");
    }
}

#[test]
fn empty_fraction_and_empty_integer_forms_take_the_fast_path() {
    // `1.e5`-style literals (digits, point, nothing, exponent) and their
    // `.5`-style duals are legal in the general grammar; the fast scanner
    // must agree on both acceptance and value.
    for (s, expect) in [
        ("1.e5", 1e5),
        ("3.", 3.0),
        (".5", 0.5),
        (".5e-1", 0.05),
        ("-2.e-3", -0.002),
        ("+.25e2", 25.0),
        ("12.E+2", 1200.0),
    ] {
        assert_eq!(read_f64(s).unwrap(), expect, "{s}");
        assert_eq!(
            read_f64_fast(s).unwrap_or_else(|| panic!("{s:?} is fast-grammar")),
            expect,
            "{s}"
        );
    }
    // A bare point has no digits anywhere: both layers must reject.
    assert!(read_f64(".").is_err());
    assert!(read_f64_fast(".").is_none());
    assert!(read_f64_fast(".e5").is_none());
}

#[test]
fn u64_overflowing_coefficients_agree_with_exact_reader() {
    // Coefficients past 2^64 overflow the scanner's 19-digit window; the
    // truncated-tail bracket (or the exact fallback) must still round
    // correctly. 2^64 itself is exactly representable as a double.
    let s = "18446744073709551616"; // 2^64
    assert_eq!(read_f64(s).unwrap(), 18446744073709551616.0);
    assert_eq!(read_f64(s).unwrap(), read_f64_exact(s).unwrap());
    // 2^64 ± 1 round to the same double (spacing is 4096 here).
    assert_eq!(
        read_f64("18446744073709551615").unwrap(),
        18446744073709551616.0
    );
    assert_eq!(
        read_f64("18446744073709551617").unwrap(),
        18446744073709551616.0
    );
    // A 40-digit integer and its negation.
    for s in [
        "1234567890123456789012345678901234567890",
        "-1234567890123456789012345678901234567890",
        "9999999999999999999999999999999999999999",
    ] {
        let tiered = read_f64(s).unwrap();
        let exact = read_f64_exact(s).unwrap();
        let std_v: f64 = s.parse().unwrap();
        assert_eq!(tiered.to_bits(), exact.to_bits(), "{s}");
        assert_eq!(tiered.to_bits(), std_v.to_bits(), "{s}");
        if let Some(fast) = read_f64_fast(s) {
            assert_eq!(fast.to_bits(), std_v.to_bits(), "{s}");
        }
    }
}

#[test]
fn round_trip_of_all_printf_outputs() {
    // Everything the printf layer emits must be readable by the reader.
    for v in [0.1f64, 2.5, 1e300, 5e-324, 123.456] {
        for p in [0u32, 3, 10] {
            let e = fpp::printf::format_e(v, p);
            assert!(read_f64(&e).is_ok(), "{e}");
            let f = fpp::printf::format_f(v, p);
            assert!(read_f64(&f).is_ok(), "{f}");
            let g = fpp::printf::format_g(v, p.max(1));
            assert!(read_f64(&g).is_ok(), "{g}");
            let a = fpp::printf::format_a(v, None);
            assert_eq!(read_hex::<f64>(&a).unwrap(), v, "{a}");
        }
    }
}

/// Checks a long literal on every read path: `read_f64_exact`, `read_f64`
/// and `str::parse` agree on the bits, and the directed modes bracket that
/// value with adjacent (or equal) doubles.
fn check_long(s: &str, expect: f64) {
    let std_v: f64 = s.parse().expect("std parses");
    assert_eq!(
        std_v.to_bits(),
        expect.to_bits(),
        "str::parse on {}",
        show(s)
    );
    check_reads(s, expect);
}

/// [`check_long`] without `str::parse`.
fn check_reads(s: &str, expect: f64) {
    let exact = read_f64_exact(s).unwrap();
    assert_eq!(
        exact.to_bits(),
        expect.to_bits(),
        "read_f64_exact on {}",
        show(s)
    );
    let tiered = read_f64(s).unwrap();
    assert_eq!(
        tiered.to_bits(),
        expect.to_bits(),
        "read_f64 on {}",
        show(s)
    );
    let down: f64 = read_float(s, 10, RoundingMode::TowardZero).unwrap();
    let up: f64 = read_float(s, 10, RoundingMode::AwayFromZero).unwrap();
    assert!(
        down <= expect && expect <= up && (down == up || down.next_up() == up),
        "directed modes {down:e}, {up:e} do not bracket {expect:e} on {}",
        show(s)
    );
}

/// A long literal shortened for a failure message.
fn show(s: &str) -> String {
    format!("{}...{} ({} bytes)", &s[..8], &s[s.len() - 12..], s.len())
}

/// The digit-retention cap (1100 digits) must count significant digits
/// only: runs of zeros before the first one take no slot.
const ZERO_RUNS: [usize; 4] = [1099, 1100, 1101, 5000];

#[test]
fn integer_leading_zeros_take_no_digit_slots() {
    for n in ZERO_RUNS {
        let zeros = "0".repeat(n);
        check_long(&format!("{zeros}1"), 1.0);
        check_long(&format!("{zeros}2.71e-7"), 2.71e-7);
        check_long(&format!("{zeros}1e-5"), 1e-5);
        // Past the leading zeros the cap counts again: 1200 ones keep 1100
        // and fold the rest into the sticky bit.
        check_long(
            &format!("{zeros}{}e-1200", "1".repeat(1200)),
            0.1111111111111111,
        );
    }
}

#[test]
fn fraction_leading_zeros_take_no_digit_slots_but_scale() {
    for n in ZERO_RUNS {
        let zeros = "0".repeat(n);
        // 0.[n zeros]5 × 10^(n − 99) = 5e-100.
        check_long(&format!("0.{zeros}5e{}", n as i64 - 99), 5e-100);
        check_long(&format!(".{zeros}25e{n}"), 0.25);
        check_long(
            &format!("0.{zeros}{}e{n}", "1".repeat(1200)),
            0.1111111111111111,
        );
        // No exponent: below the smallest subnormal, so nearest gives 0,
        // toward-zero 0 and away-from-zero the smallest subnormal.
        check_long(&format!("0.{zeros}1"), 0.0);
    }
}

#[test]
fn mebibyte_zero_padded_literals() {
    let zeros = "0".repeat(1 << 20);
    check_long(&format!("{zeros}1.5"), 1.5);
    check_long(&format!("0.{zeros}15"), 0.0);
    // `str::parse` stops reading exponent digits once their value passes
    // 65535, so it reads this one as 0; the value is 1.5.
    check_reads(&format!("0.{zeros}15e{}", (1 << 20) + 1), 1.5);
}
