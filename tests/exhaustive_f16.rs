//! Exhaustive whole-pipeline verification over *every* value of the 16-bit
//! formats: print shortest → read back → bit-identical, and the shortest
//! string really is shortest (dropping a digit breaks the round-trip).
//!
//! This is the strongest end-to-end statement the repository makes: for a
//! complete IEEE format (binary16) and a complete non-IEEE format
//! (bfloat16), output condition 1 and output condition 2 of §2.2 hold for
//! all 2¹⁶ bit patterns with no sampling.

use fpp::bignum::Nat;
use fpp::core::{FreeFormat, Notation};
use fpp::float::{Bf16, Decoded, FloatFormat, RoundingMode, F16};
use fpp::reader::read_float;

fn exhaustive_round_trip<F: FloatFormat + Copy>(make: fn(u16) -> F, bits_of: fn(F) -> u16) {
    let fmt = FreeFormat::new().notation(Notation::Scientific);
    let mut checked = 0u32;
    for bits in 0..=u16::MAX {
        let v = make(bits);
        match v.decode() {
            Decoded::Finite { .. } => {}
            _ => continue,
        }
        let s = fmt.format_float(v);
        let back: F = read_float(&s, 10, RoundingMode::NearestEven).expect("well-formed");
        assert_eq!(bits_of(back), bits, "{s} (bits {bits:#06x})");
        checked += 1;
    }
    assert!(checked > 60_000);
}

fn exhaustive_minimality<F: FloatFormat + Copy>(make: fn(u16) -> F, bits_of: fn(F) -> u16) {
    let fmt = FreeFormat::new().notation(Notation::Scientific);
    for bits in 0..=u16::MAX {
        let v = make(bits);
        let (negative, ..) = match v.decode() {
            Decoded::Finite {
                negative,
                mantissa,
                exponent,
            } => (negative, mantissa, exponent),
            _ => continue,
        };
        if negative {
            continue; // sign-symmetric; positive half suffices
        }
        let s = fmt.format_float(v);
        let (mantissa_txt, exp_txt) = s.split_once('e').expect("scientific form");
        let digits: String = mantissa_txt.chars().filter(char::is_ascii_digit).collect();
        if digits.len() <= 1 {
            continue;
        }
        // Truncate one digit, reattach, and try both roundings.
        let n = digits.len();
        let trunc = &digits[..n - 1];
        let down = format!("0.{}e{}", trunc, exp_txt.parse::<i32>().unwrap() + 1);
        let down_v: F = read_float(&down, 10, RoundingMode::NearestEven).expect("well-formed");
        assert_ne!(bits_of(down_v), bits, "truncation of {s} still round-trips");
        let bumped: u64 = trunc.parse::<u64>().unwrap() + 1;
        let up = format!("0.{}e{}", bumped, exp_txt.parse::<i32>().unwrap() + 1);
        let up_v: F = read_float(&up, 10, RoundingMode::NearestEven).expect("well-formed");
        assert_ne!(
            bits_of(up_v),
            bits,
            "increment of truncated {s} still round-trips"
        );
    }
}

#[test]
fn all_f16_values_round_trip() {
    exhaustive_round_trip(F16::from_bits, F16::to_bits);
}

#[test]
fn all_bf16_values_round_trip() {
    exhaustive_round_trip(Bf16::from_bits, Bf16::to_bits);
}

#[test]
fn all_f16_outputs_are_minimal() {
    exhaustive_minimality(F16::from_bits, F16::to_bits);
}

#[test]
fn all_bf16_outputs_are_minimal() {
    exhaustive_minimality(Bf16::from_bits, Bf16::to_bits);
}

#[test]
fn f16_shortest_digit_statistics() {
    // binary16 needs at most 5 significant decimal digits; verify the
    // maximum and that the known worst cases need all 5.
    let fmt = FreeFormat::new().notation(Notation::Scientific);
    let mut max_len = 0usize;
    for bits in 0..0x7C00u16 {
        if bits == 0 {
            continue;
        }
        let s = fmt.format_float(F16::from_bits(bits));
        let digits = s
            .split('e')
            .next()
            .unwrap()
            .chars()
            .filter(char::is_ascii_digit)
            .count();
        max_len = max_len.max(digits);
    }
    assert_eq!(max_len, 5);
}

/// Every reader rounding mode; the expectation tables below follow this
/// order.
const MODES: [RoundingMode; 6] = [
    RoundingMode::NearestEven,
    RoundingMode::Conservative,
    RoundingMode::NearestAwayFromZero,
    RoundingMode::NearestTowardZero,
    RoundingMode::TowardZero,
    RoundingMode::AwayFromZero,
];

/// The exact decimal text of `n × 2^e`.
fn exact_decimal(n: u64, e: i32) -> String {
    let n = Nat::from(n);
    if e >= 0 {
        (n << e.unsigned_abs()).to_string()
    } else {
        format!("{}e{e}", n * Nat::from(5u64).pow(e.unsigned_abs()))
    }
}

/// For every two adjacent positive finite values `lo < hi`, reads the exact
/// decimal text of their midpoint and of the points one 2⁻¹² ulp either
/// side of it, with both signs, under all six rounding modes, and checks
/// the neighbour each mode must pick. Only the exact reader answers these
/// (the fast tiers cover `f32`/`f64` only), so this covers the binary case
/// of the format-generic converter in formats beyond `f64`.
fn exhaustive_neighbour_reads<F: FloatFormat + Copy>(
    make: fn(u16) -> F,
    bits_of: fn(F) -> u16,
    max_finite: u16,
) {
    const SHIFT: u32 = 12;
    let finite = |bits: u16| match make(bits).decode() {
        Decoded::Finite {
            mantissa, exponent, ..
        } => (mantissa, exponent),
        other => panic!("bits {bits:#06x} decode to {other:?}"),
    };
    for lo in 1..max_finite {
        let hi = lo + 1;
        let even = if lo % 2 == 0 { lo } else { hi };
        let (f_lo, e_lo) = finite(lo);
        let (f_hi, e_hi) = finite(hi);
        // Units of 2^e with hi − lo = 2^SHIFT units.
        let e = e_lo - SHIFT as i32;
        let mid = ((f_lo << SHIFT) + (f_hi << (e_hi - e))) >> 1;
        let points = [
            (mid - 1, [lo, lo, lo, lo, lo, hi]),
            (mid, [even, even, hi, lo, lo, hi]),
            (mid + 1, [hi, hi, hi, hi, lo, hi]),
        ];
        for (n, expected) in points {
            let text = exact_decimal(n, e);
            for (sign, sign_bit) in [("", 0), ("-", 0x8000)] {
                let text = format!("{sign}{text}");
                for (mode, want) in MODES.into_iter().zip(expected) {
                    let got: F = read_float(&text, 10, mode).expect("well-formed");
                    assert_eq!(
                        bits_of(got),
                        want | sign_bit,
                        "{text} under {mode:?} (between {lo:#06x} and {hi:#06x})"
                    );
                }
            }
        }
    }
}

#[test]
fn all_f16_neighbour_pairs_read_by_mode() {
    exhaustive_neighbour_reads(F16::from_bits, F16::to_bits, 0x7BFF);
}

#[test]
fn all_bf16_neighbour_pairs_read_by_mode() {
    exhaustive_neighbour_reads(Bf16::from_bits, Bf16::to_bits, 0x7F7F);
}

#[test]
fn f32_overflow_and_underflow_by_mode() {
    let inf = f32::INFINITY;
    let tiny = f32::from_bits(1);
    let cases: [(&str, [f32; 6]); 4] = [
        ("1e39", [inf, inf, inf, inf, f32::MAX, inf]),
        ("-1e39", [-inf, -inf, -inf, -inf, -f32::MAX, -inf]),
        ("1e-50", [0.0, 0.0, 0.0, 0.0, 0.0, tiny]),
        ("-1e-50", [-0.0, -0.0, -0.0, -0.0, -0.0, -tiny]),
    ];
    for (text, expected) in cases {
        for (mode, want) in MODES.into_iter().zip(expected) {
            let got: f32 = read_float(text, 10, mode).expect("well-formed");
            assert_eq!(got.to_bits(), want.to_bits(), "{text} under {mode:?}");
        }
    }
}
