//! Round-trips for *software* float formats: the printer and the generic
//! reader close the loop for formats no hardware provides — every value of
//! several toy formats, printed in several literal bases, reads back as
//! exactly the same value.

mod common;

use common::enumerate_format;
use fpp::bignum::{Nat, PowerTable};
use fpp::core::{free_format_digits, render_in_base, Notation, ScalingStrategy, TieBreak};
use fpp::float::{RoundingMode, SoftFloat};
use fpp::reader::{read_soft, SoftFormat, SoftReadResult};

fn round_trip_format(fmt: SoftFormat, literal_base: u64, mode: RoundingMode) {
    let mut powers = PowerTable::new(literal_base);
    for v in enumerate_format(fmt.base, fmt.precision, fmt.min_exp, fmt.max_exp) {
        let digits = free_format_digits(
            &v,
            ScalingStrategy::Estimate,
            mode,
            TieBreak::Up,
            &mut powers,
        );
        let s = render_in_base(&digits, Notation::Scientific, literal_base);
        let (negative, result) =
            read_soft(&s, literal_base, mode, &fmt).expect("well-formed output");
        assert!(!negative);
        match result {
            SoftReadResult::Finite(back) => assert_eq!(back, v, "{v} via {s:?}"),
            other => panic!("{v} via {s:?} read back as {other:?}"),
        }
    }
}

#[test]
fn decimal_toy_format_round_trips_decimal_literals() {
    round_trip_format(
        SoftFormat {
            base: 10,
            precision: 2,
            min_exp: -5,
            max_exp: 5,
        },
        10,
        RoundingMode::NearestEven,
    );
}

#[test]
fn binary_toy_format_round_trips_decimal_literals() {
    round_trip_format(
        SoftFormat {
            base: 2,
            precision: 6,
            min_exp: -12,
            max_exp: 12,
        },
        10,
        RoundingMode::NearestEven,
    );
}

#[test]
fn binary_toy_format_round_trips_hex_literals() {
    round_trip_format(
        SoftFormat {
            base: 2,
            precision: 6,
            min_exp: -12,
            max_exp: 12,
        },
        16,
        RoundingMode::NearestEven,
    );
}

#[test]
fn ternary_format_round_trips_in_three_literal_bases() {
    for literal_base in [3u64, 10, 36] {
        round_trip_format(
            SoftFormat {
                base: 3,
                precision: 3,
                min_exp: -6,
                max_exp: 6,
            },
            literal_base,
            RoundingMode::NearestEven,
        );
    }
}

#[test]
fn directed_modes_round_trip_toy_formats() {
    for mode in [RoundingMode::TowardZero, RoundingMode::AwayFromZero] {
        round_trip_format(
            SoftFormat {
                base: 10,
                precision: 2,
                min_exp: -4,
                max_exp: 4,
            },
            10,
            mode,
        );
    }
}

#[test]
fn conservative_printing_survives_any_nearest_soft_reader() {
    let fmt = SoftFormat {
        base: 2,
        precision: 5,
        min_exp: -8,
        max_exp: 8,
    };
    let mut powers = PowerTable::new(10);
    for v in enumerate_format(fmt.base, fmt.precision, fmt.min_exp, fmt.max_exp) {
        let digits = free_format_digits(
            &v,
            ScalingStrategy::Estimate,
            RoundingMode::Conservative,
            TieBreak::Up,
            &mut powers,
        );
        let s = render_in_base(&digits, Notation::Scientific, 10);
        for reader_mode in [
            RoundingMode::NearestEven,
            RoundingMode::NearestAwayFromZero,
            RoundingMode::NearestTowardZero,
        ] {
            let (_, result) = read_soft(&s, 10, reader_mode, &fmt).expect("well-formed");
            match result {
                SoftReadResult::Finite(back) => {
                    assert_eq!(back, v, "{v} via {s:?} under {reader_mode:?}")
                }
                other => panic!("{v} via {s:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn x87_extended_format_round_trips_sampled() {
    // The 80-bit x87 extended format: 64-bit significand (no hidden bit),
    // 15-bit exponent — precision beyond f64, exercised here on a sampled
    // sweep. 21 significant decimal digits distinguish its values.
    let fmt = SoftFormat {
        base: 2,
        precision: 64,
        min_exp: -16445,
        max_exp: 16320,
    };
    let mut powers = PowerTable::new(10);
    let mut state: u64 = 0xfeed_beef;
    for i in 0..400 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let f = state | (1 << 63); // normalized 64-bit significand
        let e = ((state >> 7) % 400) as i32 - 200 + (i % 3) * 4000 - 4000;
        let v = SoftFloat::new(Nat::from(f), e, 2, 64, fmt.min_exp).expect("valid");
        let digits = free_format_digits(
            &v,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        assert!(digits.digits.len() <= 21, "x87 needs at most 21 digits");
        let s = render_in_base(&digits, Notation::Scientific, 10);
        let (negative, result) =
            read_soft(&s, 10, RoundingMode::NearestEven, &fmt).expect("well-formed");
        assert!(!negative);
        match result {
            SoftReadResult::Finite(back) => assert_eq!(back, v, "{v} via {s}"),
            other => panic!("{v} via {s}: {other:?}"),
        }
    }
}

#[test]
fn binary128_format_round_trips_sampled() {
    // IEEE binary128: 113-bit significand (two limbs), 15-bit exponent.
    // 36 significant decimal digits distinguish its values.
    let fmt = SoftFormat {
        base: 2,
        precision: 113,
        min_exp: -16494,
        max_exp: 16271,
    };
    let mut powers = PowerTable::new(10);
    let mut state: u64 = 0xc0ffee;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for i in 0..200 {
        // 113-bit normalized significand from two words.
        let hi = next() | (1 << 48); // ensure bit 112 of f is set
        let lo = next();
        let f = (Nat::from(hi & ((1u64 << 49) - 1)) << 64u32) + Nat::from(lo);
        let e = (next() % 2000) as i32 - 1000 + (i % 5) * 6000 - 12000;
        let e = e.clamp(fmt.min_exp + 1, fmt.max_exp);
        let v = SoftFloat::new(f, e, 2, 113, fmt.min_exp).expect("valid");
        let digits = free_format_digits(
            &v,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        assert!(
            digits.digits.len() <= 36,
            "binary128 needs at most 36 digits, got {}",
            digits.digits.len()
        );
        let s = render_in_base(&digits, Notation::Scientific, 10);
        let (negative, result) =
            read_soft(&s, 10, RoundingMode::NearestEven, &fmt).expect("well-formed");
        assert!(!negative);
        match result {
            SoftReadResult::Finite(back) => assert_eq!(back, v, "{v} via {s}"),
            other => panic!("{v} via {s}: {other:?}"),
        }
    }
}
