//! The correctness theorems of Appendix A, checked with exact rational
//! arithmetic over mixed `f64` workloads and every value of three toy
//! formats (input bases 2, 10 and 3):
//!
//! * Theorem 1 — digits valid, first digit non-zero, no carry on increment
//!   (structurally guaranteed; checked via digit ranges).
//! * Theorem 3 — information preservation: `low < V < high` with the
//!   mode-correct inclusivity, under every tie rule.
//! * Theorem 4 — correct rounding: `|V − v| ≤ B^(k−n)/2`, refined for
//!   asymmetric ranges.
//! * Theorem 5 — minimal length: no (n−1)-digit output lies in the range.

mod common;

use common::{digits_value, toy_cases};
use fpp::bignum::Rat;
use fpp::core::{free_format_digits, with_thread_powers, Digits, ScalingStrategy, TieBreak};
use fpp::float::{Neighbors, RoundingMode, SoftFloat};
use fpp::testgen::{special_values, uniform_bit_doubles};

const MODES: [RoundingMode; 4] = [
    RoundingMode::NearestEven,
    RoundingMode::Conservative,
    RoundingMode::NearestAwayFromZero,
    RoundingMode::NearestTowardZero,
];

/// The `f64` workload printed in base 10, then the toy formats in their
/// output bases.
fn cases() -> Vec<(SoftFloat, u64)> {
    special_values()
        .into_iter()
        .chain(uniform_bit_doubles(5).take(400))
        .map(|v| (SoftFloat::from_f64(v).unwrap(), 10))
        .chain(toy_cases())
        .collect()
}

fn digits(sf: &SoftFloat, base: u64, mode: RoundingMode, tie: TieBreak) -> Digits {
    with_thread_powers(base, |powers| {
        free_format_digits(sf, ScalingStrategy::Estimate, mode, tie, powers)
    })
}

/// Whether `x` lies in `sf`'s rounding range with the endpoints `mode`
/// admits: nearest-even admits both exactly when the mantissa is even.
fn admissible(x: &Rat, sf: &SoftFloat, nb: &Neighbors, mode: RoundingMode) -> bool {
    let (low_ok, high_ok) = match mode {
        RoundingMode::NearestEven => (sf.mantissa_is_even(), sf.mantissa_is_even()),
        RoundingMode::NearestAwayFromZero => (true, false),
        RoundingMode::NearestTowardZero => (false, true),
        _ => (false, false),
    };
    let lo = if low_ok { *x >= nb.low } else { *x > nb.low };
    let hi = if high_ok { *x <= nb.high } else { *x < nb.high };
    lo && hi
}

/// Theorem 4 with the refinement the exhaustive toy formats force:
/// `|V − v| ≤ B^(k−n)/2` holds whenever both same-length candidates lie in
/// the rounding range. When the range is asymmetric (the narrow gap below
/// a power of `b`) only one may, and the algorithm returns the closest
/// *admissible* string even if its error exceeds half a unit — 16×2⁷ in
/// the `b` = 2, `p` = 5 format has range (2016, 2112), which admits only
/// `2.1e3`, with error 52 > 50.
fn assert_correctly_rounded(sf: &SoftFloat, base: u64, mode: RoundingMode, d: &Digits) {
    let out = digits_value(&d.digits, d.k, base);
    let v = sf.value();
    let unit = Rat::pow_i32(base, d.k - d.digits.len() as i32);
    let (err, other) = if out > v {
        (&out - &v, &out - &unit)
    } else {
        (&v - &out, &out + &unit)
    };
    if err > &unit * &Rat::from_ratio_u64(1, 2) {
        assert!(
            !admissible(&other, sf, &sf.neighbors(), mode),
            "{sf} base {base} under {mode:?}: err {err} above half a unit with an admissible alternative"
        );
    }
}

#[test]
fn theorem_1_digit_validity() {
    for (sf, base) in cases() {
        let d = digits(&sf, base, RoundingMode::NearestEven, TieBreak::Up);
        assert!(!d.digits.is_empty());
        assert!(d.digits[0] > 0, "leading zero for {sf} base {base}");
        assert!(
            d.digits.iter().all(|&x| u64::from(x) < base),
            "digit overflow for {sf} base {base}"
        );
    }
}

#[test]
fn theorem_3_information_preservation() {
    for (sf, base) in cases() {
        let nb = sf.neighbors();
        for mode in MODES {
            for tie in [TieBreak::Up, TieBreak::Down, TieBreak::Even] {
                let d = digits(&sf, base, mode, tie);
                assert!(
                    admissible(&digits_value(&d.digits, d.k, base), &sf, &nb, mode),
                    "{sf} base {base} under {mode:?} {tie:?}: V outside the rounding range"
                );
            }
        }
    }
}

#[test]
fn theorem_4_correct_rounding() {
    for (sf, base) in cases() {
        for mode in MODES {
            assert_correctly_rounded(&sf, base, mode, &digits(&sf, base, mode, TieBreak::Up));
        }
    }
}

#[test]
fn theorem_5_minimal_length() {
    // No (n-1)-digit number (either rounding of the prefix) may lie in the
    // admissible range; checked in exact arithmetic so even unparseable
    // candidates are covered.
    for (sf, base) in cases() {
        let nb = sf.neighbors();
        for mode in MODES {
            let d = digits(&sf, base, mode, TieBreak::Up);
            let n = d.digits.len();
            if n <= 1 {
                continue;
            }
            let down = digits_value(&d.digits[..n - 1], d.k, base);
            let up = &down + &Rat::pow_i32(base, d.k - (n as i32 - 1));
            assert!(
                !admissible(&down, &sf, &nb, mode),
                "{sf} base {base} under {mode:?}: truncated output round-trips"
            );
            assert!(
                !admissible(&up, &sf, &nb, mode),
                "{sf} base {base} under {mode:?}: incremented truncation round-trips"
            );
        }
    }
}

#[test]
fn theorems_hold_in_other_bases() {
    for base in [2u64, 5, 16, 36] {
        for v in special_values().into_iter().step_by(3) {
            let sf = SoftFloat::from_f64(v).unwrap();
            let mode = RoundingMode::Conservative;
            let d = digits(&sf, base, mode, TieBreak::Up);
            let out = digits_value(&d.digits, d.k, base);
            assert!(
                admissible(&out, &sf, &sf.neighbors(), mode),
                "{v} base {base}"
            );
            assert_correctly_rounded(&sf, base, mode, &d);
        }
    }
}
