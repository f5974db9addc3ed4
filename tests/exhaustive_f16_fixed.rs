//! Exhaustive fixed-format verification over binary16 and two toy formats,
//! plus seeded `f64` samples: for every value and a sweep of positions, the
//! optimized fixed-format implementation must agree with the exact
//! rational oracle of §4.

mod common;

use common::enumerate_format;
use fpp::bignum::Nat;
use fpp::core::{
    fixed_digits_exact, fixed_format_digits_absolute, with_thread_powers, ScalingStrategy, TieBreak,
};
use fpp::float::{Decoded, FloatFormat, SoftFloat, F16};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::uniform_bit_doubles;

const TIES: [TieBreak; 3] = [TieBreak::Up, TieBreak::Down, TieBreak::Even];

fn soft_of(v: F16) -> Option<SoftFloat> {
    match v.decode() {
        Decoded::Finite {
            negative: false,
            mantissa,
            exponent,
        } => Some(
            SoftFloat::new(
                Nat::from(mantissa),
                exponent,
                2,
                <F16 as FloatFormat>::PRECISION,
                <F16 as FloatFormat>::MIN_EXP,
            )
            .expect("valid"),
        ),
        _ => None,
    }
}

/// Asserts the optimized digits of `v` at position `j` equal the oracle's.
fn assert_matches_oracle(v: &SoftFloat, base: u64, j: i32, tie: TieBreak) {
    let fast = with_thread_powers(base, |powers| {
        fixed_format_digits_absolute(v, j, ScalingStrategy::Estimate, tie, powers)
    });
    let slow = fixed_digits_exact(v, base, j, tie);
    assert_eq!(fast, slow, "{v} base {base} position {j} {tie:?}");
}

#[test]
fn all_f16_fixed_format_matches_oracle() {
    let mut checked = 0u32;
    for bits in 1..0x7C00u16 {
        let Some(v) = soft_of(F16::from_bits(bits)) else {
            continue;
        };
        // Sample positions around each value's own magnitude plus fixed ones.
        for j in [-9i32, -4, 0, 2] {
            assert_matches_oracle(&v, 10, j, TieBreak::Up);
        }
        checked += 1;
    }
    assert!(checked > 31_000);
}

/// Every value of two toy formats (input bases 2 and 10), every position
/// from well below the last digit to above the leading one, every tie rule.
#[test]
fn toy_formats_fixed_format_matches_oracle() {
    for v in enumerate_format(2, 4, -6, 6)
        .into_iter()
        .chain(enumerate_format(10, 2, -3, 3))
    {
        for j in -8..=4 {
            for tie in TIES {
                assert_matches_oracle(&v, 10, j, tie);
            }
        }
    }
}

/// Seeded `f64`s at seeded positions, in output bases 10 and 16.
#[test]
fn sampled_f64_fixed_format_matches_oracle() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF1_7ED);
    for (base, lowest, highest) in [(10u64, -30i32, 9i32), (16, -20, 5)] {
        for v in uniform_bit_doubles(rng.next_u64()).take(64) {
            let j = lowest + rng.range_inclusive(0, (highest - lowest) as u64) as i32;
            for tie in TIES {
                assert_matches_oracle(&SoftFloat::from_f64(v).unwrap(), base, j, tie);
            }
        }
    }
}

#[test]
fn all_f16_fixed_outputs_read_back_when_precise_enough() {
    // At 6 significant digits (>= the 5 every f16 needs), the fixed output
    // with # marks must read back bit-identically.
    use fpp::core::FixedFormat;
    let fmt = FixedFormat::new().significant_digits(6);
    for bits in 1..0x7C00u16 {
        let h = F16::from_bits(bits);
        let s = fmt.format_float(h);
        let back: F16 = fpp::reader::read_float(&s, 10, fpp::float::RoundingMode::NearestEven)
            .expect("well-formed");
        assert_eq!(back.to_bits(), bits, "{s}");
    }
}
