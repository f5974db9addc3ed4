//! Fixed-format semantics (§4), verified in exact arithmetic:
//! the output is correctly rounded at the requested position whenever the
//! float has the precision, `#` positions are exactly the insignificant
//! ones, and the whole string (marks included) still reads back as `v`.

mod common;

use common::digits_value;
use fpp::bignum::{PowerTable, Rat};
use fpp::core::{
    fixed_format_digits_absolute, fixed_format_digits_relative, with_thread_powers, FixedFormat,
    ScalingStrategy, TieBreak,
};
use fpp::float::SoftFloat;
use fpp::testgen::{special_values, uniform_bit_doubles};

fn workload() -> Vec<f64> {
    special_values()
        .into_iter()
        .chain(uniform_bit_doubles(17).take(250))
        .collect()
}

#[test]
fn output_is_within_the_governing_range() {
    // |V − v| ≤ max(B^j/2, half-ulp): the requested half-position when the
    // float is precise enough, the float's own half-gap otherwise.
    let mut powers = PowerTable::new(10);
    let half = Rat::from_ratio_u64(1, 2);
    for v in workload() {
        let sf = SoftFloat::from_f64(v).unwrap();
        let nb = sf.neighbors();
        for j in [-25i32, -10, -3, 0, 5] {
            let d = fixed_format_digits_absolute(
                &sf,
                j,
                ScalingStrategy::Estimate,
                TieBreak::Up,
                &mut powers,
            );
            let out = digits_value(&d.digits, d.k, 10);
            let err = if out > sf.value() {
                &out - &sf.value()
            } else {
                &sf.value() - &out
            };
            let req = Rat::pow_i32(10, j) * &half;
            let float_bound = if nb.m_plus > nb.m_minus {
                nb.m_plus.clone()
            } else {
                nb.m_minus.clone()
            };
            let bound = if req > float_bound { req } else { float_bound };
            assert!(
                err <= bound,
                "{v} at position {j}: err {err} > bound {bound}"
            );
        }
    }
}

#[test]
fn output_length_matches_requested_position() {
    let mut powers = PowerTable::new(10);
    for v in workload() {
        let sf = SoftFloat::from_f64(v).unwrap();
        for j in [-20i32, -5, 0, 3] {
            let d = fixed_format_digits_absolute(
                &sf,
                j,
                ScalingStrategy::Estimate,
                TieBreak::Up,
                &mut powers,
            );
            if d.is_zero() {
                continue;
            }
            assert_eq!(
                d.digits.len() + d.insignificant,
                (i64::from(d.k) - i64::from(j)) as usize,
                "{v} at {j}"
            );
            assert_eq!(d.position, j);
        }
    }
}

#[test]
fn hash_positions_are_exactly_the_insignificant_ones() {
    // Replacing every # with 9 (the most damaging digit) must still read
    // back as v; bumping the last significant digit by one unit must NOT
    // produce a value that is still within the float's own half-gap range
    // (otherwise that digit would have been insignificant too).
    let mut powers = PowerTable::new(10);
    for v in workload() {
        let sf = SoftFloat::from_f64(v).unwrap();
        let nb = sf.neighbors();
        let d = fixed_format_digits_absolute(
            &sf,
            -24,
            ScalingStrategy::Estimate,
            TieBreak::Up,
            &mut powers,
        );
        if d.is_zero() || d.insignificant == 0 {
            continue;
        }
        // Worst-case digits in the marked positions:
        let mut nines = d.digits.clone();
        nines.extend(std::iter::repeat_n(9u8, d.insignificant));
        let stuffed = digits_value(&nines, d.k, 10);
        assert!(
            stuffed > nb.low && stuffed < nb.high,
            "{v}: 9-stuffed marks escaped the rounding range"
        );
        // The first marked position t = n+1 is insignificant exactly when a
        // whole unit of the *preceding* position fits below high; the last
        // significant position must fail the same criterion (otherwise it
        // would have been marked too).
        let v_out = digits_value(&d.digits, d.k, 10);
        let unit_first_mark = Rat::pow_i32(10, d.k - d.digits.len() as i32);
        assert!(
            &v_out + &unit_first_mark <= nb.high,
            "{v}: first # position fails the insignificance criterion"
        );
        let unit_last_sig = Rat::pow_i32(10, d.k - (d.digits.len() as i32 - 1));
        assert!(
            &v_out + &unit_last_sig > nb.high,
            "{v}: last significant digit should have been a # mark"
        );
    }
}

#[test]
fn relative_mode_always_produces_exactly_count_positions() {
    let mut powers = PowerTable::new(10);
    for v in workload() {
        let sf = SoftFloat::from_f64(v).unwrap();
        for count in [1u32, 2, 5, 17, 30] {
            let d = fixed_format_digits_relative(
                &sf,
                count,
                ScalingStrategy::Estimate,
                TieBreak::Up,
                &mut powers,
            );
            assert_eq!(
                d.digits.len() + d.insignificant,
                count as usize,
                "{v} at {count} digits"
            );
            assert_eq!(d.k - d.position, count as i32);
        }
    }
}

#[test]
fn strategies_agree_on_fixed_format() {
    let mut powers = PowerTable::new(10);
    for v in workload().into_iter().take(100) {
        let sf = SoftFloat::from_f64(v).unwrap();
        let reference = fixed_format_digits_absolute(
            &sf,
            -18,
            ScalingStrategy::Iterative,
            TieBreak::Up,
            &mut powers,
        );
        for strategy in [
            ScalingStrategy::Log,
            ScalingStrategy::Estimate,
            ScalingStrategy::Gay,
        ] {
            let got = fixed_format_digits_absolute(&sf, -18, strategy, TieBreak::Up, &mut powers);
            assert_eq!(got, reference, "{v} with {strategy:?}");
        }
    }
}

#[test]
fn zero_rounding_cases() {
    let mut powers = PowerTable::new(10);
    let sf = SoftFloat::from_f64(0.4).unwrap();
    let d =
        fixed_format_digits_absolute(&sf, 0, ScalingStrategy::Estimate, TieBreak::Up, &mut powers);
    assert!(d.is_zero());
    // 0.5 exactly: tie between 0 and 1 honours the tie rule.
    let sf = SoftFloat::from_f64(0.5).unwrap();
    let up =
        fixed_format_digits_absolute(&sf, 0, ScalingStrategy::Estimate, TieBreak::Up, &mut powers);
    assert_eq!((up.digits.as_slice(), up.k), ([1].as_slice(), 1));
    let down = fixed_format_digits_absolute(
        &sf,
        0,
        ScalingStrategy::Estimate,
        TieBreak::Down,
        &mut powers,
    );
    assert!(down.is_zero());
    // far below the position: clean zero
    let sf = SoftFloat::from_f64(1e-20).unwrap();
    let d =
        fixed_format_digits_absolute(&sf, 0, ScalingStrategy::Estimate, TieBreak::Up, &mut powers);
    assert!(d.is_zero());
}

#[test]
fn far_positions_cost_one_power() {
    // Past the first few dozen places 1.5 has only insignificant positions,
    // so 2^20 places are the 1100-place text padded with marks. The power
    // table memoises a bounded prefix and keeps one power past it, instead
    // of every power up to 10^(2^20).
    let places = 1 << 20;
    let near = FixedFormat::new().fraction_digits(1100).format(1.5);
    let far = FixedFormat::new().fraction_digits(places).format(1.5);
    assert_eq!(far.len(), near.len() + places as usize - 1100);
    assert!(far.starts_with(&near), "{}", &far[..near.len()]);
    assert!(far[near.len()..].bytes().all(|b| b == b'#'));
    let held = with_thread_powers(10, |powers| powers.cached_powers());
    assert!(held <= PowerTable::MEMO_LEN + 1, "{held} powers held");
}

#[test]
#[should_panic(expected = "absolute position beyond")]
fn absolute_position_is_bounded() {
    let _ = FixedFormat::new().absolute_position(i32::MIN);
}

#[test]
#[should_panic(expected = "significant digit count must be >= 1")]
fn zero_significant_digits_panics() {
    let _ = FixedFormat::new().significant_digits(0);
}

#[test]
#[should_panic(expected = "fraction digit count above 2^24")]
fn fraction_digits_are_bounded() {
    let _ = FixedFormat::new().fraction_digits(1 << 24);
    let _ = FixedFormat::new().fraction_digits((1 << 24) + 1);
}
