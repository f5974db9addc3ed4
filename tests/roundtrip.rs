//! End-to-end round-trip guarantees (output condition 1 of §2.2): printed
//! output reads back as exactly the original value, across generators,
//! bases, formats and rounding modes, through both the standard library
//! parser and the in-repo accurate reader.

use fpp::core::{FreeFormat, Notation};
use fpp::float::{FloatFormat, RoundingMode};
use fpp::reader::read_float;
use fpp::testgen::{log_uniform_doubles, special_values, uniform_bit_doubles, SchryerSet};

fn workload() -> Vec<f64> {
    special_values()
        .into_iter()
        .chain(uniform_bit_doubles(1).take(4000))
        .chain(log_uniform_doubles(2).take(4000))
        .chain(SchryerSet::new().iter().step_by(97))
        .collect()
}

#[test]
fn shortest_round_trips_through_std_parse() {
    for v in workload() {
        let s = fpp::print_shortest(v);
        let back: f64 = s.parse().expect("well-formed");
        assert_eq!(back.to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn shortest_round_trips_through_own_reader() {
    for v in workload() {
        let s = fpp::print_shortest(v);
        let back = fpp::reader::read_f64(&s).expect("well-formed");
        assert_eq!(back.to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn negative_values_round_trip() {
    for v in workload().into_iter().take(2000) {
        let neg = -v;
        let s = fpp::print_shortest(neg);
        assert!(s.starts_with('-'));
        let back: f64 = s.parse().expect("well-formed");
        assert_eq!(back.to_bits(), neg.to_bits(), "{s}");
    }
}

#[test]
fn f32_round_trips_with_f32_boundaries() {
    let fmt = FreeFormat::new();
    let mut bits: u32 = 0x0000_0001;
    for _ in 0..4000 {
        bits = bits.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
        let v = f32::from_bits(bits & 0x7FFF_FFFF);
        if !v.is_finite() || v == 0.0 {
            continue;
        }
        let s = fmt.format_f32(v);
        let back: f32 = s.parse().expect("well-formed");
        assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        let own = fpp::reader::read_f32(&s).expect("well-formed");
        assert_eq!(own.to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn all_bases_round_trip_through_own_reader() {
    for base in [2u64, 3, 8, 10, 16, 17, 36] {
        let fmt = FreeFormat::new().base(base).notation(Notation::Scientific);
        for v in special_values()
            .into_iter()
            .chain(uniform_bit_doubles(base).take(300))
        {
            let s = fmt.format(v);
            let back: f64 = read_float(&s, base, RoundingMode::NearestEven).expect("well-formed");
            assert_eq!(back.to_bits(), v.to_bits(), "base {base}: {s}");
            if base == 2 {
                // The exact binary form, m@e, reads back too.
                let (_, m, e) = v.decode().finite_parts().expect("finite");
                let s = format!("{m:b}@{e}");
                let back: f64 = read_float(&s, 2, RoundingMode::NearestEven).expect("well-formed");
                assert_eq!(back.to_bits(), v.to_bits(), "{s}");
            }
        }
    }
}

#[test]
fn every_rounding_mode_round_trips_with_matching_reader() {
    let modes = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAwayFromZero,
        RoundingMode::NearestTowardZero,
        RoundingMode::TowardZero,
        RoundingMode::AwayFromZero,
    ];
    for mode in modes {
        let fmt = FreeFormat::new().rounding(mode);
        for v in special_values()
            .into_iter()
            .chain(uniform_bit_doubles(99).take(1500))
        {
            let s = fmt.format(v);
            let back: f64 = read_float(&s, 10, mode).expect("well-formed");
            assert_eq!(back.to_bits(), v.to_bits(), "{mode:?}: {s}");
        }
    }
}

#[test]
fn conservative_output_round_trips_under_any_nearest_reader() {
    // Conservative output must be immune to the reader's tie-breaking.
    let fmt = FreeFormat::new().rounding(RoundingMode::Conservative);
    let readers = [
        RoundingMode::NearestEven,
        RoundingMode::NearestAwayFromZero,
        RoundingMode::NearestTowardZero,
    ];
    for v in special_values()
        .into_iter()
        .chain(uniform_bit_doubles(7).take(1500))
    {
        let s = fmt.format(v);
        for reader in readers {
            let back: f64 = read_float(&s, 10, reader).expect("well-formed");
            assert_eq!(back.to_bits(), v.to_bits(), "{reader:?}: {s}");
        }
    }
}

#[test]
fn fixed_format_17_digit_output_round_trips() {
    // 17 significant digits always distinguish doubles, so the fixed-format
    // output (including # marks, which our reader accepts) must read back.
    let fmt = fpp::FixedFormat::new().significant_digits(17);
    for v in special_values()
        .into_iter()
        .chain(uniform_bit_doubles(3).take(2000))
    {
        let s = fmt.format(v);
        let back = fpp::reader::read_f64(&s).expect("well-formed: {s}");
        assert_eq!(back.to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn specials_and_zeros() {
    assert_eq!(fpp::print_shortest(0.0), "0");
    assert_eq!(fpp::print_shortest(-0.0), "-0");
    assert_eq!(fpp::print_shortest(f64::INFINITY), "inf");
    assert_eq!(fpp::print_shortest(f64::NEG_INFINITY), "-inf");
    assert_eq!(fpp::print_shortest(f64::NAN), "NaN");
    assert!(fpp::reader::read_f64("inf").unwrap().is_infinite());
    assert!(fpp::reader::read_f64("NaN").unwrap().is_nan());
    assert_eq!(
        fpp::reader::read_f64("-0").unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
}
