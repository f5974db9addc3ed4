//! Differential tests for the printf-style layer against the Rust standard
//! library's (correctly rounded) formatting, compared byte for byte: C's
//! `%e` and `%g` layouts are rebuilt from std's output in this file.

use fpp::printf::{format_e, format_f, format_g};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{special_values, uniform_bit_doubles};

/// C's `%.pe` of a finite `v`: std's `{:.p$e}` with the exponent signed and
/// at least two digits.
fn c_e(v: f64, p: usize) -> String {
    let s = format!("{v:.p$e}");
    let (mantissa, exp) = s.split_once('e').expect("std writes an exponent");
    let exp: i32 = exp.parse().expect("std writes a decimal exponent");
    let sign = if exp < 0 { '-' } else { '+' };
    format!("{mantissa}e{sign}{:02}", exp.unsigned_abs())
}

/// C's `%.pg` of a finite `v`: with P = max(p, 1) and X the exponent of
/// `%.(P-1)e`, `%.(P-1-X)f` when -4 ≤ X < P and `%.(P-1)e` otherwise, then
/// trailing fraction zeros and a bare point stripped.
fn c_g(v: f64, p: usize) -> String {
    let big_p = p.max(1);
    let sci = format!("{v:.prec$e}", prec = big_p - 1);
    let (_, x) = sci.split_once('e').expect("std writes an exponent");
    let x: i32 = x.parse().expect("std writes a decimal exponent");
    let s = if (-4..big_p as i32).contains(&x) {
        format!("{v:.prec$}", prec = (big_p as i32 - 1 - x) as usize)
    } else {
        c_e(v, big_p - 1)
    };
    let (body, exp) = s.split_at(s.find('e').unwrap_or(s.len()));
    let body = if body.contains('.') {
        body.trim_end_matches('0').trim_end_matches('.')
    } else {
        body
    };
    format!("{body}{exp}")
}

#[test]
fn oracle_layouts_are_c_layouts() {
    assert_eq!(c_e(1234.5678, 3), "1.235e+03");
    assert_eq!(c_e(5e-324, 0), "5e-324");
    assert_eq!(c_e(-0.0, 1), "-0.0e+00");
    assert_eq!(c_g(0.00012345, 3), "0.000123");
    assert_eq!(c_g(123456.0, 3), "1.23e+05");
    assert_eq!(c_g(1500.0, 6), "1500");
    assert_eq!(c_g(0.0, 6), "0");
    assert_eq!(c_g(99.996, 4), "100");
}

/// Every byte of `%e`, `%f` and `%g` at the layout edges: signed zeros,
/// decade carries, ties at precision 0, the extremes of the exponent field
/// and the `%g` switch between -4 and -5.
#[test]
fn edge_values_match_c_layout() {
    for v in [
        0.0, -0.0, 99.996, 9.9999, 0.5, 1.5, 2.5, 1e21, 5e-324, 1e-4, 1e-5,
    ] {
        for v in [v, -v] {
            for p in 0..=19 {
                assert_eq!(format_e(v, p as u32), c_e(v, p), "%.{p}e of {v:e}");
                assert_eq!(format_g(v, p as u32), c_g(v, p), "%.{p}g of {v:e}");
                assert_eq!(format_f(v, p as u32), format!("{v:.p$}"), "%.{p}f of {v:e}");
            }
        }
    }
}

#[test]
fn format_f_matches_std_on_workload() {
    for v in special_values()
        .into_iter()
        .chain(uniform_bit_doubles(31).take(500))
    {
        // Keep the comparison in the range std prints positionally with
        // reasonable cost.
        if !(1e-10..1e15).contains(&v) {
            continue;
        }
        for p in [0usize, 1, 2, 6, 10] {
            assert_eq!(format_f(v, p as u32), format!("{v:.p$}"), "{v} at {p}");
            assert_eq!(format_f(-v, p as u32), format!("{:.p$}", -v), "-{v} at {p}");
        }
    }
}

#[test]
fn format_e_digits_match_std_on_workload() {
    for v in special_values()
        .into_iter()
        .chain(uniform_bit_doubles(32).take(500))
    {
        for p in [0usize, 3, 8, 15] {
            assert_eq!(format_e(v, p as u32), c_e(v, p), "{v} at {p}");
        }
    }
}

/// Seeded random bit patterns through `%f`, `%e`, `%g` and `%.17g`.
fn random_bits(cases: usize) {
    let mut rng = Xoshiro256pp::seed_from_u64(0x9_21F7);
    for _ in 0..cases {
        let v = f64::from_bits(rng.next_u64());
        if !v.is_finite() {
            continue;
        }
        if (1e-12..1e12).contains(&v.abs()) {
            let p = rng.range_inclusive(0, 11) as usize;
            assert_eq!(format_f(v, p as u32), format!("{v:.p$}"), "{v:e} at {p}");
        }
        let p = rng.range_inclusive(0, 19) as usize;
        assert_eq!(format_e(v, p as u32), c_e(v, p), "{v:e} at {p}");
        let p = rng.range_inclusive(0, 19) as usize;
        assert_eq!(format_g(v, p as u32), c_g(v, p), "{v:e} at {p}");
        // %.17g output always reads back to the same double.
        let s = format_g(v, 17);
        assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
    }
}

#[test]
fn random_bits_match_std() {
    random_bits(20_000);
}

#[test]
#[ignore = "200k-case sweep; run explicitly with --ignored --release"]
fn random_bits_match_std_200k() {
    random_bits(200_000);
}
