//! Differential tests for the printf-style layer against the Rust standard
//! library's (correctly rounded) formatting.

use fpp::printf::{format_e, format_f, format_g};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{special_values, uniform_bit_doubles};

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
            let ours = format_e(v, p as u32);
            let std = format!("{v:.p$e}");
            assert_eq!(
                ours.split('e').next(),
                std.split('e').next(),
                "{v} at {p}: {ours} vs {std}"
            );
            // Exponent value agrees (layout differs: we zero-pad and sign).
            let our_exp: i32 = ours.split('e').nth(1).unwrap().parse().unwrap();
            let std_exp: i32 = std.split('e').nth(1).unwrap().parse().unwrap();
            assert_eq!(our_exp, std_exp, "{v} at {p}");
        }
    }
}

/// Seeded random bit patterns through `%f`, `%e` and `%.17g`.
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
        if v != 0.0 {
            let p = rng.range_inclusive(0, 14) as usize;
            let (ours, std) = (format_e(v, p as u32), format!("{v:.p$e}"));
            assert_eq!(
                ours.split('e').next(),
                std.split('e').next(),
                "{v:e} at {p}"
            );
        }
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
