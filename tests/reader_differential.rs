//! Differential parse battery: deterministically generated decimal strings
//! pushed through three independent readers — the tiered production reader
//! (scan → Eisel–Lemire → exact), the exact-only big-integer oracle, and
//! the standard library — with zero tolerated bit divergences. The fast
//! tier answers every literal of at most 19 significant digits; beyond
//! that its rejections must be a strict subset handled by the fallback: a
//! `read_f64_fast` answer always matches, and a rejection never changes the
//! tiered result. The rounding modes must bracket the nearest reading.

use fpp::float::RoundingMode;
use fpp::reader::{read_f64, read_f64_exact, read_f64_fast, read_float};
use fpp::testgen::prng::Xoshiro256pp;

/// One generated literal: `[-]d.ddd…e±X` with `digits` significant digits
/// and a decimal exponent drawn from `exp_range`.
fn gen_literal(rng: &mut Xoshiro256pp, digits: usize, exp_range: (i64, i64)) -> String {
    let mut s = String::with_capacity(digits + 8);
    if rng.next_u64() & 1 == 0 {
        s.push('-');
    }
    // First digit non-zero so `digits` is the true significant count.
    s.push(char::from(b'1' + rng.range_inclusive(0, 8) as u8));
    let point = rng.range_inclusive(0, digits as u64 - 1) as usize;
    for i in 1..digits {
        if i == point {
            s.push('.');
        }
        s.push(char::from(b'0' + rng.range_inclusive(0, 9) as u8));
    }
    let (lo, hi) = exp_range;
    let e = lo + rng.range_inclusive(0, (hi - lo) as u64) as i64;
    if e != 0 || rng.next_u64() & 1 == 0 {
        s.push('e');
        s.push_str(&e.to_string());
    }
    s
}

/// Drives one generated string through all three readers plus the fast
/// probe, asserting pairwise bit identity. Returns whether the fast tiers
/// accepted it.
fn check(s: &str) -> bool {
    let std_bits = s
        .parse::<f64>()
        .expect("generated literal is valid")
        .to_bits();
    let tiered = read_f64(s).expect("generated literal is valid");
    assert_eq!(
        tiered.to_bits(),
        std_bits,
        "tiered reader diverges from std on {s:?}"
    );
    let exact = read_f64_exact(s).expect("generated literal is valid");
    assert_eq!(
        exact.to_bits(),
        std_bits,
        "exact reader diverges from std on {s:?}"
    );
    match read_f64_fast(s) {
        Some(fast) => {
            assert_eq!(
                fast.to_bits(),
                std_bits,
                "fast tier diverges from std on {s:?}"
            );
            true
        }
        // A rejection is only legal if the fallback (checked above) covers
        // it — which it did, so the subset property holds by construction.
        None => false,
    }
}

/// The main sweep: every significant-digit count from 1 through 19 (all
/// fast) and on to 25 (forcing the truncated-tail bracket and the exact
/// fallback), across the full interesting exponent range.
#[test]
fn generated_literals_agree_across_all_readers() {
    let per_count: usize = if cfg!(debug_assertions) { 400 } else { 4000 };
    let mut rng = Xoshiro256pp::seed_from_u64(0x00D1_FFE7);
    let mut long = 0usize;
    let mut long_accepted = 0usize;
    for digits in 1..=25 {
        for _ in 0..per_count {
            let s = gen_literal(&mut rng, digits, (-350, 350));
            let fast = check(&s);
            if digits <= 19 {
                assert!(fast, "fast tier declined {s:?} ({digits} digits)");
            } else {
                long += 1;
                long_accepted += usize::from(fast);
            }
        }
    }
    // Past 19 digits, most draws land far outside f64's range (certain
    // over/underflow is decidable from the prefix), and in-range draws
    // overwhelmingly resolve via the bracket; only a thin band of
    // truncated near-halfway literals may fall back. The bound just pins
    // that the fast tier is doing real work there.
    assert!(
        long_accepted * 2 > long,
        "fast tier accepted only {long_accepted}/{long} literals of 20–25 digits"
    );
}

/// Concentrated fire on the regions where the fast tiers most plausibly
/// disagree with the oracle: the subnormal band, the underflow edge, and
/// the overflow edge.
#[test]
fn boundary_exponent_regions_agree_across_all_readers() {
    let per_case: usize = if cfg!(debug_assertions) { 150 } else { 1500 };
    let mut rng = Xoshiro256pp::seed_from_u64(0xB0DD_E201);
    // (digit counts, exponent band) per region; bands are chosen so the
    // resulting magnitudes blanket subnormals (~1e-324..1e-308), the
    // underflow cliff, and the overflow cliff (~1.8e308).
    let regions: [(std::ops::RangeInclusive<usize>, (i64, i64)); 3] = [
        (1..=20, (-335, -300)), // subnormal band and normal/subnormal seam
        (1..=20, (-360, -320)), // underflow cliff: rounds to 0 or min subnormal
        (1..=20, (295, 312)),   // overflow cliff: max finite vs infinity
    ];
    for (digit_counts, band) in regions {
        for digits in digit_counts {
            for _ in 0..per_case / 10 {
                let s = gen_literal(&mut rng, digits, band);
                check(&s);
            }
        }
    }
}

/// The same differential harness over structured, non-random grids:
/// every (coefficient, exponent) pair of small coefficients across the
/// entire legal exponent range, hitting each power-of-five table entry.
#[test]
fn coefficient_exponent_grid_agrees_across_all_readers() {
    for coeff in [
        "1",
        "2",
        "5",
        "9",
        "17",
        "123",
        "4503599627370496",     // 2^52
        "9007199254740991",     // 2^53 − 1
        "9007199254740993",     // 2^53 + 1: first integer needing rounding
        "18446744073709551615", // u64::MAX
        "18446744073709551616", // u64::MAX + 1: overflows the scan window
    ] {
        for e in -350..=350 {
            let s = format!("{coeff}e{e}");
            check(&s);
        }
    }
}

/// Seeded `{digits}e{exp}` literals: the directed modes return the two
/// neighbours around the literal (equal when it is exact) with the nearest
/// reading between them, and the three nearest modes differ only on exact
/// halfway literals, where even picks one of the other two.
#[test]
fn rounding_modes_bracket_nearest() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x0B2A_C4E7);
    let read = |s: &str, mode| -> f64 { read_float(s, 10, mode).expect("valid literal") };
    for i in 0..20_000 {
        // Half the draws stay near 1 with up to 19 digits, where exact and
        // halfway literals are common; the rest span the range.
        let (digits, exp) = if i % 2 == 0 {
            (
                rng.range_inclusive(1, 10u64.pow(19) - 1),
                rng.range_inclusive(0, 60) as i64 - 30,
            )
        } else {
            (
                rng.range_inclusive(1, u64::MAX - 1),
                rng.range_inclusive(0, 600) as i64 - 300,
            )
        };
        let s = format!("{digits}e{exp}");
        let down = read(&s, RoundingMode::TowardZero);
        let up = read(&s, RoundingMode::AwayFromZero);
        let near = read(&s, RoundingMode::NearestEven);
        assert!(down <= near && near <= up, "{s}: {down:e} {near:e} {up:e}");
        assert!(down == up || down.next_up() == up, "{s}: {down:e} {up:e}");
        let away = read(&s, RoundingMode::NearestAwayFromZero);
        let toward = read(&s, RoundingMode::NearestTowardZero);
        assert!(toward <= away, "{s}: {toward:e} {away:e}");
        assert!(near == away || near == toward, "{s}: {near:e}");
    }
}
