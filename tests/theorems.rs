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
//!
//! It also proves the bound the `u64` tiers rest on: every product the
//! shortest and fixed tiers round to odd has a fraction of 0 or one inside
//! `[2^-63, 1 − 2^-63)`, for every binary exponent an `f64` reaches (DESIGN
//! §12 and §15).

mod common;

use common::{digits_value, toy_cases};
use fpp::bignum::{pow5, Nat, Rat};
use fpp::core::{free_format_digits, with_thread_powers, Digits, ScalingStrategy, TieBreak};
use fpp::float::{FloatFormat, Neighbors, RoundingMode, SoftFloat};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{special_values, uniform_bit_doubles};
use std::cmp::Ordering;

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

/// The smallest and the largest non-zero residue of `i·a mod m` over
/// `1 ≤ i ≤ bound`, each with its index, for coprime `0 < a < m` and
/// `bound < m`: the min–max Euclid algorithm (Adams, *Ryū*, PLDI 2018,
/// §3.4).
///
/// It walks the Stern–Brocot tree of `a/m`. `(iu, du)` is the index whose
/// residue lies `du` above 0, `(iw, dw)` the one whose residue lies `dw`
/// below `m`. No index below `iu + iw` has a residue within `du` above 0
/// or within `dw` below `m`, and index `iu + iw` lands `|du − dw|` from 0
/// on the side of the longer one. So the walk subtracts the shorter
/// distance from the longer, a whole quotient at a time, until the next
/// index passes `bound`.
fn min_max_euclid(a: &Nat, m: &Nat, bound: u64) -> ((Nat, u64), (Nat, u64)) {
    let (mut iu, mut du) = (1u64, a.clone());
    let (mut iw, mut dw) = (1u64, m - a);
    loop {
        let (longer, shorter, i_long, i_short) = match du.cmp(&dw) {
            // du = dw only at du = dw = 1: the extremes are reached.
            Ordering::Equal => break,
            Ordering::Less => (&mut dw, &du, &mut iw, iu),
            Ordering::Greater => (&mut du, &dw, &mut iu, iw),
        };
        let by_index = (bound - *i_long) / i_short;
        let mut by_distance = longer.clone();
        by_distance.sub_u64(1);
        let by_distance = &by_distance / shorter;
        let t = if by_distance.cmp_u64(by_index) == Ordering::Less {
            by_distance.limbs().first().copied().unwrap_or(0)
        } else {
            by_index
        };
        if t == 0 {
            break;
        }
        *i_long += t * i_short;
        *longer -= &(shorter * t);
    }
    ((du, iu), (m - &dw, iw))
}

/// Every index `i ≤ bound` with `0 < i·a mod m < below`, for the same
/// `a`, `m` and `bound` as [`min_max_euclid`]. The smallest residue `r`
/// sits at one index `i`; below `i` the search repeats, and above it
/// `i + z` has residue `r + (z·a mod m)`, so it continues from `i` with the
/// threshold lowered by `r`.
fn small_residues(a: &Nat, m: &Nat, bound: u64, below: &Nat, out: &mut Vec<u64>) {
    if bound == 0 {
        return;
    }
    let ((min, i), _) = min_max_euclid(a, m, bound);
    if min >= *below {
        return;
    }
    out.push(i);
    small_residues(a, m, i - 1, below, out);
    let mut above = Vec::new();
    small_residues(a, m, bound - i, &(below - &min), &mut above);
    out.extend(above.into_iter().map(|z| i + z));
}

/// Both walks agree with brute force on small coprime pairs.
#[test]
fn min_max_euclid_matches_brute_force() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x00E0_C11D);
    let mut checked = 0;
    while checked < 2_000 {
        let m = 3 + rng.range_inclusive(0, 500);
        let a = 1 + rng.range_inclusive(0, m - 2);
        if Nat::from(a).gcd(&Nat::from(m)) != Nat::one() {
            continue;
        }
        let bound = 1 + rng.range_inclusive(0, m - 2);
        let residue = |i: u64| i * a % m;
        let min = (1..=bound).min_by_key(|&i| residue(i)).unwrap();
        let max = (1..=bound).max_by_key(|&i| residue(i)).unwrap();
        let ((lo, i_lo), (hi, i_hi)) = min_max_euclid(&Nat::from(a), &Nat::from(m), bound);
        assert_eq!(
            (lo, i_lo),
            (Nat::from(residue(min)), min),
            "{a}/{m} to {bound}"
        );
        assert_eq!(
            (hi, i_hi),
            (Nat::from(residue(max)), max),
            "{a}/{m} to {bound}"
        );
        let below = 1 + rng.range_inclusive(0, m / 4);
        let mut small = Vec::new();
        small_residues(
            &Nat::from(a),
            &Nat::from(m),
            bound,
            &Nat::from(below),
            &mut small,
        );
        small.sort_unstable();
        let want: Vec<u64> = (1..=bound).filter(|&i| residue(i) < below).collect();
        assert_eq!(small, want, "{a}/{m} to {bound} below {below}");
        checked += 1;
    }
}

/// `2^q·10^-k` as `num/den` in lowest terms.
fn scale_ratio(q: i32, k: i32) -> (Nat, Nat) {
    let (mut num, mut den) = (Nat::one(), Nat::one());
    let twos = q - k;
    if twos >= 0 {
        num <<= twos.unsigned_abs();
    } else {
        den <<= twos.unsigned_abs();
    }
    let fives = Nat::u64_pow(5, k.unsigned_abs());
    if k <= 0 {
        num = &num * &fives;
    } else {
        den = &den * &fives;
    }
    (num, den)
}

/// The round-to-odd products of the `u64` tiers are exact.
///
/// For `v = c·2^q` at scale `k` the tiers multiply a numerator `x` by a
/// 126-bit overestimate of `10^-k` and read `T = x·2^q·10^-k` off the
/// product, which exceeds it by under `2^-67`. They keep `⌊T⌋` with a
/// sticky bit for a non-zero fraction: the round to odd of `T`. That is
/// exactly right when the fraction of `T` is 0 or lies in
/// `[2^-63, 1 − 2^-63)`. Outside that band the sticky bit may be lost, and
/// the result is still the round to odd of `T` exactly when the integer it
/// lands on, `⌊T⌋` below or `⌈T⌉` above, is odd.
///
/// The numerators are `4c − 2`, `4c` and `4c + 2` at the scale
/// `⌊q·log10 2⌋`, and `4c − 1`, `4c`, `4c + 2` for a power-of-two `c` at
/// `⌊log10(¾·2^q)⌋`. This covers every `q` an `f64` reaches, subnormals
/// included: the even numerators `x = 2y` for every `y ≤ 2^54 + 1` through
/// the min–max Euclid walk, and the power-of-two numerators for every
/// precision up to 53 bits one by one. Every format the tiers serve shares
/// `f64`'s exponent range with no more significand bits, so this covers
/// them all. The few products outside the band are pinned.
#[test]
fn round_to_odd_products_are_exact_for_every_f64_exponent() {
    let mut outside = Vec::new();
    let mut wrong = Vec::new();
    for q in <f64 as FloatFormat>::MIN_EXP..=<f64 as FloatFormat>::MAX_EXP {
        let wide = pow5::floor_log10_pow2(q);
        let narrow = pow5::floor_log10_three_quarters_pow2(q);
        let mut check = |k: i32, x: u64, num: &Nat, den: &Nat, near_one: bool| {
            // ⌊T⌋ must be odd below the band, ⌈T⌉ = ⌊T⌋ + 1 above it.
            let floor = &(num * x) / den;
            outside.push((q, k, x));
            if floor.is_even() != near_one {
                wrong.push((q, k, x));
            }
        };
        let (num, den) = scale_ratio(q, wide);
        // T = y·(2·num/den), in lowest terms a/m.
        let (two_num, m) = if den.is_even() {
            (num.clone(), &den >> 1)
        } else {
            (&num * 2u64, den.clone())
        };
        if !m.is_one() {
            // A fraction below 2^-63 is a residue with residue·2^63 < m.
            let low = &((&m - &Nat::one()) >> 63) + &Nat::one();
            let high = &(&m >> 63) + &Nat::one();
            let a = &two_num % &m;
            for (a, near_one, below) in [(a.clone(), false, low), (&m - &a, true, high)] {
                let mut ys = Vec::new();
                small_residues(&a, &m, (1 << 54) + 1, &below, &mut ys);
                for y in ys {
                    check(wide, 2 * y, &num, &den, near_one);
                }
            }
        }
        let (num, den) = scale_ratio(q, narrow);
        for p in 1..=53u32 {
            for x in [(2u64 << p) - 1, 2 << p, (2 << p) + 2] {
                let r = &(&num * x) % &den;
                if r.is_zero() {
                    continue;
                }
                if (&r << 63) < den {
                    check(narrow, x, &num, &den, false);
                } else if (&(&den - &r) << 63) <= den {
                    check(narrow, x, &num, &den, true);
                }
            }
        }
    }
    assert_eq!(wrong, [], "products that may not round to odd");
    assert_eq!(
        outside,
        [
            (163, 49, 22368470718514044),
            (164, 49, 11184235359257022),
            (664, 199, 35548220997423152),
        ],
        "products outside [2^-63, 1 − 2^-63) changed"
    );
}
