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
//! shortest tier's decision (which the fixed tier shares) reads has a
//! fraction of 0 or one inside `[2^-64, 1 − 2^-64]`, for every binary
//! exponent an `f64` reaches and every significand below `2^53` (DESIGN
//! §12 and §15).

mod common;

use common::{digits_value, toy_cases};
use fpp::bignum::{pow5, Nat, Rat};
use fpp::core::{free_format_digits, with_thread_powers, Digits, ScalingStrategy, TieBreak};
use fpp::float::{FloatFormat, Neighbors, RoundingMode, SoftFloat};
use fpp::reader::{eisel_lemire_f32, eisel_lemire_f64, read_f32_exact, read_f64_exact};
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

/// `x` as a `u128`, which it must fit.
fn to_u128(x: &Nat) -> u128 {
    let limbs = x.limbs();
    assert!(limbs.len() <= 2, "{x} exceeds 128 bits");
    limbs
        .iter()
        .rev()
        .fold(0, |acc, &limb| (acc << 64) | u128::from(limb))
}

/// The shortest tier's table significand of `10^e`: the shared entry,
/// rounded up where it is a floor.
fn cache(e: i32) -> u128 {
    pow5::entry(e).as_u128() + u128::from(e > 55)
}

/// `⌊x·cache/2^128⌋` and whether the next 64 product bits are zero, as
/// the tier computes them.
fn mul_upper(x: u64, cache: u128) -> (u64, bool) {
    let r = (Nat::from(u128::from(x)) * &Nat::from(cache)) >> 64;
    let r = to_u128(&r);
    ((r >> 64) as u64, r as u64 == 0)
}

/// The parity of `⌊x·cache/2^(128−β)⌋` and whether the top 64 bits of its
/// fraction are zero, as the tier computes them.
fn mul_parity(x: u64, cache: u128, beta: u32) -> (bool, bool) {
    let p = Nat::from(u128::from(x)) * &Nat::from(cache);
    let fraction = &p - &(&(&p >> (128 - beta)) << (128 - beta));
    (
        p.bit(u64::from(128 - beta)),
        (&fraction >> (64 - beta)).is_zero(),
    )
}

/// The products of the shortest tier's decision are exact.
///
/// For `v = c·2^q` away from a power of two the tier works at the scale
/// `k = ⌊q·log10 2⌋ − 2` and multiplies `n·2^β` by `cache`, the 128-bit
/// ceiling of `10^-k`, for `n` one of `2c − 1`, `2c` and `2c + 1`. The
/// product `T'` exceeds `T = n·2^(q−1)·10^-k` by under `n·2^(β−128) <
/// 2^-65`. Its integer part, the parity of that, and the integer test
/// (the top 64 fraction bits all zero) are then those of `T` whenever the
/// fraction of `T` is 0 or lies in `[2^-64, 1 − 2^-64]`. The test proves
/// that for every `n < 2^54`, so every `c < 2^53`, through the min–max
/// Euclid walk, and checks each product that falls outside the band
/// directly. It also checks, for every exponent, that `cache` is the
/// ceiling, that `β` keeps `n·2^β` below `2^63`, and that the width
/// `cache_hi >> (63 − β)` is exactly `⌊2^q·10^-k⌋` and in `[100, 1000)`.
///
/// Below a power of two the tier reads `⌊x⌋`, `⌊z⌋` and `⌊y + ½⌋` for the
/// ends `x = (2^(p+1) − 1)·2^(q−2)·10^-k`, `z = (2^p + 1)·2^(q−1)·10^-k`
/// and the value `y = 2^(p−1+q)·10^-k` (`k = ⌊log10(¾·2^q)⌋`) off the
/// high word of the ceiling of `10^-k` by shifts; the test compares each
/// with its exact value for every precision `p ≤ 53`.
///
/// This covers every `q` an `f64` reaches, subnormals included, and every
/// format the tier serves shares `f64`'s exponent range with no more
/// significand bits. So no exponent is left to the exact engine.
#[test]
fn one_product_decision_is_exact_for_every_f64_exponent() {
    let mut outside = Vec::new();
    for q in <f64 as FloatFormat>::MIN_EXP..=<f64 as FloatFormat>::MAX_EXP {
        let k = pow5::floor_log10_pow2(q) - 2;
        let cache = cache(-k);
        let shift = pow5::floor_log2_pow10(-k);
        // cache − 1 < 10^-k·2^(127 − shift) ≤ cache.
        let (num, den) = scale_ratio(127 - shift, k);
        let (low, high) = (Nat::from(cache - 1) * &den, Nat::from(cache) * &den);
        assert!(low < num && num <= high, "q = {q}: not the ceiling");
        let beta = u32::try_from(q + shift).expect("β ≥ 0");
        assert!((6..=9).contains(&beta), "q = {q}: β = {beta}");
        let (num, den) = scale_ratio(q, k);
        let delta = ((cache >> 64) as u64) >> (63 - beta);
        assert_eq!(Nat::from(u128::from(delta)), &num / &den, "q = {q}: width");
        assert!((100..1000).contains(&delta), "q = {q}: width {delta}");

        // T = n·(a/m) in lowest terms; a fraction within 2^-64 of 0 or 1
        // is a residue or a co-residue below m/2^64.
        let (a, m) = scale_ratio(q - 1, k);
        let below = &((&m - &Nat::one()) >> 64) + &Nat::one();
        if below.is_one() {
            continue;
        }
        let a = &a % &m;
        for a in [a.clone(), &m - &a] {
            let mut ns = Vec::new();
            small_residues(&a, &m, (1 << 54) - 1, &below, &mut ns);
            outside.extend(ns.into_iter().map(|n| (q, n)));
        }
    }
    // Each product outside the band, read as the tier reads it: the
    // integer test counts only where 5^k can divide n < 2^54.
    for &(q, n) in &outside {
        let k = pow5::floor_log10_pow2(q) - 2;
        let beta = (q + pow5::floor_log2_pow10(-k)) as u32;
        let (a, m) = scale_ratio(q - 1, k);
        let t = &a * n;
        let (floor, integer) = (&t / &m, (&t % &m).is_zero());
        let (odd, parity_integer) = mul_parity(n, cache(-k), beta);
        let want = (!floor.is_even(), integer);
        assert_eq!((odd, parity_integer && k <= 23), want, "q = {q}, n = {n}");
        if n % 2 == 1 {
            let (zi, z_integer) = mul_upper(n << beta, cache(-k));
            let z = (Nat::from(u128::from(zi)), z_integer && k <= 23);
            assert_eq!(z, (floor, integer), "q = {q}, n = {n}");
        }
    }
    // All below 2^-64, where the integer test cannot hold.
    assert_eq!(
        outside,
        [
            (668, 4443527624677894),
            (668, 8887055249355788),
            (669, 2221763812338947),
            (669, 4443527624677894),
            (670, 2221763812338947),
        ],
        "products with a fraction within 2^-64 of 0 or 1 changed"
    );

    for q in <f64 as FloatFormat>::MIN_EXP + 1..=<f64 as FloatFormat>::MAX_EXP {
        let k = pow5::floor_log10_three_quarters_pow2(q);
        let cache = cache(-k);
        let beta = u32::try_from(q + pow5::floor_log2_pow10(-k)).expect("β ≥ 0");
        assert!(beta <= 3, "q = {q}: β = {beta}");
        // 2^q·10^-k = num/den.
        let (num, den) = scale_ratio(q, k);
        for p in 1..=53u32 {
            let shift = 128 - p - beta;
            let floor_x = (cache - (cache >> (p + 1))) >> shift;
            let floor_z = ((cache >> 1) + (cache >> (p + 1)) + 2) >> (shift - 1);
            let round_y = (cache >> (shift - 1)).div_ceil(2);
            // x = (2^(p+1) − 1)·2^(q−2)·10^-k, z = (2^p + 1)·2^(q−1)·10^-k.
            let floor = |times: u64, over: u32| &(&num * times) / &(&den << over);
            let x = floor((2 << p) - 1, 2);
            let z = floor((1 << p) + 1, 1);
            // ⌊y + ½⌋ for y = 2^(p−1+q)·10^-k: (2^p·num + den)/(2·den).
            let y = &(&(&num << p) + &den) / &(&den << 1);
            assert_eq!(Nat::from(floor_x), x, "q = {q}, p = {p}: lower end");
            assert_eq!(Nat::from(floor_z), z, "q = {q}, p = {p}: upper end");
            assert_eq!(Nat::from(round_y), y, "q = {q}, p = {p}: rounded value");
        }
    }
}

/// Every `w ∈ [2^63, 2^64)` with `w·c mod 2^bits ≥ 2^bits − window`, for
/// `c > 0`, `64 ≤ bits ≤ 128` and `window` a power of two no larger than
/// `2^64`.
///
/// With `c = 2^s·c'` for odd `c'`, the residue is `2^s` times that of
/// `w·c'` modulo `m = 2^(bits − s)`, so the condition reads `0 < w·(m −
/// c') mod m ≤ window/2^s`, a small-residue search. Below `window/2^s = 1`
/// no `w` qualifies.
fn high_residues(c: &Nat, bits: u32, window: &Nat) -> Vec<u64> {
    let s = u32::try_from(c.trailing_zeros().expect("c > 0")).expect("small");
    let below = &(window >> s) + &Nat::one();
    if below.is_one() {
        return Vec::new();
    }
    let m = &Nat::one() << (bits - s);
    let a = &m - &(&(c >> s) % &m);
    let mut ws = Vec::new();
    small_residues(&a, &m, u64::MAX, &below, &mut ws);
    ws.retain(|&w| w >> 63 == 1);
    ws
}

/// The Eisel–Lemire product of the normalized `w` with the table entry
/// `M = M_hi·2^64 + M_lo` of `10^q`, as the reader forms it: the 128-bit
/// `w·M_hi`, widened by `⌊w·M_lo/2^64⌋` when the high word's bits below
/// `precision` are all ones. Returns `(lo, hi, widened)`.
fn lemire_product(q: i32, w: u64, precision: u32) -> (u64, u64, bool) {
    let entry = pow5::entry(q);
    let mask = u64::MAX >> precision;
    let first = u128::from(w) * u128::from(entry.hi);
    let widened = (first >> 64) as u64 & mask == mask;
    let product = if widened {
        first + ((u128::from(w) * u128::from(entry.lo)) >> 64)
    } else {
        first
    };
    (product as u64, (product >> 64) as u64, widened)
}

/// Every `(w, q)` for which the reader's product has a saturated low word
/// (`lo = 2^64 − 1`) while `5^|q|` does not fit in 128 bits (`q` outside
/// `[−27, 55]`), for `q` in `qs` and every normalized `w ∈ [2^63, 2^64)`,
/// each with whether the product was widened.
///
/// Unwidened, `lo = w·M_hi mod 2^64`, so `w·M_hi mod 2^64 ≥ 2^64 − 1`.
/// Widened, `lo = ⌊w·M/2^64⌋ mod 2^64`, so `w·M mod 2^128 ≥ 2^128 −
/// 2^64`. Each search over-approximates its case; the product then decides
/// which case the found `w` is in.
fn saturated_products(qs: std::ops::RangeInclusive<i32>, precision: u32) -> Vec<(u64, i32, bool)> {
    let mut found = Vec::new();
    for q in qs.filter(|q| !(-27..=55).contains(q)) {
        let entry = pow5::entry(q);
        let one = high_residues(&Nat::from(entry.hi), 64, &Nat::one());
        let wide = high_residues(&Nat::from(entry.as_u128()), 128, &(&Nat::one() << 64));
        for (ws, widened) in [(one, false), (wide, true)] {
            for w in ws {
                let (lo, _, took) = lemire_product(q, w, precision);
                if took == widened {
                    assert_eq!(lo, u64::MAX, "q = {q}, w = {w}: not saturated");
                    found.push((w, q, widened));
                }
            }
        }
    }
    found
}

/// Eisel–Lemire needs no reject for a saturated product.
///
/// Lemire's reader declined `w·10^q` whenever the low word of its
/// truncated product was all ones and `5^|q|` did not fit in 128 bits,
/// since the discarded tail could then carry into the mantissa. Mushtak
/// and Lemire (*Fast Number Parsing Without Fallback*) show the carry
/// never changes the answer. This test finds, in exact arithmetic, every
/// normalized coefficient `w ∈ [2^63, 2^64)` and every table exponent of
/// `f64` (`q ∈ [−342, 308]`) and `f32` (`q ∈ [−65, 38]`) for which the
/// product saturates, in both the one-product and the widened case. Every
/// `u64` coefficient normalizes to one of them, so each `w >> s` with `s`
/// up to the trailing zeros of `w` is read too, and each answer must
/// match the exact reader's.
#[test]
fn eisel_lemire_needs_no_saturated_product_reject() {
    let f64s = saturated_products(-342..=308, 55);
    let f32s = saturated_products(-65..=38, 26);
    let spellings = |w: u64| (0..=w.trailing_zeros()).map(move |s| w >> s);
    for &(w, q, _) in &f64s {
        for w in spellings(w) {
            let exact = read_f64_exact(&format!("{w}e{q}")).unwrap();
            let got = eisel_lemire_f64(w, i64::from(q)).map(f64::to_bits);
            assert_eq!(got, Some(exact.to_bits()), "f64: {w}e{q}");
        }
    }
    for &(w, q, _) in &f32s {
        for w in spellings(w) {
            let exact = read_f32_exact(&format!("{w}e{q}")).unwrap();
            let got = eisel_lemire_f32(w, i64::from(q)).map(f32::to_bits);
            assert_eq!(got, Some(exact.to_bits()), "f32: {w}e{q}");
        }
    }
    let count = |found: &[(u64, i32, bool)], widened: bool| {
        found.iter().filter(|&&(.., wide)| wide == widened).count()
    };
    assert_eq!(
        [
            (count(&f64s, false), count(&f64s, true)),
            (count(&f32s, false), count(&f32s, true)),
        ],
        [(138, 0), (10, 0)],
        "saturated products changed: (one product, widened) for f64, f32"
    );
}
