//! The shortest tier: exact shortest base-10 digits on `u64` arithmetic,
//! in the style of Schubfach (Giulietti, *The Schubfach way to render
//! doubles*, 2020), run in front of the Burger–Dybvig engine.
//!
//! The tier answers every value it is given; there is no rejection and no
//! fallback. For `v = c·2^q` it picks the decimal scale `k` so that the
//! rounding interval spans between 1 and 10 units of `10^k`, computes the
//! value and both interval ends as `4·x·10^-k` with one 126-bit table
//! significand each, and reads the answer off those three integers:
//!
//! * a multiple of ten, if one lies in the interval (at most one can: the
//!   interval is under ten units wide);
//! * otherwise `s = ⌊v·10^-k⌋` or `s + 1`, whichever the interval admits,
//!   and the closer of the two when it admits both, with an exact tie
//!   settled by [`TieBreak`].
//!
//! That is the Burger–Dybvig output: the coarsest digit position at which
//! a candidate enters the interval, then the closer candidate there.
//! Endpoint inclusion comes from the same [`Inclusivity`] rule the exact
//! engine uses.
//!
//! **Why the products are exact enough.** With `g = ⌊10^-k·2^-r⌋ + 1`
//! (`r` chosen so `2^125 ≤ g ≤ 2^126`) and `cp = 4x·2^h`, the product
//! `g·cp/2^127` exceeds the true `4x·10^-k` by at most `2^-67`. The tier
//! keeps `⌊g·cp/2^64⌋`, takes its top bits as the integer part and ORs a
//! sticky bit from the 63 bits below them: round to odd. An exact integer
//! stays exact, because the excess is below `2^-63` and dropping the low
//! product word discards it; keeping that word would turn every exact
//! endpoint hit into an odd "inexact" result. A non-integer becomes an
//! odd number with the right integer part, provided its fraction lies in
//! `[2^-63, 1 − 2^-67)`; outside that band it still does where the
//! integer part is odd. This is Giulietti's round-to-odd (`cp` is a
//! multiple of four, so the bits he drops are exactly the low product
//! word). The root test `theorems.rs` checks it in exact arithmetic for
//! every binary exponent an `f64` reaches, at both scales.
//! A round-to-odd result compares with any even integer exactly as the
//! true value does, and every comparison below is against `4·n` or
//! `4·n + 2`.

use crate::generate::{Inclusivity, TieBreak};
use fpp_bignum::pow5;
use fpp_float::FloatFormat;

/// Whether the tier covers every value of format `F`: its significands fit
/// the 53-bit bound and its exponents stay inside the `f64` range the
/// shared table was sized for.
pub(crate) fn covers<F: FloatFormat>() -> bool {
    F::PRECISION <= F64_PRECISION && F::MIN_EXP >= F64_MIN_EXP && F::MAX_EXP <= F64_MAX_EXP
}

/// Whether `v = c·2^q` of format `F` has a power-of-two significand above
/// the subnormal range, so that its gap below is half the gap above.
pub(crate) fn narrow<F: FloatFormat>(c: u64, q: i32) -> bool {
    c == 1 << (F::PRECISION - 1) && q > F::MIN_EXP
}

// The `f64` parameters as `FloatFormat` defines them (std's inherent
// `f64::MIN_EXP`/`MAX_EXP` mean something else).
const F64_PRECISION: u32 = <f64 as FloatFormat>::PRECISION;
const F64_MIN_EXP: i32 = <f64 as FloatFormat>::MIN_EXP;
const F64_MAX_EXP: i32 = <f64 as FloatFormat>::MAX_EXP;

/// `g = ⌊10^-k·2^-r⌋ + 1` with `2^125 ≤ g ≤ 2^126`, read off the shared
/// 128-bit entry `M` for `5^-k`. The entry is `⌊X⌋` for `-k ≥ 0` and
/// `⌊X⌋ + 1` for `-k < 0`, where `X ∈ [2^127, 2^128)` is the exact scaled
/// power, so `⌊X/4⌋` is `M >> 2` or `(M − 1) >> 2` respectively.
fn g(k: i32) -> u128 {
    let m = pow5::entry(-k).as_u128();
    if k <= 0 {
        (m >> 2) + 1
    } else {
        ((m - 1) >> 2) + 1
    }
}

/// Round to odd of `g·cp / 2^127`, dropping the low 64 product bits (see
/// the module docs for why they must be dropped).
fn rop(g: u128, cp: u64) -> u64 {
    let cp = u128::from(cp);
    // ⌊g·cp / 2^64⌋, exactly: g ≤ 2^126 and cp < 2^60, so neither partial
    // product overflows.
    let p = (g >> 64) * cp + (((g & u128::from(u64::MAX)) * cp) >> 64);
    ((p >> 63) as u64) | u64::from(p as u64 & (u64::MAX >> 1) != 0)
}

/// The shortest, correctly rounded decimal `f·10^e` for `v = c·2^q`
/// (`0 < c < 2^53`, `q` in the `f64` exponent range). `narrow` marks a
/// power-of-two significand above the subnormal range, whose gap below is
/// half the gap above. `f` carries no trailing zeros.
pub(crate) fn shortest(
    c: u64,
    q: i32,
    narrow: bool,
    inc: Inclusivity,
    tie: TieBreak,
) -> (u64, i32) {
    let d = decide(c, q, narrow, inc, tie);
    strip_zeros(d.s, d.k)
}

/// The tier's answer at its own scale, before trailing zeros are stripped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    /// The answer is `s·10^k`.
    pub s: u64,
    /// The scale: `⌊log10⌋` of the rounding interval's width.
    pub k: i32,
    /// Round to odd of `4·high·10^-k`, `high` the interval's upper end.
    pub vbr: u64,
}

/// [`shortest`]'s decision, with the answer at the scale it was made.
pub(crate) fn decide(c: u64, q: i32, narrow: bool, inc: Inclusivity, tie: TieBreak) -> Decision {
    debug_assert!(c > 0 && c < 1 << F64_PRECISION);
    // The interval ends, times four: (4c − 2, 4c + 2), or 4c − 1 below a
    // power of two.
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if narrow {
        (cb - 1, pow5::floor_log10_three_quarters_pow2(q))
    } else {
        (cb - 2, pow5::floor_log10_pow2(q))
    };
    let h = q + pow5::floor_log2_pow10(-k) + 2;
    debug_assert!((2..=5).contains(&h), "scale shift {h} out of range");
    let g = g(k);
    let vb = rop(g, cb << h);
    let vbl = rop(g, cbl << h);
    let vbr = rop(g, cbr << h);
    let low_in = |n: u64| {
        if inc.low_ok {
            vbl <= n << 2
        } else {
            vbl < n << 2
        }
    };
    let high_in = |n: u64| {
        if inc.high_ok {
            n << 2 <= vbr
        } else {
            n << 2 < vbr
        }
    };

    let s = vb >> 2;
    // One position coarser: the multiples of ten around v. There is no
    // lower bound on s here: like the exact engine, a candidate at a
    // coarser position wins even against an equally short finer one
    // (2^-133 prints as 1e-40, not 9e-41). sp10 = 0 is never admitted.
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let (upin, wpin) = (low_in(sp10), high_in(tp10));
    if upin != wpin {
        let s = if upin { sp10 } else { tp10 };
        return Decision { s, k, vbr };
    }
    let t = s + 1;
    let (uin, win) = (low_in(s), high_in(t));
    let up = if uin != win {
        win
    } else {
        // Both admitted: compare 4v·10^-k with the midpoint 4s + 2.
        match vb.cmp(&((s << 2) + 2)) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => tie.rounds_up((s % 10) as u8),
        }
    };
    let s = if up { t } else { s };
    Decision { s, k, vbr }
}

/// Moves trailing decimal zeros of `f` into the exponent.
fn strip_zeros(mut f: u64, mut e: i32) -> (u64, i32) {
    while f.is_multiple_of(10) {
        f /= 10;
        e += 1;
    }
    (f, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpp_bignum::Nat;

    /// Every `g` the tier can use is exactly `⌊10^-k·2^-r⌋ + 1` with
    /// `r = ⌊-k·log2 10⌋ − 125`, checked as `(g − 1)·2^r ≤ 10^-k < g·2^r`
    /// in exact integers.
    #[test]
    fn g_is_floor_plus_one_of_the_exact_power() {
        let k_min = pow5::floor_log10_pow2(F64_MIN_EXP);
        let k_max = pow5::floor_log10_pow2(F64_MAX_EXP);
        let nat = |x: u128| Nat::from_limbs(vec![x as u64, (x >> 64) as u64]);
        for k in k_min..=k_max {
            let g = g(k);
            assert!((1u128 << 125..=1u128 << 126).contains(&g), "k = {k}");
            let r = pow5::floor_log2_pow10(-k) - 125;
            // 10^-k = a/b in integers; 2^r moves to whichever side keeps
            // its exponent non-negative.
            let ten = Nat::u64_pow(10, k.unsigned_abs());
            let (mut a, b) = if k <= 0 {
                (ten, Nat::one())
            } else {
                (Nat::one(), ten)
            };
            let (mut lo, mut hi) = (&nat(g - 1) * &b, &nat(g) * &b);
            if r >= 0 {
                lo <<= r.unsigned_abs();
                hi <<= r.unsigned_abs();
            } else {
                a <<= r.unsigned_abs();
            }
            assert!(lo <= a && a < hi, "k = {k}");
        }
    }

    fn digits(v: f64) -> (u64, i32) {
        let (_, c, q) = v.decode().finite_parts().unwrap();
        let narrow = narrow::<f64>(c, q);
        let inc = Inclusivity {
            low_ok: c % 2 == 0,
            high_ok: c % 2 == 0,
        };
        shortest(c, q, narrow, inc, TieBreak::Up)
    }

    #[test]
    fn known_values() {
        assert_eq!(digits(0.3), (3, -1));
        assert_eq!(digits(1.0), (1, 0));
        assert_eq!(digits(100.0), (1, 2));
        assert_eq!(digits(1e23), (1, 23));
        assert_eq!(digits(5e-324), (5, -324));
        assert_eq!(digits(1e-323), (1, -323));
        assert_eq!(digits(5e-323), (5, -323));
        assert_eq!(digits(f64::MAX), (17976931348623157, 292));
        assert_eq!(digits(f64::MIN_POSITIVE), (22250738585072014, -324));
        assert_eq!(digits(std::f64::consts::PI), (3141592653589793, -15));
    }
}
