//! The shortest tier: exact shortest base-10 digits on `u64` arithmetic,
//! in the style of Dragonbox (Jeon, *Dragonbox: A New Floating-Point
//! Binary-to-Decimal Conversion Algorithm*, 2020) with `κ = 2`, run in
//! front of the Burger–Dybvig engine.
//!
//! The tier answers every value it is given; there is no rejection and no
//! fallback. For `v = c·2^q` it works at the scale `10^(k−2)`, `k` chosen
//! so that the rounding interval spans between 1 and 10 units of `10^k`:
//! there the interval is `[z − δ, z]` with `100 ≤ δ < 1000`. One product
//! of the upper end `z = (2c + 1)·2^(q−1)·10^(2−k)` with the table entry
//! for `10^(2−k)` gives `⌊z⌋` and whether `z` is an integer; the width's
//! integer part `δ` is a shift of the same entry. It reads the answer off
//! those:
//!
//! * a multiple of `10^(k+1)`, if one lies in the interval (at most one
//!   can: the interval is under ten units of `10^k` wide). The largest
//!   multiple of 1000 not above `⌊z⌋` lies `r = ⌊z⌋ mod 1000` below it, and
//!   is in the interval when `r < δ`; only at `r = δ` is the lower end
//!   consulted, through a parity-only product of `2c − 1`;
//! * otherwise `v·10^-k` rounded to the nearest integer, which always lies
//!   strictly inside the interval (it is at least 100 units of `10^(k−2)`
//!   wide). `⌊z⌋ − ⌊δ/2⌋` is `⌊v·10^(2−k)⌋` or one more, which matters only
//!   when the rounding distance is a multiple of 100; only then does a
//!   parity-only product of `2c` settle it, and with it an exact tie,
//!   which [`TieBreak`] decides.
//!
//! That is the Burger–Dybvig output: the coarsest digit position at which
//! a candidate enters the interval, then the closer candidate there.
//! Endpoint inclusion comes from the same [`Inclusivity`] rule the exact
//! engine uses. Below a power of two the interval is lopsided, and a
//! shorter-interval routine reads both ends and the rounded value off the
//! entry's high word by shifts alone.
//!
//! **Why the products are exact.** The entry for `10^(2−k)` is a 128-bit
//! ceiling, so each product `n·2^(q−1)·10^(2−k)` (`n` one of `2c − 1`,
//! `2c`, `2c + 1`, all below `2^54`) comes out above the true value by less
//! than `2^-65`. The integer part, its parity and the integer test (the
//! top 64 fraction bits all zero) are then exact whenever the true
//! fraction is 0 or lies in `[2^-64, 1 − 2^-64]`. The root test
//! `theorems.rs` proves that for every `n < 2^54` and every binary
//! exponent an `f64` reaches, in exact arithmetic, and checks the width's
//! shift and the shorter-interval routine for every exponent and every
//! precision up to 53 bits.

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

/// The working scale sits `KAPPA` decimal places below the answer's.
const KAPPA: i32 = 2;

/// The 128-bit significand of `10^e`, rounded up: the shared entry is
/// already a ceiling for `e < 0`, exact for `0 ≤ e ≤ 55`, and a floor
/// above.
fn cache(e: i32) -> u128 {
    pow5::entry(e).as_u128() + u128::from(e > 55)
}

/// `⌊x·cache/2^128⌋` and whether the next 64 bits of the product are all
/// zero: the integer part of the scaled value, and whether it is an
/// integer.
fn mul_upper(x: u64, cache: u128) -> (u64, bool) {
    let x = u128::from(x);
    let r = x * (cache >> 64) + ((x * (cache & u128::from(u64::MAX))) >> 64);
    ((r >> 64) as u64, r as u64 == 0)
}

/// The parity of `⌊x·cache/2^(128−β)⌋` and whether the top 64 bits of its
/// fraction are all zero, from the low 128 bits of the product only.
fn mul_parity(x: u64, cache: u128, beta: u32) -> (bool, bool) {
    let lo = u128::from(x) * (cache & u128::from(u64::MAX));
    let high = x
        .wrapping_mul((cache >> 64) as u64)
        .wrapping_add((lo >> 64) as u64);
    let parity = (high >> (64 - beta)) & 1 != 0;
    let integer = (high << beta) | ((lo as u64) >> (64 - beta)) == 0;
    (parity, integer)
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
    strip_zeros(d.s, d.e)
}

/// The tier's answer, before trailing zeros are stripped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    /// The answer is `s·10^e`.
    pub s: u64,
    /// `k + 1` when a multiple of `10^(k+1)` lies in the interval (`s` may
    /// then end in zeros), else `k` (`s` then never ends in a zero: the
    /// multiple of ten it would be lies in the interval).
    pub e: i32,
    /// The scale: `⌊log10⌋` of the rounding interval's width.
    pub k: i32,
    /// `⌊high·10^(2−k)⌋`, `high` the interval's upper end; below a power
    /// of two `100·⌊high·10^-k⌋`. Either compares with every multiple of
    /// 100 as `high·10^(2−k)` does.
    pub zi: u64,
}

/// [`shortest`]'s decision, with the answer at the scale it was made.
pub(crate) fn decide(c: u64, q: i32, narrow: bool, inc: Inclusivity, tie: TieBreak) -> Decision {
    debug_assert!(c > 0 && c < 1 << F64_PRECISION);
    if narrow {
        return decide_narrow(c, q, inc, tie);
    }
    let k = pow5::floor_log10_pow2(q);
    let cache = cache(KAPPA - k);
    let beta = (q + pow5::floor_log2_pow10(KAPPA - k)) as u32;
    debug_assert!((6..=9).contains(&beta), "scale shift {beta} out of range");
    let two_c = c << 1;
    // The products n·2^(q−1)·10^(2−k) can be integers only where 5^(k−2)
    // divides some n < 2^54 < 5^24; elsewhere a fraction below 2^-64 reads
    // as zero (theorems.rs lists the five).
    let can_be_integer = k - KAPPA <= 23;
    // z = (2c + 1)·2^(q−1)·10^(2−k), the interval's upper end.
    let (zi, z_integer) = mul_upper((two_c | 1) << beta, cache);
    let z_integer = z_integer & can_be_integer;
    // δ = ⌊2^q·10^(2−k)⌋, the interval's width, in [100, 1000).
    let delta = ((cache >> 64) as u64) >> (63 - beta);

    // The largest multiple of 1000 not above z lies r below ⌊z⌋. Below
    // δ it lies strictly above the lower end; it is the upper end itself
    // when r = 0 and z is an integer, and an excluded upper end leaves the
    // multiple below, which lies under the lower end.
    let big = zi / 1000;
    let r = zi - 1000 * big;
    let excluded = (r == 0) & z_integer & !inc.high_ok;
    let mut coarse = (r < delta) & !excluded;
    if r == delta {
        // The multiple is ⌊z⌋ − ⌊δ⌋, and the lower end z − δ has that
        // integer part (even: a multiple of 1000) or one less.
        let (odd, integer) = mul_parity(two_c - 1, cache, beta);
        coarse = odd | (integer & can_be_integer & inc.low_ok);
    }

    // Otherwise v·10^(2−k) = z − δ/2 rounded to a multiple of 100. With
    // ⌊δ/2⌋ for δ/2 the rounded quotient is right unless t is a multiple of
    // 100 and ⌊v·10^(2−k)⌋ is one less than ⌊z⌋ − ⌊δ/2⌋. It is computed
    // from ⌊z⌋ alone, beside the coarser candidate rather than after it,
    // and one of the two is selected with no branch.
    let t = zi - (delta >> 1) + 50;
    let mut fine = t / 100;
    if t.is_multiple_of(100) & !coarse {
        // ⌊z⌋ − ⌊δ/2⌋ has the parity of t − 50.
        let (odd, integer) = mul_parity(two_c, cache, beta);
        let approx_odd = t & 1 != 0;
        // Equal parities: v·10^(2−k) is at least 50 above a multiple of
        // 100, a tie exactly when it is an integer.
        let tie_point = integer & can_be_integer;
        if odd != approx_odd || (tie_point && !tie.rounds_up(((fine - 1) % 10) as u8)) {
            fine -= 1;
        }
    }
    // Which candidate wins varies from value to value, so a branch here
    // would mispredict often.
    let s = std::hint::select_unpredictable(coarse, big, fine);
    Decision {
        s,
        e: k + i32::from(coarse),
        k,
        zi,
    }
}

/// [`decide`] below a power of two, `c = 2^(p−1)` with `p` the format's
/// precision: the interval is `(c − ¼, c + ½)·2^q`, and with
/// `k = ⌊log10(¾·2^q)⌋` it is between 1 and 10 units of `10^k` wide.
/// Dragonbox's shorter-interval routine: both ends and `v·10^-k` come from
/// the entry for `10^-k` by shifts. It shifts the whole 128-bit ceiling,
/// not its high word as Dragonbox does for `f64` alone, so that each end
/// comes out at or just above its true value and an end that is an
/// integer keeps its integer part (`f16`'s `2^12 − 1 = 5·819` makes such
/// ends where the entry is inexact). `theorems.rs` checks every read
/// against the exact value for every exponent and precision.
#[cold]
#[inline(never)]
fn decide_narrow(c: u64, q: i32, inc: Inclusivity, tie: TieBreak) -> Decision {
    let p = c.trailing_zeros() + 1;
    let k = pow5::floor_log10_three_quarters_pow2(q);
    let cache = cache(-k);
    let beta = (q + pow5::floor_log2_pow10(-k)) as u32;
    debug_assert!(beta <= 3, "scale shift {beta} out of range");
    // 2^(p−1+q)·10^-k = cache·2^-shift.
    let shift = 128 - p - beta;
    // ⌊x⌋ and ⌊z⌋ for the ends x = (1 − 2^-(p+1))·cache·2^-shift and
    // z = (1 + 2^-p)·cache·2^-shift, each product rounded up.
    let floor_x = ((cache - (cache >> (p + 1))) >> shift) as u64;
    let floor_z = (((cache >> 1) + (cache >> (p + 1)) + 2) >> (shift - 1)) as u64;
    let zi = if !inc.high_ok && is_integer((1 << p) + 1, q - 1, -k) {
        floor_z - 1
    } else {
        floor_z
    };
    let xi = if inc.low_ok && is_integer((2 << p) - 1, q - 2, -k) {
        floor_x
    } else {
        floor_x + 1
    };
    // [xi, zi] are the integers in the interval, at least one.
    let big = zi / 10;
    if big * 10 >= xi {
        return Decision {
            s: big,
            e: k + 1,
            k,
            zi: 100 * floor_z,
        };
    }
    // ⌊v·10^-k + ½⌋. It lies under the upper end, but may lie under the
    // lower one.
    let mut s = ((cache >> (shift - 1)) as u64).div_ceil(2);
    // An exact tie: 2v·10^-k = 2^(p+q−k)·5^-k is an odd integer.
    let tie_point = -k >= 0 && p as i32 + q - k == 0;
    if tie_point && !tie.rounds_up(((s - 1) % 10) as u8) {
        s -= 1;
    }
    if s < xi {
        s += 1;
    }
    Decision {
        s,
        e: k,
        k,
        zi: 100 * floor_z,
    }
}

/// Whether `n·2^e·10^t` is an integer.
fn is_integer(n: u64, e: i32, t: i32) -> bool {
    n.trailing_zeros() as i32 + e + t >= 0
        && (t >= 0 || (-t <= 27 && n.is_multiple_of(5u64.pow(t.unsigned_abs()))))
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

    fn digits_with(v: f64, tie: TieBreak) -> (u64, i32) {
        let (_, c, q) = v.decode().finite_parts().unwrap();
        let narrow = narrow::<f64>(c, q);
        let inc = Inclusivity {
            low_ok: c % 2 == 0,
            high_ok: c % 2 == 0,
        };
        shortest(c, q, narrow, inc, tie)
    }

    fn digits(v: f64) -> (u64, i32) {
        digits_with(v, TieBreak::Up)
    }

    #[test]
    fn known_values() {
        assert_eq!(digits(0.3), (3, -1));
        assert_eq!(digits(1.0), (1, 0));
        assert_eq!(digits(100.0), (1, 2));
        assert_eq!(digits(1e23), (1, 23));
        // The smallest subnormal: the table's entry for 10^326.
        assert_eq!(digits(5e-324), (5, -324));
        assert_eq!(digits(1e-323), (1, -323));
        assert_eq!(digits(5e-323), (5, -323));
        assert_eq!(digits(f64::MAX), (17976931348623157, 292));
        assert_eq!(digits(std::f64::consts::PI), (3141592653589793, -15));
        // The shorter interval at both ends of the normal range.
        assert_eq!(digits(f64::MIN_POSITIVE), (22250738585072014, -324));
        assert_eq!(digits(2f64.powi(1023)), (898846567431158, 293));
        // A coarser candidate wins over an equally short finer one: 2^-133,
        // the smallest subnormal bf16, prints as 1e-40, not 9e-41.
        let odd = Inclusivity {
            low_ok: false,
            high_ok: false,
        };
        assert_eq!(shortest(1, -133, false, odd, TieBreak::Up), (1, -40));
        // An exact tie at the finer position, settled by the rule.
        let tie = 2f64.powi(50) + 0.25;
        assert_eq!(digits_with(tie, TieBreak::Up), (11258999068426243, -1));
        assert_eq!(digits_with(tie, TieBreak::Down), (11258999068426242, -1));
        assert_eq!(digits_with(tie, TieBreak::Even), (11258999068426242, -1));
    }

    /// The integer test against exact rationals on small arguments.
    #[test]
    fn is_integer_matches_exact_division() {
        for n in 1..=200u64 {
            for e in -6..=6i32 {
                for t in -4..=4i32 {
                    // n·2^e·10^t = num/den in integers.
                    let (mut num, mut den) = (u128::from(n), 1u128);
                    let two = 1u128 << e.unsigned_abs();
                    let ten = 10u128.pow(t.unsigned_abs());
                    if e >= 0 {
                        num *= two
                    } else {
                        den *= two
                    }
                    if t >= 0 {
                        num *= ten
                    } else {
                        den *= ten
                    }
                    assert_eq!(is_integer(n, e, t), num % den == 0, "{n}·2^{e}·10^{t}");
                }
            }
        }
    }
}
