//! The fixed tier: §4 fixed format at the float's own precision on the
//! shortest tier's `u64` arithmetic, run in front of the exact engine.
//!
//! §4 widens the rounding range to `v ± 10^j/2` only where the requested
//! position `j` is coarser than the float's own precision. The tier serves
//! the positions where it is not: `j` is the shortest tier's scale `k_s`
//! or `k_s − 1`, and `10^j/2` lies strictly below both half-gaps `m⁻` and
//! `m⁺`. Nothing is widened there, so neither endpoint is included and the
//! exact engine's loop is the free-format loop with exclusive endpoints.
//! Its digits are the shortest tier's under
//! `Inclusivity { low_ok: false, high_ok: false }`, and its scale is their
//! leading position `k`.
//!
//! §4 then pads down to `j`. A zero at position `p` is significant when
//! `high − V < 10^(p+1)`, with `V` the printed value and `high` the upper
//! end of the rounding range; every later position is a `#` mark. The
//! range is under `10^(k_s+1)` wide, so every position from `k_s` up is a
//! significant zero. Position `k_s − 1` is significant exactly when
//! `high − V < 10^k_s`, that is when `high·10^(2−k_s)` is below the
//! integer `100(V·10^-k_s + 1)`. Against an integer, `high·10^(2−k_s)`
//! compares as its integer part does, and that is the shortest tier's
//! `zi`, so the comparison is exact.
//!
//! Every other request — a coarser position, where the range widens, a
//! finer one (subnormals reach it), another base or scaling strategy —
//! stays on the exact engine. DESIGN §15 has the argument and the census.

use crate::fixed::{FixedMeta, FixedPrecision};
use crate::generate::{Inclusivity, TieBreak};
use crate::shortest;
use fpp_bignum::pow5;

/// Room for the tier's digits: the answer at the scale `k_s` is one `u64`,
/// so at most 20 digits, plus the one padding position `k_s − 1`.
pub(crate) const BUF_LEN: usize = 21;

/// Neither end of an unwidened range reads back under §4.
const EXCLUSIVE: Inclusivity = Inclusivity {
    low_ok: false,
    high_ok: false,
};

/// §4's fixed-format digits of `v = c·2^q` at `precision` (arguments as
/// for [`shortest::shortest`]), written as digit values into the front of
/// `digits` with their count, or `None` when the request's final position
/// is not one the tier serves.
pub(crate) fn fixed(
    c: u64,
    q: i32,
    narrow: bool,
    precision: FixedPrecision,
    tie: TieBreak,
    digits: &mut [u8; BUF_LEN],
) -> Option<(FixedMeta, usize)> {
    let d = shortest::decide(c, q, narrow, EXCLUSIVE, tie);
    debug_assert!(d.s > 0, "the shortest tier never answers zero");
    // The answer at the scale k_s, trailing zeros kept.
    let s_k = if d.e > d.k { 10 * d.s } else { d.s };
    let len = s_k.ilog10() + 1;
    let k = d.k + len as i32;
    let j = match precision {
        FixedPrecision::AbsolutePosition(j) => i64::from(j),
        FixedPrecision::SignificantDigits(n) => i64::from(k) - i64::from(n),
    };
    let below = j == i64::from(d.k) - 1;
    if !(below || j == i64::from(d.k)) {
        return None;
    }
    // 10^j/2 < m⁻ ≤ m⁺, with m⁻ = 2^(q−1), or 2^(q−2) below a power of
    // two: 10^j < 2^(q − narrow).
    let j = j as i32;
    if !pow10_below_pow2(j, q - i32::from(narrow)) {
        return None;
    }

    let mut n = len as usize;
    let mut s = s_k;
    for slot in digits[..n].iter_mut().rev() {
        *slot = (s % 10) as u8;
        s /= 10;
    }
    let mut insignificant = 0;
    if below {
        // Position k_s − 1 is significant iff high − V < 10^k_s.
        if d.zi < 100 * (s_k + 1) {
            digits[n] = 0;
            n += 1;
        } else {
            insignificant = 1;
        }
    }
    let meta = FixedMeta {
        k,
        insignificant,
        position: j,
    };
    Some((meta, n))
}

/// `10^j < 2^p`, exactly: `10^j ≤ 10^⌊p·log10 2⌋ ≤ 2^p` for
/// `j ≤ ⌊p·log10 2⌋`, with equality only at `j = p = 0`.
fn pow10_below_pow2(j: i32, p: i32) -> bool {
    let floor = pow5::floor_log10_pow2(p);
    j < floor || (j == floor && p != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpp_bignum::Nat;
    use fpp_float::FloatFormat;

    /// `1e23` at 17 digits (DESIGN §15): the double `c·2^24` just below
    /// `10^23`, whose upper end is exactly `10^23`. With `k_s = 7` and
    /// sixteen 9s for `S`, `zi = ⌊10^23·10^-5⌋` equals `100(S + 1)`: the
    /// upper end sits on the significance boundary of position `k_s − 1`,
    /// so that position is a `#`. One `zi` lower, it would be a zero.
    #[test]
    fn upper_end_on_the_significance_boundary() {
        let (_, c, q) = 1e23f64.decode().finite_parts().unwrap();
        let d = shortest::decide(c, q, false, EXCLUSIVE, TieBreak::Up);
        assert_eq!((d.s, d.e, d.k), (9_999_999_999_999_999, 7, 7));
        assert_eq!(d.zi, 100 * (d.s + 1));
        let mut digits = [0; BUF_LEN];
        let precision = FixedPrecision::SignificantDigits(17);
        let (meta, n) = fixed(c, q, false, precision, TieBreak::Up, &mut digits).unwrap();
        assert_eq!(digits[..n], [9; 16]);
        assert_eq!((meta.k, meta.insignificant, meta.position), (23, 1, 6));
    }

    /// `10^j < 2^p` against exact powers around every `j` the tier tests.
    #[test]
    fn pow10_below_pow2_is_exact() {
        for p in -1100..=1100 {
            let k = pow5::floor_log10_pow2(p);
            for j in k - 2..=k + 2 {
                let (mut ten, mut two) = (Nat::one(), Nat::one());
                // Compare 10^j·2^-p with 1 in integers.
                let tj = Nat::u64_pow(10, j.unsigned_abs());
                let tp = Nat::one() << p.unsigned_abs();
                if j >= 0 {
                    ten = tj;
                } else {
                    two = tj;
                }
                if p >= 0 {
                    two = &two * &tp;
                } else {
                    ten = &ten * &tp;
                }
                assert_eq!(pow10_below_pow2(j, p), ten < two, "j = {j}, p = {p}");
            }
        }
    }
}
