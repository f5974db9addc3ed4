//! Fixed-format printing with `#` marks for insignificant digits (§4).
//!
//! Fixed format prints a value *correctly rounded to a requested digit
//! position* `j` (absolute mode) or to a requested number of digits
//! (relative mode). The rounding range of free format is conditionally
//! expanded to `v ± Bʲ/2`: when the requested precision is coarser than the
//! float's own precision the expansion takes effect (and the endpoints
//! become inclusive, since correct rounding admits `|V − v| = Bʲ/2`); when
//! it is finer, the float's rounding range is the binding constraint and the
//! positions beyond its resolution are printed as `#` marks — the paper's
//! device for avoiding garbage digits when printing denormals or printing to
//! many places (`1/3` as a float prints as `0.3333333333333333####` to 20
//! places rather than inventing `…3148` noise).

use crate::ctx::Workspace;
use crate::free::load_initial;
use crate::generate::{generate_into, Inclusivity, TieBreak};
use crate::scale::ScalingStrategy;
use fpp_bignum::PowerTable;
use fpp_float::SoftFloat;

/// How much output fixed-format printing should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedPrecision {
    /// Stop at the digit whose weight is `B^position`: `AbsolutePosition(0)`
    /// rounds to an integer, `AbsolutePosition(-2)` to two fractional
    /// digits, `AbsolutePosition(3)` to thousands.
    AbsolutePosition(i32),
    /// Produce exactly this many digits (at least 1), wherever the value's
    /// leading digit falls.
    SignificantDigits(u32),
}

/// The result of fixed-format conversion: `0.d₁d₂…dₙ × Bᵏ` followed by
/// `insignificant` `#` positions, extending exactly to `position`.
///
/// `digits.len() + insignificant == k − position` (unless the value rounded
/// to zero at the requested precision, in which case `digits` is empty and
/// `insignificant` is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedDigits {
    /// Significant base-`B` digit values (not ASCII), most significant
    /// first, including any significant trailing zeros.
    pub digits: Vec<u8>,
    /// Scale: the value reads `0.d₁d₂… × Bᵏ`.
    pub k: i32,
    /// Number of trailing positions (down to `position`) whose digits are
    /// insignificant — any digits placed there read back as the same float.
    pub insignificant: usize,
    /// The absolute digit position the output stops at.
    pub position: i32,
}

impl FixedDigits {
    /// `true` when the value rounded to zero at the requested precision.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.digits.is_empty() && self.insignificant == 0
    }
}

/// The bound on fixed format's `|position|` and significant-digit count:
/// the work and memory of one conversion grow with them (see
/// [`crate::FixedFormat::absolute_position`]).
pub(crate) const MAX_DIGITS: u32 = 1 << 24;

/// Fixed-format digits of a positive value at an absolute position `j`
/// (§4's absolute mode), correctly rounded, with `#` marks where the float's
/// precision runs out.
///
/// ```
/// use fpp_bignum::PowerTable;
/// use fpp_core::{fixed_format_digits_absolute, ScalingStrategy, TieBreak};
/// use fpp_float::SoftFloat;
///
/// // The paper's example: 100 printed to position -20.
/// let v = SoftFloat::from_f64(100.0).expect("positive finite");
/// let mut powers = PowerTable::new(10);
/// let d = fixed_format_digits_absolute(
///     &v, -20, ScalingStrategy::Estimate, TieBreak::Up, &mut powers,
/// );
/// assert_eq!(d.digits.len(), 18); // "1" plus 17 significant zeros
/// assert_eq!(d.insignificant, 5);
/// ```
///
/// # Panics
///
/// Panics if `|j| > 2²⁴`, the bound of
/// [`crate::FixedFormat::absolute_position`].
#[must_use]
pub fn fixed_format_digits_absolute(
    v: &SoftFloat,
    j: i32,
    strategy: ScalingStrategy,
    tie: TieBreak,
    powers: &mut PowerTable,
) -> FixedDigits {
    assert!(
        j.unsigned_abs() <= MAX_DIGITS,
        "fpp_core: fixed-format position beyond ±2^24 is not supported"
    );
    let mut ws = Workspace::default();
    let meta = fixed_format_into(v, j, strategy, tie, powers, &mut ws);
    FixedDigits {
        digits: std::mem::take(&mut ws.digits),
        k: meta.k,
        insignificant: meta.insignificant,
        position: meta.position,
    }
}

/// Everything [`FixedDigits`] carries except the digits themselves, which
/// the in-place engines leave in the workspace's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FixedMeta {
    /// Scale: the digits read `0.d₁d₂… × Bᵏ`.
    pub k: i32,
    /// Trailing insignificant (`#`) positions.
    pub insignificant: usize,
    /// The absolute position the output stops at.
    pub position: i32,
}

impl FixedMeta {
    /// `true` when the value rounded to zero at the requested precision
    /// (`digits` in the workspace is then empty too).
    pub fn is_zero(&self, digits: &[u8]) -> bool {
        digits.is_empty() && self.insignificant == 0
    }
}

/// In-place engine behind [`fixed_format_digits_absolute`]: converts into
/// the workspace's digit buffer and returns the metadata. With warm buffers
/// this performs no heap allocation.
pub(crate) fn fixed_format_into(
    v: &SoftFloat,
    j: i32,
    strategy: ScalingStrategy,
    tie: TieBreak,
    powers: &mut PowerTable,
    ws: &mut Workspace,
) -> FixedMeta {
    let base = powers.base();
    ws.digits.clear();
    load_initial(v, &mut ws.state);
    let state = &mut ws.state;

    // Express half = B^j·(s/2) over the common denominator; for j < 0
    // rescale the whole state by B^(-j) so everything stays integral (s is
    // even by construction, Table 1, so s/2 is the one-bit shift). `half`
    // lives in the sum register, which the digit loop only needs later: a
    // pool buffer held here would take the pool's largest one and leave the
    // scalings below a smaller one to regrow, so a warm context would
    // still allocate.
    let half = &mut ws.sum;
    half.assign(&state.s);
    debug_assert!(state.s.is_even(), "Table 1 denominators are even");
    *half >>= 1;
    if j >= 0 {
        powers.scale_assign(half, j as u32, &mut ws.scratch);
    } else {
        let exp = (-j) as u32;
        powers.scale_assign(&mut state.r, exp, &mut ws.scratch);
        powers.scale_assign(&mut state.s, exp, &mut ws.scratch);
        powers.scale_assign(&mut state.m_plus, exp, &mut ws.scratch);
        powers.scale_assign(&mut state.m_minus, exp, &mut ws.scratch);
    }

    // Expand the rounding range where the requested precision is coarser;
    // an expanded endpoint is inclusive (correct rounding admits equality).
    let low_ok = *half >= state.m_minus;
    let high_ok = *half >= state.m_plus;
    if *half > state.m_minus {
        state.m_minus.assign(half);
    }
    if *half > state.m_plus {
        state.m_plus.assign(half);
    }

    // Values at or below half of the last position round to zero (possibly
    // via a tie at exactly B^j/2).
    match state.r.cmp(half) {
        std::cmp::Ordering::Less => {
            return FixedMeta {
                k: j,
                insignificant: 0,
                position: j,
            }
        }
        std::cmp::Ordering::Equal => {
            let round_up = match tie {
                TieBreak::Up => true,
                TieBreak::Down | TieBreak::Even => false,
            };
            let k = if round_up {
                ws.digits.push(1);
                j + 1
            } else {
                j
            };
            return FixedMeta {
                k,
                insignificant: 0,
                position: j,
            };
        }
        std::cmp::Ordering::Greater => {}
    }

    let k = strategy.scale_in(state, v, high_ok, powers, &mut ws.scratch);
    generate_into(
        state,
        base,
        Inclusivity { low_ok, high_ok },
        tie,
        &mut ws.digits,
        &mut ws.sum,
    );

    let total = i64::from(k) - i64::from(j);
    let n = ws.digits.len() as i64;
    debug_assert!(
        n <= total,
        "loop generated past the requested position ({n} > {total})"
    );
    let remaining = (total - n) as usize;

    // §4 padding: zeros remain significant while perturbing the position
    // could push the reading outside the rounding range; from the first
    // position where a whole unit still fits below `high`, everything is #.
    // `state.r` holds the gap to `high` on exit from the loop.
    let mut zeros = 0usize;
    while zeros < remaining && state.r < state.s {
        state.r.mul_u64(base);
        zeros += 1;
    }
    ws.digits.extend(std::iter::repeat_n(0u8, zeros));
    FixedMeta {
        k,
        insignificant: remaining - zeros,
        position: j,
    }
}

/// Fixed-format digits with a relative precision: exactly `count`
/// significant positions (§4's relative mode).
///
/// The absolute position depends on where the leading digit falls, which in
/// turn can shift when rounding carries over a power of `B` (9.97 at two
/// digits is `10`); the initial estimate of `k` is refined until it is
/// consistent, as §4 prescribes.
///
/// # Panics
///
/// Panics if `count == 0` or `count > 2²⁴`.
#[must_use]
pub fn fixed_format_digits_relative(
    v: &SoftFloat,
    count: u32,
    strategy: ScalingStrategy,
    tie: TieBreak,
    powers: &mut PowerTable,
) -> FixedDigits {
    let mut ws = Workspace::default();
    let meta = fixed_format_relative_into(v, count, strategy, tie, powers, &mut ws);
    FixedDigits {
        digits: std::mem::take(&mut ws.digits),
        k: meta.k,
        insignificant: meta.insignificant,
        position: meta.position,
    }
}

/// In-place engine behind [`fixed_format_digits_relative`]: converts into
/// the workspace's digit buffer and returns the metadata.
///
/// # Panics
///
/// Panics if `count == 0` or `count > 2²⁴`.
pub(crate) fn fixed_format_relative_into(
    v: &SoftFloat,
    count: u32,
    strategy: ScalingStrategy,
    tie: TieBreak,
    powers: &mut PowerTable,
    ws: &mut Workspace,
) -> FixedMeta {
    assert!(count >= 1, "fpp_core: relative precision must be >= 1");
    assert!(
        count <= MAX_DIGITS,
        "fpp_core: relative precision above 2^24 digits is not supported"
    );
    // Initial estimate of the leading-digit position from the free-format
    // scaling of the unexpanded state.
    load_initial(v, &mut ws.state);
    let k0 = strategy.scale_in(&mut ws.state, v, false, powers, &mut ws.scratch);
    let mut j = k0 - count as i32;
    let mut last = None;
    for _ in 0..4 {
        let meta = fixed_format_into(v, j, strategy, tie, powers, ws);
        if meta.is_zero(&ws.digits) || meta.k - j == count as i32 {
            return meta;
        }
        // Rounding carried past a power of B; re-anchor on the new k.
        j = meta.k - count as i32;
        last = Some(meta);
    }
    // The refinement converges in one step (k only ever grows by one when
    // the expanded high crosses a power of B); this is unreachable but kept
    // total for safety.
    last.expect("at least one refinement iteration ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abs_digits(v: f64, j: i32) -> FixedDigits {
        let sf = SoftFloat::from_f64(v).unwrap();
        let mut powers = PowerTable::new(10);
        fixed_format_digits_absolute(&sf, j, ScalingStrategy::Estimate, TieBreak::Up, &mut powers)
    }

    fn rel_digits(v: f64, i: u32) -> FixedDigits {
        let sf = SoftFloat::from_f64(v).unwrap();
        let mut powers = PowerTable::new(10);
        fixed_format_digits_relative(&sf, i, ScalingStrategy::Estimate, TieBreak::Up, &mut powers)
    }

    #[test]
    fn integers_round_trip_exactly() {
        let d = abs_digits(100.0, 0);
        assert_eq!(
            (d.digits.as_slice(), d.k, d.insignificant),
            ([1, 0, 0].as_slice(), 3, 0)
        );
        let d = abs_digits(7.0, 0);
        assert_eq!((d.digits.as_slice(), d.k), ([7].as_slice(), 1));
    }

    #[test]
    fn paper_example_100_to_position_minus_20() {
        let d = abs_digits(100.0, -20);
        // "100.000000000000000#####": digits 1,0,0 + 15 significant zeros
        // after the point, then 5 # marks.
        assert_eq!(d.k, 3);
        assert_eq!(d.digits.len(), 18);
        assert!(d.digits[0] == 1 && d.digits[1..].iter().all(|&x| x == 0));
        assert_eq!(d.insignificant, 5);
    }

    #[test]
    fn rounding_at_position() {
        // 0.6 to integer position rounds to 1.
        let d = abs_digits(0.6, 0);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 1));
        // 0.4 rounds to zero.
        let d = abs_digits(0.4, 0);
        assert!(d.is_zero());
        // 2.5 is exact; tie at integer position rounds up (TieBreak::Up).
        let d = abs_digits(2.5, 0);
        assert_eq!((d.digits.as_slice(), d.k), ([3].as_slice(), 1));
        // 0.5 exact: tie between 0 and 1.
        let d = abs_digits(0.5, 0);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 1));
    }

    #[test]
    fn fractional_positions() {
        // 1/8 = 0.125 exactly; at two fractional digits → 0.13 (ties up... 0.125 tie → up).
        let d = abs_digits(0.125, -2);
        assert_eq!((d.digits.as_slice(), d.k), ([1, 3].as_slice(), 0));
        // At three digits it is exact: 0.125 with no marks.
        let d = abs_digits(0.125, -3);
        assert_eq!(
            (d.digits.as_slice(), d.k, d.insignificant),
            ([1, 2, 5].as_slice(), 0, 0)
        );
        // At six digits: exact zeros are significant (the float is exactly
        // 0.125, and nearby floats differ within 10^-6? No — the gap around
        // 0.125 is ~2.8e-17, far finer than 1e-6, so all positions are
        // significant zeros).
        let d = abs_digits(0.125, -6);
        assert_eq!(d.digits, vec![1, 2, 5, 0, 0, 0]);
        assert_eq!(d.insignificant, 0);
    }

    #[test]
    fn third_to_ten_places_all_significant() {
        // 1/3 has ~16 significant decimal digits; 10 places shows no marks.
        let d = abs_digits(1.0 / 3.0, -10);
        assert_eq!(d.digits, vec![3; 10]);
        assert_eq!(d.insignificant, 0);
        assert_eq!(d.k, 0);
    }

    #[test]
    fn third_to_twentyfive_places_shows_marks() {
        // The loop stops at the 16-digit free prefix (within the float's
        // rounding range); position 17 is still a *significant* zero (a
        // whole unit there would overshoot `high`), and the remaining eight
        // positions are insignificant.
        let d = abs_digits(1.0 / 3.0, -25);
        assert_eq!(d.k, 0);
        assert_eq!(d.digits.len() + d.insignificant, 25);
        assert_eq!(d.insignificant, 8, "{d:?}");
        assert_eq!(d.digits[..16], [3; 16]);
        assert_eq!(d.digits[16], 0);
    }

    #[test]
    fn denormal_has_few_significant_digits() {
        // 5e-324: one decimal digit of real precision.
        let d = abs_digits(f64::from_bits(1), -340);
        assert_eq!(d.k, -323);
        assert!(d.insignificant > 0);
    }

    #[test]
    fn relative_mode_basic() {
        let d = rel_digits(123.456, 4);
        assert_eq!((d.digits.as_slice(), d.k), ([1, 2, 3, 5].as_slice(), 3));
        let d = rel_digits(0.0001234, 2);
        assert_eq!((d.digits.as_slice(), d.k), ([1, 2].as_slice(), -3));
    }

    #[test]
    fn relative_mode_carry_across_power_of_ten() {
        // 9.97 at two digits rounds to 10 — the k refinement case.
        let d = rel_digits(9.97, 2);
        assert_eq!((d.digits.as_slice(), d.k), ([1, 0].as_slice(), 2));
        // 0.999999 at three digits → 1.00.
        let d = rel_digits(0.999999, 3);
        assert_eq!((d.digits.as_slice(), d.k), ([1, 0, 0].as_slice(), 1));
    }

    #[test]
    fn relative_seventeen_digits_distinguishes_doubles() {
        // 17 significant digits is the paper's Table 3 fixed-format setting.
        let v = 0.1;
        let d = rel_digits(v, 17);
        assert_eq!(d.digits.len() + d.insignificant, 17);
        let s: String = d.digits.iter().map(|&x| (b'0' + x) as char).collect();
        assert!(s.starts_with("10000000000000000") || s.starts_with("1000000000000000"));
    }

    #[test]
    #[should_panic(expected = "relative precision must be >= 1")]
    fn zero_relative_precision_panics() {
        let _ = rel_digits(1.0, 0);
    }
}
