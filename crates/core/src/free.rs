//! Free-format printing: the shortest, correctly rounded digit string that
//! reads back as the original value (§2–§3).

use crate::ctx::Workspace;
use crate::generate::{generate_into, Digits, Inclusivity, TieBreak};
use crate::scale::{initial_state, InitialState, ScalingStrategy};
use fpp_bignum::PowerTable;
use fpp_float::{RoundingMode, SoftFloat};

/// The endpoint rule of a nearest-family reader: which interval ends read
/// back as `v`. `None` for the directed modes, which reshape the interval
/// itself (see [`apply_rounding_mode`]). Shared by the exact engine and
/// the shortest tier, so both admit exactly the same endpoints.
pub(crate) fn nearest_inclusivity(mode: RoundingMode, mantissa_even: bool) -> Option<Inclusivity> {
    let (low_ok, high_ok) = match mode {
        RoundingMode::NearestEven => (mantissa_even, mantissa_even),
        RoundingMode::NearestAwayFromZero => (true, false),
        RoundingMode::NearestTowardZero => (false, true),
        RoundingMode::Conservative => (false, false),
        RoundingMode::TowardZero | RoundingMode::AwayFromZero => return None,
    };
    Some(Inclusivity { low_ok, high_ok })
}

/// Derives the endpoint-inclusivity flags for a value under a reader
/// rounding mode, adjusting the half-gap numerators for the directed modes
/// (whose rounding ranges are `[v, v⁺)` / `(v⁻, v]` rather than the
/// midpoint-to-midpoint interval).
pub(crate) fn apply_rounding_mode(
    state: &mut crate::scale::InitialState,
    v: &SoftFloat,
    mode: RoundingMode,
) -> Inclusivity {
    if let Some(inc) = nearest_inclusivity(mode, v.mantissa_is_even()) {
        return inc;
    }
    if mode == RoundingMode::TowardZero {
        // Range [v, v⁺): everything at or above v up to the successor.
        state.m_plus.mul_u64(2);
        state.m_minus.set_zero();
        Inclusivity {
            low_ok: true,
            high_ok: false,
        }
    } else {
        // AwayFromZero. Range (v⁻, v]: everything above the predecessor up
        // to v.
        state.m_minus.mul_u64(2);
        state.m_plus.set_zero();
        Inclusivity {
            low_ok: false,
            high_ok: true,
        }
    }
}

/// Produces the shortest, correctly rounded free-format digits of a positive
/// value, using the optimized integer pipeline of §3.
///
/// `powers` is the memoised table of powers of the output base
/// (`powers.base()` is the output base `B`); reusing one table across calls
/// amortises the cost of the large powers, as the paper's implementation
/// does with its `10ᵏ` table.
///
/// ```
/// use fpp_bignum::PowerTable;
/// use fpp_core::{free_format_digits, ScalingStrategy, TieBreak};
/// use fpp_float::{RoundingMode, SoftFloat};
///
/// let v = SoftFloat::from_f64(0.3).expect("positive finite");
/// let mut powers = PowerTable::new(10);
/// let d = free_format_digits(
///     &v,
///     ScalingStrategy::Estimate,
///     RoundingMode::NearestEven,
///     TieBreak::Up,
///     &mut powers,
/// );
/// assert_eq!((d.digits.as_slice(), d.k), ([3u8].as_slice(), 0));
/// ```
#[must_use]
pub fn free_format_digits(
    v: &SoftFloat,
    strategy: ScalingStrategy,
    rounding: RoundingMode,
    tie: TieBreak,
    powers: &mut PowerTable,
) -> Digits {
    let mut ws = Workspace::default();
    let k = free_format_into(v, strategy, rounding, tie, powers, &mut ws);
    Digits {
        digits: std::mem::take(&mut ws.digits),
        k,
    }
}

/// Loads Table 1's initial state into `state` in place, reusing its limb
/// buffers. Binary-format inputs (every `f32`/`f64`) take an allocation-free
/// shift-based path; other input bases fall back to [`initial_state`].
pub(crate) fn load_initial(v: &SoftFloat, state: &mut InitialState) {
    if v.base() != 2 {
        *state = initial_state(v);
        return;
    }
    // Base-2 specialisation of Table 1: every multiplication by a power of
    // the input base is a shift.
    let e = v.exponent();
    let f = v.mantissa();
    let narrow = v.has_narrow_low_gap();
    if e >= 0 {
        let e = e as u32;
        if !narrow {
            state.r.assign(f);
            state.r <<= e + 1; // 2f·2^e
            state.s.assign_u64(2);
            state.m_plus.assign_pow2(e);
            state.m_minus.assign_pow2(e);
        } else {
            state.r.assign(f);
            state.r <<= e + 2; // 2f·2^(e+1)
            state.s.assign_u64(4);
            state.m_plus.assign_pow2(e + 1);
            state.m_minus.assign_pow2(e);
        }
    } else if !narrow {
        state.r.assign(f);
        state.r <<= 1;
        state.s.assign_pow2((1 - e) as u32);
        state.m_plus.assign_u64(1);
        state.m_minus.assign_u64(1);
    } else {
        state.r.assign(f);
        state.r <<= 2;
        state.s.assign_pow2((2 - e) as u32);
        state.m_plus.assign_u64(2);
        state.m_minus.assign_u64(1);
    }
}

/// In-place engine behind [`free_format_digits`]: converts into the
/// workspace's digit buffer and returns the scale `k` (the digits read
/// `0.d₁d₂… × Bᵏ`). With warm buffers this performs no heap allocation.
pub(crate) fn free_format_into(
    v: &SoftFloat,
    strategy: ScalingStrategy,
    rounding: RoundingMode,
    tie: TieBreak,
    powers: &mut PowerTable,
    ws: &mut Workspace,
) -> i32 {
    load_initial(v, &mut ws.state);
    let inc = apply_rounding_mode(&mut ws.state, v, rounding);
    let k = strategy.scale_in(&mut ws.state, v, inc.high_ok, powers, &mut ws.tmp);
    ws.digits.clear();
    generate_into(
        &mut ws.state,
        powers.base(),
        inc,
        tie,
        &mut ws.digits,
        &mut ws.sum,
    );
    debug_assert!(
        ws.digits.first().is_some_and(|&d| d != 0),
        "first digit must be non-zero (Theorem 1)"
    );
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits(v: f64, mode: RoundingMode) -> Digits {
        let sf = SoftFloat::from_f64(v).unwrap();
        let mut powers = PowerTable::new(10);
        free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            mode,
            TieBreak::Up,
            &mut powers,
        )
    }

    #[test]
    fn nearest_even_uses_endpoints_for_even_mantissas() {
        // The paper's flagship example (§3.1).
        let d = digits(1e23, RoundingMode::NearestEven);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 24));
        let d = digits(1e23, RoundingMode::Conservative);
        assert_eq!(d.digits.len(), 16);
    }

    #[test]
    fn directed_toward_zero_mode() {
        // Reading "1" with truncation yields exactly 1.0; shortest is "1".
        let d = digits(1.0, RoundingMode::TowardZero);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 1));
        // 0.1 is stored slightly above 1/10; under truncation the string
        // must not be below the stored value, so "0.1" is not acceptable.
        let d = digits(0.1, RoundingMode::TowardZero);
        assert!(d.digits.len() > 1, "{:?}", d);
        // Verify the produced decimal is >= the stored value and < successor.
        let decimal: f64 = {
            let mut s = String::from("0.");
            for &x in &d.digits {
                s.push((b'0' + x) as char);
            }
            s.parse().unwrap()
        };
        assert!(decimal >= 0.1);
    }

    #[test]
    fn directed_away_from_zero_mode() {
        let d = digits(1.0, RoundingMode::AwayFromZero);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 1));
        // 0.3 is stored slightly below 3/10; away-from-zero reads "0.3" as
        // the next float up, so the printer needs more digits.
        let d = digits(0.3, RoundingMode::AwayFromZero);
        assert!(d.digits.len() > 1);
    }

    #[test]
    fn nearest_tie_direction_modes() {
        // For ordinary values all nearest modes agree.
        for mode in [
            RoundingMode::NearestEven,
            RoundingMode::NearestAwayFromZero,
            RoundingMode::NearestTowardZero,
            RoundingMode::Conservative,
        ] {
            let d = digits(0.3, mode);
            assert_eq!((d.digits.as_slice(), d.k), ([3].as_slice(), 0), "{mode:?}");
        }
        // 1e23's upper boundary is the decimal 1e23 itself: usable when the
        // reader rounds ties toward zero (1e23 → our v), not when away.
        let d = digits(1e23, RoundingMode::NearestTowardZero);
        assert_eq!(d.digits.as_slice(), [1]);
        let d = digits(1e23, RoundingMode::NearestAwayFromZero);
        assert_eq!(d.digits.len(), 16);
    }
}
