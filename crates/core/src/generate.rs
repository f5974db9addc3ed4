//! The digit-generation loop (§2.2 step 3–4, in the integer form of §3.1).
//!
//! On entry the scaled state satisfies `r/s = v/B^(k-1)`; each iteration
//! extracts one digit `d = ⌊r/s⌋`, replaces `r` by the remainder, and tests
//! the two termination conditions:
//!
//! * `tc1`: `r (< | ≤) m⁻` — the digits emitted so far already round up
//!   to `v` when read back (the output is above `low`);
//! * `tc2`: `r + m⁺ (> | ≥) s` — incrementing the last digit would produce a
//!   number below `high` that still reads back as `v`.
//!
//! The loop stops at the first position where either holds, choosing the
//! closer of the two candidate outputs (ties broken by [`TieBreak`]).
//! Theorem 1 guarantees the produced digits are valid, the increment never
//! carries, and (after a possible increment of a leading 0 to 1) the first
//! digit is non-zero.

use crate::scale::InitialState;
use fpp_bignum::Nat;
use fpp_telemetry::Termination;

/// Tie-breaking strategy for the final digit when both candidate outputs are
/// exactly equidistant from `v` (§2.2 permits any choice; Figure 1 rounds
/// up, which is the default here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Prefer the incremented final digit (Figure 1's behaviour).
    #[default]
    Up,
    /// Prefer the unincremented final digit.
    Down,
    /// Prefer whichever final digit is even.
    Even,
}

impl TieBreak {
    /// Whether a tie at final digit `d` should round up to `d + 1`.
    pub(crate) fn rounds_up(self, d: u8) -> bool {
        match self {
            TieBreak::Up => true,
            TieBreak::Down => false,
            TieBreak::Even => d % 2 == 1,
        }
    }
}

/// The endpoint-inclusivity flags derived from the reader's rounding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inclusivity {
    /// `low` itself reads back as `v` (termination condition 1 admits
    /// equality).
    pub low_ok: bool,
    /// `high` itself reads back as `v` (termination condition 2 admits
    /// equality).
    pub high_ok: bool,
}

/// Digits produced by free-format generation: the shortest, correctly
/// rounded representation `0.d₁d₂…dₙ × Bᵏ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digits {
    /// Base-`B` digit values (not ASCII), most significant first; the first
    /// digit is non-zero.
    pub digits: Vec<u8>,
    /// Scale: the value reads `0.d₁d₂… × Bᵏ`.
    pub k: i32,
}

/// Runs the digit loop on a state already scaled to generation form
/// (`r/s = v/B^(k-1)`), appending digit values to `digits`.
///
/// Everything is borrowed and mutated in place so a warmed-up pipeline
/// generates with zero heap allocation: `sum` is the recycled buffer for the
/// per-iteration `r + m⁺` termination test (it keeps its own backing buffer
/// across calls — copied, not swapped, into `r` on exit, so one warm-up
/// conversion sizes it for good), and on return `state.r` holds
/// the numerator of `high − V` — the "gap to high" fixed-format padding
/// consumes (`r + m⁺` when the final digit was kept, `r + m⁺ − s` when it
/// was incremented); `state.s` is unchanged.
pub(crate) fn generate_into(
    state: &mut InitialState,
    base: u64,
    inc: Inclusivity,
    tie: TieBreak,
    digits: &mut Vec<u8>,
    sum: &mut Nat,
) {
    debug_assert!((2..=36).contains(&base));
    let start = digits.len();
    let term = loop {
        let (d, end) = next_digit(state, base, inc, tie, sum);
        if fpp_telemetry::ENABLED && digits.len() == start && d >= base {
            // A first digit ≥ B (quotient or carry): the scaling estimate
            // undershot, breaking the §3.2 contract (Theorem 1 is void).
            fpp_telemetry::record_scale_violation();
        }
        digits.push(d as u8);
        if let Some(term) = end {
            break term;
        }
    };
    if fpp_telemetry::ENABLED {
        fpp_telemetry::record_generation(digits.len() - start, term);
        if digits[start] == 0 {
            // A leading zero that was never incremented away means the
            // scaling estimate overshot — the other §3.2 violation.
            fpp_telemetry::record_scale_violation();
        }
    }
}

/// One pass of the loop body: extracts the next digit and applies both
/// termination tests. Returns the digit and, on the final digit, why the
/// loop stopped — with `state` then left as [`generate_into`] documents.
/// Otherwise `r`, `m⁺` and `m⁻` are scaled by `base` for the next position.
///
/// The digit is returned unnarrowed so that a broken scaling contract shows
/// as a value ≥ `base` instead of wrapping.
pub(crate) fn next_digit(
    state: &mut InitialState,
    base: u64,
    inc: Inclusivity,
    tie: TieBreak,
    sum: &mut Nat,
) -> (u64, Option<Termination>) {
    let d = state.r.div_rem_step(&state.s);
    debug_assert!(d < base, "digit out of range");
    let tc1 = if inc.low_ok {
        state.r <= state.m_minus
    } else {
        state.r < state.m_minus
    };
    sum.set_sum(&state.r, &state.m_plus);
    let tc2 = if inc.high_ok {
        *sum >= state.s
    } else {
        *sum > state.s
    };
    let (round_up, term) = match (tc1, tc2) {
        (false, false) => {
            state.r.mul_u64(base);
            state.m_plus.mul_u64(base);
            state.m_minus.mul_u64(base);
            return (d, None);
        }
        (true, false) => (false, Termination::Low),
        (false, true) => (true, Termination::High),
        (true, true) => {
            // Both candidates read back as v; pick the closer
            // (2r vs s compares v − V_down against V_up − v).
            let rounded_up = match state.r.double_cmp(&state.s) {
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => tie.rounds_up(d as u8),
            };
            (rounded_up, Termination::Tie { rounded_up })
        }
    };
    state.r.assign(sum); // r ← r + m⁺
    if round_up {
        debug_assert!(d + 1 < base, "increment carried (Theorem 1)");
        state.r -= &state.s; // r ← r + m⁺ − s
        (d + 1, Some(term))
    } else {
        (d, Some(term))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{initial_state, ScalingStrategy};
    use fpp_bignum::PowerTable;
    use fpp_float::SoftFloat;

    fn free_digits_with_tie(v: f64, base: u64, inc: Inclusivity, tie: TieBreak) -> Digits {
        let sf = SoftFloat::from_f64(v).expect("positive finite");
        let mut powers = PowerTable::new(base);
        let mut state = initial_state(&sf);
        let k = ScalingStrategy::Estimate.scale_in(
            &mut state,
            &sf,
            inc.high_ok,
            &mut powers,
            &mut Nat::zero(),
        );
        let mut digits = Vec::new();
        let mut sum = Nat::zero();
        generate_into(&mut state, base, inc, tie, &mut digits, &mut sum);
        Digits { digits, k }
    }

    fn free_digits(v: f64, base: u64, inc: Inclusivity) -> Digits {
        free_digits_with_tie(v, base, inc, TieBreak::Up)
    }

    const EXCLUSIVE: Inclusivity = Inclusivity {
        low_ok: false,
        high_ok: false,
    };
    const INCLUSIVE: Inclusivity = Inclusivity {
        low_ok: true,
        high_ok: true,
    };

    #[test]
    fn known_shortest_digits() {
        // 0.3 → digits [3], k = 0 (0.3 × 10^0)
        let d = free_digits(0.3, 10, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([3].as_slice(), 0));
        // 1.0 → [1], k = 1
        let d = free_digits(1.0, 10, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 1));
        // 100.0 → [1], k = 3
        let d = free_digits(100.0, 10, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 3));
        // 0.1 → [1], k = 0
        let d = free_digits(0.1, 10, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 0));
    }

    #[test]
    fn paper_example_1e23() {
        // 10^23 lies exactly between two doubles; the nearer-even mantissa
        // is the one 10^23 rounds to, so with unbiased input rounding the
        // printer may use the endpoint: digits [1], k = 24.
        let v = 1e23f64;
        let sf = SoftFloat::from_f64(v).unwrap();
        assert!(sf.mantissa_is_even());
        let d = free_digits(v, 10, INCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 24));
        // Without endpoint knowledge the printer must stay strictly inside:
        // 9.999999999999999e22 (16 digits).
        let d = free_digits(v, 10, EXCLUSIVE);
        assert_eq!(d.k, 23);
        assert_eq!(d.digits, vec![9; 16]);
    }

    #[test]
    fn exact_halves_terminate_with_tie() {
        // 0.5 = 1/2 exactly: digits [5], k = 0 in base 10.
        let d = free_digits(0.5, 10, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([5].as_slice(), 0));
        // In base 2 it is a single digit: 0.1₂ × 2^0.
        let d = free_digits(0.5, 2, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 0));
    }

    #[test]
    fn base16_digits() {
        // 255.0 = ff₁₆: digits [15, 15], k = 2.
        let d = free_digits(255.0, 16, EXCLUSIVE);
        assert_eq!((d.digits.as_slice(), d.k), ([15, 15].as_slice(), 2));
    }

    #[test]
    fn tie_break_strategies_differ_only_on_ties() {
        // 2.5 in base 10 at one digit: candidates 2 and 3 equidistant when
        // the value is exactly 2.5 and both in range? 2.5's shortest is
        // "2.5" (exact), so no tie: all strategies agree.
        for tie in [TieBreak::Up, TieBreak::Down, TieBreak::Even] {
            let d = free_digits_with_tie(2.5, 10, EXCLUSIVE, tie);
            assert_eq!((d.digits.as_slice(), d.k), ([2, 5].as_slice(), 1));
        }
    }

    #[test]
    fn first_digit_non_zero_across_magnitudes() {
        for &v in &[
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-300,
            0.007,
            42.0,
            1e300,
            f64::MAX,
        ] {
            for base in [2u64, 10, 36] {
                let d = free_digits(v, base, EXCLUSIVE);
                assert!(d.digits[0] != 0, "leading zero for {v} base {base}");
                assert!(
                    d.digits.iter().all(|&x| (x as u64) < base),
                    "digit out of range for {v} base {base}"
                );
            }
        }
    }
}
