//! Streaming digit generation: the free-format loop as an [`Iterator`].
//!
//! The §2.2 algorithm generates digits "from left to right without the need
//! to propagate carries" — which means output can be *streamed*: each digit
//! is final the moment it is produced. [`DigitStream`] exposes that
//! property, letting callers emit digits into a sink without allocating the
//! full vector ([`crate::free_format_digits`] remains the batch API). Each
//! call to `next` runs one pass of the same loop body the batch API loops
//! over, so the two agree digit for digit by construction.

use crate::generate::{next_digit, Inclusivity, TieBreak};
use crate::scale::{initial_state, InitialState, ScalingStrategy};
use fpp_bignum::{Nat, PowerTable};
use fpp_float::{RoundingMode, SoftFloat};

/// A lazily evaluated stream of free-format digits for a positive value:
/// yields the base-`B` digit values of `0.d₁d₂…dₙ × Bᵏ` in order and stops
/// after the (possibly incremented) final digit.
///
/// ```
/// use fpp_bignum::PowerTable;
/// use fpp_core::DigitStream;
/// use fpp_float::{RoundingMode, SoftFloat};
///
/// let v = SoftFloat::from_f64(299792458.0).expect("positive finite");
/// let mut powers = PowerTable::new(10);
/// let mut stream = DigitStream::new(&v, RoundingMode::NearestEven, &mut powers);
/// assert_eq!(stream.k(), 9);
/// let digits: Vec<u8> = stream.collect();
/// assert_eq!(digits, [2, 9, 9, 7, 9, 2, 4, 5, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct DigitStream {
    state: InitialState,
    /// Recycled buffer for the per-digit `r + m⁺` termination test.
    sum: Nat,
    base: u64,
    inc: Inclusivity,
    tie: TieBreak,
    k: i32,
    done: bool,
}

impl DigitStream {
    /// Starts a stream with the default strategy and upward printer ties.
    #[must_use]
    pub fn new(v: &SoftFloat, rounding: RoundingMode, powers: &mut PowerTable) -> Self {
        DigitStream::with_options(v, ScalingStrategy::Estimate, rounding, TieBreak::Up, powers)
    }

    /// Starts a stream with explicit strategy and tie rule.
    #[must_use]
    pub fn with_options(
        v: &SoftFloat,
        strategy: ScalingStrategy,
        rounding: RoundingMode,
        tie: TieBreak,
        powers: &mut PowerTable,
    ) -> Self {
        let mut state = initial_state(v);
        let inc = crate::free::apply_rounding_mode(&mut state, v, rounding);
        let k = strategy.scale_in(&mut state, v, inc.high_ok, powers, &mut Nat::zero());
        DigitStream {
            state,
            sum: Nat::zero(),
            base: powers.base(),
            inc,
            tie,
            k,
            done: false,
        }
    }

    /// The scale factor: the streamed digits read `0.d₁d₂… × Bᵏ`.
    #[must_use]
    pub fn k(&self) -> i32 {
        self.k
    }

    /// Whether the final digit has been produced.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.done
    }
}

impl Iterator for DigitStream {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.done {
            return None;
        }
        let (d, end) = next_digit(
            &mut self.state,
            self.base,
            self.inc,
            self.tie,
            &mut self.sum,
        );
        self.done = end.is_some();
        Some(d as u8)
    }
}

impl std::iter::FusedIterator for DigitStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::free_format_digits;

    fn assert_stream_matches_batch(v: f64, mode: RoundingMode) {
        let sf = SoftFloat::from_f64(v).unwrap();
        let mut powers = PowerTable::new(10);
        let mut stream = DigitStream::new(&sf, mode, &mut powers);
        let k = stream.k();
        let streamed: Vec<u8> = stream.by_ref().collect();
        assert!(stream.is_finished());
        assert_eq!(stream.next(), None, "fused after end");
        let batch = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            mode,
            TieBreak::Up,
            &mut powers,
        );
        assert_eq!((streamed, k), (batch.digits, batch.k), "{v} {mode:?}");
    }

    #[test]
    fn stream_equals_batch_across_values_and_modes() {
        for v in [
            0.1,
            0.3,
            1.0,
            1e23,
            5e-324,
            f64::MAX,
            std::f64::consts::PI,
            2.5,
            1.0 / 3.0,
        ] {
            for mode in [
                RoundingMode::NearestEven,
                RoundingMode::Conservative,
                RoundingMode::TowardZero,
                RoundingMode::AwayFromZero,
            ] {
                assert_stream_matches_batch(v, mode);
            }
        }
    }

    #[test]
    fn partial_consumption_is_valid_prefix() {
        // Taking only the first digits gives a (non-round-tripping but
        // numerically truncated) prefix of the full expansion.
        let sf = SoftFloat::from_f64(std::f64::consts::PI).unwrap();
        let mut powers = PowerTable::new(10);
        let three: Vec<u8> = DigitStream::new(&sf, RoundingMode::NearestEven, &mut powers)
            .take(3)
            .collect();
        assert_eq!(three, [3, 1, 4]);
    }

    #[test]
    fn size_hint_is_unknown_but_terminating() {
        let sf = SoftFloat::from_f64(0.1).unwrap();
        let mut powers = PowerTable::new(10);
        let stream = DigitStream::new(&sf, RoundingMode::NearestEven, &mut powers);
        assert!(stream.count() <= 17);
    }
}
