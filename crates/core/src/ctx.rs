//! Reusable conversion state: one [`DtoaContext`] per output base.
//!
//! Every conversion needs the same working set — a memoised power table, the
//! four big-integer registers of Table 1, a sum buffer for the termination
//! test, scratch limb buffers for products, and a digit vector. Allocating
//! these per call makes the allocator the bottleneck; a `DtoaContext` owns
//! them all and is borrowed by the `write_*` entry points, so after a warm-up
//! call the whole pipeline runs with zero steady-state heap allocation
//! (proved by the `alloc_count` regression test).

use crate::scale::InitialState;
use fpp_bignum::{Nat, PowerTable, Scratch};
use fpp_float::SoftFloat;

/// The per-thread working set of the conversion pipeline for one output
/// base: power cache plus recycled big-integer and digit buffers.
///
/// Create one per base (or use the thread-local cache via the `String`
/// conveniences) and pass it to [`crate::write_shortest`] /
/// [`crate::write_fixed`] or the builders' `write_to` methods. A context
/// handed to a builder of another base switches to that base, rebuilding
/// its power table, so one context per base avoids the rebuilds.
///
/// ```
/// use fpp_core::{write_shortest, DtoaContext};
/// let mut ctx = DtoaContext::new(10);
/// let mut out = Vec::new();
/// write_shortest(&mut ctx, &mut out, 0.1);
/// assert_eq!(out, b"0.1");
/// ```
#[derive(Debug, Clone)]
pub struct DtoaContext {
    /// Memoised `B^k` (the paper's Figure 2 table, generic over the base).
    pub(crate) powers: PowerTable,
    /// Reusable decoded-value slot (its mantissa buffer is recycled).
    pub(crate) value: SoftFloat,
    /// Recycled big-integer and digit buffers.
    pub(crate) ws: Workspace,
}

impl DtoaContext {
    /// Creates a context for output base `base` (2–36).
    ///
    /// # Panics
    ///
    /// Panics if `base` is outside `2..=36`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!((2..=36).contains(&base), "output base must be in 2..=36");
        DtoaContext {
            powers: PowerTable::new(base),
            value: SoftFloat::from_f64(1.0).expect("1.0 is positive finite"),
            ws: Workspace::default(),
        }
    }

    /// The output base this context serves.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.powers.base()
    }

    /// Switches the context to output base `base`: one compare, and a new
    /// power table only when the base actually changes.
    pub(crate) fn set_base(&mut self, base: u64) {
        if self.powers.base() != base {
            self.powers = PowerTable::new(base);
        }
    }

    /// The memoised power table (for advanced callers driving the engine
    /// layers directly).
    pub fn powers(&mut self) -> &mut PowerTable {
        &mut self.powers
    }

    /// Grows every recycled buffer to its `f64` free-format high-water mark
    /// by converting a handful of extreme values, so the *first* real
    /// conversion through this context already allocates nothing. Batch
    /// engines call this once per shard context at construction; without it
    /// the warm-up cost lands inside the first timed batch instead.
    pub fn warm_up(&mut self) -> &mut Self {
        // Priming traffic, not workload: don't let it contaminate live
        // counters (shard contexts are built lazily, mid-measurement).
        fpp_telemetry::with_recording_paused(|| {
            // Drive the extremes through the *exact* engine explicitly: the
            // shortest tier would answer them without touching the bignum
            // registers and deep power-table entries that other
            // configurations (other bases, directed modes) need warm.
            let exact = crate::FreeFormat::new().base(self.base()).fast_path(false);
            let mut buf = [0u8; 96];
            for v in [
                f64::MAX,          // largest exponent: deepest positive powers
                5e-324,            // smallest denormal: deepest negative powers
                f64::MIN_POSITIVE, // the narrow-gap boundary case
                1.0 / 3.0,         // a full 17-significant-digit output
                6.02214076e23,     // scientific layout with a long mantissa
            ] {
                let mut sink = crate::SliceSink::new(&mut buf);
                exact.write_to(self, &mut sink, v);
            }
            // One shortest-tier conversion forces the one-time (global)
            // power-of-five table build, so it never lands in a timed
            // region.
            let fast = crate::FreeFormat::new().base(self.base());
            let mut sink = crate::SliceSink::new(&mut buf);
            fast.write_to(self, &mut sink, 1.0 / 3.0);
        });
        self
    }
}

/// Recycled buffers for one conversion pipeline.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    /// The Table 1 registers `r, s, m⁺, m⁻`, mutated in place through
    /// scaling and generation.
    pub state: InitialState,
    /// Holds `r + m⁺` for the tc2 test each iteration, and fixed format's
    /// `B^j/2` before the loop starts.
    pub sum: Nat,
    /// Pool of retired limb buffers for products.
    pub scratch: Scratch,
    /// Digit output of the generation loop.
    pub digits: Vec<u8>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace {
            state: InitialState {
                r: Nat::zero(),
                s: Nat::zero(),
                m_plus: Nat::zero(),
                m_minus: Nat::zero(),
            },
            sum: Nat::zero(),
            scratch: Scratch::new(),
            digits: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_reports_base() {
        let ctx = DtoaContext::new(16);
        assert_eq!(ctx.base(), 16);
    }

    #[test]
    #[should_panic(expected = "output base must be in 2..=36")]
    fn rejects_bad_base() {
        let _ = DtoaContext::new(1);
    }

    #[test]
    fn warm_up_leaves_context_usable() {
        let mut ctx = DtoaContext::new(10);
        ctx.warm_up().warm_up(); // idempotent
        let mut out = Vec::new();
        crate::write_shortest(&mut ctx, &mut out, 0.3);
        assert_eq!(out, b"0.3");
    }
}
