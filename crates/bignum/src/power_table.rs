//! Memoised powers of an output base.
//!
//! The paper's Figure 2 precomputes `10^k` for `0 ≤ k ≤ 325` ("sufficient to
//! handle all IEEE double-precision floating-point numbers") so that scaling
//! costs a table lookup instead of an exponentiation. [`PowerTable`]
//! generalizes that cache to any base and grows on demand, so output bases
//! 2–36 and wider float formats are covered by the same mechanism. Only
//! the first [`PowerTable::MEMO_LEN`] powers are memoised: fixed-format
//! output at a far position needs one huge power, and caching every power
//! below it would cost time and memory quadratic in the position.

use crate::Nat;

/// A growable cache of `base^0, base^1, …` as big naturals, up to
/// [`PowerTable::MEMO_LEN`] entries; a power past them is computed on
/// request and kept only until the next such request.
///
/// ```
/// use fpp_bignum::PowerTable;
/// let mut tens = PowerTable::new(10);
/// assert_eq!(tens.pow(3).to_string(), "1000");
/// assert_eq!(tens.pow(0).to_string(), "1");
/// ```
#[derive(Debug, Clone)]
pub struct PowerTable {
    base: u64,
    powers: Vec<Nat>,
    /// The latest power past the memoised ones, as `(exp, base^exp)`.
    spill: Option<(u32, Nat)>,
}

impl PowerTable {
    /// How many powers (`base^0` up) are memoised. 1130 covers every
    /// exponent a shortest conversion of a hardware format needs (an `f64`
    /// subnormal printed in base 2 scales by about `2^1074`), with room for
    /// fixed-format positions a few dozen digits past that.
    pub const MEMO_LEN: usize = 1130;

    /// Creates an empty table for `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "fpp_bignum: power table base must be >= 2");
        PowerTable {
            base,
            powers: vec![Nat::one()],
            spill: None,
        }
    }

    /// Creates a table pre-filled up to `base^max_exp` inclusive (at most
    /// [`PowerTable::MEMO_LEN`] powers), like the paper's fixed 0–325 table
    /// for base 10.
    #[must_use]
    pub fn with_capacity(base: u64, max_exp: u32) -> Self {
        let mut t = PowerTable::new(base);
        t.grow_to((max_exp as usize).min(Self::MEMO_LEN - 1));
        t
    }

    /// The base of this table.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// How many powers the table holds: the memoised prefix plus the
    /// latest power past it.
    #[must_use]
    pub fn cached_powers(&self) -> usize {
        self.powers.len() + usize::from(self.spill.is_some())
    }

    /// Returns `base^exp`, computing and caching any missing memoised
    /// prefix, or computing a power past it with [`Nat::pow`].
    #[must_use]
    pub fn pow(&mut self, exp: u32) -> &Nat {
        let index = exp as usize;
        if index < Self::MEMO_LEN {
            self.grow_to(index);
            return &self.powers[index];
        }
        if !matches!(self.spill, Some((cached, _)) if cached == exp) {
            self.spill = Some((exp, Nat::from(self.base).pow(exp)));
        }
        &self.spill.as_ref().expect("just filled").1
    }

    /// Multiplies `n` by `base^exp` (a cached big multiply; the common
    /// operation when applying a scaling estimate).
    #[must_use]
    pub fn scale(&mut self, n: &Nat, exp: u32) -> Nat {
        if exp == 0 {
            return n.clone();
        }
        n * self.pow(exp)
    }

    /// Writes `n · base^exp` into `out`, reusing `out`'s buffer.
    pub fn scale_into(&mut self, n: &Nat, exp: u32, out: &mut Nat) {
        if exp == 0 {
            out.assign(n);
            return;
        }
        n.mul_into(self.pow(exp), out);
    }

    /// Multiplies `n` in place by `base^exp`, borrowing a product buffer
    /// from `scratch` so the warmed-up pipeline performs no allocation.
    pub fn scale_assign(&mut self, n: &mut Nat, exp: u32, scratch: &mut crate::Scratch) {
        if exp == 0 {
            return;
        }
        let mut out = scratch.take();
        self.scale_into(&*n, exp, &mut out);
        // Copy rather than swap: swapping would trade `n`'s (large, warmed)
        // buffer into the scratch pool for whatever-sized one `take`
        // returned, and that capacity churn makes steady-state allocation
        // behavior depend on pool LIFO order. A copy keeps every buffer at
        // its high-water mark, so the warmed pipeline never reallocates.
        n.assign(&out);
        scratch.put(out);
    }

    fn grow_to(&mut self, exp: usize) {
        while self.powers.len() <= exp {
            let last = self.powers.last().expect("table is never empty");
            self.powers.push(last.mul_u64_ref(self.base));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powers_match_pow() {
        let mut t = PowerTable::new(10);
        for e in [0u32, 1, 5, 30, 100, 325] {
            assert_eq!(t.pow(e), &Nat::from(10u64).pow(e));
        }
    }

    #[test]
    fn non_monotone_queries_hit_cache() {
        let mut t = PowerTable::new(2);
        assert_eq!(t.pow(64), &(Nat::one() << 64u32));
        assert_eq!(t.pow(3), &Nat::from(8u64));
        assert_eq!(t.pow(64), &(Nat::one() << 64u32));
    }

    #[test]
    fn scale_multiplies() {
        let mut t = PowerTable::new(10);
        let n = Nat::from(7u64);
        assert_eq!(t.scale(&n, 3), Nat::from(7000u64));
        assert_eq!(t.scale(&n, 0), n);
    }

    #[test]
    fn scale_into_and_assign_match_scale() {
        let mut t = PowerTable::new(10);
        let n = Nat::from(7u64);
        let mut out = Nat::zero();
        t.scale_into(&n, 3, &mut out);
        assert_eq!(out, Nat::from(7000u64));
        t.scale_into(&n, 0, &mut out);
        assert_eq!(out, n);

        let mut scratch = crate::Scratch::new();
        let mut m = Nat::from(7u64);
        t.scale_assign(&mut m, 3, &mut scratch);
        assert_eq!(m, Nat::from(7000u64));
        t.scale_assign(&mut m, 0, &mut scratch);
        assert_eq!(m, Nat::from(7000u64));
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn with_capacity_prefills() {
        let t = PowerTable::with_capacity(10, 325);
        assert_eq!(t.powers.len(), 326);
        let t = PowerTable::with_capacity(10, 5000);
        assert_eq!(t.cached_powers(), PowerTable::MEMO_LEN);
    }

    #[test]
    fn powers_past_the_memo_are_computed_not_cached() {
        let mut t = PowerTable::new(3);
        let last = PowerTable::MEMO_LEN as u32 - 1;
        for e in [last, last + 1, 4000, last + 1, 7] {
            assert_eq!(t.pow(e), &Nat::from(3u64).pow(e), "3^{e}");
        }
        assert_eq!(t.cached_powers(), PowerTable::MEMO_LEN + 1);
    }

    #[test]
    #[should_panic(expected = "base must be >= 2")]
    fn base_below_two_panics() {
        let _ = PowerTable::new(1);
    }
}
