//! Arbitrary-precision natural numbers.

mod add;
mod bits;
mod cmp;
mod convert;
mod div;
mod div_small;
mod gcd;
mod mul;
mod pow;
mod shift;
mod sub;

pub use convert::ParseNatError;

use crate::Limb;

/// An arbitrary-precision natural number (unsigned integer).
///
/// Stored as little-endian 64-bit limbs with the invariant that the most
/// significant limb is non-zero; zero is the empty limb vector. All public
/// constructors and operations maintain this normalization.
///
/// Arithmetic is provided through the standard operator traits for both owned
/// values and references; reference forms avoid clones and should be
/// preferred in hot loops:
///
/// ```
/// use fpp_bignum::Nat;
/// let a = Nat::from(7u64);
/// let b = Nat::from(5u64);
/// assert_eq!(&a * &b + &a, Nat::from(42u64));
/// ```
///
/// # Panics
///
/// Like the built-in unsigned integers, subtraction panics on underflow
/// (use [`Nat::checked_sub`] to handle that case) and division panics on a
/// zero divisor.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Nat {
    /// Little-endian limbs; no trailing zero limbs.
    limbs: Vec<Limb>,
}

impl Nat {
    /// The value `0`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert!(Nat::zero().is_zero());
    /// ```
    #[must_use]
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The value `1`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert_eq!(Nat::one(), Nat::from(1u64));
    /// ```
    #[must_use]
    pub fn one() -> Self {
        Nat { limbs: vec![1] }
    }

    /// Creates a `Nat` from little-endian limbs, normalizing trailing zeros.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert_eq!(Nat::from_limbs(vec![5, 0, 0]), Nat::from(5u64));
    /// ```
    #[must_use]
    pub fn from_limbs(limbs: Vec<Limb>) -> Self {
        let mut n = Nat { limbs };
        n.normalize();
        n
    }

    /// Borrows the little-endian limbs of this number.
    ///
    /// The most significant limb (the last element) is non-zero; zero is the
    /// empty slice.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert_eq!(Nat::from(u64::MAX).limbs(), &[u64::MAX]);
    /// ```
    #[must_use]
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Returns `true` when the value is zero.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert!(Nat::zero().is_zero());
    /// assert!(!Nat::one().is_zero());
    /// ```
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` when the value is one.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert!(Nat::one().is_one());
    /// ```
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Removes trailing zero limbs to restore the representation invariant.
    pub(crate) fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// Sets the value to zero, keeping the limb buffer's capacity.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let mut n = Nat::from(u128::MAX);
    /// n.set_zero();
    /// assert!(n.is_zero());
    /// ```
    pub fn set_zero(&mut self) {
        self.limbs.clear();
    }

    /// Copies `src`'s value into `self`, reusing `self`'s buffer (no
    /// allocation when the capacity suffices).
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let mut n = Nat::from(1u64);
    /// n.assign(&Nat::from(u128::MAX));
    /// assert_eq!(n, Nat::from(u128::MAX));
    /// ```
    pub fn assign(&mut self, src: &Nat) {
        self.limbs.clear();
        self.limbs.extend_from_slice(&src.limbs);
    }

    /// Sets the value to a primitive `u64`, reusing the buffer.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let mut n = Nat::from(u128::MAX);
    /// n.assign_u64(7);
    /// assert_eq!(n, Nat::from(7u64));
    /// ```
    pub fn assign_u64(&mut self, v: u64) {
        self.limbs.clear();
        if v != 0 {
            self.limbs.push(v);
        }
    }

    /// Sets the value to `2^exp`, reusing the buffer — the in-place
    /// counterpart of `Nat::one() << exp` for binary-format boundaries.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let mut n = Nat::zero();
    /// n.assign_pow2(100);
    /// assert_eq!(n, Nat::one() << 100u32);
    /// ```
    pub fn assign_pow2(&mut self, exp: u32) {
        let limb = (exp / crate::LIMB_BITS) as usize;
        self.limbs.clear();
        self.limbs.resize(limb + 1, 0);
        self.limbs[limb] = 1 << (exp % crate::LIMB_BITS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty() {
        assert!(Nat::zero().limbs().is_empty());
        assert!(Nat::default().is_zero());
    }

    #[test]
    fn from_limbs_normalizes() {
        let n = Nat::from_limbs(vec![0, 0, 0]);
        assert!(n.is_zero());
        let n = Nat::from_limbs(vec![1, 2, 0]);
        assert_eq!(n.limbs(), &[1, 2]);
    }

    #[test]
    fn one_is_one() {
        assert!(Nat::one().is_one());
        assert!(!Nat::zero().is_one());
        assert!(!Nat::from(2u64).is_one());
    }
}
