//! Exact non-negative rational arithmetic over [`Nat`].
//!
//! The paper's §2 reference algorithm is defined with exact rational
//! arithmetic on a positive value `v` and its rounding range
//! `[low, high]`, so every quantity it computes is non-negative; [`Rat`]
//! makes that algorithm directly executable so it can serve as the oracle
//! for the optimized integer implementation. A subtraction that would go
//! below zero panics, which checks that no oracle step leaves that domain.

use crate::Nat;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An exact non-negative rational number, always stored in lowest terms
/// with a strictly positive denominator.
///
/// ```
/// use fpp_bignum::Rat;
/// let third = Rat::from_ratio_u64(1, 3);
/// let sum = &third + &third + &third;
/// assert_eq!(sum, Rat::one());
/// ```
///
/// # Panics
///
/// Like [`Nat`], subtraction panics when the result would be negative.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: Nat,
    den: Nat, // > 0
}

impl Rat {
    /// The value `0`.
    #[must_use]
    pub fn zero() -> Rat {
        Rat::from(Nat::zero())
    }

    /// The value `1`.
    #[must_use]
    pub fn one() -> Rat {
        Rat::from(Nat::one())
    }

    /// Builds `num / den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn from_ratio(num: Nat, den: Nat) -> Rat {
        assert!(!den.is_zero(), "fpp_bignum: rational with zero denominator");
        let g = num.gcd(&den);
        if g.is_one() {
            return Rat { num, den };
        }
        Rat {
            num: &num / &g,
            den: &den / &g,
        }
    }

    /// Builds `num / den` from primitives.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn from_ratio_u64(num: u64, den: u64) -> Rat {
        Rat::from_ratio(Nat::from(num), Nat::from(den))
    }

    /// Returns `true` when the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` when the value is an integer.
    #[must_use]
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// `⌊self⌋`, the greatest integer not exceeding the value.
    ///
    /// ```
    /// use fpp_bignum::{Nat, Rat};
    /// assert_eq!(Rat::from_ratio_u64(7, 2).floor(), Nat::from(3u64));
    /// ```
    #[must_use]
    pub fn floor(&self) -> Nat {
        &self.num / &self.den
    }

    /// `⌈self⌉`, the least integer not less than the value.
    #[must_use]
    pub fn ceil(&self) -> Nat {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_zero() {
            q
        } else {
            q + 1
        }
    }

    /// The fractional part `self − ⌊self⌋`, in `[0, 1)`.
    #[must_use]
    pub fn fract(&self) -> Rat {
        // Already in lowest terms: gcd(num mod den, den) = gcd(num, den) = 1.
        Rat {
            num: &self.num % &self.den,
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "fpp_bignum: reciprocal of zero");
        Rat {
            num: self.den.clone(),
            den: self.num.clone(),
        }
    }

    /// `base^exp` as an exact rational, supporting negative exponents.
    ///
    /// ```
    /// use fpp_bignum::Rat;
    /// assert_eq!(Rat::pow_i32(10, -2), Rat::from_ratio_u64(1, 100));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` and `exp < 0`.
    #[must_use]
    pub fn pow_i32(base: u64, exp: i32) -> Rat {
        let mag = Rat::from(Nat::from(base).pow(exp.unsigned_abs()));
        if exp >= 0 {
            mag
        } else {
            mag.recip()
        }
    }

    /// Approximates the value as an `f64` (for estimation only, not
    /// correctly rounded).
    #[must_use]
    pub fn to_f64_lossy(&self) -> f64 {
        self.num.to_f64_lossy() / self.den.to_f64_lossy()
    }
}

impl From<Nat> for Rat {
    fn from(num: Nat) -> Rat {
        Rat {
            num,
            den: Nat::one(),
        }
    }
}

impl From<u64> for Rat {
    fn from(v: u64) -> Rat {
        Rat::from(Nat::from(v))
    }
}

impl Add<&Rat> for &Rat {
    type Output = Rat;
    fn add(self, rhs: &Rat) -> Rat {
        let num = &self.num * &rhs.den + &rhs.num * &self.den;
        Rat::from_ratio(num, &self.den * &rhs.den)
    }
}

impl Sub<&Rat> for &Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if `rhs > self`: a `Rat` is never negative.
    fn sub(self, rhs: &Rat) -> Rat {
        let num = (&self.num * &rhs.den)
            .checked_sub(&(&rhs.num * &self.den))
            .expect("fpp_bignum: Rat subtraction below zero");
        Rat::from_ratio(num, &self.den * &rhs.den)
    }
}

impl Mul<&Rat> for &Rat {
    type Output = Rat;
    fn mul(self, rhs: &Rat) -> Rat {
        Rat::from_ratio(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div<&Rat> for &Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a·(1/b) by definition
    fn div(self, rhs: &Rat) -> Rat {
        self * &rhs.recip()
    }
}

macro_rules! forward_owned_rat_binop {
    ($trait:ident, $method:ident) => {
        impl $trait<Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, rhs: &Rat) -> Rat {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, rhs: Rat) -> Rat {
                self.$method(&rhs)
            }
        }
    };
}
forward_owned_rat_binop!(Add, add);
forward_owned_rat_binop!(Sub, sub);
forward_owned_rat_binop!(Mul, mul);
forward_owned_rat_binop!(Div, div);

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0)
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::zero()
    }
}

impl std::str::FromStr for Rat {
    type Err = crate::ParseNatError;

    /// Parses unsigned `numerator[/denominator]` in decimal. A zero
    /// denominator is an error, not a panic.
    ///
    /// ```
    /// use fpp_bignum::Rat;
    /// let r: Rat = "6/8".parse()?;
    /// assert_eq!(r.to_string(), "3/4");
    /// assert_eq!("42".parse::<Rat>()?.to_string(), "42");
    /// assert!("-6/8".parse::<Rat>().is_err());
    /// assert!("1/0".parse::<Rat>().is_err());
    /// assert!("0/0".parse::<Rat>().is_err());
    /// # Ok::<(), fpp_bignum::ParseNatError>(())
    /// ```
    fn from_str(s: &str) -> Result<Rat, Self::Err> {
        match s.split_once('/') {
            None => Ok(Rat::from(s.parse::<Nat>()?)),
            Some((num, den)) => {
                let (num, den): (Nat, Nat) = (num.parse()?, den.parse()?);
                if den.is_zero() {
                    return Err(crate::ParseNatError::new());
                }
                Ok(Rat::from_ratio(num, den))
            }
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_to_lowest_terms() {
        assert_eq!(Rat::from_ratio_u64(6, 8).to_string(), "3/4");
        let big = Nat::from(10u64).pow(40);
        let r = Rat::from_ratio(&big * &Nat::from(3u64), &big * &Nat::from(4u64));
        assert_eq!(r, Rat::from_ratio_u64(3, 4));
        assert_eq!(r.to_string(), "3/4");
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rat::from_ratio_u64(3, 7);
        let b = Rat::from_ratio_u64(2, 5);
        assert_eq!(&a + &b, Rat::from_ratio_u64(29, 35));
        assert_eq!(&a - &a, Rat::zero());
        assert_eq!(&a - &b, Rat::from_ratio_u64(1, 35));
        assert_eq!(&a * &b, Rat::from_ratio_u64(6, 35));
        assert_eq!(&a / &a, Rat::one());
        assert_eq!(&(&a / &b) * &b, a);
    }

    #[test]
    #[should_panic(expected = "Rat subtraction below zero")]
    fn subtraction_below_zero_panics() {
        let _ = Rat::from_ratio_u64(2, 5) - Rat::from_ratio_u64(3, 7);
    }

    #[test]
    fn floor_ceil_fract() {
        let r = Rat::from_ratio_u64(7, 2);
        assert_eq!(r.floor(), Nat::from(3u64));
        assert_eq!(r.ceil(), Nat::from(4u64));
        assert_eq!(r.fract(), Rat::from_ratio_u64(1, 2));
        assert_eq!(Rat::from(5u64).floor(), Nat::from(5u64));
        assert_eq!(Rat::from(5u64).ceil(), Nat::from(5u64));
        assert!(Rat::from(5u64).fract().is_zero());
        assert!(Rat::zero().ceil().is_zero());
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(Rat::from_ratio_u64(1, 3) < Rat::from_ratio_u64(1, 2));
        assert!(Rat::zero() < Rat::from_ratio_u64(1, 1000));
        assert_eq!(
            Rat::from_ratio_u64(2, 4).cmp(&Rat::from_ratio_u64(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn pow_i32_negative_exponents() {
        assert_eq!(Rat::pow_i32(2, 10), Rat::from(1024u64));
        assert_eq!(Rat::pow_i32(2, -3), Rat::from_ratio_u64(1, 8));
        assert_eq!(Rat::pow_i32(7, 0), Rat::one());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rat::from_ratio_u64(1, 3).to_string(), "1/3");
        assert_eq!(Rat::from(7u64).to_string(), "7");
    }

    #[test]
    fn half_representation_of_float() {
        // v = 3 * 2^-1 = 1.5 exactly
        let v = Rat::from(3u64) * Rat::pow_i32(2, -1);
        assert_eq!(v, Rat::from_ratio_u64(3, 2));
        assert_eq!(v.to_f64_lossy(), 1.5);
    }
}
