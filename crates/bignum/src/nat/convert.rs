//! Conversions between [`Nat`], primitive integers and radix strings.

use super::Nat;
use crate::Limb;
use std::fmt;
use std::str::FromStr;

macro_rules! impl_from_small_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Nat {
            fn from(v: $t) -> Nat {
                Nat::from_limbs(vec![v as Limb])
            }
        }
    )*};
}
impl_from_small_uint!(u8, u16, u32, u64, usize);

impl From<u128> for Nat {
    fn from(v: u128) -> Nat {
        Nat::from_limbs(vec![v as Limb, (v >> 64) as Limb])
    }
}

/// Error returned when a [`Nat`] is too large for the requested primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryFromNatError(pub(crate) ());

impl fmt::Display for TryFromNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("value too large for the target integer type")
    }
}

impl std::error::Error for TryFromNatError {}

impl TryFrom<&Nat> for u64 {
    type Error = TryFromNatError;
    fn try_from(n: &Nat) -> Result<u64, TryFromNatError> {
        match n.limbs.len() {
            0 => Ok(0),
            1 => Ok(n.limbs[0]),
            _ => Err(TryFromNatError(())),
        }
    }
}

impl TryFrom<&Nat> for u128 {
    type Error = TryFromNatError;
    fn try_from(n: &Nat) -> Result<u128, TryFromNatError> {
        match n.limbs.len() {
            0 => Ok(0),
            1 => Ok(n.limbs[0] as u128),
            2 => Ok(n.limbs[0] as u128 | (n.limbs[1] as u128) << 64),
            _ => Err(TryFromNatError(())),
        }
    }
}

impl Nat {
    /// Approximates this number as an `f64` (round-toward-zero on the
    /// mantissa; `f64::INFINITY` when the value exceeds the `f64` range).
    ///
    /// Used only where an *estimate* is needed (the logarithm-based scaling
    /// strategies); correctly rounded conversion lives in `fpp-reader`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert_eq!(Nat::from(3u64).to_f64_lossy(), 3.0);
    /// ```
    #[must_use]
    pub fn to_f64_lossy(&self) -> f64 {
        let bits = self.bit_len();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.limbs[0] as f64;
        }
        // Take the top 64 bits and scale by the discarded exponent.
        let shift = bits - 64;
        let top: &Nat = &(self >> u32::try_from(shift).unwrap_or(u32::MAX));
        let mantissa = top.limbs[0] as f64;
        if shift >= 1024 {
            return f64::INFINITY;
        }
        mantissa * 2f64.powi(shift as i32)
    }

    /// Parses a number from an ASCII string in the given radix (2–36).
    ///
    /// Accepts digits `0-9`, letters `a-z`/`A-Z`, and `_` separators.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNatError`] on an empty string or an invalid digit.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is outside `2..=36`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let n = Nat::from_str_radix("ff", 16)?;
    /// assert_eq!(n, Nat::from(255u64));
    /// # Ok::<(), fpp_bignum::ParseNatError>(())
    /// ```
    pub fn from_str_radix(s: &str, radix: u32) -> Result<Nat, ParseNatError> {
        assert!((2..=36).contains(&radix), "radix must be in 2..=36");
        let mut any = false;
        let mut out = Nat::zero();
        // Batch digits so each big-number multiply covers several input
        // characters: radix^chunk_digits is the largest power fitting a u64.
        let chunk_digits = chunk_len(radix);
        let chunk_mul = (radix as u64).pow(chunk_digits);
        let mut pending: u64 = 0;
        let mut pending_count: u32 = 0;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(radix).ok_or(ParseNatError::new())?;
            any = true;
            pending = pending * radix as u64 + d as u64;
            pending_count += 1;
            if pending_count == chunk_digits {
                out.mul_u64(chunk_mul);
                out.add_u64(pending);
                pending = 0;
                pending_count = 0;
            }
        }
        if !any {
            return Err(ParseNatError::new());
        }
        if pending_count > 0 {
            out.mul_u64((radix as u64).pow(pending_count));
            out.add_u64(pending);
        }
        Ok(out)
    }

    /// Renders this number in the given radix (2–36) using lowercase letters
    /// for digits above 9.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is outside `2..=36`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// assert_eq!(Nat::from(255u64).to_str_radix(16), "ff");
    /// assert_eq!(Nat::zero().to_str_radix(2), "0");
    /// ```
    #[must_use]
    pub fn to_str_radix(&self, radix: u32) -> String {
        assert!((2..=36).contains(&radix), "radix must be in 2..=36");
        if self.is_zero() {
            return "0".to_string();
        }
        const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
        let chunk_digits = chunk_len(radix);
        let chunk_div = (radix as u64).pow(chunk_digits);
        let mut n = self.clone();
        let mut out = Vec::new();
        while !n.is_zero() {
            let (q, mut r) = n.div_rem_u64(chunk_div);
            let last = q.is_zero();
            for _ in 0..chunk_digits {
                out.push(DIGITS[(r % radix as u64) as usize]);
                r /= radix as u64;
                if last && r == 0 {
                    break;
                }
            }
            n = q;
        }
        while out.last() == Some(&b'0') && out.len() > 1 {
            out.pop();
        }
        out.reverse();
        String::from_utf8(out).expect("digits are ASCII")
    }
}

/// Largest number of base-`radix` digits whose value always fits in a `u64`.
fn chunk_len(radix: u32) -> u32 {
    let mut len = 0;
    let mut acc: u128 = 1;
    while acc * radix as u128 <= u64::MAX as u128 {
        acc *= radix as u128;
        len += 1;
    }
    len
}

/// Error produced when parsing a [`Nat`] or a [`crate::Rat`] from a string
/// fails: an empty string, an invalid digit, or a zero denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseNatError {
    _priv: (),
}

impl ParseNatError {
    pub(crate) const fn new() -> ParseNatError {
        ParseNatError { _priv: () }
    }
}

impl fmt::Display for ParseNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid digit, empty string or zero denominator while parsing a number")
    }
}

impl std::error::Error for ParseNatError {}

impl FromStr for Nat {
    type Err = ParseNatError;
    fn from_str(s: &str) -> Result<Nat, ParseNatError> {
        Nat::from_str_radix(s, 10)
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_str_radix(10))
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat({self})")
    }
}

impl fmt::LowerHex for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_str_radix(16))
    }
}

impl fmt::UpperHex for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_str_radix(16).to_uppercase())
    }
}

impl fmt::Octal for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0o", &self.to_str_radix(8))
    }
}

impl fmt::Binary for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0b", &self.to_str_radix(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u64::try_from(&Nat::from(42u8)), Ok(42));
        assert_eq!(u64::try_from(&Nat::from(u64::MAX)), Ok(u64::MAX));
        assert_eq!(u128::try_from(&Nat::from(u128::MAX)), Ok(u128::MAX));
        assert!(u64::try_from(&Nat::from(u128::MAX)).is_err());
        assert!(u128::try_from(&(Nat::one() << 128u32)).is_err());
    }

    #[test]
    fn radix_round_trip_all_bases() {
        let n = Nat::from(0x0123_4567_89ab_cdef_u64) * Nat::from(0xfedc_ba98_u64);
        for b in 2..=36 {
            let s = n.to_str_radix(b);
            assert_eq!(Nat::from_str_radix(&s, b).unwrap(), n, "base {b}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Nat::from_str_radix("", 10).is_err());
        assert!(Nat::from_str_radix("12a", 10).is_err());
        assert!(Nat::from_str_radix("_", 10).is_err());
        assert!("1 2".parse::<Nat>().is_err());
    }

    #[test]
    fn parse_accepts_separators_and_case() {
        assert_eq!(
            Nat::from_str_radix("1_000_000", 10).unwrap(),
            Nat::from(1_000_000u64)
        );
        assert_eq!(
            Nat::from_str_radix("DeadBeef", 16).unwrap(),
            Nat::from(0xdead_beef_u64)
        );
    }

    #[test]
    fn display_and_debug() {
        let n = Nat::from(10u64).pow(21);
        assert_eq!(n.to_string(), "1000000000000000000000");
        assert_eq!(format!("{n:?}"), "Nat(1000000000000000000000)");
        assert_eq!(format!("{:x}", Nat::from(255u64)), "ff");
        assert_eq!(format!("{:X}", Nat::from(255u64)), "FF");
        assert_eq!(format!("{:o}", Nat::from(8u64)), "10");
        assert_eq!(format!("{:b}", Nat::from(5u64)), "101");
        assert_eq!(format!("{}", Nat::zero()), "0");
    }

    #[test]
    fn to_f64_lossy_small_and_large() {
        assert_eq!(Nat::zero().to_f64_lossy(), 0.0);
        assert_eq!(Nat::from(1u64 << 52).to_f64_lossy(), (1u64 << 52) as f64);
        let big = Nat::one() << 100u32;
        assert_eq!(big.to_f64_lossy(), 2f64.powi(100));
        let huge = Nat::one() << 5000u32;
        assert_eq!(huge.to_f64_lossy(), f64::INFINITY);
    }

    #[test]
    fn long_decimal_round_trip() {
        let s = "9".repeat(200);
        let n: Nat = s.parse().unwrap();
        assert_eq!(n.to_str_radix(10), s);
        assert_eq!(&n + Nat::one(), Nat::from(10u64).pow(200));
    }
}
