//! A software floating-point description, generic in base, precision and
//! exponent range — the canonical input to the printing algorithm.

use crate::{Decoded, FloatFormat};
use fpp_bignum::{Nat, Rat};
use std::fmt;

/// A positive floating-point value `v = f × bᵉ` described exactly, in the
/// vocabulary of the paper's §2.1.
///
/// Invariants (checked at construction):
///
/// * input base `b ≥ 2`;
/// * precision `p ≥ 1` (in base-`b` digits) and `0 < f < bᵖ`;
/// * exponent `e ≥ min_e`;
/// * `f ≥ bᵖ⁻¹` (normalized) unless `e == min_e` (denormals live only at the
///   minimum exponent, as in IEEE 754).
///
/// The printing algorithm is sign-agnostic (the paper restricts discussion to
/// positive numbers); signs are re-attached by the formatting layer.
///
/// ```
/// use fpp_float::SoftFloat;
/// // The IEEE double closest to 1/3.
/// let v = SoftFloat::from_f64(1.0 / 3.0).expect("positive finite");
/// assert_eq!(v.base(), 2);
/// assert_eq!(v.precision(), 53);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftFloat {
    f: Nat,
    e: i32,
    b: u64,
    p: u32,
    min_e: i32,
}

/// The exact rounding neighbourhood of a value (§2.2): everything strictly
/// between `low` and `high` reads back as `v` regardless of the input
/// rounding algorithm; the endpoints read back as `v` only under rounding
/// modes that map them there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbors {
    /// `(v⁻ + v) / 2`, the midpoint below.
    pub low: Rat,
    /// `(v + v⁺) / 2`, the midpoint above.
    pub high: Rat,
    /// Half the gap to the successor, `m⁺ = (v⁺ − v) / 2`.
    pub m_plus: Rat,
    /// Half the gap to the predecessor, `m⁻ = (v − v⁻) / 2`.
    pub m_minus: Rat,
}

/// Error returned when [`SoftFloat`] constructor arguments violate the
/// representation invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftFloatError {
    /// The base was smaller than 2.
    BaseTooSmall,
    /// The precision was zero.
    ZeroPrecision,
    /// The mantissa was zero (use the format's zero, not a `SoftFloat`).
    ZeroMantissa,
    /// The mantissa was `≥ bᵖ`.
    MantissaTooWide,
    /// The exponent was below `min_e`.
    ExponentBelowMin,
    /// The mantissa was below `bᵖ⁻¹` while `e > min_e`.
    Unnormalized,
}

impl fmt::Display for SoftFloatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SoftFloatError::BaseTooSmall => "base must be at least 2",
            SoftFloatError::ZeroPrecision => "precision must be at least 1",
            SoftFloatError::ZeroMantissa => "mantissa must be non-zero",
            SoftFloatError::MantissaTooWide => "mantissa must be below b^p",
            SoftFloatError::ExponentBelowMin => "exponent below the format minimum",
            SoftFloatError::Unnormalized => "mantissa below b^(p-1) with e > min_e",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SoftFloatError {}

impl SoftFloat {
    /// Builds a software float, validating the representation invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`SoftFloatError`] describing the violated invariant.
    pub fn new(f: Nat, e: i32, b: u64, p: u32, min_e: i32) -> Result<SoftFloat, SoftFloatError> {
        if b < 2 {
            return Err(SoftFloatError::BaseTooSmall);
        }
        if p == 0 {
            return Err(SoftFloatError::ZeroPrecision);
        }
        if f.is_zero() {
            return Err(SoftFloatError::ZeroMantissa);
        }
        if f >= Nat::from(b).pow(p) {
            return Err(SoftFloatError::MantissaTooWide);
        }
        if e < min_e {
            return Err(SoftFloatError::ExponentBelowMin);
        }
        if e > min_e && f < Nat::from(b).pow(p - 1) {
            return Err(SoftFloatError::Unnormalized);
        }
        Ok(SoftFloat { f, e, b, p, min_e })
    }

    /// Decodes a positive finite `f64` (or `f32`) into its exact software
    /// form (`b = 2`, `p` = 53 or 24).
    ///
    /// Returns `None` for NaN, infinities, zeros and negative values — the
    /// printing algorithm proper only sees positive finite numbers; callers
    /// handle sign and specials (see `fpp-core`'s formatting layer).
    #[must_use]
    pub fn from_float<F: FloatFormat>(v: F) -> Option<SoftFloat> {
        match v.decode() {
            Decoded::Finite {
                negative: false,
                mantissa,
                exponent,
            } => Some(SoftFloat {
                f: Nat::from(mantissa),
                e: exponent,
                b: 2,
                p: F::PRECISION,
                min_e: F::MIN_EXP,
            }),
            _ => None,
        }
    }

    /// Convenience monomorphic form of [`SoftFloat::from_float`] for `f64`.
    #[must_use]
    pub fn from_f64(v: f64) -> Option<SoftFloat> {
        SoftFloat::from_float(v)
    }

    /// Overwrites this value with freshly decoded binary-format parts,
    /// reusing the mantissa's limb buffer — the allocation-free counterpart
    /// of [`SoftFloat::from_float`] for conversion pipelines that keep one
    /// `SoftFloat` alive across calls.
    ///
    /// The caller asserts the parts come from a valid decode (`mantissa`
    /// non-zero, normalized unless at `min_exp`); this is checked only in
    /// debug builds.
    ///
    /// ```
    /// use fpp_float::SoftFloat;
    /// let mut v = SoftFloat::from_f64(1.0).unwrap();
    /// let (m, e) = (SoftFloat::from_f64(0.3).unwrap().mantissa().clone(),
    ///               SoftFloat::from_f64(0.3).unwrap().exponent());
    /// v.assign_binary_parts(u64::try_from(&m).unwrap(), e, 53, -1074);
    /// assert_eq!(v, SoftFloat::from_f64(0.3).unwrap());
    /// ```
    pub fn assign_binary_parts(&mut self, mantissa: u64, exponent: i32, p: u32, min_e: i32) {
        debug_assert!(mantissa != 0, "mantissa must be non-zero");
        debug_assert!(exponent >= min_e, "exponent below the format minimum");
        self.f.assign_u64(mantissa);
        self.e = exponent;
        self.b = 2;
        self.p = p;
        self.min_e = min_e;
        debug_assert!(
            self.e == self.min_e || self.f.bit_len() == u64::from(self.p),
            "mantissa not normalized above min_e"
        );
    }

    /// The mantissa `f`.
    #[must_use]
    pub fn mantissa(&self) -> &Nat {
        &self.f
    }

    /// The exponent `e`.
    #[must_use]
    pub fn exponent(&self) -> i32 {
        self.e
    }

    /// The input base `b`.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.b
    }

    /// The precision `p` in base-`b` digits.
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.p
    }

    /// The minimum exponent of the format.
    #[must_use]
    pub fn min_exponent(&self) -> i32 {
        self.min_e
    }

    /// The exact value `f × bᵉ` as a rational.
    #[must_use]
    pub fn value(&self) -> Rat {
        Rat::from(self.f.clone()) * Rat::pow_i32(self.b, self.e)
    }

    /// `true` when the mantissa sits at the lower normalization boundary
    /// `f = bᵖ⁻¹`, where the gap to the predecessor narrows (§2.1).
    #[must_use]
    pub fn is_boundary(&self) -> bool {
        if self.b == 2 {
            // f = 2^(p-1): one set bit, at position p-1. Checked without
            // materialising the power (this runs once per conversion).
            return self.f.bit_len() == u64::from(self.p)
                && self.f.limbs().iter().map(|l| l.count_ones()).sum::<u32>() == 1;
        }
        self.f == Nat::from(self.b).pow(self.p - 1)
    }

    /// `true` when the predecessor gap is the narrow one `bᵉ⁻¹` rather than
    /// `bᵉ`: exactly when `f = bᵖ⁻¹` and `e > min_e`.
    #[must_use]
    pub fn has_narrow_low_gap(&self) -> bool {
        self.e > self.min_e && self.is_boundary()
    }

    /// `true` when the mantissa is even — the §3.1 test deciding whether the
    /// rounding-range endpoints themselves read back as `v` under IEEE
    /// unbiased (round-to-nearest-even) input rounding.
    #[must_use]
    pub fn mantissa_is_even(&self) -> bool {
        self.f.is_even()
    }

    /// The exact rounding neighbourhood: `low`, `high`, `m⁺`, `m⁻` (§2.2).
    ///
    /// `m⁺ = bᵉ/2` always; `m⁻ = bᵉ⁻¹/2` in the narrow-gap case and `bᵉ/2`
    /// otherwise.
    #[must_use]
    pub fn neighbors(&self) -> Neighbors {
        let v = self.value();
        let half = Rat::from_ratio_u64(1, 2);
        let m_plus = Rat::pow_i32(self.b, self.e) * &half;
        let m_minus = if self.has_narrow_low_gap() {
            Rat::pow_i32(self.b, self.e - 1) * &half
        } else {
            m_plus.clone()
        };
        Neighbors {
            low: &v - &m_minus,
            high: &v + &m_plus,
            m_plus,
            m_minus,
        }
    }

    /// The successor value `v⁺` as an exact rational (which may exceed the
    /// largest representable float, representing the paper's "`v⁺` is +inf"
    /// case by its natural magnitude).
    #[must_use]
    pub fn successor_value(&self) -> Rat {
        self.value() + Rat::pow_i32(self.b, self.e)
    }

    /// The predecessor value `v⁻` as an exact rational: zero for the
    /// smallest positive value.
    #[must_use]
    pub fn predecessor_value(&self) -> Rat {
        let gap = if self.has_narrow_low_gap() {
            Rat::pow_i32(self.b, self.e - 1)
        } else {
            Rat::pow_i32(self.b, self.e)
        };
        self.value() - gap
    }
}

impl fmt::Display for SoftFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x {}^{}", self.f, self.b, self.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soft(f: u64, e: i32, b: u64, p: u32, min_e: i32) -> SoftFloat {
        SoftFloat::new(Nat::from(f), e, b, p, min_e).expect("valid parts")
    }

    #[test]
    fn constructor_validates() {
        assert_eq!(
            SoftFloat::new(Nat::one(), 0, 1, 3, 0).unwrap_err(),
            SoftFloatError::BaseTooSmall
        );
        assert_eq!(
            SoftFloat::new(Nat::one(), 0, 10, 0, 0).unwrap_err(),
            SoftFloatError::ZeroPrecision
        );
        assert_eq!(
            SoftFloat::new(Nat::zero(), 0, 10, 3, 0).unwrap_err(),
            SoftFloatError::ZeroMantissa
        );
        assert_eq!(
            SoftFloat::new(Nat::from(1000u64), 0, 10, 3, 0).unwrap_err(),
            SoftFloatError::MantissaTooWide
        );
        assert_eq!(
            SoftFloat::new(Nat::from(100u64), -1, 10, 3, 0).unwrap_err(),
            SoftFloatError::ExponentBelowMin
        );
        assert_eq!(
            SoftFloat::new(Nat::from(99u64), 1, 10, 3, 0).unwrap_err(),
            SoftFloatError::Unnormalized
        );
        // denormal at min exponent is fine
        assert!(SoftFloat::new(Nat::from(7u64), 0, 10, 3, 0).is_ok());
    }

    #[test]
    fn from_f64_rejects_specials_and_negatives() {
        assert!(SoftFloat::from_f64(f64::NAN).is_none());
        assert!(SoftFloat::from_f64(f64::INFINITY).is_none());
        assert!(SoftFloat::from_f64(0.0).is_none());
        assert!(SoftFloat::from_f64(-1.0).is_none());
        assert!(SoftFloat::from_f64(1.0).is_some());
    }

    #[test]
    fn value_of_one_and_tenth() {
        let one = SoftFloat::from_f64(1.0).unwrap();
        assert_eq!(one.value(), Rat::from(1u64));
        assert!(one.is_boundary());
        let tenth = SoftFloat::from_f64(0.1).unwrap();
        // 0.1 rounds up, so the stored value is slightly above 1/10.
        assert!(tenth.value() > Rat::from_ratio_u64(1, 10));
        assert!(!tenth.is_boundary());
    }

    #[test]
    fn neighbors_match_hardware_next_up_down() {
        for x in [1.0f64, 0.1, 3.5, 1e20, 1e-20, 2.0] {
            let v = SoftFloat::from_f64(x).unwrap();
            let up = SoftFloat::from_f64(x.next_up()).unwrap();
            let down = SoftFloat::from_f64(x.next_down()).unwrap();
            assert_eq!(v.successor_value(), up.value(), "{x} successor");
            assert_eq!(v.predecessor_value(), down.value(), "{x} predecessor");
            let nb = v.neighbors();
            let half = Rat::from_ratio_u64(1, 2);
            assert_eq!(nb.low, (v.predecessor_value() + v.value()) * &half);
            assert_eq!(nb.high, (v.value() + v.successor_value()) * &half);
        }
    }

    #[test]
    fn narrow_gap_at_power_of_two() {
        // 1.0 = 2^52 × 2^-52 is a boundary: the gap below is half the gap above.
        let v = SoftFloat::from_f64(1.0).unwrap();
        assert!(v.has_narrow_low_gap());
        let nb = v.neighbors();
        assert_eq!(&nb.m_minus + &nb.m_minus, nb.m_plus);
        // 1.5 is not a boundary: symmetric gaps.
        let v = SoftFloat::from_f64(1.5).unwrap();
        assert!(!v.has_narrow_low_gap());
        let nb = v.neighbors();
        assert_eq!(nb.m_plus, nb.m_minus);
    }

    #[test]
    fn smallest_normal_has_symmetric_gap() {
        // f = 2^52, e = min_e: boundary mantissa but e == min_e, so the
        // predecessor (largest subnormal) is a full gap below.
        let v = SoftFloat::from_f64(f64::MIN_POSITIVE).unwrap();
        assert!(v.is_boundary());
        assert!(!v.has_narrow_low_gap());
        let nb = v.neighbors();
        assert_eq!(nb.m_plus, nb.m_minus);
    }

    #[test]
    fn predecessor_of_the_smallest_positive_value_is_zero() {
        let v = SoftFloat::from_f64(5e-324).unwrap();
        assert_eq!(v.predecessor_value(), Rat::zero());
        let v = SoftFloat::from_float(crate::F16::from_bits(1)).unwrap();
        assert_eq!(v.value(), Rat::pow_i32(2, -24));
        assert_eq!(v.predecessor_value(), Rat::zero());
    }

    #[test]
    fn denormal_parts() {
        let v = SoftFloat::from_f64(f64::from_bits(3)).unwrap();
        assert_eq!(v.mantissa(), &Nat::from(3u64));
        assert_eq!(v.exponent(), -1074);
        assert!(!v.mantissa_is_even());
    }

    #[test]
    fn general_base_neighbors() {
        // A toy base-10 float: f=100..999, p=3, min_e=-5. v = 100 × 10^0.
        let v = soft(100, 0, 10, 3, -5);
        assert!(v.has_narrow_low_gap());
        let nb = v.neighbors();
        // successor 101, predecessor 99.9
        assert_eq!(nb.high, Rat::from_ratio_u64(201, 2));
        assert_eq!(
            nb.low,
            Rat::from_ratio_u64(999, 10) + Rat::from_ratio_u64(1, 20)
        );
        assert_eq!(v.successor_value(), Rat::from(101u64));
        assert_eq!(v.predecessor_value(), Rat::from_ratio_u64(999, 10));
    }

    #[test]
    fn display_form() {
        let v = soft(123, -4, 10, 3, -10);
        assert_eq!(v.to_string(), "123 x 10^-4");
    }
}
