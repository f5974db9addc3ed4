//! Multiplication for [`Nat`]: schoolbook below, Karatsuba above a threshold.

use super::Nat;
use crate::Limb;
use std::ops::{Mul, MulAssign};

/// Operand size (in limbs) at which Karatsuba takes over from schoolbook.
///
/// The crossover was chosen empirically; the algorithmic gain only matters
/// for the very long operands produced by extreme exponents.
const KARATSUBA_THRESHOLD: usize = 32;

/// Schoolbook product of two limb slices into a reused output vector.
///
/// Clears `out` and accumulates the full product; the caller's buffer keeps
/// its capacity, so repeated products of similar size do not allocate.
fn mul_schoolbook_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize(a.len() + b.len(), 0);
    for (i, &ad) in a.iter().enumerate() {
        if ad == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        let ad = ad as u128;
        for (j, &bd) in b.iter().enumerate() {
            let t = ad * bd as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as Limb;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as Limb;
    }
}

/// Schoolbook product of two limb slices into a fresh vector.
fn mul_schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_schoolbook_into(a, b, &mut out);
    out
}

/// Karatsuba product; recurses until operands drop below the threshold.
fn mul_karatsuba(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Split at half of the longer operand: x = x1*W + x0 with W = 2^(64*m).
    let m = a.len().max(b.len()) / 2;
    let (a0, a1) = split(a, m);
    let (b0, b1) = split(b, m);

    let z0 = Nat::from_limbs(mul_karatsuba(a0, b0));
    let z2 = Nat::from_limbs(mul_karatsuba(a1, b1));
    let a01 = Nat::from_limbs(a0.to_vec()) + Nat::from_limbs(a1.to_vec());
    let b01 = Nat::from_limbs(b0.to_vec()) + Nat::from_limbs(b1.to_vec());
    // z1 = (a0+a1)(b0+b1) - z0 - z2 >= 0
    let mut z1 = Nat::from_limbs(mul_karatsuba(a01.limbs(), b01.limbs()));
    z1 -= &z0;
    z1 -= &z2;

    // result = z2*W^2 + z1*W + z0
    let mut out = z0.limbs().to_vec();
    add_shifted(&mut out, z1.limbs(), m);
    add_shifted(&mut out, z2.limbs(), 2 * m);
    out
}

fn split(x: &[Limb], m: usize) -> (&[Limb], &[Limb]) {
    if x.len() <= m {
        (x, &[])
    } else {
        (&x[..m], &x[m..])
    }
}

/// `acc += x << (64*shift)` treating both as little-endian limb vectors.
fn add_shifted(acc: &mut Vec<Limb>, x: &[Limb], shift: usize) {
    if x.is_empty() {
        return;
    }
    if acc.len() < shift + x.len() + 1 {
        acc.resize(shift + x.len() + 1, 0);
    }
    let mut carry = false;
    for (i, &xd) in x.iter().enumerate() {
        let (s1, c1) = acc[shift + i].overflowing_add(xd);
        let (s2, c2) = s1.overflowing_add(Limb::from(carry));
        acc[shift + i] = s2;
        carry = c1 || c2;
    }
    let mut i = shift + x.len();
    while carry {
        let (s, c) = acc[i].overflowing_add(1);
        acc[i] = s;
        carry = c;
        i += 1;
    }
}

impl Nat {
    /// Multiplies in place by a primitive `u64`.
    ///
    /// This is the workhorse of the digit-generation loop, where `r`, `m⁺`
    /// and `m⁻` are repeatedly multiplied by the output base `B ≤ 36`.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let mut n = Nat::from(u64::MAX);
    /// n.mul_u64(10);
    /// assert_eq!(n, Nat::from(u64::MAX as u128 * 10));
    /// ```
    pub fn mul_u64(&mut self, rhs: u64) {
        if rhs == 0 {
            self.limbs.clear();
            return;
        }
        if rhs == 1 || self.is_zero() {
            return;
        }
        let mut carry: u128 = 0;
        for d in &mut self.limbs {
            let t = *d as u128 * rhs as u128 + carry;
            *d = t as Limb;
            carry = t >> 64;
        }
        if carry != 0 {
            self.limbs.push(carry as Limb);
        }
    }

    /// Returns `self * rhs` for a primitive `u64` without mutating `self`.
    #[must_use]
    pub fn mul_u64_ref(&self, rhs: u64) -> Nat {
        let mut out = self.clone();
        out.mul_u64(rhs);
        out
    }

    /// Writes `self * rhs` into `out`, reusing `out`'s buffer.
    ///
    /// Below the Karatsuba threshold — which covers every operand the f64
    /// printing pipeline produces — the product is accumulated directly into
    /// the caller's vector with no intermediate allocation. Longer operands
    /// fall back to the allocating Karatsuba path.
    ///
    /// ```
    /// use fpp_bignum::Nat;
    /// let a = Nat::from(u64::MAX);
    /// let mut out = Nat::zero();
    /// a.mul_into(&a, &mut out);
    /// assert_eq!(out, &a * &a);
    /// ```
    pub fn mul_into(&self, rhs: &Nat, out: &mut Nat) {
        if self.limbs.len().min(rhs.limbs.len()) >= KARATSUBA_THRESHOLD {
            *out = self * rhs;
            return;
        }
        mul_schoolbook_into(&self.limbs, &rhs.limbs, &mut out.limbs);
        out.normalize();
    }
}

impl Mul<&Nat> for &Nat {
    type Output = Nat;
    fn mul(self, rhs: &Nat) -> Nat {
        Nat::from_limbs(mul_karatsuba(&self.limbs, &rhs.limbs))
    }
}

impl Mul<Nat> for Nat {
    type Output = Nat;
    fn mul(self, rhs: Nat) -> Nat {
        &self * &rhs
    }
}

impl Mul<&Nat> for Nat {
    type Output = Nat;
    fn mul(self, rhs: &Nat) -> Nat {
        &self * rhs
    }
}

impl Mul<Nat> for &Nat {
    type Output = Nat;
    fn mul(self, rhs: Nat) -> Nat {
        self * &rhs
    }
}

impl Mul<u64> for &Nat {
    type Output = Nat;
    fn mul(self, rhs: u64) -> Nat {
        self.mul_u64_ref(rhs)
    }
}

impl Mul<u64> for Nat {
    type Output = Nat;
    fn mul(mut self, rhs: u64) -> Nat {
        self.mul_u64(rhs);
        self
    }
}

impl MulAssign<&Nat> for Nat {
    fn mul_assign(&mut self, rhs: &Nat) {
        *self = &*self * rhs;
    }
}

impl MulAssign<u64> for Nat {
    fn mul_assign(&mut self, rhs: u64) {
        self.mul_u64(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_products_match_u128() {
        let a = Nat::from(0xffff_ffff_u64);
        let b = Nat::from(0x1_0000_0001_u64);
        assert_eq!(&a * &b, Nat::from(0xffff_ffff_u128 * 0x1_0000_0001_u128));
    }

    #[test]
    fn multiply_by_zero_and_one() {
        let a = Nat::from(12345u64);
        assert!((&a * &Nat::zero()).is_zero());
        assert_eq!(&a * &Nat::one(), a);
        let mut b = a.clone();
        b.mul_u64(0);
        assert!(b.is_zero());
    }

    #[test]
    fn mul_u64_carry_chain() {
        let mut a = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        a.mul_u64(u64::MAX);
        // (2^128 - 1)(2^64 - 1) = 2^192 - 2^128 - 2^64 + 1
        let expect =
            (Nat::one() << 192u32) - (Nat::one() << 128u32) - (Nat::one() << 64u32) + Nat::one();
        assert_eq!(a, expect);
    }

    #[test]
    fn karatsuba_agrees_with_schoolbook() {
        // operands long enough to trigger the Karatsuba path
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..(2 * KARATSUBA_THRESHOLD + 3) {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64);
            limbs_a.push(x);
            x = x.rotate_left(17) ^ 0xdead_beef;
            limbs_b.push(x);
        }
        let a = Nat::from_limbs(limbs_a);
        let b = Nat::from_limbs(limbs_b);
        let fast = &a * &b;
        let slow = Nat::from_limbs(mul_schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn unbalanced_karatsuba_operands() {
        let a = Nat::from_limbs(vec![3; 4 * KARATSUBA_THRESHOLD]);
        let b = Nat::from(7u64);
        let fast = &a * &b;
        let slow = Nat::from_limbs(mul_schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
        assert_eq!(fast, a.mul_u64_ref(7));
    }

    #[test]
    fn mul_into_matches_operator_and_reuses_buffer() {
        let a = Nat::from(u128::MAX);
        let b = Nat::from_limbs((1..9u64).collect());
        let mut out = Nat::zero();
        a.mul_into(&b, &mut out);
        assert_eq!(out, &a * &b);
        let ptr = out.limbs().as_ptr();
        // A second, same-size product reuses the warmed buffer.
        b.mul_into(&a, &mut out);
        assert_eq!(out, &a * &b);
        assert_eq!(out.limbs().as_ptr(), ptr);
        // Degenerate operands clear the output.
        a.mul_into(&Nat::zero(), &mut out);
        assert!(out.is_zero());
    }

    #[test]
    fn mul_into_long_operands_fall_back_to_karatsuba() {
        let a = Nat::from_limbs(vec![7; 2 * KARATSUBA_THRESHOLD]);
        let b = Nat::from_limbs(vec![11; 2 * KARATSUBA_THRESHOLD]);
        let mut out = Nat::zero();
        a.mul_into(&b, &mut out);
        assert_eq!(out, &a * &b);
    }

    #[test]
    fn multiplication_is_commutative_on_long_operands() {
        let a = Nat::from_limbs((1..80u64).collect());
        let b = Nat::from_limbs((1..45u64).map(|x| x * x).collect());
        assert_eq!(&a * &b, &b * &a);
    }
}
