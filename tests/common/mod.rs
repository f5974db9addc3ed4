//! Helpers shared by the exact-arithmetic suites. Each test crate uses a
//! subset of them.
#![allow(dead_code)]

use fpp::bignum::{Nat, Rat};
use fpp::float::SoftFloat;

/// `0.d₁…dₙ × Bᵏ` as an exact rational.
pub fn digits_value(digits: &[u8], k: i32, base: u64) -> Rat {
    let mut coeff = Nat::zero();
    for &digit in digits {
        coeff.mul_u64(base);
        coeff.add_u64(u64::from(digit));
    }
    Rat::from(coeff) * Rat::pow_i32(base, k - digits.len() as i32)
}

/// Every representable positive value of a toy format with input base `b`
/// and `p` digits: all exponents, all valid mantissas (normalized above
/// `min_e`, free at `min_e`).
pub fn enumerate_format(b: u64, p: u32, min_e: i32, max_e: i32) -> Vec<SoftFloat> {
    let lo = Nat::from(b).pow(p - 1);
    let hi = Nat::from(b).pow(p);
    let mut out = Vec::new();
    for e in min_e..=max_e {
        let mut f = if e == min_e { Nat::one() } else { lo.clone() };
        while f < hi {
            out.push(SoftFloat::new(f.clone(), e, b, p, min_e).expect("valid"));
            f += &Nat::one();
        }
    }
    out
}

/// Every value of three toy formats paired with the output bases it is
/// printed in: input base 2 (whose asymmetric ranges below each power of
/// two exercise Theorem 4's refinement), and input bases 10 and 3, the
/// general `b` of Table 1 that no hardware format exercises.
pub fn toy_cases() -> Vec<(SoftFloat, u64)> {
    let formats: [(u64, u32, i32, i32, &[u64]); 3] = [
        (2, 5, -8, 8, &[10, 3, 16]),
        (10, 2, -4, 4, &[2, 10]),
        (3, 3, -5, 5, &[10]),
    ];
    let mut out = Vec::new();
    for (b, p, min_e, max_e, out_bases) in formats {
        for v in enumerate_format(b, p, min_e, max_e) {
            out.extend(out_bases.iter().map(|&base| (v.clone(), base)));
        }
    }
    out
}
