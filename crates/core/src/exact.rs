//! The §2.2 *basic algorithm*, executed verbatim in exact rational
//! arithmetic.
//!
//! This is the paper's specification-level algorithm: compute the rounding
//! range from the floating-point gaps, scale by `B^k`, and peel digits off
//! with exact rationals. It is far too slow for production use (that is the
//! point of §3) but serves as the executable oracle the optimized integer
//! implementation is differential-tested against.

use crate::fixed::FixedDigits;
use crate::generate::{Digits, Inclusivity, TieBreak};
use fpp_bignum::Rat;
use fpp_float::SoftFloat;

/// Free-format digits of `v` in base `base`, computed with exact rational
/// arithmetic exactly as §2.2 specifies.
///
/// Produces the same output as the optimized integer pipeline for every
/// input (property-tested); use the optimized path for anything
/// performance-sensitive.
#[must_use]
pub fn free_digits_exact(v: &SoftFloat, base: u64, inc: Inclusivity, tie: TieBreak) -> Digits {
    let value = v.value();
    let nb = v.neighbors();
    let (low, high) = (nb.low, nb.high);

    // Step 2: smallest k with high ≤ B^k (or < when the endpoint is usable).
    let b = Rat::from(base);
    let mut k: i32 = 0;
    let mut bk = Rat::one();
    let high_fits = |bk: &Rat| {
        if inc.high_ok {
            high < *bk
        } else {
            high <= *bk
        }
    };
    while !high_fits(&bk) {
        bk = &bk * &b;
        k += 1;
    }
    loop {
        let smaller = &bk / &b;
        if high_fits(&smaller) {
            bk = smaller;
            k -= 1;
        } else {
            break;
        }
    }

    // Step 3–4: q₀ = v / B^k, dᵢ = ⌊qᵢ₋₁ B⌋, qᵢ = {qᵢ₋₁ B}.
    let mut q = &value / &bk;
    let mut digits: Vec<u8> = Vec::new();
    let mut weight = bk; // B^(k - n + 1) at the time digit n is produced
    loop {
        weight = &weight / &b;
        let scaled = &q * &b;
        let d = u8::try_from(u64::try_from(&scaled.floor()).expect("digit fits u64"))
            .expect("digit fits u8");
        q = scaled.fract();

        // Output-so-far = value − q·weight; candidate+1 adds one `weight`.
        let v_down = &value - &(&q * &weight);
        let v_up = &v_down + &weight;
        let tc1 = if inc.low_ok {
            v_down >= low
        } else {
            v_down > low
        };
        let tc2 = if inc.high_ok {
            v_up <= high
        } else {
            v_up < high
        };
        match (tc1, tc2) {
            (false, false) => digits.push(d),
            (true, false) => {
                digits.push(d);
                break;
            }
            (false, true) => {
                digits.push(d + 1);
                break;
            }
            (true, true) => {
                let down_err = &value - &v_down;
                let up_err = &v_up - &value;
                let round_up = match down_err.cmp(&up_err) {
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => match tie {
                        TieBreak::Up => true,
                        TieBreak::Down => false,
                        TieBreak::Even => d % 2 == 1,
                    },
                };
                digits.push(if round_up { d + 1 } else { d });
                break;
            }
        }
    }
    Digits { digits, k }
}

/// Fixed-format digits of `v` at absolute position `j`, computed with exact
/// rational arithmetic directly from the §4 prose (conditional range
/// expansion, endpoint equality when expanded, zero/`#` padding) — the
/// oracle for the optimized integer implementation
/// ([`crate::fixed_format_digits_absolute`]).
#[must_use]
pub fn fixed_digits_exact(v: &SoftFloat, base: u64, j: i32, tie: TieBreak) -> FixedDigits {
    let value = v.value();
    let nb = v.neighbors();
    let half = Rat::pow_i32(base, j) * Rat::from_ratio_u64(1, 2);

    let low_ok = half >= nb.m_minus;
    let high_ok = half >= nb.m_plus;

    // Zero cases (checked before `half` is consumed by the expansion).
    if value < half {
        return FixedDigits {
            digits: Vec::new(),
            k: j,
            insignificant: 0,
            position: j,
        };
    }
    if value == half {
        return if matches!(tie, TieBreak::Up) {
            FixedDigits {
                digits: vec![1],
                k: j + 1,
                insignificant: 0,
                position: j,
            }
        } else {
            FixedDigits {
                digits: Vec::new(),
                k: j,
                insignificant: 0,
                position: j,
            }
        };
    }

    // Expand whichever half-gaps the coarser precision dominates (at
    // equality the values coincide, so taking `half` is the same range).
    let (m_minus, m_plus) = match (low_ok, high_ok) {
        (true, true) => (half.clone(), half),
        (true, false) => (half, nb.m_plus),
        (false, true) => (nb.m_minus, half),
        (false, false) => (nb.m_minus, nb.m_plus),
    };
    let low = &value - &m_minus;
    let high = &value + &m_plus;

    // k: smallest with high ≤ B^k (strict < when high is in the range).
    let b = Rat::from(base);
    let high_fits = |bk: &Rat| if high_ok { high < *bk } else { high <= *bk };
    let mut k: i32 = 0;
    let mut bk = Rat::one();
    while !high_fits(&bk) {
        bk = &bk * &b;
        k += 1;
    }
    loop {
        let smaller = &bk / &b;
        if high_fits(&smaller) {
            bk = smaller;
            k -= 1;
        } else {
            break;
        }
    }

    // Digit loop with the §4-extended termination conditions.
    let mut q = &value / &bk;
    let mut digits: Vec<u8> = Vec::new();
    let mut weight = bk;
    let chosen_value;
    loop {
        weight = &weight / &b;
        let scaled = &q * &b;
        let d =
            u8::try_from(u64::try_from(&scaled.floor()).expect("digit")).expect("digit fits u8");
        q = scaled.fract();
        let v_down = &value - &(&q * &weight);
        let v_up = &v_down + &weight;
        let tc1 = if low_ok { v_down >= low } else { v_down > low };
        let tc2 = if high_ok { v_up <= high } else { v_up < high };
        match (tc1, tc2) {
            (false, false) => digits.push(d),
            (true, false) => {
                digits.push(d);
                chosen_value = v_down;
                break;
            }
            (false, true) => {
                digits.push(d + 1);
                chosen_value = v_up;
                break;
            }
            (true, true) => {
                let down_err = &value - &v_down;
                let up_err = &v_up - &value;
                let round_up = match down_err.cmp(&up_err) {
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => match tie {
                        TieBreak::Up => true,
                        TieBreak::Down => false,
                        TieBreak::Even => d % 2 == 1,
                    },
                };
                if round_up {
                    digits.push(d + 1);
                    chosen_value = v_up;
                } else {
                    digits.push(d);
                    chosen_value = v_down;
                }
                break;
            }
        }
    }

    // Padding: significant zeros while a whole unit of the preceding
    // position overshoots high, then # marks.
    let total = i64::from(k) - i64::from(j);
    let n = digits.len() as i64;
    debug_assert!(n <= total);
    let remaining = (total - n) as usize;
    let mut zeros = 0usize;
    let mut unit = weight; // B^(k−n)
    while zeros < remaining {
        let bumped = &chosen_value + &unit;
        if bumped <= high {
            break; // insignificant from here on
        }
        zeros += 1;
        unit = &unit / &b;
    }
    digits.extend(std::iter::repeat_n(0u8, zeros));
    FixedDigits {
        digits,
        k,
        insignificant: remaining - zeros,
        position: j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXCLUSIVE: Inclusivity = Inclusivity {
        low_ok: false,
        high_ok: false,
    };

    fn digits_of(v: f64) -> Digits {
        free_digits_exact(
            &SoftFloat::from_f64(v).unwrap(),
            10,
            EXCLUSIVE,
            TieBreak::Up,
        )
    }

    #[test]
    fn oracle_produces_known_outputs() {
        let d = digits_of(0.3);
        assert_eq!((d.digits.as_slice(), d.k), ([3].as_slice(), 0));
        let d = digits_of(299792458.0);
        assert_eq!(
            (d.digits.as_slice(), d.k),
            ([2, 9, 9, 7, 9, 2, 4, 5, 8].as_slice(), 9)
        );
        let d = digits_of(0.0001);
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), -3));
    }

    #[test]
    fn oracle_handles_extremes() {
        let d = digits_of(f64::from_bits(1)); // 5e-324
        assert_eq!((d.digits.as_slice(), d.k), ([5].as_slice(), -323));
        let d = digits_of(f64::MAX);
        assert_eq!(d.k, 309);
        assert_eq!(d.digits.len(), 17);
    }

    #[test]
    fn fixed_oracle_matches_paper_example() {
        let d = fixed_digits_exact(&SoftFloat::from_f64(100.0).unwrap(), 10, -20, TieBreak::Up);
        assert_eq!(d.k, 3);
        assert_eq!(d.digits.len(), 18);
        assert_eq!(d.insignificant, 5);
    }

    #[test]
    fn oracle_in_other_bases() {
        let d = free_digits_exact(
            &SoftFloat::from_f64(0.5).unwrap(),
            2,
            EXCLUSIVE,
            TieBreak::Up,
        );
        assert_eq!((d.digits.as_slice(), d.k), ([1].as_slice(), 0));
        let d = free_digits_exact(
            &SoftFloat::from_f64(255.0).unwrap(),
            16,
            EXCLUSIVE,
            TieBreak::Up,
        );
        assert_eq!((d.digits.as_slice(), d.k), ([15, 15].as_slice(), 2));
    }
}
