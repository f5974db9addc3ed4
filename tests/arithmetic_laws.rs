//! Seeded checks of the substrate the exact engines stand on: the bignum
//! types against `u128` oracles and algebraic identities, and the
//! float decomposition and §2.1 neighbours against the hardware. Random
//! operands come from a fixed-seed generator whose limbs favour 0 and
//! `u64::MAX`, so carry and borrow chains run long.

use fpp::bignum::{Nat, PowerTable, Rat};
use fpp::float::{Decoded, FloatFormat, SoftFloat};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::uniform_bit_doubles;
use std::ops::RangeInclusive;

/// A natural with a limb count drawn from `limbs`.
fn nat(rng: &mut Xoshiro256pp, limbs: RangeInclusive<u64>) -> Nat {
    let len = rng.range_inclusive(*limbs.start(), *limbs.end());
    Nat::from_limbs(
        (0..len)
            .map(|_| match rng.range_inclusive(0, 3) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64(),
            })
            .collect(),
    )
}

fn nonzero_nat(rng: &mut Xoshiro256pp, limbs: RangeInclusive<u64>) -> Nat {
    let n = nat(rng, limbs);
    if n.is_zero() {
        Nat::one()
    } else {
        n
    }
}

fn u128_of(rng: &mut Xoshiro256pp) -> u128 {
    (u128::from(rng.next_u64()) << rng.range_inclusive(0, 64)) ^ u128::from(rng.next_u64())
}

#[test]
fn nat_matches_u128() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x0128);
    for _ in 0..20_000 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let sum = u128::from(a) + u128::from(b);
        let product = u128::from(a) * u128::from(b);
        assert_eq!(Nat::from(a) + Nat::from(b), Nat::from(sum), "{a} + {b}");
        assert_eq!(Nat::from(a) * Nat::from(b), Nat::from(product), "{a} * {b}");
        let (x, y) = (u128_of(&mut rng), u128_of(&mut rng));
        let (hi, lo) = (x.max(y), x.min(y));
        assert_eq!(
            Nat::from(hi) - Nat::from(lo),
            Nat::from(hi - lo),
            "{hi} - {lo}"
        );
        if hi != lo {
            assert_eq!(
                Nat::from(lo).checked_sub(&Nat::from(hi)),
                None,
                "{lo} - {hi}"
            );
        }
        let d = lo.max(1);
        let (q, r) = Nat::from(hi).div_rem(&Nat::from(d));
        assert_eq!((q, r), (Nat::from(hi / d), Nat::from(hi % d)), "{hi} / {d}");
    }
}

#[test]
fn nat_laws() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x0A75);
    let mut tables: Vec<PowerTable> = (2..=36).map(PowerTable::new).collect();
    for _ in 0..10_000 {
        let (a, b, c) = (
            nat(&mut rng, 0..=8),
            nat(&mut rng, 0..=8),
            nat(&mut rng, 0..=8),
        );
        let ctx = format!("a = {a:#x}, b = {b:#x}, c = {c:#x}");
        assert_eq!(&a + &b, &b + &a, "{ctx}");
        assert_eq!((&a + &b) + &c, &a + (&b + &c), "{ctx}");
        assert_eq!(&a * &(&b + &c), &a * &b + &a * &c, "{ctx}");
        assert_eq!(&a * &b, &b * &a, "{ctx}");
        assert_eq!(&(&a + &b) - &b, a, "{ctx}");

        let d = nonzero_nat(&mut rng, 0..=8);
        let (q, r) = a.div_rem(&d);
        assert!(r < d, "{ctx}, d = {d:#x}");
        assert_eq!(q * &d + r, a, "{ctx}, d = {d:#x}");
        let small = rng.next_u64().max(1);
        let (q, r) = a.div_rem_u64(small);
        assert_eq!(
            (q, Nat::from(r)),
            a.div_rem(&Nat::from(small)),
            "{ctx} / {small}"
        );

        let s = rng.range_inclusive(0, 299) as u32;
        let shifted = &a << s;
        assert_eq!(shifted, &a * &Nat::from(2u64).pow(s), "{ctx} << {s}");
        assert_eq!(&shifted >> s, a, "{ctx} << {s} >> {s}");
        if !a.is_zero() {
            let bits = a.bit_len() as u32;
            assert!(
                a >= Nat::one() << (bits - 1) && a < Nat::one() << bits,
                "{ctx}"
            );
        }

        let radix = rng.range_inclusive(2, 36) as u32;
        let text = a.to_str_radix(radix);
        assert_eq!(
            Nat::from_str_radix(&text, radix).unwrap(),
            a,
            "{text} in {radix}"
        );

        // The common factor m of a·m and b·m divides their gcd.
        let m = nonzero_nat(&mut rng, 0..=4);
        let (am, bm) = (&a * &m, &b * &m);
        let g = am.gcd(&bm);
        if am.is_zero() && bm.is_zero() {
            assert!(g.is_zero(), "{ctx}");
        } else {
            assert!(
                (&am % &g).is_zero() && (&bm % &g).is_zero(),
                "{ctx}, m = {m:#x}"
            );
            assert!((&g % &m).is_zero(), "{ctx}, m = {m:#x}");
        }

        let base = rng.range_inclusive(2, 36);
        let exp = rng.range_inclusive(0, 119) as u32;
        let power = Nat::from(base).pow(exp);
        assert_eq!(tables[base as usize - 2].pow(exp), &power, "{base}^{exp}");
        let mut repeated = Nat::one();
        for _ in 0..exp {
            repeated.mul_u64(base);
        }
        assert_eq!(power, repeated, "{base}^{exp}");
    }
}

/// Products of operands past the Karatsuba threshold divide back exactly.
#[test]
fn karatsuba_sized_products_are_consistent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x0CA2);
    for _ in 0..200 {
        let a = nat(&mut rng, 60..=79);
        let b = nonzero_nat(&mut rng, 60..=79);
        let (q, r) = (&a * &b).div_rem(&b);
        assert!(q == a && r.is_zero(), "a = {a:#x}, b = {b:#x}");
    }
}

#[test]
fn rat_laws() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x0147);
    // Magnitudes spread over every bit length, so reductions by large and
    // small common factors both occur.
    let draw = |rng: &mut Xoshiro256pp| rng.next_u64() >> rng.range_inclusive(0, 63);
    for _ in 0..20_000 {
        let (an, bn) = (draw(&mut rng), draw(&mut rng));
        let (ad, bd) = (draw(&mut rng).max(1), draw(&mut rng).max(1));
        let ctx = format!("{an}/{ad}, {bn}/{bd}");
        let x = Rat::from_ratio_u64(an, ad);
        let y = Rat::from_ratio_u64(bn, bd);
        assert_eq!(&x + &y, &y + &x, "{ctx}");
        assert_eq!(&(&x + &y) - &y, x, "{ctx}");
        assert_eq!(&x * &y, &y * &x, "{ctx}");
        let (lo, hi) = if x <= y { (&x, &y) } else { (&y, &x) };
        assert_eq!(&(hi - lo) + lo, *hi, "{ctx}");
        if !y.is_zero() {
            assert_eq!(&(&x / &y) * &y, x, "{ctx}");
        }
        let fract = x.fract();
        assert!(fract >= Rat::zero() && fract < Rat::one(), "{ctx}");
        assert_eq!(Rat::from(x.floor()) + fract, x, "{ctx}");
        assert_eq!(x.floor(), Nat::from(an / ad), "{ctx}");
        assert_eq!(x.ceil(), Nat::from(an.div_ceil(ad)), "{ctx}");
        let exact = (u128::from(an) * u128::from(bd)).cmp(&(u128::from(bn) * u128::from(ad)));
        assert_eq!(x.cmp(&y), exact, "{ctx}");
    }
}

#[test]
fn decode_encode_round_trips() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDEC0);
    for _ in 0..20_000 {
        let v = f64::from_bits(rng.next_u64());
        match v.decode() {
            Decoded::Finite {
                negative,
                mantissa,
                exponent,
            } => {
                let back = f64::encode(negative, mantissa, exponent);
                assert_eq!(back.to_bits(), v.to_bits(), "{v:e}");
                // The parts are exact: m × 2^e is v.
                let sf = SoftFloat::from_f64(v.abs()).unwrap();
                assert_eq!(sf.mantissa(), &Nat::from(mantissa), "{v:e}");
                assert_eq!(sf.exponent(), exponent, "{v:e}");
                let exact = Rat::from(mantissa) * Rat::pow_i32(2, exponent);
                assert_eq!(sf.value(), exact, "{v:e}");
            }
            Decoded::Zero { negative } => {
                assert_eq!(f64::encode(negative, 0, 0).to_bits(), v.to_bits());
            }
            Decoded::Nan => assert!(v.is_nan()),
            Decoded::Infinite { negative } => {
                assert!(v.is_infinite() && negative == (v < 0.0), "{v}");
            }
        }
        let w = f32::from_bits(rng.next_u64() as u32);
        if let Decoded::Finite {
            negative,
            mantissa,
            exponent,
        } = w.decode()
        {
            let back = f32::encode(negative, mantissa, exponent);
            assert_eq!(back.to_bits(), w.to_bits(), "{w:e}");
        }
    }
}

/// §2.1's neighbours of a positive double against the hardware's own
/// successor and predecessor.
#[test]
fn soft_float_neighbours_match_hardware() {
    let half = Rat::from_ratio_u64(1, 2);
    for v in uniform_bit_doubles(0x2_1AB).take(4_000) {
        let (up, down) = (v.next_up(), v.next_down());
        assert!(up > v && up.next_down() == v, "{v:e}");
        if up.is_finite() {
            assert_eq!(v.to_bits() + 1, up.to_bits(), "{v:e}");
        }
        let sf = SoftFloat::from_f64(v).unwrap();
        let nb = sf.neighbors();
        let value = sf.value();
        assert!(nb.low < value && value < nb.high, "{v:e}");
        assert_eq!(&value - &nb.low, nb.m_minus, "{v:e}");
        assert_eq!(&nb.high - &value, nb.m_plus, "{v:e}");
        if sf.has_narrow_low_gap() {
            assert_eq!(&nb.m_minus + &nb.m_minus, nb.m_plus, "{v:e}");
        } else {
            assert_eq!(nb.m_minus, nb.m_plus, "{v:e}");
        }
        assert_eq!(nb.high, (&value + &sf.successor_value()) * &half, "{v:e}");
        if up.is_finite() {
            let successor = SoftFloat::from_f64(up).unwrap().value();
            assert_eq!(sf.successor_value(), successor, "{v:e}");
        }
        if down > 0.0 {
            let predecessor = SoftFloat::from_f64(down).unwrap().value();
            assert_eq!(sf.predecessor_value(), predecessor, "{v:e}");
            assert_eq!(nb.low, (&predecessor + &value) * &half, "{v:e}");
        }
    }
}
