//! Formatting/parsing behaviour of the bignum types: Display width/fill,
//! alternate radix formatting, FromStr error paths, Hash coherence.

use fpp_bignum::{Nat, Rat};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn display_honours_width_and_fill() {
    let n = Nat::from(42u64);
    assert_eq!(format!("{n:>8}"), "      42");
    assert_eq!(format!("{n:08}"), "00000042");
    assert_eq!(format!("{n:<8}|"), "42      |");
}

#[test]
fn radix_formatting_with_prefixes() {
    let n = Nat::from(255u64);
    assert_eq!(format!("{n:#x}"), "0xff");
    assert_eq!(format!("{n:#X}"), "0xFF");
    assert_eq!(format!("{n:#o}"), "0o377");
    assert_eq!(format!("{n:#b}"), "0b11111111");
    assert_eq!(format!("{n:#010x}"), "0x000000ff");
}

#[test]
fn from_str_error_paths() {
    assert!("".parse::<Nat>().is_err());
    assert!("abc".parse::<Nat>().is_err());
    assert!("-5".parse::<Nat>().is_err()); // Nat is unsigned
    assert!("1.5".parse::<Rat>().is_err()); // rationals are num/den, not decimals
    assert!("1/".parse::<Rat>().is_err());
    assert!("/2".parse::<Rat>().is_err());
    assert!("-6/8".parse::<Rat>().is_err()); // Rat is non-negative
    let err = "xyz".parse::<Nat>().unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn from_str_round_trips() {
    for s in ["0", "1", "340282366920938463463374607431768211456"] {
        let n: Nat = s.parse().unwrap();
        assert_eq!(n.to_string(), s);
    }
    let r: Rat = "10/4".parse().unwrap();
    assert_eq!(r.to_string(), "5/2");
}

#[test]
fn hash_agrees_with_equality() {
    let a = Nat::from(10u64).pow(30);
    let b: Nat = ("1".to_string() + &"0".repeat(30)).parse().unwrap();
    assert_eq!(a, b);
    assert_eq!(hash_of(&a), hash_of(&b));
    let ra = Rat::from_ratio_u64(2, 4);
    let rb = Rat::from_ratio_u64(1, 2);
    assert_eq!(ra, rb);
    assert_eq!(hash_of(&ra), hash_of(&rb));
}

#[test]
fn debug_is_never_empty() {
    assert_eq!(format!("{:?}", Nat::zero()), "Nat(0)");
    assert_eq!(format!("{:?}", Rat::zero()), "Rat(0)");
}
