//! Arbitrary-precision arithmetic substrate for the `fpp` floating-point
//! printing library.
//!
//! The Burger–Dybvig printing algorithm (PLDI 1996, §3) is specified in terms
//! of *high-precision integer arithmetic* with an explicit common denominator,
//! and its reference form (§2) in terms of *exact rational arithmetic*. This
//! crate provides both, built from scratch:
//!
//! * [`Nat`] — arbitrary-precision natural numbers (unsigned integers) with
//!   addition, subtraction, comparison, shifts, schoolbook and Karatsuba
//!   multiplication, short and Knuth Algorithm-D long division, binary
//!   exponentiation and radix conversion for bases 2–36.
//! * [`Rat`] — exact non-negative rationals over [`Nat`], always kept in
//!   lowest terms, used by the executable reference oracle of the printing
//!   algorithm.
//! * [`PowerTable`] — a memoising cache of `B^k` values, mirroring the
//!   paper's cached table of `10^k` for `0 ≤ k ≤ 325` (Figure 2) but generic
//!   over the output base.
//! * [`pow5`] — the 128-bit power-of-five table shared by the printer's
//!   shortest tier and the reader's Eisel–Lemire tier, with the integer
//!   logarithms that index it.
//!
//! The limb size is 64 bits ([`Limb`]); intermediate products use `u128`.
//!
//! # Examples
//!
//! ```
//! use fpp_bignum::Nat;
//!
//! let a = Nat::from(10u64).pow(30);
//! let b = &a * &a;
//! assert_eq!(b.to_str_radix(10), "1".to_string() + &"0".repeat(60));
//! let (q, r) = b.div_rem(&a);
//! assert_eq!(q, a);
//! assert!(r.is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nat;
pub mod pow5;
mod power_table;
mod rational;

pub use nat::{Nat, ParseNatError};
pub use power_table::PowerTable;
pub use rational::Rat;

/// The machine word used for one digit ("limb") of a [`Nat`].
pub type Limb = u64;

/// Number of bits in a [`Limb`].
pub const LIMB_BITS: u32 = Limb::BITS;
