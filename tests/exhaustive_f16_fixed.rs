//! Exhaustive fixed-format verification over binary16 and two toy formats,
//! plus seeded `f64` samples: for every value and a sweep of positions, the
//! optimized fixed-format implementation must agree with the exact
//! rational oracle of §4.
//!
//! The fixed tier (`u64` arithmetic in front of the exact engine) is held
//! to the exact engine byte for byte: every positive `F16` and `Bf16`
//! around its own precision, every Schryer value at 16 and 17 significant
//! digits and sampled `f64`s at 17, with a census of how many requests
//! fall in the tier's domain. Behind `--ignored`, ten million `f64`s at 17
//! digits and every positive `f32` at 9:
//!
//! ```bash
//! cargo test --release --test exhaustive_f16_fixed -- --ignored ten_million
//! cargo test --release --test exhaustive_f16_fixed -- --ignored every_positive_f32
//! ```

mod common;

use common::enumerate_format;
use fpp::bignum::{pow5, Nat};
use fpp::core::{
    fixed_digits_exact, fixed_format_digits_absolute, fixed_format_digits_relative,
    render_fixed_into, with_thread_powers, FixedFormat, FixedPrecision, Notation, RenderOptions,
    ScalingStrategy, TieBreak,
};
use fpp::float::{Bf16, Decoded, FloatFormat, SoftFloat, F16};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{log_uniform_doubles, uniform_bit_doubles, SchryerSet};
use fpp::DtoaContext;
use std::fmt::Debug;

const TIES: [TieBreak; 3] = [TieBreak::Up, TieBreak::Down, TieBreak::Even];

fn soft_of<F: FloatFormat>(v: F) -> Option<SoftFloat> {
    match v.decode() {
        Decoded::Finite {
            negative: false,
            mantissa,
            exponent,
        } => Some(
            SoftFloat::new(Nat::from(mantissa), exponent, 2, F::PRECISION, F::MIN_EXP)
                .expect("valid"),
        ),
        _ => None,
    }
}

/// Asserts the optimized digits of `v` at position `j` equal the oracle's.
fn assert_matches_oracle(v: &SoftFloat, base: u64, j: i32, tie: TieBreak) {
    let fast = with_thread_powers(base, |powers| {
        fixed_format_digits_absolute(v, j, ScalingStrategy::Estimate, tie, powers)
    });
    let slow = fixed_digits_exact(v, base, j, tie);
    assert_eq!(fast, slow, "{v} base {base} position {j} {tie:?}");
}

#[test]
fn all_f16_fixed_format_matches_oracle() {
    let mut checked = 0u32;
    for bits in 1..0x7C00u16 {
        let Some(v) = soft_of(F16::from_bits(bits)) else {
            continue;
        };
        // Sample positions around each value's own magnitude plus fixed ones.
        for j in [-9i32, -4, 0, 2] {
            assert_matches_oracle(&v, 10, j, TieBreak::Up);
        }
        checked += 1;
    }
    assert!(checked > 31_000);
}

/// Every value of two toy formats (input bases 2 and 10), every position
/// from well below the last digit to above the leading one, every tie rule.
#[test]
fn toy_formats_fixed_format_matches_oracle() {
    for v in enumerate_format(2, 4, -6, 6)
        .into_iter()
        .chain(enumerate_format(10, 2, -3, 3))
    {
        for j in -8..=4 {
            for tie in TIES {
                assert_matches_oracle(&v, 10, j, tie);
            }
        }
    }
}

/// Seeded `f64`s at seeded positions, in output bases 10 and 16.
#[test]
fn sampled_f64_fixed_format_matches_oracle() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF1_7ED);
    for (base, lowest, highest) in [(10u64, -30i32, 9i32), (16, -20, 5)] {
        for v in uniform_bit_doubles(rng.next_u64()).take(64) {
            let j = lowest + rng.range_inclusive(0, (highest - lowest) as u64) as i32;
            for tie in TIES {
                assert_matches_oracle(&SoftFloat::from_f64(v).unwrap(), base, j, tie);
            }
        }
    }
}

#[test]
fn all_f16_fixed_outputs_read_back_when_precise_enough() {
    // At 6 significant digits (>= the 5 every f16 needs), the fixed output
    // with # marks must read back bit-identically.
    use fpp::core::FixedFormat;
    let fmt = FixedFormat::new().significant_digits(6);
    for bits in 1..0x7C00u16 {
        let h = F16::from_bits(bits);
        let s = fmt.format_float(h);
        let back: F16 = fpp::reader::read_float(&s, 10, fpp::float::RoundingMode::NearestEven)
            .expect("well-formed");
        assert_eq!(back.to_bits(), bits, "{s}");
    }
}

/// `FixedFormat::write_to` against the exact engine. The builder tries the
/// fixed tier first; the expected bytes are the exact engine's digits
/// rendered by `render_fixed_into`.
struct TierCheck {
    ctx: DtoaContext,
    text: Vec<u8>,
    want: Vec<u8>,
}

impl TierCheck {
    fn new() -> Self {
        TierCheck {
            ctx: DtoaContext::new(10),
            text: Vec::new(),
            want: Vec::new(),
        }
    }

    /// Asserts the bytes for positive finite `v` match, and returns whether
    /// the request lies in the fixed tier's domain.
    fn check<F: FloatFormat + Debug>(
        &mut self,
        v: F,
        precision: FixedPrecision,
        tie: TieBreak,
    ) -> bool {
        let soft = soft_of(v).expect("positive finite");
        let (fmt, d) = match precision {
            FixedPrecision::AbsolutePosition(j) => (
                FixedFormat::new().absolute_position(j),
                with_thread_powers(10, |powers| {
                    fixed_format_digits_absolute(&soft, j, ScalingStrategy::Estimate, tie, powers)
                }),
            ),
            FixedPrecision::SignificantDigits(n) => (
                FixedFormat::new().significant_digits(n),
                with_thread_powers(10, |powers| {
                    fixed_format_digits_relative(&soft, n, ScalingStrategy::Estimate, tie, powers)
                }),
            ),
        };
        self.want.clear();
        render_fixed_into(
            &mut self.want,
            &d.layout(true),
            Notation::default(),
            10,
            &RenderOptions::default(),
        );
        self.text.clear();
        fmt.tie_break(tie)
            .write_to(&mut self.ctx, &mut self.text, v);
        assert_eq!(
            String::from_utf8_lossy(&self.text),
            String::from_utf8_lossy(&self.want),
            "{v:?} at {precision:?} {tie:?}"
        );
        in_tier_domain(v, d.position)
    }
}

/// The shortest tier's scale `k_s` of positive finite `v = c·2^q`: `⌊log10⌋`
/// of its rounding range's width, `2^q` or `¾·2^q` below a power of two.
/// Also returns whether the range is narrow below.
fn shortest_scale<F: FloatFormat>(v: F) -> (i32, bool) {
    let Decoded::Finite {
        mantissa, exponent, ..
    } = v.decode()
    else {
        panic!("finite value expected");
    };
    let narrow = mantissa == 1 << (F::PRECISION - 1) && exponent > F::MIN_EXP;
    let k = if narrow {
        pow5::floor_log10_three_quarters_pow2(exponent)
    } else {
        pow5::floor_log10_pow2(exponent)
    };
    (k, narrow)
}

/// The fixed tier's domain, restated in exact integers: §4 stops at `k_s`
/// or `k_s − 1`, and `10^j/2` is below `m⁻` (`2^(q−1)`, or `2^(q−2)` below
/// a power of two), hence below `m⁺`, so the range is not widened.
fn in_tier_domain<F: FloatFormat>(v: F, j: i32) -> bool {
    let (ks, narrow) = shortest_scale(v);
    if j != ks && j != ks - 1 {
        return false;
    }
    let Decoded::Finite { exponent, .. } = v.decode() else {
        return false;
    };
    // 10^j·(1 or 2) < 2^q, with each negative exponent moved across.
    let (mut lhs, mut rhs) = (Nat::from(1 + u64::from(narrow)), Nat::one());
    let ten = Nat::u64_pow(10, j.unsigned_abs());
    if j >= 0 {
        lhs = &lhs * &ten;
    } else {
        rhs = &rhs * &ten;
    }
    if exponent >= 0 {
        rhs <<= exponent.unsigned_abs();
    } else {
        lhs <<= exponent.unsigned_abs();
    }
    lhs < rhs
}

/// Every positive finite value of a 16-bit format at `n ∈ 1..=8`
/// significant digits and at absolute positions `k_s − 2 ..= k_s + 1`,
/// under all three tie rules. Returns the requests in the tier's domain.
fn every_16_bit_value<F: FloatFormat + Debug>(values: impl Iterator<Item = F>) -> u64 {
    let mut check = TierCheck::new();
    let mut in_domain = 0;
    for v in values {
        let (ks, _) = shortest_scale(v);
        let positions = (-2..=1).map(|offset| FixedPrecision::AbsolutePosition(ks + offset));
        for precision in (1..=8)
            .map(FixedPrecision::SignificantDigits)
            .chain(positions)
        {
            for tie in TIES {
                in_domain += u64::from(check.check(v, precision, tie));
            }
        }
    }
    in_domain
}

#[test]
fn every_f16_fixed_tier_request_matches_exact_engine() {
    let values = (1..0x7C00u16).map(F16::from_bits);
    assert_eq!(every_16_bit_value(values), 374_742);
}

#[test]
fn every_bf16_fixed_tier_request_matches_exact_engine() {
    let values = (1..0x7F80u16).map(Bf16::from_bits);
    assert_eq!(every_16_bit_value(values), 390_636);
}

/// Every Schryer value at 16 and 17 significant digits. At 17, the paper's
/// Table 3 setting, every request lies in the tier's domain.
#[test]
fn schryer_fixed_tier_matches_exact_engine() {
    let mut check = TierCheck::new();
    for n in [16, 17] {
        let mut in_domain = 0usize;
        for v in SchryerSet::new().iter() {
            in_domain +=
                usize::from(check.check(v, FixedPrecision::SignificantDigits(n), TieBreak::Up));
        }
        if n == 17 {
            assert_eq!(in_domain, SchryerSet::new().len(), "census at n = 17");
        }
    }
}

#[test]
fn sampled_f64_fixed_tier_matches_exact_engine() {
    let mut check = TierCheck::new();
    for v in log_uniform_doubles(0x00F1_7ED0).take(100_000) {
        check.check(v, FixedPrecision::SignificantDigits(17), TieBreak::Up);
    }
}

/// Ten million log-uniform `f64`s at 17 significant digits. About a minute
/// in release mode; run explicitly with `-- --ignored ten_million`.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn ten_million_f64_fixed_tier_matches_exact_engine() {
    let mut check = TierCheck::new();
    for v in log_uniform_doubles(0x1700_0000).take(10_000_000) {
        check.check(v, FixedPrecision::SignificantDigits(17), TieBreak::Up);
    }
}

/// Every positive finite `f32` at 9 significant digits, split across the
/// available cores. Run by hand with `-- --ignored every_positive_f32`.
#[test]
#[ignore = "exhaustive 2^31-value sweep; run by hand"]
fn every_positive_f32_fixed_tier_matches_exact_engine() {
    const END: u32 = 0x7F80_0000;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let chunk = END.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut check = TierCheck::new();
                for bits in (t * chunk).max(1)..((t + 1) * chunk).min(END) {
                    let v = f32::from_bits(bits);
                    check.check(v, FixedPrecision::SignificantDigits(9), TieBreak::Up);
                }
            });
        }
    });
}
