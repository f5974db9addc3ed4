//! Byte-for-byte parity of the shortest tier against the exact
//! Burger–Dybvig engine.
//!
//! The tier is exact by construction: for every eligible configuration
//! (base 10, the estimate scaler, a nearest-family rounding mode) it
//! answers every finite value itself, with no fallback. So each check here
//! asserts two things: `try_write` answered, and its bytes equal
//! `FreeFormat::fast_path(false)`'s, which runs the exact engine alone. The
//! inputs are sampled, stratified over the tier's hazards (ties, exact
//! endpoint hits, subnormals, binade edges), exhaustive over the 16-bit
//! formats, and — behind `--ignored` — ten million `f64`s and every
//! positive `f32`. A layout matrix crosses every notation with every
//! rendering style, so the tier's one-buffer layout and its generic
//! fallback are both compared with the generic layout of the exact
//! engine's digits.
//!
//! ```bash
//! cargo test --release --test fastpath_parity
//! cargo test --release --test fastpath_parity -- --ignored ten_million
//! cargo test --release --test fastpath_parity -- --ignored layout_matrix_one_million
//! cargo test --release --test fastpath_parity -- --ignored strided_f32
//! cargo test --release --test fastpath_parity -- --ignored exhaustive
//! ```

use fpp::core::{ExponentStyle, FreeFormat, Notation, RenderOptions, TieBreak};
use fpp::float::{Bf16, FloatFormat, RoundingMode, F16};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{log_uniform_doubles, uniform_bit_doubles, SchryerSet};
use fpp::{DtoaContext, SliceSink};
use std::fmt::Debug;

/// Comfortably larger than any shortest-form rendering, positional `f64`
/// extremes with grouping included.
const BUF: usize = 512;

/// The four rounding modes the tier serves.
const NEAREST_MODES: [RoundingMode; 4] = [
    RoundingMode::NearestEven,
    RoundingMode::NearestAwayFromZero,
    RoundingMode::NearestTowardZero,
    RoundingMode::Conservative,
];

const TIE_BREAKS: [TieBreak; 3] = [TieBreak::Up, TieBreak::Down, TieBreak::Even];

/// The notations of the layout matrix: both fixed choices, the default
/// window and a window wide enough to print every `f64` positionally.
const NOTATIONS: [Notation; 4] = [
    Notation::Positional,
    Notation::Scientific,
    Notation::Auto { low: -6, high: 21 },
    Notation::Auto {
        low: -400,
        high: 400,
    },
];

/// The styles of the layout matrix: the default, each exponent style, an
/// ASCII and a non-ASCII decimal separator, and grouping.
const STYLES: [RenderOptions; 6] = [
    RenderOptions {
        exponent_style: ExponentStyle::Minimal,
        decimal_separator: '.',
        group_separator: None,
    },
    RenderOptions {
        exponent_style: ExponentStyle::Uppercase,
        decimal_separator: '.',
        group_separator: None,
    },
    RenderOptions {
        exponent_style: ExponentStyle::PrintfSigned,
        decimal_separator: '.',
        group_separator: None,
    },
    RenderOptions {
        exponent_style: ExponentStyle::Minimal,
        decimal_separator: ',',
        group_separator: None,
    },
    RenderOptions {
        exponent_style: ExponentStyle::Minimal,
        decimal_separator: '.',
        group_separator: Some('_'),
    },
    RenderOptions {
        exponent_style: ExponentStyle::Minimal,
        decimal_separator: '\u{66b}', // Arabic decimal separator
        group_separator: None,
    },
];

/// The tier and the exact engine under one configuration.
struct Pair {
    fast: FreeFormat,
    exact: FreeFormat,
}

impl Pair {
    fn new(mode: RoundingMode, tie: TieBreak) -> Self {
        let fast = FreeFormat::new().rounding(mode).tie_break(tie);
        let exact = fast.clone().fast_path(false);
        Pair { fast, exact }
    }

    fn default_recipe() -> Self {
        Pair::new(RoundingMode::NearestEven, TieBreak::Up)
    }

    /// The default recipe under one cell of the layout matrix.
    fn styled(notation: Notation, style: RenderOptions) -> Self {
        let fast = FreeFormat::new().notation(notation).style(style);
        let exact = fast.clone().fast_path(false);
        Pair { fast, exact }
    }

    /// Asserts that the tier answers `v` and that its bytes equal the
    /// exact engine's, reporting the value on failure.
    fn check<F: FloatFormat + Debug>(&self, ctx: &mut DtoaContext, v: F) {
        let mut fbuf = [0u8; BUF];
        let mut fsink = SliceSink::new(&mut fbuf);
        assert!(
            self.fast.try_write(&mut fsink, v),
            "the tier declined {v:?} under {:?}",
            self.fast
        );
        let mut ebuf = [0u8; BUF];
        let mut esink = SliceSink::new(&mut ebuf);
        self.exact.write_to(ctx, &mut esink, v);
        assert_eq!(
            fsink.as_str(),
            esink.as_str(),
            "tier/exact divergence on {v:?} under {:?}",
            self.fast
        );
    }

    /// [`Pair::check`], returning the text.
    fn text(&self, ctx: &mut DtoaContext, v: f64) -> String {
        self.check(ctx, v);
        self.fast.format(v)
    }
}

/// A stratified f64 column concentrating on the tier's hazards: exact
/// powers of two (narrow-gap boundaries), denormals, powers of ten
/// (decimal endpoints like 1e23), neighbors of all of the above, and the
/// format extremes.
fn stratified_f64s() -> Vec<f64> {
    let mut values = Vec::new();
    for e in -1074..=1023i32 {
        let v = 2f64.powi(e);
        if v.is_finite() && v > 0.0 {
            values.push(v);
            values.push(f64::from_bits(v.to_bits() + 1));
            if v.to_bits() > 1 {
                values.push(f64::from_bits(v.to_bits() - 1));
            }
        }
    }
    for k in -308..=308i32 {
        let v = format!("1e{k}").parse::<f64>().unwrap();
        if v.is_finite() && v > 0.0 {
            values.push(v);
            values.push(f64::from_bits(v.to_bits() + 1));
            values.push(f64::from_bits(v.to_bits() - 1));
        }
    }
    // Denormals: the smallest ones and a deterministic scatter across the
    // whole 2^52-wide band.
    for bits in 1..=512u64 {
        values.push(f64::from_bits(bits));
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xDECADE);
    for _ in 0..2_000 {
        values.push(f64::from_bits(rng.range_inclusive(1, (1 << 52) - 1)));
    }
    values.extend_from_slice(&[
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        1e23,
        6.02214076e23,
        123_456_789.123_456_79,
        2.5,
        9.97,
    ]);
    // Sign symmetry is structural (the digit pipeline sees |v|), but pin a
    // negative slice anyway.
    let negs: Vec<f64> = values.iter().take(64).map(|&v| -v).collect();
    values.extend(negs);
    values
}

#[test]
fn sampled_f64_parity() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    for v in log_uniform_doubles(0xFA57).take(50_000) {
        pair.check(&mut ctx, v);
    }
    for v in uniform_bit_doubles(0xFA58).take(10_000) {
        pair.check(&mut ctx, v);
    }
    for v in SchryerSet::new().iter() {
        pair.check(&mut ctx, v);
    }
}

#[test]
fn stratified_f64_parity() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    for v in stratified_f64s() {
        pair.check(&mut ctx, v);
    }
}

#[test]
fn sampled_f32_parity() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    let mut rng = Xoshiro256pp::seed_from_u64(0xF32F32);
    let mut checked = 0usize;
    while checked < 50_000 {
        let bits = (rng.next_u64() & 0x7FFF_FFFF) as u32;
        let v = f32::from_bits(bits);
        if !v.is_finite() {
            continue;
        }
        pair.check(&mut ctx, v);
        checked += 1;
    }
    // f32 boundary strata: powers of two and their neighbors.
    for e in -149..=127i32 {
        let v = 2f32.powi(e);
        if v.is_finite() && v > 0.0 {
            pair.check(&mut ctx, v);
            pair.check(&mut ctx, f32::from_bits(v.to_bits() + 1));
            if v.to_bits() > 1 {
                pair.check(&mut ctx, f32::from_bits(v.to_bits() - 1));
            }
        }
    }
}

/// Every `f64` and `f32` power of two, subnormal ones included, under every
/// rounding mode the tier serves and every tie rule: the shorter interval
/// below each normal power, at every exponent, with each endpoint rule.
#[test]
fn every_power_of_two_all_modes_and_ties() {
    let mut ctx = DtoaContext::new(10);
    for mode in NEAREST_MODES {
        for tie in TIE_BREAKS {
            let pair = Pair::new(mode, tie);
            for e in -1074..=1023 {
                pair.check(&mut ctx, 2f64.powi(e));
            }
            for e in -149..=127 {
                pair.check(&mut ctx, 2f32.powi(e));
            }
        }
    }
}

/// Every rounding mode the tier serves, with every tie rule: endpoint
/// inclusion and tie resolution are where the configurations differ.
#[test]
fn nearest_rounding_modes_parity() {
    let mut ctx = DtoaContext::new(10);
    for mode in NEAREST_MODES {
        for tie in TIE_BREAKS {
            let pair = Pair::new(mode, tie);
            for v in log_uniform_doubles(0x40DE + mode as u64).take(4_000) {
                pair.check(&mut ctx, v);
            }
            for v in stratified_f64s().into_iter().step_by(3) {
                pair.check(&mut ctx, v);
            }
        }
    }
}

/// Every positive finite `F16` and `Bf16` under all four nearest-family
/// rounding modes and all three tie rules.
#[test]
fn exhaustive_half_formats_all_modes_and_ties() {
    let mut ctx = DtoaContext::new(10);
    for mode in NEAREST_MODES {
        for tie in TIE_BREAKS {
            let pair = Pair::new(mode, tie);
            // 0x7C00 and 0x7F80 are the infinities; everything below is
            // positive finite.
            for bits in 1..0x7C00u16 {
                pair.check(&mut ctx, F16::from_bits(bits));
            }
            for bits in 1..0x7F80u16 {
                pair.check(&mut ctx, Bf16::from_bits(bits));
            }
        }
    }
}

/// Every notation × style cell over the stratified `f64` column and every
/// positive finite `F16`: signs, both separators, every exponent style,
/// zero runs on either side of the digits, and positional texts too long
/// for the tier's layout buffer.
#[test]
fn layout_matrix_parity() {
    let mut ctx = DtoaContext::new(10);
    let values = stratified_f64s();
    for notation in NOTATIONS {
        for style in STYLES {
            let pair = Pair::styled(notation, style);
            for &v in &values {
                pair.check(&mut ctx, v);
            }
            for bits in 1..0x7C00u16 {
                pair.check(&mut ctx, F16::from_bits(bits));
            }
        }
    }
}

/// One million `f64`s (log-uniform and uniform-bit, half negative), each
/// under the next cell of the layout matrix in turn. Run explicitly with
/// `-- --ignored layout_matrix_one_million`.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn layout_matrix_one_million() {
    let mut ctx = DtoaContext::new(10);
    let cells: Vec<Pair> = NOTATIONS
        .iter()
        .flat_map(|&n| STYLES.iter().map(move |&s| Pair::styled(n, s)))
        .collect();
    let values = log_uniform_doubles(0x1A_7001)
        .take(800_000)
        .chain(uniform_bit_doubles(0x1A_7002).take(200_000));
    let mut checked = 0usize;
    for (i, v) in values.enumerate() {
        let v = if i % 2 == 0 { v } else { -v };
        cells[i % cells.len()].check(&mut ctx, v);
        checked += 1;
    }
    assert_eq!(checked, 1_000_000);
}

/// Exact ties are real for `f64`: `2^50 + j/4` with `j` odd sits exactly
/// halfway between two 17-digit candidates, and the tie rule picks one.
/// The column checks every rule against the exact engine and against the
/// expected digit.
#[test]
fn constructed_f64_tie_column() {
    let mut ctx = DtoaContext::new(10);
    let mut rng = Xoshiro256pp::seed_from_u64(0x71E5);
    // (fraction, Up, Down, Even) for the last printed digit.
    let cases = [(0.25, '3', '2', '2'), (0.75, '8', '7', '8')];
    let mut integers = vec![1u64 << 50, (1 << 51) - 1];
    integers.extend((0..500).map(|_| rng.range_inclusive(1 << 50, (1 << 51) - 1)));
    for n in integers {
        for (frac, up, down, even) in cases {
            let v = n as f64 + frac;
            for (tie, digit) in [
                (TieBreak::Up, up),
                (TieBreak::Down, down),
                (TieBreak::Even, even),
            ] {
                let text = Pair::new(RoundingMode::NearestEven, tie).text(&mut ctx, v);
                assert_eq!(text, format!("{n}.{digit}"), "{v:?} under {tie:?}");
            }
        }
    }
    let up = FreeFormat::new();
    let down = FreeFormat::new().tie_break(TieBreak::Down);
    let two50 = 2f64.powi(50);
    assert_eq!(up.format(two50 + 0.25), "1125899906842624.3");
    assert_eq!(down.format(two50 + 0.25), "1125899906842624.2");
}

/// Hazard stratum: every subnormal `f64` with a significand below 10^5.
/// The smallest significands print with one or two digits, where a
/// Java-style `s >= 100` guard on the shorter candidate would print
/// `4.9e-323` for `5e-323`.
#[test]
fn small_subnormal_f64_parity() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    for bits in 1..100_000u64 {
        pair.check(&mut ctx, f64::from_bits(bits));
    }
    assert_eq!(FreeFormat::new().format(5e-323), "5e-323");
    assert_eq!(FreeFormat::new().format(1e-323), "1e-323");
}

/// Hazard stratum: in `[2^53, 2^57)` the interval ends `v ± ulp/2` are
/// integers, so they can land exactly on a shorter decimal (for example
/// `23695218488134108 + 2 = 23695218488134110`). A product whose integer
/// test misreads those exact hits as inexact gets the endpoint rule wrong
/// there. The column takes every power of two and ten in the range, and
/// sampled values whose upper or lower end is a multiple of ten, each with
/// its ±1 ulp neighbors, under every nearest-family rounding mode.
#[test]
fn exact_endpoint_hits_above_2_53() {
    let mut centers: Vec<f64> = (53..57).map(|e| 2f64.powi(e)).collect();
    centers.extend([1e16, 1e17, 23_695_218_488_134_108.0]);
    let mut rng = Xoshiro256pp::seed_from_u64(0xE4D);
    for e in 54..57 {
        let ulp = 1u64 << (e - 52);
        let half = ulp / 2;
        for _ in 0..1_000 {
            let mut c = rng.range_inclusive(1 << 52, (1 << 53) - 11);
            // Walk to the next significand with an end on a multiple of 10.
            while !(c * ulp + half).is_multiple_of(10) && !(c * ulp - half).is_multiple_of(10) {
                c += 1;
            }
            centers.push((c * ulp) as f64);
        }
    }
    let mut ctx = DtoaContext::new(10);
    for mode in NEAREST_MODES {
        let pair = Pair::new(mode, TieBreak::Up);
        for &v in &centers {
            for bits in [v.to_bits() - 1, v.to_bits(), v.to_bits() + 1] {
                pair.check(&mut ctx, f64::from_bits(bits));
            }
        }
    }
}

/// Directed rounding modes reshape the interval, so the tier declines
/// them entirely — and output still matches by construction because both
/// formatters run the exact engine.
#[test]
fn directed_rounding_modes_never_use_fast_path() {
    let mut buf = [0u8; BUF];
    for mode in [RoundingMode::TowardZero, RoundingMode::AwayFromZero] {
        let fast = FreeFormat::new().rounding(mode);
        let mut sink = SliceSink::new(&mut buf);
        assert!(
            !fast.try_write(&mut sink, 0.3f64),
            "the tier must decline directed mode {mode:?}"
        );
    }
}

/// `1e23` sits exactly on a rounding boundary: the tier answers it, with
/// the endpoint admitted or not exactly as the rounding mode says.
#[test]
fn endpoint_values_are_answered_exactly() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    assert_eq!(pair.text(&mut ctx, 1e23), "1e23");
    assert_eq!(pair.text(&mut ctx, -1e23), "-1e23");
    let away = Pair::new(RoundingMode::NearestAwayFromZero, TieBreak::Up);
    assert_eq!(away.text(&mut ctx, 1e23), "9.999999999999999e22");
    // Specials are answered directly (they never reach the digit loops).
    let mut buf = [0u8; BUF];
    for v in [f64::NAN, f64::INFINITY, -0.0] {
        let mut sink = SliceSink::new(&mut buf);
        assert!(pair.fast.try_write(&mut sink, v));
    }
}

/// Ten-million-sample f64 parity run (log-uniform, uniform-bit and
/// stratified). About a minute in release mode; run explicitly with
/// `-- --ignored ten_million`.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn f64_parity_ten_million_samples() {
    let mut ctx = DtoaContext::new(10);
    let pair = Pair::default_recipe();
    let mut checked = 0u64;
    for v in log_uniform_doubles(0x10_000_000).take(8_000_000) {
        pair.check(&mut ctx, v);
        checked += 1;
    }
    for v in uniform_bit_doubles(0x10_000_001).take(1_900_000) {
        pair.check(&mut ctx, v);
        checked += 1;
    }
    // Stratified remainder: cycle the hazard column to fill the quota.
    let strata = stratified_f64s();
    for v in strata.iter().cycle().take(100_000) {
        pair.check(&mut ctx, *v);
        checked += 1;
    }
    assert_eq!(checked, 10_000_000);
}

/// Every `stride`-th positive finite `f32`, from the smallest subnormal
/// up, split across the available cores.
fn f32_parity_sweep(stride: u32) {
    // 0x7F80_0000 is +inf; everything below and above 0 is positive finite.
    const END: u32 = 0x7F80_0000;
    let count = (END - 2) / stride + 1;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut ctx = DtoaContext::new(10);
                let pair = Pair::default_recipe();
                for i in t * chunk..((t + 1) * chunk).min(count) {
                    pair.check(&mut ctx, f32::from_bits(1 + i * stride));
                }
            });
        }
    });
}

/// Every positive finite f32 — the sweep the paper's correctness claims
/// are usually demonstrated with. Sign handling is orthogonal (the digit
/// pipeline sees `|v|`; the sign is prepended afterwards), so sweeping the
/// positive half covers the digit logic exhaustively.
#[test]
#[ignore = "exhaustive 2^31-ish sweep; run once per release by hand"]
fn exhaustive_f32_parity_sweep() {
    f32_parity_sweep(1);
}

/// Every 29th positive finite f32: about 74 million values across every
/// binade and the subnormals, in under a minute in release mode on two
/// cores. `ci.sh` runs it next to `ten_million`.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn strided_f32_parity_sweep() {
    f32_parity_sweep(29);
}
