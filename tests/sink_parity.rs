//! Byte-for-byte parity between the sink pipeline and the legacy `String`
//! pipeline: `FreeFormat::write_to` / `FixedFormat::write_to` through a
//! reused [`fpp::DtoaContext`] must reproduce exactly what the allocating
//! `format_float` conveniences return, for every float format, base,
//! notation and precision mode the builders expose.
//!
//! The `String` conveniences are themselves implemented on top of the sink
//! engines, but through a *thread-local* context — this suite pins down the
//! stronger claim that an explicit, long-lived, heavily-reused context never
//! drifts from a fresh one (stale workspace state, power-table growth and
//! scratch-buffer recycling are all exercised by interleaving formats,
//! bases and precisions through one context per base).

use fpp::core::{FixedFormat, FreeFormat, Notation};
use fpp::float::{Bf16, Decoded, FloatFormat, F16};
use fpp::testgen::{log_uniform_doubles, special_values, uniform_bit_doubles};
use fpp::{DtoaContext, SliceSink};

/// Formats `v` through an explicit context into a stack buffer and returns
/// the text, asserting it matches the legacy `String` output.
fn assert_free_parity<F: FloatFormat>(fmt: &FreeFormat, ctx: &mut DtoaContext, v: F, what: &str) {
    let mut buf = [0u8; 1 << 12];
    let mut sink = SliceSink::new(&mut buf);
    fmt.write_to(ctx, &mut sink, v);
    assert_eq!(sink.as_str(), fmt.format_float(v), "free {what}");
}

fn assert_fixed_parity<F: FloatFormat>(fmt: &FixedFormat, ctx: &mut DtoaContext, v: F, what: &str) {
    let mut buf = [0u8; 1 << 12];
    let mut sink = SliceSink::new(&mut buf);
    fmt.write_to(ctx, &mut sink, v);
    assert_eq!(sink.as_str(), fmt.format_float(v), "fixed {what}");
}

/// Every finite binary16 and bfloat16 value, shortest form, base 10 — the
/// exhaustive half of the parity claim.
#[test]
fn exhaustive_f16_bf16_shortest_parity() {
    let fmt = FreeFormat::new().notation(Notation::Scientific);
    let mut ctx = DtoaContext::new(10);
    for bits in 0..=u16::MAX {
        let v = F16::from_bits(bits);
        if matches!(v.decode(), Decoded::Finite { .. }) {
            assert_free_parity(&fmt, &mut ctx, v, &format!("f16 bits {bits:#06x}"));
        }
        let v = Bf16::from_bits(bits);
        if matches!(v.decode(), Decoded::Finite { .. }) {
            assert_free_parity(&fmt, &mut ctx, v, &format!("bf16 bits {bits:#06x}"));
        }
    }
}

/// Sampled doubles (uniform over bit patterns, log-uniform over magnitude,
/// plus the special-value corpus) across bases 2, 10 and 16 and both
/// notations, shortest form.
#[test]
fn sampled_f64_shortest_parity_across_bases() {
    let mut workload: Vec<f64> = special_values();
    workload.extend(uniform_bit_doubles(0x5eed).take(400));
    workload.extend(log_uniform_doubles(0xfacade).take(400));
    workload.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0]);

    for base in [2u64, 10, 16] {
        let mut ctx = DtoaContext::new(base);
        for notation in [
            Notation::Scientific,
            Notation::Positional,
            Notation::Auto { low: -6, high: 21 },
        ] {
            let fmt = FreeFormat::new().base(base).notation(notation);
            for &v in &workload {
                assert_free_parity(
                    &fmt,
                    &mut ctx,
                    v,
                    &format!("{v:e} base {base} {notation:?}"),
                );
            }
        }
    }
}

/// Fixed format in both precision modes (absolute fraction digits and
/// relative significant digits), with and without `#` marks, through one
/// reused context.
#[test]
fn sampled_f64_fixed_parity_both_modes() {
    let mut workload: Vec<f64> = special_values();
    workload.extend(uniform_bit_doubles(0xf1bed).take(200));
    workload.extend([f64::NAN, f64::INFINITY, 0.0, -0.0, 9.97, 0.999999, 5e-324]);

    let mut ctx = DtoaContext::new(10);
    for hash in [true, false] {
        for frac in [0u32, 2, 10, 25] {
            let fmt = FixedFormat::new().fraction_digits(frac).hash_marks(hash);
            for &v in &workload {
                assert_fixed_parity(&fmt, &mut ctx, v, &format!("{v:e} frac {frac} hash {hash}"));
            }
        }
        for sig in [1u32, 2, 17, 30] {
            let fmt = FixedFormat::new().significant_digits(sig).hash_marks(hash);
            for &v in &workload {
                assert_fixed_parity(&fmt, &mut ctx, v, &format!("{v:e} sig {sig} hash {hash}"));
            }
        }
    }
}

/// The incremental [`DigitStream`] and the one-shot sink pipeline implement
/// the same algorithm and must produce identical shortest-form digits and
/// scale for the same value.
///
/// [`DigitStream`]: fpp::core::DigitStream
#[test]
fn digit_stream_agrees_with_sink_digits() {
    use fpp::bignum::PowerTable;
    use fpp::core::DigitStream;
    use fpp::float::{RoundingMode, SoftFloat};

    let workload: Vec<f64> = special_values()
        .into_iter()
        .chain(uniform_bit_doubles(0xd161).take(200))
        .collect();
    let fmt = FreeFormat::new().notation(Notation::Scientific);
    let mut ctx = DtoaContext::new(10);
    let mut powers = PowerTable::new(10);
    let mut buf = [0u8; 64];
    for &v in &workload {
        let Some(sf) = SoftFloat::from_f64(v) else {
            continue;
        };
        let mut sink = SliceSink::new(&mut buf);
        fmt.write_to(&mut ctx, &mut sink, v);
        let text = sink.as_str();
        let (mantissa_txt, exp_txt) = text.split_once('e').unwrap_or((text, "0"));
        let digits: Vec<u8> = mantissa_txt
            .bytes()
            .filter(u8::is_ascii_digit)
            .map(|b| b - b'0')
            .collect();
        let stream = DigitStream::new(&sf, RoundingMode::NearestEven, &mut powers);
        let k = stream.k();
        let streamed: Vec<u8> = stream.collect();
        assert_eq!(streamed, digits, "{v:e}");
        assert_eq!(k, exp_txt.parse::<i32>().unwrap() + 1, "{v:e}");
    }
}

/// Every positive finite `F16` in release builds, every 97th in debug.
fn positive_f16s() -> impl Iterator<Item = fpp::float::SoftFloat> {
    let stride = if cfg!(debug_assertions) { 97 } else { 1 };
    (1..0x7C00u16)
        .step_by(stride)
        .map(|bits| fpp::float::SoftFloat::from_float(F16::from_bits(bits)).expect("positive"))
}

/// [`DigitStream`] against the rational §2.2 oracle in bases 2/10/16/36,
/// under the four nearest-family reader modes and all three tie rules.
///
/// [`DigitStream`]: fpp::core::DigitStream
#[test]
fn digit_stream_agrees_with_rational_oracle() {
    use fpp::bignum::PowerTable;
    use fpp::core::{free_digits_exact, DigitStream, Inclusivity, ScalingStrategy, TieBreak};
    use fpp::float::RoundingMode;

    for base in [2u64, 10, 16, 36] {
        let mut powers = PowerTable::new(base);
        for sf in positive_f16s() {
            let even = sf.mantissa_is_even();
            for (mode, (low_ok, high_ok)) in [
                (RoundingMode::NearestEven, (even, even)),
                (RoundingMode::Conservative, (false, false)),
                (RoundingMode::NearestAwayFromZero, (true, false)),
                (RoundingMode::NearestTowardZero, (false, true)),
            ] {
                for tie in [TieBreak::Up, TieBreak::Down, TieBreak::Even] {
                    let stream = DigitStream::with_options(
                        &sf,
                        ScalingStrategy::Estimate,
                        mode,
                        tie,
                        &mut powers,
                    );
                    let k = stream.k();
                    let streamed: Vec<u8> = stream.collect();
                    let exact = free_digits_exact(&sf, base, Inclusivity { low_ok, high_ok }, tie);
                    assert_eq!(
                        (streamed, k),
                        (exact.digits, exact.k),
                        "{sf} base {base} {mode:?} {tie:?}"
                    );
                }
            }
        }
    }
}

/// The directed modes reshape the rounding range before the loop runs;
/// [`DigitStream`] must reshape it as the batch engine does.
///
/// [`DigitStream`]: fpp::core::DigitStream
#[test]
fn digit_stream_agrees_with_batch_digits_in_directed_modes() {
    use fpp::bignum::PowerTable;
    use fpp::core::{free_format_digits, DigitStream, ScalingStrategy, TieBreak};
    use fpp::float::RoundingMode;

    for base in [2u64, 10, 16, 36] {
        let mut powers = PowerTable::new(base);
        for sf in positive_f16s() {
            for mode in [RoundingMode::TowardZero, RoundingMode::AwayFromZero] {
                let stream = DigitStream::with_options(
                    &sf,
                    ScalingStrategy::Estimate,
                    mode,
                    TieBreak::Up,
                    &mut powers,
                );
                let k = stream.k();
                let streamed: Vec<u8> = stream.collect();
                let batch = free_format_digits(
                    &sf,
                    ScalingStrategy::Estimate,
                    mode,
                    TieBreak::Up,
                    &mut powers,
                );
                assert_eq!(
                    (streamed, k),
                    (batch.digits, batch.k),
                    "{sf} base {base} {mode:?}"
                );
            }
        }
    }
}
