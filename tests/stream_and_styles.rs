//! Cross-crate behaviour of the streaming digit API and the cosmetic
//! rendering options.

use fpp::bignum::PowerTable;
use fpp::core::{
    DigitStream, DtoaContext, ExponentStyle, FixedFormat, FreeFormat, Notation, RenderOptions,
};
use fpp::float::{RoundingMode, SoftFloat};

#[test]
fn stream_prefix_is_a_correct_truncation() {
    // The streamed digits form a truncation of the value's exact expansion
    // (free format may of course stop early — 0.1 streams just "1") —
    // verified against the straightforward fixed baseline.
    let mut powers = PowerTable::new(10);
    for v in [std::f64::consts::PI, 0.1, 123.456, 2.0 / 3.0] {
        let sf = SoftFloat::from_f64(v).unwrap();
        let stream = DigitStream::new(&sf, RoundingMode::NearestEven, &mut powers);
        let streamed: Vec<u8> = stream.take(8).collect();
        // Compare against a wide correctly rounded expansion: any streamed
        // prefix shorter than the comparison width matches digit-for-digit,
        // except that free format's FINAL digit may be rounded up rather
        // than truncated — so compare all but the last streamed digit
        // exactly and allow the last to sit within +1.
        let (expansion, _) = fpp::baseline::simple_fixed::simple_fixed_digits(&sf, 9, &mut powers);
        let n = streamed.len();
        assert!(n >= 1);
        assert_eq!(streamed[..n - 1], expansion[..n - 1], "{v}");
        let last = streamed[n - 1];
        let exact = expansion[n - 1];
        assert!(last == exact || last == exact + 1, "{v}: {last} vs {exact}");
    }
}

#[test]
fn stream_works_in_base_two() {
    let mut powers = PowerTable::new(2);
    let sf = SoftFloat::from_f64(0.625).unwrap(); // 0.101₂
    let mut stream = DigitStream::new(&sf, RoundingMode::NearestEven, &mut powers);
    assert_eq!(stream.k(), 0);
    assert_eq!(stream.by_ref().collect::<Vec<u8>>(), vec![1, 0, 1]);
}

#[test]
fn styled_free_format_end_to_end() {
    let fmt = FreeFormat::new()
        .notation(Notation::Scientific)
        .style(RenderOptions {
            exponent_style: ExponentStyle::PrintfSigned,
            ..RenderOptions::default()
        });
    assert_eq!(fmt.format(0.3), "3e-01");
    assert_eq!(fmt.format(6.02214076e23), "6.02214076e+23");
    assert_eq!(fmt.format(-1.5), "-1.5e+00");
}

#[test]
fn styled_fixed_format_end_to_end() {
    let fmt = FixedFormat::new()
        .significant_digits(7)
        .notation(Notation::Positional)
        .style(RenderOptions {
            decimal_separator: ',',
            group_separator: Some('.'),
            ..RenderOptions::default()
        });
    // continental European style
    assert_eq!(fmt.format(1234567.89), "1.234.568");
    assert_eq!(fmt.format(1234.5), "1.234,500");
}

#[test]
fn grouped_rendering_reads_back_after_normalisation() {
    // Grouped output is for humans; strip separators to machine-read it.
    let fmt = FreeFormat::new()
        .notation(Notation::Positional)
        .style(RenderOptions {
            group_separator: Some('_'),
            ..RenderOptions::default()
        });
    let v = 9007199254740993.0_f64; // 2^53 + 1 rounds to 2^53
    let s = fmt.format(v);
    assert!(s.contains('_'), "{s}");
    let cleaned: String = s.chars().filter(|c| *c != '_').collect();
    assert_eq!(cleaned.parse::<f64>().unwrap(), v);
}

#[test]
fn uppercase_exponent_style() {
    let fmt = FreeFormat::new()
        .notation(Notation::Scientific)
        .style(RenderOptions {
            exponent_style: ExponentStyle::Uppercase,
            ..RenderOptions::default()
        });
    assert_eq!(fmt.format(1e100), "1E100");
}

/// Only the exact engine uses a context, so only the exact engine switches
/// a context of another base to the builder's base. Answers from the
/// shortest tier and the fixed tier leave a base-16 context at 16. The
/// bytes are the builder's on every path, and a later call in the
/// context's first base still works.
#[test]
fn context_switches_to_the_builders_base() {
    for v in [0.1, 1e23, 5e-324, f64::MAX] {
        let tier = FreeFormat::new();
        let base = base_after(|c, o| tier.write_to(c, o, v), tier.format(v));
        assert_eq!(base, 16, "the shortest tier answered {v}");
        let exact = FreeFormat::new().fast_path(false);
        let base = base_after(|c, o| exact.write_to(c, o, v), exact.format(v));
        assert_eq!(base, 10, "the exact engine ran for {v}");
    }
    // 17 significant digits is every normal double's own precision, so
    // the fixed tier answers. 25 digits, or 17 digits of a subnormal, are
    // finer, so the exact engine runs.
    let fixed = FixedFormat::new().significant_digits(17);
    let fine = FixedFormat::new().significant_digits(25);
    for v in [0.1, 1e23, f64::MAX] {
        let base = base_after(|c, o| fixed.write_to(c, o, v), fixed.format(v));
        assert_eq!(base, 16, "the fixed tier answered {v}");
        let base = base_after(|c, o| fine.write_to(c, o, v), fine.format(v));
        assert_eq!(base, 10, "the exact engine ran for {v} at 25 digits");
    }
    let tiny = 5e-324;
    let base = base_after(|c, o| fixed.write_to(c, o, tiny), fixed.format(tiny));
    assert_eq!(base, 10, "the exact engine ran for a subnormal");

    let mut ctx = DtoaContext::new(10);
    let mut out = Vec::new();
    FreeFormat::new().base(16).write_to(&mut ctx, &mut out, 0.5);
    assert_eq!(out, b"0.8");
    assert_eq!(ctx.base(), 16);
}

/// Runs `write` against a fresh base-16 context, checks its bytes against
/// `expect`, and returns the context's base afterwards.
fn base_after(write: impl FnOnce(&mut DtoaContext, &mut Vec<u8>), expect: String) -> u64 {
    let mut ctx = DtoaContext::new(16);
    let mut out = Vec::new();
    write(&mut ctx, &mut out);
    assert_eq!(out, expect.as_bytes());
    ctx.base()
}
