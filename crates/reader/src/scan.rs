//! The base-10 scanner feeding the fast conversion tiers.
//!
//! [`crate::parse_literal`] accumulates the coefficient into a [`fpp_bignum::Nat`]
//! because it serves every base and arbitrarily long literals. The fast
//! tiers (Clinger, Eisel–Lemire) only ever consume a `u64` coefficient, so
//! routing their common case through big-integer accumulation would throw
//! away most of the speedup. This scanner keeps at most 19 significant
//! digits in a `u64` (19 digits is the largest count that can never
//! overflow: `10^19 − 1 < 2^64`) and tracks whether — and how — the tail
//! was dropped.
//!
//! It recognizes exactly the plain finite base-10 grammar of
//! [`crate::parse_literal`] (optional sign, digits with one optional point,
//! optional `e`/`E` exponent; empty integer or fraction parts allowed, but
//! not both). Anything else — `inf`/`NaN` words, `#` sticky markers, `@`
//! exponents, malformed input, any non-ASCII byte — returns `None`,
//! deferring to the general parser, which owns error reporting. The
//! scanner therefore never turns a valid literal into an error or vice
//! versa, and every literal it accepts is ASCII (so valid UTF-8).
//!
//! The scan is structured rather than a per-byte state machine, which
//! would branch on every byte:
//!
//! 1. **Layout.** Find the integer digit run, the optional `.` and fraction
//!    run, and the optional exponent. Digit runs are measured eight bytes
//!    at a time (SWAR, "SIMD within a register", after Lemire's *Number
//!    Parsing at a Gigabyte per Second*): one `u64` load tests all eight
//!    bytes for `'0'..='9'` at once, and the lowest flagged byte is the end
//!    of the run.
//! 2. **Accumulation.** Strip leading zeros (they never take one of the 19
//!    slots; in the fraction they only move the scale), then fold the first
//!    19 significant digits into the `u64`, converting eight digits per
//!    step with a multiply-shift reduction wherever eight remain.
//! 3. **Tail.** Digits past the 19th only set `truncated` (if any is
//!    non-zero) and, in the integer part, raise the exponent.

/// Cap on the scanned exponent magnitude, mirroring `parse_exponent`'s
/// clamp: large enough that any value beyond it is a certain overflow or
/// underflow, small enough that digit-count adjustments cannot overflow.
const EXPONENT_CLAMP: i64 = i64::MAX / 4;

/// Significant digits a `u64` always holds.
const MAX_DIGITS: usize = 19;

/// Eight ASCII `'0'` bytes.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// A finite base-10 literal reduced to `± mantissa × 10^exponent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScannedDecimal {
    /// Sign of the literal.
    pub negative: bool,
    /// Up to 19 leading significant digits.
    pub mantissa: u64,
    /// Power of ten scaling `mantissa` (decimal point and dropped integer
    /// digits folded in).
    pub exponent: i64,
    /// Whether a **non-zero** digit beyond the 19 retained ones was
    /// dropped: the true value then lies strictly inside
    /// `(mantissa, mantissa + 1) × 10^exponent`.
    pub truncated: bool,
}

/// Scans a plain finite decimal literal. Returns `None` for anything the
/// fast grammar does not cover (the caller re-parses generally).
pub(crate) fn scan_decimal(bytes: &[u8]) -> Option<ScannedDecimal> {
    let (negative, body) = match bytes.split_first()? {
        (b'+', body) => (false, body),
        (b'-', body) => (true, body),
        _ => (false, bytes),
    };
    let (integer, after) = body.split_at(digit_run(body));
    let (fraction, rest) = match after.split_first() {
        Some((b'.', tail)) => tail.split_at(digit_run(tail)),
        _ => (&after[..0], after),
    };
    if integer.is_empty() && fraction.is_empty() {
        return None;
    }
    let exp = match rest.split_first() {
        None => 0,
        Some((b'e' | b'E', tail)) => scan_exponent(tail)?,
        Some(_) => return None,
    };

    let integer = strip_leading_zeros(integer);
    let (fraction, skipped_zeros) = if integer.is_empty() {
        let significant = strip_leading_zeros(fraction);
        (significant, fraction.len() - significant.len())
    } else {
        (fraction, 0)
    };
    let int_kept = integer.len().min(MAX_DIGITS);
    let frac_kept = fraction.len().min(MAX_DIGITS - int_kept);
    let mantissa = accumulate(accumulate(0, &integer[..int_kept]), &fraction[..frac_kept]);
    let truncated = has_nonzero(&integer[int_kept..]) || has_nonzero(&fraction[frac_kept..]);
    // Dropped integer digits scale up; every fraction digit up to the last
    // kept one (leading zeros included) scales down.
    let exponent = exp + (integer.len() - int_kept) as i64 - (skipped_zeros + frac_kept) as i64;
    Some(ScannedDecimal {
        negative,
        mantissa,
        exponent,
        truncated,
    })
}

/// The decimal exponent after `e`/`E`: optional sign, then one or more
/// digits to the end of the input, clamped to ±[`EXPONENT_CLAMP`].
fn scan_exponent(s: &[u8]) -> Option<i64> {
    let (negative, digits) = match s.split_first() {
        Some((b'+', digits)) => (false, digits),
        Some((b'-', digits)) => (true, digits),
        _ => (false, s),
    };
    if digits.is_empty() {
        return None; // `1e` / `1e-`: malformed, let parse_literal report
    }
    let mut e: i64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return None;
        }
        e = e
            .saturating_mul(10)
            .saturating_add(i64::from(c - b'0'))
            .min(EXPONENT_CLAMP);
    }
    Some(if negative { -e } else { e })
}

/// Length of the run of ASCII digits at the start of `s`, eight bytes per
/// step while eight remain.
fn digit_run(s: &[u8]) -> usize {
    let mut n = 0;
    while let Some(chunk) = s[n..].first_chunk::<8>() {
        let mask = non_digit_mask(u64::from_le_bytes(*chunk));
        if mask != 0 {
            // Little-endian: the lowest flagged byte is the first non-digit.
            return n + (mask.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + s[n..].iter().take_while(|b| b.is_ascii_digit()).count()
}

/// Flags the bytes of `v` (eight bytes loaded little-endian) outside
/// `'0'..='9'`: zero exactly when all eight are digits, and otherwise the
/// lowest set bit is the high bit of the first non-digit byte (later bytes
/// may be flagged spuriously). Adding `0x46` sets the high bit of a byte
/// above `'9'` (`0x3A + 0x46 = 0x80`); subtracting `0x30` borrows into it
/// for a byte below `'0'`. Bytes at or above `0xBA` wrap the addition, but
/// then the subtraction leaves their high bit set. No carry or borrow
/// reaches the first non-digit byte, because every byte before it is a
/// digit.
fn non_digit_mask(v: u64) -> u64 {
    (v.wrapping_add(0x4646_4646_4646_4646) | v.wrapping_sub(ZEROS)) & 0x8080_8080_8080_8080
}

/// The value of eight ASCII digits loaded little-endian (first digit in the
/// lowest byte): combine neighbours into two-digit pairs, then the four
/// pairs into one number with two multiply-shifts.
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = v - ZEROS;
    let pairs = v * 10 + (v >> 8);
    ((pairs & MASK).wrapping_mul(MUL1) + ((pairs >> 16) & MASK).wrapping_mul(MUL2)) >> 32
}

/// `m` followed by the ASCII digits `digits` (the caller keeps the total
/// within [`MAX_DIGITS`]), eight digits per step while eight remain.
fn accumulate(mut m: u64, digits: &[u8]) -> u64 {
    let mut chunks = digits.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("chunk of eight"));
        m = m * 100_000_000 + eight_digits(v);
    }
    for &c in chunks.remainder() {
        m = m * 10 + u64::from(c - b'0');
    }
    m
}

fn strip_leading_zeros(digits: &[u8]) -> &[u8] {
    let zeros = digits.iter().take_while(|&&c| c == b'0').count();
    &digits[zeros..]
}

fn has_nonzero(digits: &[u8]) -> bool {
    digits.iter().any(|&c| c != b'0')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_literal, Literal};
    use fpp_bignum::Nat;

    fn scan(s: &str) -> ScannedDecimal {
        scan_decimal(s.as_bytes()).expect(s)
    }

    #[test]
    fn plain_forms() {
        assert_eq!(
            scan("123"),
            ScannedDecimal {
                negative: false,
                mantissa: 123,
                exponent: 0,
                truncated: false
            }
        );
        assert_eq!(scan("-0.25").mantissa, 25);
        assert_eq!(scan("-0.25").exponent, -2);
        assert!(scan("-0.25").negative);
        assert_eq!(scan("1.e5").exponent, 5);
        assert_eq!(scan(".5e-1"), scan("0.05"));
        assert_eq!(scan("3.").mantissa, 3);
        assert_eq!(scan("+6.02214076e23").exponent, 15);
    }

    #[test]
    fn leading_zeros_do_not_consume_precision() {
        // 0.000…0<19 digits>: all 19 significant digits must be kept.
        let s = format!("0.{}1234567890123456789", "0".repeat(40));
        let sc = scan(&s);
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -59);
        assert!(!sc.truncated);
    }

    #[test]
    fn tail_dropping_tracks_scale_and_stickiness() {
        // 20 digits ending in zero: dropped digit is zero → not truncated,
        // exponent compensates.
        let sc = scan("12345678901234567890");
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, 1);
        assert!(!sc.truncated);
        // Non-zero tail digit → truncated.
        let sc = scan("12345678901234567891");
        assert_eq!(sc.exponent, 1);
        assert!(sc.truncated);
        // Dropped fractional digits do not move the exponent.
        let sc = scan("1.2345678901234567890123");
        assert_eq!(sc.mantissa, 1234567890123456789);
        assert_eq!(sc.exponent, -18);
        assert!(sc.truncated);
    }

    #[test]
    fn rejects_what_parse_literal_owns() {
        for s in [
            "",
            "+",
            "-",
            ".",
            "e5",
            "1e",
            "1e+",
            "inf",
            "NaN",
            "0x10",
            "1_000",
            "1.2.3",
            "5#",
            "1@3",
            "--1",
            "1e5x",
            "+.",
            ".e5",
            "1e5.",
            "1.5e",
            "1e-",
            "12345678.1e2e",
            "1 ",
        ] {
            assert_eq!(scan_decimal(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn huge_exponents_clamp_without_overflow() {
        let sc = scan("1e99999999999999999999999");
        assert!(sc.exponent >= EXPONENT_CLAMP);
        let sc = scan("1e-99999999999999999999999");
        assert!(sc.exponent <= -EXPONENT_CLAMP);
    }

    #[test]
    fn swar_primitives() {
        assert_eq!(eight_digits(u64::from_le_bytes(*b"12345678")), 12_345_678);
        assert_eq!(eight_digits(u64::from_le_bytes(*b"00000000")), 0);
        assert_eq!(eight_digits(u64::from_le_bytes(*b"99999999")), 99_999_999);
        assert_eq!(eight_digits(u64::from_le_bytes(*b"09080706")), 9_080_706);
        for pos in 0..8 {
            for byte in 0..=255u8 {
                let mut chunk = *b"01234567";
                chunk[pos] = byte;
                let mask = non_digit_mask(u64::from_le_bytes(chunk));
                if byte.is_ascii_digit() {
                    assert_eq!(mask, 0, "{chunk:?}");
                } else {
                    assert_eq!(mask.trailing_zeros() / 8, pos as u32, "{chunk:?}");
                }
            }
        }
    }

    /// The exact value `D × 10^E` of a finite literal against the scan:
    /// equal to `mantissa × 10^exponent` when not truncated, strictly
    /// between that and `(mantissa + 1) × 10^exponent` when truncated.
    fn agrees_with_parse_literal(s: &str) {
        let Some(sc) = scan_decimal(s.as_bytes()) else {
            return;
        };
        let parts = match parse_literal(s, 10) {
            Ok(Literal::Finite(parts)) => parts,
            other => panic!("scanner accepted {s:?} but parse_literal gave {other:?}"),
        };
        assert_eq!(sc.negative, parts.negative, "{s:?}");
        assert!(!parts.truncated, "{s:?}");
        // Compare on the common scale 10^min(E, exponent).
        let low = parts.exponent.min(sc.exponent);
        let scale = |n: Nat, e: i64| n * Nat::from(10u64).pow((e - low) as u32);
        let exact = scale(parts.digits, parts.exponent);
        let lower = scale(Nat::from(sc.mantissa), sc.exponent);
        let upper = scale(Nat::from(sc.mantissa + 1), sc.exponent);
        if sc.truncated {
            assert!(lower < exact && exact < upper, "{s:?} → {sc:?}");
            assert!(sc.mantissa >= 10u64.pow(18), "{s:?} kept under 19 digits");
        } else {
            assert!(lower == exact, "{s:?} → {sc:?}");
        }
    }

    #[test]
    fn digit_runs_of_every_length_match_parse_literal() {
        for len in 1..=40 {
            for lead in ["", "0", "000000000"] {
                let run: String = (0..len).map(|i| char::from(b'1' + (i % 9) as u8)).collect();
                let zero_tail: String = run[..len - 1].to_string() + "0";
                for digits in [&run, &zero_tail] {
                    for s in [
                        format!("{lead}{digits}"),
                        format!("{lead}{digits}."),
                        format!("0.{lead}{digits}"),
                        format!(".{lead}{digits}e-7"),
                        format!("-{lead}{digits}.{digits}"),
                        format!("{lead}{digits}.{lead}{digits}E+12"),
                    ] {
                        assert!(scan_decimal(s.as_bytes()).is_some(), "{s:?}");
                        agrees_with_parse_literal(&s);
                    }
                }
            }
        }
    }

    #[test]
    fn window_edges_match_parse_literal() {
        // 19 kept digits, then a 20th that is zero or not, across the
        // integer/fraction split and behind leading zeros.
        for split in 0..=20 {
            for last in ['0', '5'] {
                let digits = format!("{}{last}", "1234567890123456789");
                let (int, frac) = digits.split_at(split);
                for s in [
                    format!("{int}.{frac}"),
                    format!("0.000{int}{frac}"),
                    format!("{int}.{frac}e-300"),
                    format!("{int}.{frac}000000000"),
                ] {
                    agrees_with_parse_literal(&s);
                    let sc = scan(&s);
                    assert_eq!(sc.truncated, last != '0', "{s:?}");
                }
            }
        }
    }

    #[test]
    fn foreign_bytes_at_every_offset_are_rejected() {
        // The literal already holds its one point and one exponent marker,
        // so inserting or substituting any of these bytes anywhere breaks
        // the plain grammar.
        let base = b"12345678.87654321e+123";
        for pos in 0..=base.len() {
            for foreign in [b'/', b':', 0x80, 0xFF, b'#', b'@', b'_', b'.', b'e'] {
                let mut inserted = base.to_vec();
                inserted.insert(pos, foreign);
                assert_eq!(scan_decimal(&inserted), None, "{inserted:?}");
                if pos < base.len() && base[pos] != foreign {
                    let mut replaced = base.to_vec();
                    replaced[pos] = foreign;
                    assert_eq!(scan_decimal(&replaced), None, "{replaced:?}");
                }
            }
        }
    }
}
