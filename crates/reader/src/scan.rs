//! The base-10 scanner feeding the Eisel–Lemire tier.
//!
//! [`crate::parse_literal`] accumulates the coefficient into a [`fpp_bignum::Nat`]
//! because it serves every base and arbitrarily long literals. Eisel–Lemire
//! only ever consumes a `u64` coefficient, and answers every one of them,
//! so routing its common case through big-integer accumulation would throw
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
//! There are two paths, and both give the same [`ScannedDecimal`]:
//!
//! - **The bitmap path** takes the common entry: 8–24 bytes, at most 19
//!   significant digits and at most 8 exponent digits. Its control flow
//!   does not follow where the point, the exponent or the runs' ends fall,
//!   so a column of literals of mixed shapes costs few branch
//!   mispredictions.
//!   Three overlapping `u64` loads (at `0`, `min(8, len − 8)` and
//!   `len − 8`) cover the entry. Every byte is classified exactly as digit
//!   or non-digit eight at a time (SWAR, "SIMD within a register", after
//!   Lemire's *Number Parsing at a Gigabyte per Second*), and the flags
//!   are gathered into one bitmap with a bit per byte, bits at or above
//!   the length set. `trailing_zeros` of the bitmap, shifted to a run's
//!   start, is that run's end: the integer run, the fraction run and the
//!   exponent's digits come from it with no further word load. A run's
//!   last `r ≤ 8` digits are one load of the eight bytes ending at the
//!   run's end, with the bytes before the run replaced by `'0'`; the
//!   eight before those, and the at most three before them, take one
//!   load each. Apart from the bounds checks of single-byte reads, the
//!   only branches left on the layout ask whether a run is longer than 8
//!   or 16 digits, and whether the entry has more than 19 digits with
//!   leading zeros counted (only such an entry strips them). The exponent
//!   (at most 8 digits, so in the entry's last word) is read the same way,
//!   and its sign applied as `(e ^ −neg) + neg`. Anything the bitmap path
//!   does not accept, well-formed or not, goes to the general path.
//! - **The general path** serves every other entry: shorter than 8 or
//!   longer than 24 bytes, more than 19 significant digits, more than 8
//!   exponent digits, and every malformed entry. It is structured rather
//!   than a per-byte state machine:
//!
//!   1. **Layout.** Find the integer digit run, the optional `.` and
//!      fraction run, and the optional exponent. Digit runs are measured
//!      eight bytes at a time with the same classifier: the lowest
//!      flagged byte is the end of the run.
//!   2. **Accumulation.** Strip leading zeros (in the fraction they only
//!      move the scale), then fold the first 19 significant digits into
//!      the `u64`, eight digits per step wherever eight remain.
//!   3. **Tail.** Digits past the 19th only set `truncated` (if any is
//!      non-zero) and, in the integer part, raise the exponent.

/// Cap on the scanned exponent magnitude, mirroring `parse_exponent`'s
/// clamp: large enough that any value beyond it is a certain overflow or
/// underflow, small enough that digit-count adjustments cannot overflow.
const EXPONENT_CLAMP: i64 = i64::MAX / 4;

/// Significant digits a `u64` always holds.
const MAX_DIGITS: usize = 19;

/// Eight ASCII `'0'` bytes.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The high bit of every byte.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// `10^r` for every digit count a `u64` holds.
const POW10: [u64; MAX_DIGITS + 1] = {
    let mut table = [1; MAX_DIGITS + 1];
    let mut r = 1;
    while r <= MAX_DIGITS {
        table[r] = table[r - 1] * 10;
        r += 1;
    }
    table
};

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
    scan_bitmap(bytes).or_else(|| scan_general(bytes))
}

/// The bitmap path: `Some` only for a well-formed literal of 8–24 bytes
/// with at most 19 significant digits and at most 8 exponent digits. Its
/// checks are folded into one test at the end. The only other branches
/// that depend on the layout are the bounds checks of the single-byte
/// reads, the test for more than 19 digits with leading zeros counted,
/// and the run-length tests of [`accumulate_run`].
#[inline]
fn scan_bitmap(bytes: &[u8]) -> Option<ScannedDecimal> {
    let len = bytes.len();
    if !(8..=24).contains(&len) {
        return None;
    }
    let first = word(bytes, 0);
    let mid = len.min(16) - 8;
    let last = word(bytes, len - 8);
    // Bit `i` is set when byte `i` is not a digit or lies past the end.
    // The three words overlap, and agree where they do: each byte is
    // classified on its own.
    let non_digits = gather(non_digit_flags(first))
        | gather(non_digit_flags(word(bytes, mid))) << mid
        | gather(non_digit_flags(last)) << (len - 8)
        | u32::MAX << len;
    // `at <= len` wherever this is called, and bit `len` is set.
    let run_end = |at: usize| at + (non_digits >> at).trailing_zeros() as usize;
    let byte = |at: usize| bytes.get(at).copied().unwrap_or(0);

    let sign = first as u8;
    let negative = sign == b'-';
    let int_start = usize::from(negative | (sign == b'+'));
    let int_end = run_end(int_start);
    let frac_start = int_end + usize::from(byte(int_end) == b'.');
    let frac_end = run_end(frac_start);
    let digits = (int_end - int_start) + (frac_end - frac_start);
    // Leading zeros never take one of the 19 slots. Few entries have more
    // than 19 digits with them counted, so only those strip them.
    let (mut int_from, mut frac_from) = (int_start, frac_start);
    if digits > MAX_DIGITS {
        int_from = int_end - strip_leading_zeros(&bytes[int_start..int_end]).len();
        if int_from == int_end {
            frac_from = frac_end - strip_leading_zeros(&bytes[frac_start..frac_end]).len();
        }
    }
    let significant = (int_end - int_from) + (frac_end - frac_from);

    let exp_sign = byte(frac_end + 1);
    let exp_negative = exp_sign == b'-';
    let exp_start = (frac_end + 1 + usize::from(exp_negative | (exp_sign == b'+'))).min(len);
    let exp_digits = len - exp_start;
    let exponent_ok = (frac_end == len)
        | ((byte(frac_end) | 0x20 == b'e')
            & (1..=8).contains(&exp_digits)
            & (run_end(exp_start) == len));
    if !((digits > 0) & (significant <= MAX_DIGITS) & exponent_ok) {
        return None;
    }

    let neg = i64::from(exp_negative);
    // Without an exponent, `exp_digits` is 0 and so is the value.
    let exp = (eight_digits(zero_pad(last, exp_digits)) as i64 ^ -neg) + neg;
    let mantissa = accumulate_run(
        bytes,
        accumulate_run(bytes, 0, int_from, int_end),
        frac_from,
        frac_end,
    );
    Some(ScannedDecimal {
        negative,
        mantissa,
        // With at most 19 digits nothing is dropped, and every fraction
        // digit, leading zeros included, scales down.
        exponent: exp - (frac_end - frac_start) as i64,
        truncated: false,
    })
}

/// The eight bytes at `bytes[at..at + 8]`, little-endian.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// `m` followed by the ASCII digits `bytes[from..to]` (the caller keeps
/// the total within [`MAX_DIGITS`] and `bytes.len() >= 8`): the run's last
/// eight digits, the eight before them and the rest, each from one load of
/// the window ending where they end. The branches ask only whether the run
/// is longer than 8 or 16 digits; a column of shortest-printed doubles
/// answers both the same way for nearly every fraction.
#[inline(always)]
fn accumulate_run(bytes: &[u8], m: u64, from: usize, to: usize) -> u64 {
    let r = to - from;
    let mut v = digits_before(bytes, to, r.min(8));
    if r > 8 {
        v += digits_before(bytes, to - 8, (r - 8).min(8)) * 100_000_000;
        if r > 16 {
            v += digits_before(bytes, to - 16, r - 16) * 10_000_000_000_000_000;
        }
    }
    m * POW10[r] + v
}

/// The value of the `n <= 8` ASCII digits ending at `bytes[to]`, from one
/// load: the eight bytes ending at `to`, or, for `to < 8`, the first `to`
/// bytes moved to the top. The move is a multiply by a table entry rather
/// than a variable shift, which measured slower on the baseline x86-64
/// target. `to == 0` only when `n == 0`, and the entry for 0 clears the
/// window.
#[inline(always)]
fn digits_before(bytes: &[u8], to: usize, n: usize) -> u64 {
    /// `SHIFT_UP[t]` moves the first `t` bytes of a word to its top.
    const SHIFT_UP: [u64; 9] = {
        let mut table = [0; 9];
        let mut t = 1;
        while t <= 8 {
            table[t] = 1 << (8 * (8 - t));
            t += 1;
        }
        table
    };
    let window = word(bytes, to.max(8) - 8).wrapping_mul(SHIFT_UP[to.min(8)]);
    eight_digits(zero_pad(window, n))
}

/// `v` with all but its top `n <= 8` bytes replaced by `'0'`: the value
/// of the last `n` digits of a little-endian word through
/// [`eight_digits`].
fn zero_pad(v: u64, n: usize) -> u64 {
    /// `TOP_BYTES[n]` keeps the top `n` bytes of a word.
    const TOP_BYTES: [u64; 9] = {
        let mut table = [0; 9];
        let mut n = 1;
        while n <= 8 {
            table[n] = u64::MAX << (8 * (8 - n));
            n += 1;
        }
        table
    };
    let keep = TOP_BYTES[n];
    (v & keep) | (ZEROS & !keep)
}

/// The general path, for every entry the bitmap path does not take.
fn scan_general(bytes: &[u8]) -> Option<ScannedDecimal> {
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
        let flags = non_digit_flags(u64::from_le_bytes(*chunk));
        if flags != 0 {
            // Little-endian: the lowest flagged byte is the first non-digit.
            return n + (flags.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + s[n..].iter().take_while(|b| b.is_ascii_digit()).count()
}

/// Flags exactly the bytes of `v` outside `'0'..='9'`: the high bit of
/// each such byte is set, and no other bit. Each byte is classified on its
/// own. With its high bit cleared, adding `0x46` carries into bit 7
/// exactly for a byte above `'9'` (`0x3A + 0x46 = 0x80`), and adding
/// `0x50` exactly for a byte at or above `'0'` (`0x30 + 0x50 = 0x80`);
/// neither sum leaves its byte (`0x7F + 0x50 < 0x100`), so no carry
/// crosses into a neighbour. A byte with its high bit set is never a
/// digit.
fn non_digit_flags(v: u64) -> u64 {
    let low = v & !HIGH_BITS;
    (v | (low + 0x4646_4646_4646_4646) | !(low + 0x5050_5050_5050_5050)) & HIGH_BITS
}

/// The flags of [`non_digit_flags`] as one bit per byte: bit `i` is byte
/// `i`'s flag. The multiplier adds a copy of the flags shifted up by `7j`
/// for each `j` in `0..8`; byte `i`'s flag (bit `8i + 7`) reaches bit
/// `56 + i` in copy `j = 7 − i`, and no two copies set the same bit, so
/// nothing carries.
fn gather(flags: u64) -> u32 {
    (flags.wrapping_mul(0x0002_0408_1020_4081) >> 56) as u32
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
        // The classifier and the gathered bitmap are exact for every byte
        // at every position, whatever its neighbours are: digits, bytes
        // just outside `'0'..='9'`, or bytes with the high bit set.
        for background in [
            *b"01234567",
            *b"99999999",
            *b"/:/:/:/:",
            [0xFF; 8],
            [0xBA; 8],
        ] {
            for pos in 0..8 {
                for byte in 0..=255u8 {
                    let mut chunk = background;
                    chunk[pos] = byte;
                    let flags = non_digit_flags(u64::from_le_bytes(chunk));
                    let mut expected_flags = 0;
                    let mut expected_bits = 0;
                    for (i, b) in chunk.iter().enumerate() {
                        if !b.is_ascii_digit() {
                            expected_flags |= 0x80 << (8 * i);
                            expected_bits |= 1 << i;
                        }
                    }
                    assert_eq!(flags, expected_flags, "{chunk:?}");
                    assert_eq!(gather(flags), expected_bits, "{chunk:?}");
                }
            }
        }
        // The bytes below the top `n` never reach the value.
        for (n, pow) in POW10[..=8].iter().enumerate() {
            let expected = 12_345_678 % pow;
            assert_eq!(
                eight_digits(zero_pad(u64::from_le_bytes(*b"12345678"), n)),
                expected
            );
            if n <= 6 {
                let padded = zero_pad(u64::from_le_bytes(*b"e-345678"), n);
                assert_eq!(eight_digits(padded), expected, "{n}");
            }
        }
    }

    /// `len` digits cycling through `1234567890`, the first `zeros` of
    /// them (at most `len`) replaced by `'0'`.
    fn run(len: usize, zeros: usize) -> String {
        (0..len)
            .map(|i| {
                if i < zeros {
                    '0'
                } else {
                    char::from(b"1234567890"[i % 10])
                }
            })
            .collect()
    }

    #[test]
    fn bitmap_path_matches_the_general_scanner() {
        // Every entry of 1–32 bytes built from an optional sign, an integer
        // run, a point or none, a fraction run, with or without leading
        // zeros, and no exponent or one of 0–10 digits (plain or
        // zero-padded) behind `e`/`E` and `+`, `-` or no sign. The bitmap
        // path must give what the general path gives, and answer exactly
        // the well-formed entries it covers.
        let mut exponents = vec![(String::new(), None)];
        for marker in ["e", "E"] {
            for sign in ["", "+", "-"] {
                for n in 0..=10usize {
                    for zeros in [0, n.saturating_sub(1)] {
                        exponents.push((format!("{marker}{sign}{}", run(n, zeros)), Some(n)));
                    }
                }
            }
        }
        let (mut entries, mut covered) = (0, 0);
        for sign in ["", "-", "+"] {
            for int_len in 0..=24 {
                for frac_len in (0..=24).map(Some).chain([None]) {
                    for zeros in [0, 3] {
                        let mut body = sign.to_string() + &run(int_len, zeros);
                        if let Some(frac_len) = frac_len {
                            body += ".";
                            body += &run(frac_len, zeros);
                        }
                        let digits = int_len + frac_len.unwrap_or(0);
                        let significant = body
                            .bytes()
                            .filter(u8::is_ascii_digit)
                            .skip_while(|&b| b == b'0')
                            .count();
                        for (exponent, exp_digits) in &exponents {
                            let s = body.clone() + exponent;
                            if s.is_empty() || s.len() > 32 {
                                continue;
                            }
                            let valid = digits > 0 && *exp_digits != Some(0);
                            let covers = (8..=24).contains(&s.len())
                                && significant <= MAX_DIGITS
                                && exp_digits.unwrap_or(0) <= 8;
                            let bitmap = scan_bitmap(s.as_bytes());
                            let general = scan_general(s.as_bytes());
                            assert_eq!(general.is_some(), valid, "{s:?}");
                            assert_eq!(bitmap.is_some(), valid && covers, "{s:?}");
                            if bitmap.is_some() {
                                assert_eq!(bitmap, general, "{s:?}");
                            }
                            entries += 1;
                            covered += usize::from(bitmap.is_some());
                        }
                    }
                }
            }
        }
        assert!(covered * 4 > entries, "{covered} of {entries} covered");
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
