//! Rendering digit sequences as text.
//!
//! The algorithms produce positional digit data (`0.d₁d₂… × Bᵏ`); this module
//! turns that into text: positional notation (`123.45`, `0.00071`),
//! scientific notation (`1.2345e2`), or an automatic choice between them
//! mirroring the behaviour of Scheme's `number->string` and the paper's
//! examples (`0.3`, `1e23`).
//!
//! The engine is sink-based: [`render_into`] and [`render_fixed_into`] write
//! bytes straight into any [`DigitSink`] without intermediate strings, so a
//! conversion into a stack buffer allocates nothing. One layout engine
//! serves every caller and emits runs through [`DigitSink::push_slice`]:
//! digit values are mapped to characters a chunk at a time, and the
//! shortest tier hands it ASCII written straight from a `u64` significand.
//! The `String`-returning [`render`] and [`render_in_base`] are thin
//! wrappers collecting into a `Vec<u8>`.

use crate::fixed::FixedDigits;
use crate::generate::Digits;
use crate::sink::DigitSink;
use std::ops::Range;

const DIGIT_CHARS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// How to lay out the digits of a printed number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notation {
    /// Always positional: `1230000`, `0.000123`.
    Positional,
    /// Always scientific: `1.23e6`, `1.23e-4`.
    Scientific,
    /// Positional while the exponent is moderate, scientific outside the
    /// window: positional iff `low < k ≤ high` (`k` as in `0.d… × Bᵏ`).
    ///
    /// The default window `(-6, 21]` matches the familiar behaviour of
    /// JavaScript/`Number.prototype.toString` and prints the paper's
    /// examples as in the paper (`0.3`, `1e23`).
    Auto {
        /// Smallest `k` (exclusive) still printed positionally.
        low: i32,
        /// Largest `k` (inclusive) still printed positionally.
        high: i32,
    },
}

impl Notation {
    /// Whether digits with scale `k` lay out positionally under this
    /// notation.
    fn is_positional(self, k: i32) -> bool {
        match self {
            Notation::Positional => true,
            Notation::Scientific => false,
            Notation::Auto { low, high } => k > low && k <= high,
        }
    }
}

impl Default for Notation {
    fn default() -> Self {
        Notation::Auto { low: -6, high: 21 }
    }
}

/// Cosmetic rendering options layered over [`Notation`]: exponent style,
/// decimal separator and integer digit grouping.
///
/// ```
/// use fpp_core::{render_into, Notation, RenderOptions};
/// let opts = RenderOptions {
///     group_separator: Some('_'),
///     ..RenderOptions::default()
/// };
/// let mut out = Vec::new();
/// render_into(&mut out, &[1, 2, 3, 4, 5, 6, 7], 7, Notation::Positional, 10, &opts);
/// assert_eq!(out, b"1_234_567");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Exponent field style for scientific notation.
    pub exponent_style: ExponentStyle,
    /// Character between the integer and fraction parts (default `.`).
    pub decimal_separator: char,
    /// When set, integer digits are grouped in threes from the separator
    /// (`1_234_567`). Fraction digits are never grouped.
    pub group_separator: Option<char>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            exponent_style: ExponentStyle::Minimal,
            decimal_separator: '.',
            group_separator: None,
        }
    }
}

/// How the exponent field of scientific notation is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExponentStyle {
    /// `e5`, `e-5` — the shortest form (and `@` in bases above 14).
    #[default]
    Minimal,
    /// `E5`, `E-5` — uppercase marker.
    Uppercase,
    /// `e+05`, `e-05` — always signed, at least two digits, like C `printf`.
    PrintfSigned,
}

/// The exponent marker for a base: `e` where it cannot be confused with a
/// digit (bases 2–14), `@` elsewhere — the same convention the
/// `fpp-reader` grammar accepts.
#[must_use]
pub fn exponent_marker(base: u64) -> char {
    if base <= 14 {
        'e'
    } else {
        '@'
    }
}

/// Fixed-format digit data plus layout flags for [`render_fixed_into`]:
/// borrows the digit buffer so the zero-allocation pipeline can render
/// straight out of its workspace.
#[derive(Debug, Clone, Copy)]
pub struct FixedLayout<'a> {
    /// Base-`B` digit values (not ASCII), most significant first.
    pub digits: &'a [u8],
    /// Scale: the digits read `0.d₁d₂… × Bᵏ`.
    pub k: i32,
    /// Trailing positions whose digit is unknown (printed as `#` or `0`).
    pub insignificant: usize,
    /// The absolute position the output stops at (`B^position`).
    pub position: i32,
    /// `true` prints insignificant positions as `#` (the paper's §4 marks);
    /// `false` prints zeros, as conventional `printf`-style output does.
    pub hash_marks: bool,
}

impl FixedDigits {
    /// Borrows this result as a [`FixedLayout`] for sink-based rendering.
    #[must_use]
    pub fn layout(&self, hash_marks: bool) -> FixedLayout<'_> {
        FixedLayout {
            digits: &self.digits,
            k: self.k,
            insignificant: self.insignificant,
            position: self.position,
            hash_marks,
        }
    }
}

/// Renders free-format digits with the given notation (base-10 exponent
/// marker `e`; use [`render_in_base`] for other bases).
#[must_use]
pub fn render(digits: &Digits, notation: Notation) -> String {
    render_in_base(digits, notation, 10)
}

/// Renders free-format digits with the given notation, choosing the
/// exponent marker appropriate for `base`.
#[must_use]
pub fn render_in_base(digits: &Digits, notation: Notation, base: u64) -> String {
    let mut out = Vec::with_capacity(digits.digits.len() + 8);
    let opts = RenderOptions::default();
    render_into(&mut out, &digits.digits, digits.k, notation, base, &opts);
    String::from_utf8(out).expect("renderer emits UTF-8")
}

/// Renders free-format digit values (`0.d₁d₂… × Bᵏ`) into a sink.
pub fn render_into(
    sink: &mut impl DigitSink,
    digits: &[u8],
    k: i32,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    layout_into(sink, &Values(digits), k, 0, true, notation, base, opts);
}

/// Renders the decimal `f × 10^e` (`f > 0`, no trailing zeros): the
/// shortest tier's output, written as ASCII straight from the significand
/// two digits at a time.
pub(crate) fn render_decimal_into(
    sink: &mut impl DigitSink,
    f: u64,
    e: i32,
    notation: Notation,
    opts: &RenderOptions,
) {
    let mut buf = [0u8; 20];
    let start = write_u64(&mut buf, f);
    let ascii = &buf[start..];
    let k = e + ascii.len() as i32;
    layout_into(sink, &Ascii(ascii), k, 0, true, notation, 10, opts);
}

/// `"00" "01" … "99"`: two ASCII digits per table entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` right-aligned into `buf`, returning
/// the index of the first digit.
fn write_u64(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Renders fixed-format digits into a sink. The digit string always
/// extends exactly to `layout.position`, so trailing zeros are preserved
/// (`1.500`).
pub fn render_fixed_into(
    sink: &mut impl DigitSink,
    layout: &FixedLayout<'_>,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    if layout.digits.is_empty() && layout.insignificant == 0 {
        // The value rounded to zero at the requested precision. This form
        // deliberately uses the plain '.'/'0' characters irrespective of
        // `opts` — zero has no digits to separate or group.
        sink.push(b'0');
        if layout.position < 0 {
            sink.push(b'.');
            push_run(sink, &ZEROS, layout.position.unsigned_abs() as usize);
        }
        return;
    }
    layout_into(
        sink,
        &Values(layout.digits),
        layout.k,
        layout.insignificant,
        layout.hash_marks,
        notation,
        base,
        opts,
    );
}

/// A run of digit characters for the layout code: ASCII already, or digit
/// values mapped to characters on the way out.
trait DigitText {
    /// Number of digits.
    fn len(&self) -> usize;
    /// Pushes the characters of the digits at `range`.
    fn push_range(&self, sink: &mut impl DigitSink, range: Range<usize>);
}

/// Digits that are already ASCII.
struct Ascii<'a>(&'a [u8]);

impl DigitText for Ascii<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn push_range(&self, sink: &mut impl DigitSink, range: Range<usize>) {
        sink.push_slice(&self.0[range]);
    }
}

/// Digit values (`0..base`), mapped through [`DIGIT_CHARS`] a chunk at a
/// time.
struct Values<'a>(&'a [u8]);

impl DigitText for Values<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn push_range(&self, sink: &mut impl DigitSink, range: Range<usize>) {
        let mut buf = [0u8; 32];
        for chunk in self.0[range].chunks(buf.len()) {
            for (b, &d) in buf.iter_mut().zip(chunk) {
                *b = DIGIT_CHARS[d as usize];
            }
            sink.push_slice(&buf[..chunk.len()]);
        }
    }
}

const ZEROS: [u8; 32] = [b'0'; 32];
const HASHES: [u8; 32] = [b'#'; 32];

/// Pushes `count` copies of the run's byte.
fn push_run(sink: &mut impl DigitSink, run: &[u8; 32], mut count: usize) {
    while count > 0 {
        let n = count.min(run.len());
        sink.push_slice(&run[..n]);
        count -= n;
    }
}

/// Pushes output positions `range`: digits, then the insignificant tail
/// (`#`, or `0` without hash marks) up to `total`, then zero padding.
fn push_positions(
    sink: &mut impl DigitSink,
    digits: &impl DigitText,
    range: Range<usize>,
    total: usize,
    hash_marks: bool,
) {
    let n = digits.len();
    if range.start < n {
        digits.push_range(sink, range.start..range.end.min(n));
    }
    let tail = range.end.min(total).saturating_sub(range.start.max(n));
    push_run(sink, if hash_marks { &HASHES } else { &ZEROS }, tail);
    push_run(
        sink,
        &ZEROS,
        range.end.saturating_sub(range.start.max(total)),
    );
}

/// Pushes a separator character (one byte when ASCII).
fn push_char(sink: &mut impl DigitSink, c: char) {
    if c.is_ascii() {
        sink.push(c as u8);
    } else {
        let mut buf = [0u8; 4];
        sink.push_slice(c.encode_utf8(&mut buf).as_bytes());
    }
}

/// Pushes the exponent field (`e5`, `E-5`, `e+05`, …) for value `exp`.
fn push_exponent(sink: &mut impl DigitSink, marker: char, exp: i32, style: ExponentStyle) {
    let mut buf = [0u8; 20];
    let mut i = write_u64(&mut buf, u64::from(exp.unsigned_abs()));
    if style == ExponentStyle::PrintfSigned && buf.len() - i < 2 {
        i -= 1;
        buf[i] = b'0';
    }
    if exp < 0 {
        i -= 1;
        buf[i] = b'-';
    } else if style == ExponentStyle::PrintfSigned {
        i -= 1;
        buf[i] = b'+';
    }
    i -= 1;
    buf[i] = if style == ExponentStyle::Uppercase {
        marker.to_ascii_uppercase() as u8
    } else {
        marker as u8
    };
    sink.push_slice(&buf[i..]);
}

/// Lays out `0.d₁d₂… × Bᵏ` followed by `hashes` insignificant positions,
/// positionally or scientifically as `notation` picks for `k`.
#[allow(clippy::too_many_arguments)]
fn layout_into(
    sink: &mut impl DigitSink,
    digits: &impl DigitText,
    k: i32,
    hashes: usize,
    hash_marks: bool,
    notation: Notation,
    base: u64,
    opts: &RenderOptions,
) {
    if notation.is_positional(k) {
        positional_into(sink, digits, k, hashes, hash_marks, opts);
    } else {
        scientific_into(sink, digits, k, hashes, hash_marks, base, opts);
    }
}

/// Positional layout, with grouping and separator styling applied on the
/// fly.
fn positional_into(
    sink: &mut impl DigitSink,
    digits: &impl DigitText,
    k: i32,
    hashes: usize,
    hash_marks: bool,
    opts: &RenderOptions,
) {
    let total = digits.len() + hashes; // digit positions k-1 down to k-total
    if k <= 0 {
        // Integer part is the single digit 0 (never grouped).
        sink.push(b'0');
        push_char(sink, opts.decimal_separator);
        push_run(sink, &ZEROS, k.unsigned_abs() as usize);
        push_positions(sink, digits, 0..total, total, hash_marks);
        return;
    }
    // Integer part spans positions 0..k, padded with zeros past the
    // generated digits; grouping counts every integer position, padding
    // included.
    let int_len = k as usize;
    match opts.group_separator {
        None => push_positions(sink, digits, 0..int_len, total, hash_marks),
        Some(sep) => {
            let mut start = 0;
            let mut end = match int_len % 3 {
                0 => 3,
                r => r,
            };
            loop {
                push_positions(sink, digits, start..end, total, hash_marks);
                if end == int_len {
                    break;
                }
                push_char(sink, sep);
                start = end;
                end += 3;
            }
        }
    }
    if int_len < total {
        push_char(sink, opts.decimal_separator);
        push_positions(sink, digits, int_len..total, total, hash_marks);
    }
}

/// Scientific layout `d₁.d₂…e(k−1)`, with insignificant marks inside the
/// fraction when present.
fn scientific_into(
    sink: &mut impl DigitSink,
    digits: &impl DigitText,
    k: i32,
    hashes: usize,
    hash_marks: bool,
    base: u64,
    opts: &RenderOptions,
) {
    let total = digits.len() + hashes;
    push_positions(sink, digits, 0..1, total, hash_marks);
    if total > 1 {
        push_char(sink, opts.decimal_separator);
        push_positions(sink, digits, 1..total, total, hash_marks);
    }
    push_exponent(sink, exponent_marker(base), k - 1, opts.exponent_style);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free(digits: &[u8], k: i32) -> Digits {
        Digits {
            digits: digits.to_vec(),
            k,
        }
    }

    fn styled(d: &Digits, notation: Notation, base: u64, opts: &RenderOptions) -> String {
        let mut out = Vec::new();
        render_into(&mut out, &d.digits, d.k, notation, base, opts);
        String::from_utf8(out).expect("renderer emits UTF-8")
    }

    fn fixed(fd: &FixedDigits, notation: Notation) -> String {
        let mut out = Vec::new();
        let opts = RenderOptions::default();
        render_fixed_into(&mut out, &fd.layout(true), notation, 10, &opts);
        String::from_utf8(out).expect("renderer emits UTF-8")
    }

    #[test]
    fn positional_layouts() {
        assert_eq!(render(&free(&[3], 0), Notation::Positional), "0.3");
        assert_eq!(render(&free(&[1], 1), Notation::Positional), "1");
        assert_eq!(render(&free(&[1], 3), Notation::Positional), "100");
        assert_eq!(render(&free(&[1, 2, 3], 2), Notation::Positional), "12.3");
        assert_eq!(render(&free(&[7], -3), Notation::Positional), "0.0007");
        assert_eq!(render(&free(&[1, 2, 3], 3), Notation::Positional), "123");
    }

    #[test]
    fn scientific_layouts() {
        assert_eq!(render(&free(&[1], 24), Notation::Scientific), "1e23");
        assert_eq!(render(&free(&[1, 5], 1), Notation::Scientific), "1.5e0");
        assert_eq!(render(&free(&[5], -323), Notation::Scientific), "5e-324");
    }

    #[test]
    fn auto_window() {
        let auto = Notation::default();
        assert_eq!(render(&free(&[3], 0), auto), "0.3");
        assert_eq!(render(&free(&[1], 24), auto), "1e23");
        assert_eq!(
            render(&free(&[1], 21), auto),
            "1".to_string() + &"0".repeat(20)
        );
        assert_eq!(render(&free(&[1], 22), auto), "1e21");
        assert_eq!(render(&free(&[7], -6), auto), "7e-7");
        assert_eq!(render(&free(&[7], -5), auto), "0.000007");
    }

    #[test]
    fn digits_above_nine_use_letters() {
        assert_eq!(render(&free(&[15, 15], 2), Notation::Positional), "ff");
        assert_eq!(render(&free(&[35, 0, 1], 1), Notation::Positional), "z.01");
    }

    #[test]
    fn fixed_with_hash_marks() {
        let fd = FixedDigits {
            digits: vec![1, 0, 0],
            k: 3,
            insignificant: 2,
            position: -2,
        };
        assert_eq!(fixed(&fd, Notation::Positional), "100.##");
        let fd = FixedDigits {
            digits: vec![3, 3, 3],
            k: 0,
            insignificant: 3,
            position: -6,
        };
        assert_eq!(fixed(&fd, Notation::Positional), "0.333###");
        assert_eq!(fixed(&fd, Notation::Scientific), "3.33###e-1");
        // hash_marks = false prints the insignificant tail as zeros.
        let mut out = Vec::new();
        render_fixed_into(
            &mut out,
            &fd.layout(false),
            Notation::Positional,
            10,
            &RenderOptions::default(),
        );
        assert_eq!(out, b"0.333000");
    }

    #[test]
    fn styled_rendering() {
        let opts = RenderOptions {
            exponent_style: ExponentStyle::PrintfSigned,
            decimal_separator: ',',
            group_separator: Some('\u{202f}'), // narrow no-break space
        };
        let d = free(&[1, 2, 3, 4, 5, 6], 5);
        assert_eq!(
            styled(&d, Notation::Positional, 10, &opts),
            "12\u{202f}345,6"
        );
        assert_eq!(styled(&d, Notation::Scientific, 10, &opts), "1,23456e+04");
        let tiny = free(&[5], -323);
        assert_eq!(styled(&tiny, Notation::Scientific, 10, &opts), "5e-324");
        let upper = RenderOptions {
            exponent_style: ExponentStyle::Uppercase,
            ..RenderOptions::default()
        };
        assert_eq!(
            styled(&free(&[7], 10), Notation::Scientific, 10, &upper),
            "7E9"
        );
        // grouping only touches the integer part and leaves short ones alone
        let grouped = RenderOptions {
            group_separator: Some('_'),
            ..RenderOptions::default()
        };
        assert_eq!(
            styled(&free(&[1, 2, 3], 3), Notation::Positional, 10, &grouped),
            "123"
        );
        assert_eq!(
            styled(&free(&[1, 2, 3, 4], 4), Notation::Positional, 10, &grouped),
            "1_234"
        );
    }

    #[test]
    fn fixed_zero_output() {
        let fd = FixedDigits {
            digits: vec![],
            k: 0,
            insignificant: 0,
            position: 0,
        };
        assert_eq!(fixed(&fd, Notation::Positional), "0");
        let fd = FixedDigits {
            digits: vec![],
            k: 0,
            insignificant: 0,
            position: -3,
        };
        assert_eq!(fixed(&fd, Notation::Positional), "0.000");
    }

    #[test]
    fn two_digit_writer_matches_std() {
        let mut buf = [0u8; 20];
        for n in [0, 7, 9, 10, 99, 100, 101, 12_345, 10u64.pow(17), u64::MAX] {
            let start = write_u64(&mut buf, n);
            assert_eq!(&buf[start..], n.to_string().as_bytes());
        }
        let mut out = Vec::new();
        render_decimal_into(
            &mut out,
            15,
            -1,
            Notation::default(),
            &RenderOptions::default(),
        );
        assert_eq!(out, b"1.5");
    }

    #[test]
    fn exponent_padding_widths() {
        let opts = RenderOptions {
            exponent_style: ExponentStyle::PrintfSigned,
            ..RenderOptions::default()
        };
        assert_eq!(
            styled(&free(&[1], 1), Notation::Scientific, 10, &opts),
            "1e+00"
        );
        assert_eq!(
            styled(&free(&[1], 124), Notation::Scientific, 10, &opts),
            "1e+123"
        );
        assert_eq!(
            styled(&free(&[1], -8), Notation::Scientific, 10, &opts),
            "1e-09"
        );
    }
}
