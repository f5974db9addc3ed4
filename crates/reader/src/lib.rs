//! Accurate (correctly rounded) decimal→binary floating-point reading, in
//! the style of Clinger's *How to Read Floating-Point Numbers Accurately*
//! (PLDI 1990) — reference \[1\] of the Burger–Dybvig printing paper.
//!
//! Free-format printing is only meaningful relative to an *accurate input
//! routine*: the printed string must convert back to exactly the original
//! float. This crate provides that routine, for any input base 2–36, any
//! supported rounding mode, and both hardware formats, so the printer's
//! round-trip guarantee can be verified entirely in-repo (`str::parse::<f64>`
//! only covers base 10 with round-to-nearest-even).
//!
//! The implementation is the exact big-integer path: form the literal as a
//! ratio `D × Bᵠ` of big naturals, locate the unique representable mantissa
//! by scaled division, and round with an exact remainder comparison. A fast
//! path (Gay's observation, cited in §5 of the printing paper) handles the
//! common short-literal cases with two exact floating-point operations.
//!
//! # Examples
//!
//! ```
//! use fpp_reader::read_f64;
//!
//! assert_eq!(read_f64("0.3").unwrap(), 0.3);
//! assert_eq!(read_f64("1e23").unwrap(), 1e23);
//! assert_eq!(read_f64("-2.5e-3").unwrap(), -0.0025);
//! assert!(read_f64("1e9999").unwrap().is_infinite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod convert;
mod fast;
mod lemire;
mod parse;
mod scan;
mod soft;

pub use batch::{BatchParseError, BatchParseOptions, BatchParser};
pub use convert::{decimal_to_float, decimal_to_float_exact, DecimalParts};
pub use fast::fast_path;
pub use lemire::{eisel_lemire_f32, eisel_lemire_f64};
pub use parse::{parse_hex_literal, parse_literal, Literal, ParseFloatError};
pub use soft::{read_soft, SoftFormat, SoftReadResult};

use fpp_float::{FloatFormat, RoundingMode};

/// Reads an `f64` from a base-10 literal with IEEE round-to-nearest-even.
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
///
/// ```
/// assert_eq!(fpp_reader::read_f64("6.02214076e23").unwrap(), 6.02214076e23);
/// ```
pub fn read_f64(s: &str) -> Result<f64, ParseFloatError> {
    read_f64_fast(s).map_or_else(|| read_general(s), Ok)
}

/// Reads an `f32` from a base-10 literal with IEEE round-to-nearest-even.
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
pub fn read_f32(s: &str) -> Result<f32, ParseFloatError> {
    read_f32_fast(s).map_or_else(|| read_general(s), Ok)
}

/// Reads a float in any base 2–36 under any rounding mode.
///
/// [`RoundingMode::Conservative`] is a printer-side assumption, not a real
/// reader behaviour; it is treated as [`RoundingMode::NearestEven`] (the
/// IEEE default every conservative printer must tolerate).
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
///
/// # Panics
///
/// Panics if `base` is outside `2..=36`.
///
/// ```
/// use fpp_float::RoundingMode;
/// use fpp_reader::read_float;
///
/// let v: f64 = read_float("0.1", 2, RoundingMode::NearestEven).unwrap();
/// assert_eq!(v, 0.5);
/// ```
pub fn read_float<F: FloatFormat>(
    s: &str,
    base: u64,
    rounding: RoundingMode,
) -> Result<F, ParseFloatError> {
    assert!((2..=36).contains(&base), "input base must be in 2..=36");
    // The common case — a plain base-10 literal under the IEEE default
    // rounding — goes through the u64 scanner and the fast tiers (Clinger,
    // Eisel–Lemire) without ever touching big-integer accumulation. Any
    // rejection at any stage falls through to the general parse below; the
    // scanner accepts a strict subset of `parse_literal`'s grammar, so no
    // input changes between Ok and Err by taking this route.
    if base == 10 && matches!(rounding, RoundingMode::NearestEven) {
        if let Some(v) =
            scan::scan_decimal(s.as_bytes()).and_then(|sc| convert::scanned_to_float::<F>(&sc))
        {
            return Ok(v);
        }
    }
    let literal = parse_literal(s, base)?;
    Ok(decimal_to_float::<F>(&literal, base, rounding))
}

/// The general base-10, round-to-nearest-even route for literals the fast
/// tiers decline (special words, `#` marks, tier rejections) and the one
/// that reports malformed input: parse into big-integer form, then convert.
pub(crate) fn read_general<F: FloatFormat>(s: &str) -> Result<F, ParseFloatError> {
    let literal = parse_literal(s, 10)?;
    Ok(decimal_to_float::<F>(
        &literal,
        10,
        RoundingMode::NearestEven,
    ))
}

/// Reads an `f64` through the fast tiers **only** (scan → Clinger →
/// Eisel–Lemire), never allocating and never running big-integer
/// arithmetic. Returns `None` when the literal is outside the fast grammar
/// or no tier can certify the rounding — exactly the cases
/// [`read_f64`] hands to the exact fallback. Intended for acceptance-rate
/// audits and benches; `Some` results are bit-identical to [`read_f64`].
#[must_use]
pub fn read_f64_fast(s: &str) -> Option<f64> {
    read_f64_fast_bytes(s.as_bytes())
}

/// [`read_f64_fast`] over raw bytes: the scanner accepts only ASCII, so
/// callers holding unchecked bytes need no UTF-8 validation for a `Some`.
pub(crate) fn read_f64_fast_bytes(bytes: &[u8]) -> Option<f64> {
    convert::scanned_to_f64(&scan::scan_decimal(bytes)?)
}

/// `f32` counterpart of [`read_f64_fast`].
#[must_use]
pub fn read_f32_fast(s: &str) -> Option<f32> {
    convert::scanned_to_f32(&scan::scan_decimal(s.as_bytes())?)
}

/// Reads an `f64` through the exact big-integer path **only**, skipping
/// every fast tier — the oracle the differential suites and the
/// `roundtrip` bench baseline compare against. Bit-identical to
/// [`read_f64`] on every input, by construction.
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
pub fn read_f64_exact(s: &str) -> Result<f64, ParseFloatError> {
    let literal = parse_literal(s, 10)?;
    Ok(decimal_to_float_exact::<f64>(
        &literal,
        10,
        RoundingMode::NearestEven,
    ))
}

/// `f32` counterpart of [`read_f64_exact`].
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
pub fn read_f32_exact(s: &str) -> Result<f32, ParseFloatError> {
    let literal = parse_literal(s, 10)?;
    Ok(decimal_to_float_exact::<f32>(
        &literal,
        10,
        RoundingMode::NearestEven,
    ))
}

/// Reads a C99 hexadecimal float literal (`0x1.8p+1`) into any hardware
/// format, correctly rounded.
///
/// # Errors
///
/// Returns [`ParseFloatError`] on a malformed literal.
///
/// ```
/// assert_eq!(fpp_reader::read_hex::<f64>("0x1.8p+1").unwrap(), 3.0);
/// assert_eq!(fpp_reader::read_hex::<f64>("0x0.0000000000001p-1022").unwrap(), 5e-324);
/// ```
pub fn read_hex<F: FloatFormat>(s: &str) -> Result<F, ParseFloatError> {
    let literal = parse_hex_literal(s)?;
    Ok(decimal_to_float::<F>(
        &literal,
        2,
        RoundingMode::NearestEven,
    ))
}
