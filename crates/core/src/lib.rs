//! The Burger–Dybvig floating-point printing algorithm (PLDI 1996).
//!
//! This crate implements *Printing Floating-Point Numbers Quickly and
//! Accurately* in full: free-format output (the shortest, correctly rounded
//! string that reads back as the same float, §2–§3), fixed-format output
//! with `#` marks for insignificant digits (§4), input-rounding-mode
//! awareness (§3.1), and the fast scaling estimator with its penalty-free
//! fixup (§3.2) alongside the baseline scaling strategies of Table 2.
//!
//! # Quick start
//!
//! ```
//! use fpp_core::{print_shortest, FixedFormat, FreeFormat};
//!
//! // Shortest round-tripping output:
//! assert_eq!(print_shortest(0.3), "0.3");
//! assert_eq!(print_shortest(1e23), "1e23");
//! assert_eq!(print_shortest(f64::MAX), "1.7976931348623157e308");
//!
//! // Fixed format to 20 fractional places: the float 1/3 runs out of
//! // precision and the tail is marked, never fabricated:
//! let s = FixedFormat::new().fraction_digits(20).format(1.0 / 3.0);
//! assert_eq!(s, "0.33333333333333330###");
//!
//! // Other bases, rounding modes and notations via the builders:
//! use fpp_core::Notation;
//! use fpp_float::RoundingMode;
//! let hex = FreeFormat::new().base(16).notation(Notation::Positional);
//! assert_eq!(hex.format(255.0), "ff");
//! let wary = FreeFormat::new().rounding(RoundingMode::Conservative);
//! assert_eq!(wary.format(1e23), "9.999999999999999e22");
//! ```
//!
//! # Architecture
//!
//! * [`initial_state`] — Table 1: the value and its rounding range as
//!   big-integer ratios.
//! * [`ScalingStrategy`] — §3.2: find the scaling factor `k`
//!   ([`ScalingStrategy::Estimate`] is the paper's contribution;
//!   `Iterative`, `Log` and `Gay` are the comparison points of Table 2).
//! * [`free_format_digits`] / [`fixed_format_digits_absolute`] /
//!   [`fixed_format_digits_relative`] — the digit-generation engines
//!   (explicit [`fpp_bignum::PowerTable`] for amortised reuse).
//! * [`free_digits_exact`] — §2.2's rational-arithmetic reference oracle.
//! * [`render`] / [`render_fixed_into`] / [`Notation`] — digit-to-text layout;
//!   [`render_into`] / [`render_fixed_into`] emit through a sink.
//! * [`DtoaContext`] / [`DigitSink`] — the zero-allocation layer: a
//!   reusable context (power table, Table 1 registers, digit buffer,
//!   scratch pool) and an output-sink trait ([`SliceSink`] for stack
//!   buffers, `Vec<u8>`, [`FmtSink`] for `fmt::Write`). One warm-up
//!   conversion grows every buffer to its high-water mark; after that
//!   [`write_shortest`] / [`write_fixed`] and the builders' `write_to`
//!   allocate nothing (see the root crate's `tests/alloc_count.rs`).
//! * [`FreeFormat`] / [`FixedFormat`] — high-level builders over the above
//!   (sign/zero/NaN handling); their `String` conveniences borrow a
//!   thread-local [`DtoaContext`] via [`with_thread_context`].
//! * The `u64` tiers the builders run in front of the exact engines, with
//!   the exact engines' bytes: the shortest tier answers every base-10
//!   nearest-mode free-format value, and the fixed tier answers base-10
//!   fixed format at the float's own precision, such as Table 3's 17
//!   significant digits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod exact;
pub mod figures;
mod fixed;
mod fixed_tier;
mod free;
mod generate;
mod notation;
mod scale;
mod shortest;
mod sink;
mod stream;

pub use ctx::DtoaContext;
pub use exact::{fixed_digits_exact, free_digits_exact};
pub use fixed::{
    fixed_format_digits_absolute, fixed_format_digits_relative, FixedDigits, FixedPrecision,
};
pub use free::free_format_digits;
pub use generate::{Digits, Inclusivity, TieBreak};
pub use notation::{
    exponent_marker, render, render_fixed_into, render_in_base, render_into, ExponentStyle,
    FixedLayout, Notation, RenderOptions,
};
pub use scale::{estimate_k, initial_state, InitialState, ScaledState, ScalingStrategy};
pub use sink::{DigitSink, FmtSink, IoSink, SliceSink};
pub use stream::DigitStream;

use fpp_bignum::PowerTable;
use fpp_float::{Decoded, FloatFormat, RoundingMode, SoftFloat};
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// Per-thread conversion contexts, one per output base — memoised
    /// powers (the paper's persistent `10^k` table, Figure 2) plus the
    /// recycled big-integer and digit buffers of the pipeline.
    static CONTEXTS: RefCell<HashMap<u64, DtoaContext>> = RefCell::new(HashMap::new());
}

/// Runs `f` with this thread's cached [`DtoaContext`] for `base`. The
/// `String`-returning conveniences all route through this cache, so repeated
/// calls on a thread reuse one warm context and settle into zero
/// steady-state allocation (beyond the `String`s themselves).
pub fn with_thread_context<R>(base: u64, f: impl FnOnce(&mut DtoaContext) -> R) -> R {
    CONTEXTS.with(|contexts| {
        let mut contexts = contexts.borrow_mut();
        let ctx = contexts
            .entry(base)
            .or_insert_with(|| DtoaContext::new(base));
        f(ctx)
    })
}

/// Runs `f` with this thread's cached [`PowerTable`] for `base` — the
/// memoised `Bᵏ` table shared by all conversions on the thread (the paper's
/// Figure 2 persistent `10ᵏ` table). Exposed so downstream layers (e.g. the
/// facade's printf module) can amortise powers the same way the built-in
/// formatters do. The table is the one inside the thread's [`DtoaContext`]
/// for that base.
pub fn with_thread_powers<R>(base: u64, f: impl FnOnce(&mut PowerTable) -> R) -> R {
    with_thread_context(base, |ctx| f(ctx.powers()))
}

/// Writes the shortest round-tripping base-`B` form of `v` into `sink`
/// using `ctx`'s base and recycled buffers — the zero-allocation
/// counterpart of [`print_shortest`] (identical bytes).
///
/// ```
/// use fpp_core::{write_shortest, DtoaContext, SliceSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut buf = [0u8; 32];
/// let mut sink = SliceSink::new(&mut buf);
/// write_shortest(&mut ctx, &mut sink, 1e23);
/// assert_eq!(sink.as_str(), "1e23");
/// ```
pub fn write_shortest(ctx: &mut DtoaContext, sink: &mut impl DigitSink, v: f64) {
    FreeFormat::new().base(ctx.base()).write_to(ctx, sink, v);
}

/// Writes the shortest round-tripping base-`B` form of an `f32` into `sink`
/// using `ctx`'s base and recycled buffers, with `f32` boundaries (`0.1f32`
/// prints as `0.1`). The `f32` counterpart of [`write_shortest`], provided
/// so bulk engines can drive both widths through one borrowed context.
///
/// ```
/// use fpp_core::{write_shortest_f32, DtoaContext, SliceSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut buf = [0u8; 32];
/// let mut sink = SliceSink::new(&mut buf);
/// write_shortest_f32(&mut ctx, &mut sink, 0.1f32);
/// assert_eq!(sink.as_str(), "0.1");
/// ```
pub fn write_shortest_f32(ctx: &mut DtoaContext, sink: &mut impl DigitSink, v: f32) {
    FreeFormat::new().base(ctx.base()).write_to(ctx, sink, v);
}

/// Writes `v` with exactly `fraction_digits` fractional places (correctly
/// rounded, `#` marks where the float's precision runs out) into `sink` —
/// the zero-allocation counterpart of
/// [`FixedFormat::fraction_digits`]`.format(v)` (identical bytes).
///
/// ```
/// use fpp_core::{write_fixed, DtoaContext, SliceSink};
/// let mut ctx = DtoaContext::new(10);
/// let mut buf = [0u8; 32];
/// let mut sink = SliceSink::new(&mut buf);
/// write_fixed(&mut ctx, &mut sink, 2.5, 2);
/// assert_eq!(sink.as_str(), "2.50");
/// ```
pub fn write_fixed(ctx: &mut DtoaContext, sink: &mut impl DigitSink, v: f64, fraction_digits: u32) {
    FixedFormat::new()
        .base(ctx.base())
        .fraction_digits(fraction_digits)
        .write_to(ctx, sink, v);
}

/// A finite value's `(negative, mantissa, exponent)`, or the text of a
/// value the digit pipeline never sees.
fn finite_or_text(decoded: Decoded) -> Result<(bool, u64, i32), &'static str> {
    match decoded {
        Decoded::Nan => Err("NaN"),
        Decoded::Infinite { negative: false } => Err("inf"),
        Decoded::Infinite { negative: true } => Err("-inf"),
        Decoded::Zero { negative: false } => Err("0"),
        Decoded::Zero { negative: true } => Err("-0"),
        Decoded::Finite {
            negative,
            mantissa,
            exponent,
        } => Ok((negative, mantissa, exponent)),
    }
}

/// Prints an `f64` in free format: the shortest base-10 string that reads
/// back as exactly the same value under IEEE round-to-nearest-even input.
///
/// Equivalent to `FreeFormat::new().format(v)`.
///
/// ```
/// assert_eq!(fpp_core::print_shortest(0.1), "0.1");
/// assert_eq!(fpp_core::print_shortest(-1.5), "-1.5");
/// assert_eq!(fpp_core::print_shortest(f64::NAN), "NaN");
/// ```
#[must_use]
pub fn print_shortest(v: f64) -> String {
    FreeFormat::new().format(v)
}

/// Prints an `f64` in free format in an arbitrary output base (2–36).
///
/// ```
/// assert_eq!(fpp_core::print_shortest_base(0.5, 2), "0.1");
/// ```
///
/// # Panics
///
/// Panics if `base` is outside `2..=36`.
#[must_use]
pub fn print_shortest_base(v: f64, base: u64) -> String {
    FreeFormat::new().base(base).format(v)
}

/// Builder for free-format (shortest round-tripping) printing.
///
/// The default prints base-10, assumes an IEEE round-to-nearest-even reader,
/// breaks printer ties upward, and chooses positional or scientific notation
/// automatically.
///
/// ```
/// use fpp_core::{FreeFormat, Notation, TieBreak};
/// use fpp_float::RoundingMode;
///
/// let fmt = FreeFormat::new()
///     .base(10)
///     .rounding(RoundingMode::NearestEven)
///     .tie_break(TieBreak::Even)
///     .notation(Notation::Scientific);
/// assert_eq!(fmt.format(1234.0), "1.234e3");
/// ```
#[derive(Debug, Clone)]
pub struct FreeFormat {
    base: u64,
    strategy: ScalingStrategy,
    rounding: RoundingMode,
    tie: TieBreak,
    notation: Notation,
    style: RenderOptions,
    fast_path: bool,
}

impl Default for FreeFormat {
    fn default() -> Self {
        FreeFormat::new()
    }
}

impl FreeFormat {
    /// Creates the default free-format printer (see type docs).
    #[must_use]
    pub fn new() -> Self {
        FreeFormat {
            base: 10,
            strategy: ScalingStrategy::Estimate,
            rounding: RoundingMode::NearestEven,
            tie: TieBreak::Up,
            notation: Notation::default(),
            style: RenderOptions::default(),
            fast_path: true,
        }
    }

    /// Enables or disables the shortest tier (enabled by default). The
    /// tier computes exactly the exact engine's digits, so disabling it
    /// changes nothing but speed: `fast_path(false)` runs the Burger–Dybvig
    /// engine alone, for benchmarking it and as the oracle of the parity
    /// tests.
    #[must_use]
    pub fn fast_path(mut self, enabled: bool) -> Self {
        self.fast_path = enabled;
        self
    }

    /// Sets cosmetic rendering options (exponent style, separators,
    /// grouping).
    ///
    /// ```
    /// use fpp_core::{ExponentStyle, FreeFormat, RenderOptions};
    /// let fmt = FreeFormat::new().style(RenderOptions {
    ///     exponent_style: ExponentStyle::PrintfSigned,
    ///     ..RenderOptions::default()
    /// });
    /// assert_eq!(fmt.format(1e23), "1e+23");
    /// ```
    #[must_use]
    pub fn style(mut self, style: RenderOptions) -> Self {
        self.style = style;
        self
    }

    /// Sets the output base (2–36).
    ///
    /// # Panics
    ///
    /// Panics if `base` is outside `2..=36`.
    #[must_use]
    pub fn base(mut self, base: u64) -> Self {
        assert!((2..=36).contains(&base), "output base must be in 2..=36");
        self.base = base;
        self
    }

    /// Sets the scaling strategy (the default, [`ScalingStrategy::Estimate`],
    /// is the paper's fast estimator; the others exist for benchmarking).
    #[must_use]
    pub fn strategy(mut self, strategy: ScalingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the rounding mode the eventual *reader* is assumed to use.
    #[must_use]
    pub fn rounding(mut self, rounding: RoundingMode) -> Self {
        self.rounding = rounding;
        self
    }

    /// Sets the printer's tie-breaking rule for an equidistant final digit.
    #[must_use]
    pub fn tie_break(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// Sets the text layout.
    #[must_use]
    pub fn notation(mut self, notation: Notation) -> Self {
        self.notation = notation;
        self
    }

    /// Produces the digit data for a positive value (no sign or layout
    /// applied).
    #[must_use]
    pub fn digits(&self, v: &SoftFloat) -> Digits {
        with_thread_powers(self.base, |powers| {
            free_format_digits(v, self.strategy, self.rounding, self.tie, powers)
        })
    }

    /// Whether the shortest tier serves this configuration for format `F`
    /// (base 10, the paper's estimate scaler, a format within the `f64`
    /// range), rounding mode aside: that check is
    /// [`free::nearest_inclusivity`], since directed modes reshape the
    /// rounding interval itself and stay on the exact engine.
    fn tier_eligible<F: FloatFormat>(&self) -> bool {
        self.fast_path
            && self.base == 10
            && self.strategy == ScalingStrategy::Estimate
            && shortest::covers::<F>()
    }

    /// Writes `v` through the shortest tier: returns `true` with the full
    /// formatted value (sign, digits, layout) in `sink`, or `false` with
    /// `sink` untouched when the configuration is not one the tier serves
    /// (see [`FreeFormat::write_to`] for the exact engine). For an eligible
    /// configuration — base 10, [`ScalingStrategy::Estimate`], a
    /// nearest-family [`RoundingMode`], `f64` or a narrower format — it
    /// answers every value, with the exact engine's bytes. Specials (`NaN`,
    /// infinities, zeros) are always written directly.
    ///
    /// [`FreeFormat::write_to`] already calls this internally; it is public
    /// so benchmarks can time the tier on its own. A `ctx` of another base
    /// switches to this builder's base.
    pub fn try_write_fast<F: FloatFormat>(
        &self,
        ctx: &mut DtoaContext,
        sink: &mut impl DigitSink,
        v: F,
    ) -> bool {
        ctx.set_base(self.base);
        match finite_or_text(v.decode()) {
            Ok((negative, mantissa, exponent)) => {
                self.write_shortest_tier::<F>(sink, negative, mantissa, exponent)
            }
            Err(text) => {
                sink.push_slice(text.as_bytes());
                true
            }
        }
    }

    /// The shortest tier's half of [`FreeFormat::try_write_fast`], for a
    /// finite value.
    fn write_shortest_tier<F: FloatFormat>(
        &self,
        sink: &mut impl DigitSink,
        negative: bool,
        mantissa: u64,
        exponent: i32,
    ) -> bool {
        if !self.tier_eligible::<F>() {
            return false;
        }
        let Some(inc) = free::nearest_inclusivity(self.rounding, mantissa.is_multiple_of(2)) else {
            return false;
        };
        let narrow = shortest::narrow::<F>(mantissa, exponent);
        let (f, e) = shortest::shortest(mantissa, exponent, narrow, inc, self.tie);
        fpp_telemetry::record_fastpath(true);
        notation::render_decimal_into(sink, negative, f, e, self.notation, &self.style);
        true
    }

    /// Writes the formatted value into `sink`, reusing `ctx`'s buffers —
    /// byte-identical to [`FreeFormat::format_float`], without allocating
    /// once the context is warm. Eligible configurations go through the
    /// shortest tier (unless disabled via [`FreeFormat::fast_path`]); every
    /// other one runs the exact Burger–Dybvig engine. A `ctx` of another
    /// base switches to this builder's base, rebuilding its power table.
    pub fn write_to<F: FloatFormat>(&self, ctx: &mut DtoaContext, sink: &mut impl DigitSink, v: F) {
        ctx.set_base(self.base);
        let (negative, mantissa, exponent) = match finite_or_text(v.decode()) {
            Ok(parts) => parts,
            Err(text) => {
                sink.push_slice(text.as_bytes());
                return;
            }
        };
        if self.write_shortest_tier::<F>(sink, negative, mantissa, exponent) {
            return;
        }
        fpp_telemetry::record_fastpath(false);
        if negative {
            sink.push(b'-');
        }
        ctx.value
            .assign_binary_parts(mantissa, exponent, F::PRECISION, F::MIN_EXP);
        let k = free::free_format_into(
            &ctx.value,
            self.strategy,
            self.rounding,
            self.tie,
            &mut ctx.powers,
            &mut ctx.ws,
        );
        render_into(
            sink,
            &ctx.ws.digits,
            k,
            self.notation,
            self.base,
            &self.style,
        );
    }

    /// Formats any float implementing [`FloatFormat`] (`f32`, `f64`),
    /// including signs, zeros, infinities and NaN.
    #[must_use]
    pub fn format_float<F: FloatFormat>(&self, v: F) -> String {
        with_thread_context(self.base, |ctx| {
            let mut out = Vec::with_capacity(24);
            self.write_to(ctx, &mut out, v);
            String::from_utf8(out).expect("formatter emits UTF-8")
        })
    }

    /// Formats an `f64`.
    #[must_use]
    pub fn format(&self, v: f64) -> String {
        self.format_float(v)
    }

    /// Formats an `f32` (with `f32` boundaries: `0.1f32` prints as `0.1`,
    /// not as the 17-digit expansion of its exact value).
    #[must_use]
    pub fn format_f32(&self, v: f32) -> String {
        self.format_float(v)
    }
}

/// Builder for fixed-format printing with `#` marks.
///
/// The default prints base-10 with 17 significant digits (the minimum that
/// distinguishes all IEEE doubles, used by the paper's Table 3), positional
/// or scientific notation chosen automatically, and `#` marks enabled.
///
/// ```
/// use fpp_core::FixedFormat;
///
/// let f = FixedFormat::new().significant_digits(3);
/// assert_eq!(f.format(123.456), "123");
/// assert_eq!(f.format(0.000987654), "0.000988");
/// assert_eq!(f.format(-2.5), "-2.50"); // exact: trailing zero significant
/// ```
#[derive(Debug, Clone)]
pub struct FixedFormat {
    base: u64,
    strategy: ScalingStrategy,
    precision: FixedPrecision,
    tie: TieBreak,
    notation: Notation,
    hash_marks: bool,
    style: RenderOptions,
}

impl Default for FixedFormat {
    fn default() -> Self {
        FixedFormat::new()
    }
}

impl FixedFormat {
    /// Creates the default fixed-format printer (see type docs).
    #[must_use]
    pub fn new() -> Self {
        FixedFormat {
            base: 10,
            strategy: ScalingStrategy::Estimate,
            precision: FixedPrecision::SignificantDigits(17),
            tie: TieBreak::Up,
            notation: Notation::default(),
            hash_marks: true,
            style: RenderOptions::default(),
        }
    }

    /// Sets cosmetic rendering options (exponent style, separators,
    /// grouping).
    #[must_use]
    pub fn style(mut self, style: RenderOptions) -> Self {
        self.style = style;
        self
    }

    /// Sets the output base (2–36).
    ///
    /// # Panics
    ///
    /// Panics if `base` is outside `2..=36`.
    #[must_use]
    pub fn base(mut self, base: u64) -> Self {
        assert!((2..=36).contains(&base), "output base must be in 2..=36");
        self.base = base;
        self
    }

    /// Sets the scaling strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: ScalingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Requests `count` significant digits (relative mode, §4).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`. Formatting panics if `count > 2²⁴`, the
    /// bound that keeps one conversion's work and memory bounded (see
    /// [`FixedFormat::absolute_position`]).
    #[must_use]
    pub fn significant_digits(mut self, count: u32) -> Self {
        assert!(count >= 1, "significant digit count must be >= 1");
        self.precision = FixedPrecision::SignificantDigits(count);
        self
    }

    /// Requests digits down to `count` fractional places (absolute position
    /// `-count`), like `printf("%.*f", count, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `count > 2²⁴`, the bound of
    /// [`FixedFormat::absolute_position`].
    #[must_use]
    pub fn fraction_digits(mut self, count: u32) -> Self {
        assert!(
            count <= fixed::MAX_DIGITS,
            "fraction digit count above 2^24"
        );
        self.precision = FixedPrecision::AbsolutePosition(-(count as i32));
        self
    }

    /// Stops output at the digit of weight `base^position` (absolute mode,
    /// §4).
    ///
    /// # Panics
    ///
    /// Panics if `|position| > 2²⁴`. The bound keeps one conversion's work
    /// and memory bounded: position `±n` costs a power of the base with
    /// `n · log₂ B` bits, and position `-n` a text of `n` digits.
    #[must_use]
    pub fn absolute_position(mut self, position: i32) -> Self {
        assert!(
            position.unsigned_abs() <= fixed::MAX_DIGITS,
            "absolute position beyond ±2^24"
        );
        self.precision = FixedPrecision::AbsolutePosition(position);
        self
    }

    /// Sets the tie-breaking rule for a value exactly halfway between two
    /// representable outputs.
    #[must_use]
    pub fn tie_break(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// Sets the text layout.
    #[must_use]
    pub fn notation(mut self, notation: Notation) -> Self {
        self.notation = notation;
        self
    }

    /// Enables or disables `#` marks; when disabled, insignificant
    /// positions are printed as zeros (the conventional choice of `printf`).
    #[must_use]
    pub fn hash_marks(mut self, enabled: bool) -> Self {
        self.hash_marks = enabled;
        self
    }

    /// Produces the digit data for a positive value (no sign or layout
    /// applied).
    #[must_use]
    pub fn digits(&self, v: &SoftFloat) -> FixedDigits {
        with_thread_powers(self.base, |powers| match self.precision {
            FixedPrecision::AbsolutePosition(j) => {
                fixed_format_digits_absolute(v, j, self.strategy, self.tie, powers)
            }
            FixedPrecision::SignificantDigits(i) => {
                fixed_format_digits_relative(v, i, self.strategy, self.tie, powers)
            }
        })
    }

    /// Writes the formatted value into `sink`, reusing `ctx`'s buffers —
    /// byte-identical to [`FixedFormat::format_float`], without allocating
    /// once the context is warm.
    ///
    /// Base 10 with [`ScalingStrategy::Estimate`], on `f64` or a narrower
    /// format, first tries the fixed tier: `u64` arithmetic that answers
    /// §4 exactly when the final position is at the float's own precision,
    /// as it is for every normal `f64` at the default 17 significant
    /// digits. Every other request runs the exact Burger–Dybvig engine,
    /// with the same bytes.
    ///
    /// A `ctx` of another base switches to this builder's base, rebuilding
    /// its power table.
    ///
    /// # Panics
    ///
    /// Panics on the precision bounds documented on the builder methods.
    pub fn write_to<F: FloatFormat>(&self, ctx: &mut DtoaContext, sink: &mut impl DigitSink, v: F) {
        ctx.set_base(self.base);
        let (negative, mantissa, exponent) = match finite_or_text(v.decode()) {
            Ok(parts) => parts,
            Err(text) => {
                sink.push_slice(text.as_bytes());
                return;
            }
        };
        if negative {
            sink.push(b'-');
        }
        let tier = if self.base == 10
            && self.strategy == ScalingStrategy::Estimate
            && shortest::covers::<F>()
        {
            fixed_tier::fixed(
                mantissa,
                exponent,
                shortest::narrow::<F>(mantissa, exponent),
                self.precision,
                self.tie,
                &mut ctx.ws.digits,
            )
        } else {
            None
        };
        fpp_telemetry::record_fixed_tier(tier.is_some());
        let meta = tier.unwrap_or_else(|| self.exact_meta::<F>(ctx, mantissa, exponent));
        let layout = FixedLayout {
            digits: &ctx.ws.digits,
            k: meta.k,
            insignificant: meta.insignificant,
            position: meta.position,
            hash_marks: self.hash_marks,
        };
        render_fixed_into(sink, &layout, self.notation, self.base, &self.style);
    }

    /// Runs the exact engine on a positive finite value, leaving its digits
    /// in `ctx`'s workspace.
    fn exact_meta<F: FloatFormat>(
        &self,
        ctx: &mut DtoaContext,
        mantissa: u64,
        exponent: i32,
    ) -> fixed::FixedMeta {
        ctx.value
            .assign_binary_parts(mantissa, exponent, F::PRECISION, F::MIN_EXP);
        match self.precision {
            FixedPrecision::AbsolutePosition(j) => fixed::fixed_format_into(
                &ctx.value,
                j,
                self.strategy,
                self.tie,
                &mut ctx.powers,
                &mut ctx.ws,
            ),
            FixedPrecision::SignificantDigits(i) => fixed::fixed_format_relative_into(
                &ctx.value,
                i,
                self.strategy,
                self.tie,
                &mut ctx.powers,
                &mut ctx.ws,
            ),
        }
    }

    /// Formats any float implementing [`FloatFormat`], including signs,
    /// zeros, infinities and NaN.
    #[must_use]
    pub fn format_float<F: FloatFormat>(&self, v: F) -> String {
        with_thread_context(self.base, |ctx| {
            let mut out = Vec::with_capacity(24);
            self.write_to(ctx, &mut out, v);
            String::from_utf8(out).expect("formatter emits UTF-8")
        })
    }

    /// Formats an `f64`.
    #[must_use]
    pub fn format(&self, v: f64) -> String {
        self.format_float(v)
    }

    /// Formats an `f32` with `f32` boundaries — the paper's `#`-mark example
    /// `1/3 → 0.3333333###` is single-precision.
    #[must_use]
    pub fn format_f32(&self, v: f32) -> String {
        self.format_float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_shortest_basics() {
        assert_eq!(print_shortest(0.3), "0.3");
        assert_eq!(print_shortest(-0.3), "-0.3");
        assert_eq!(print_shortest(3.0), "3");
        assert_eq!(print_shortest(0.0), "0");
        assert_eq!(print_shortest(-0.0), "-0");
        assert_eq!(print_shortest(f64::INFINITY), "inf");
        assert_eq!(print_shortest(f64::NEG_INFINITY), "-inf");
        assert_eq!(print_shortest(f64::NAN), "NaN");
    }

    #[test]
    fn paper_motivating_examples() {
        // §1: 3/10 prints as 0.3 instead of 0.2999999….
        assert_eq!(print_shortest(0.3), "0.3");
        // §3.1: 10²³ as 1e23 rather than 9.999999999999999e22.
        assert_eq!(print_shortest(1e23), "1e23");
        assert_eq!(
            FreeFormat::new()
                .rounding(RoundingMode::Conservative)
                .format(1e23),
            "9.999999999999999e22"
        );
    }

    #[test]
    fn fixed_format_f32_third_shows_marks() {
        // The paper's abstract illustrates 1/3 printing as 0.3333333### for
        // a ~7-digit format; for IEEE single precision (~7.2 digits) the
        // nearest float to 1/3 is 0.33333334327…, whose shortest prefix is
        // 0.33333334 with the last two of ten places insignificant.
        let s = FixedFormat::new()
            .fraction_digits(10)
            .format_f32(1.0f32 / 3.0);
        assert_eq!(s, "0.33333334##");
    }

    #[test]
    fn fixed_format_marks_can_be_disabled() {
        let s = FixedFormat::new()
            .fraction_digits(10)
            .hash_marks(false)
            .format_f32(1.0f32 / 3.0);
        assert_eq!(s, "0.3333333400");
    }

    #[test]
    fn fixed_format_specials_and_zero() {
        let f = FixedFormat::new().fraction_digits(2);
        assert_eq!(f.format(f64::NAN), "NaN");
        assert_eq!(f.format(f64::INFINITY), "inf");
        assert_eq!(f.format(0.0), "0");
        assert_eq!(f.format(-1.25), "-1.25");
    }

    #[test]
    fn fixed_format_paper_position_example() {
        // §4: 100 printed to digit position -20.
        let s = FixedFormat::new()
            .absolute_position(-20)
            .notation(Notation::Positional)
            .format(100.0);
        assert_eq!(s, "100.000000000000000#####");
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn shortest_round_trips_through_std_parse() {
        for &v in &[
            0.1,
            0.3,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            6.02214076e23,
            2f64.powi(-30),
            123456789.123456789,
        ] {
            let s = print_shortest(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
    }

    #[test]
    fn f32_uses_its_own_boundaries() {
        assert_eq!(FreeFormat::new().format_f32(0.1f32), "0.1");
        // As an f64, the same bits need many more digits.
        assert_eq!(print_shortest(f64::from(0.1f32)), "0.10000000149011612");
    }

    #[test]
    fn base_2_and_36_round_trip_shapes() {
        assert_eq!(print_shortest_base(0.5, 2), "0.1");
        assert_eq!(print_shortest_base(35.0, 36), "z");
    }

    #[test]
    fn builders_validate_base() {
        assert!(std::panic::catch_unwind(|| FreeFormat::new().base(1)).is_err());
        assert!(std::panic::catch_unwind(|| FixedFormat::new().base(37)).is_err());
    }
}
