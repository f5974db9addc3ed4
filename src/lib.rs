//! # fpp — fast and accurate floating-point printing
//!
//! A production-quality Rust implementation of Robert G. Burger and R. Kent
//! Dybvig's *Printing Floating-Point Numbers Quickly and Accurately*
//! (PLDI 1996), together with the substrates and baselines needed to
//! reproduce the paper's evaluation.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`core`] — the printing algorithms: free-format shortest output,
//!   fixed-format output with `#` marks, fast scaling estimators.
//! * [`bignum`] — the arbitrary-precision arithmetic substrate.
//! * [`float`] — IEEE-754 decomposition and the generalized float model.
//! * [`reader`] — accurate (correctly rounded) decimal→binary reading.
//! * [`baseline`] — the comparison printers from the paper's evaluation.
//! * [`testgen`] — Schryer-style workload generators.
//! * [`telemetry`] — zero-overhead instrumentation of the whole pipeline.
//!
//! # Quick start
//!
//! ```
//! // Shortest output that reads back to exactly the same f64:
//! assert_eq!(fpp::print_shortest(0.3), "0.3");
//! assert_eq!(fpp::print_shortest(1e23), "1e23");
//!
//! // Fixed-format output marks insignificant digits with `#`:
//! let s = fpp::FixedFormat::new()
//!     .significant_digits(10)
//!     .format(1.0f64 / 3.0);
//! assert_eq!(s, "0.3333333333");
//! ```
//!
//! # Zero-allocation conversion
//!
//! The `String`-returning functions above allocate only their output; the
//! conversion pipeline itself runs on recycled buffers. To avoid even the
//! output allocation, borrow a [`DtoaContext`] and write into any
//! [`DigitSink`] (a stack buffer via [`SliceSink`], a `Vec<u8>`, or any
//! `fmt::Write` via [`FmtSink`]):
//!
//! ```
//! use fpp::{write_shortest, DtoaContext, SliceSink};
//! let mut ctx = DtoaContext::new(10);
//! let mut buf = [0u8; 32];
//! let mut sink = SliceSink::new(&mut buf);
//! write_shortest(&mut ctx, &mut sink, 0.3);
//! assert_eq!(sink.as_str(), "0.3");
//! ```
//!
//! # Batch conversion
//!
//! For whole columns of floats — CSV/JSON export, telemetry dumps — the
//! [`batch`] engine converts slices into one contiguous arena with an
//! offsets table, reusing a warm context per shard. Output is
//! byte-identical to [`print_shortest`] per value:
//!
//! ```
//! use fpp::{BatchFormatter, BatchOutput};
//! let column = [0.1, 1e23, 0.1, f64::NAN];
//! let mut fmt = BatchFormatter::new();
//! let mut out = BatchOutput::new();
//! fmt.format_f64s(&column, &mut out); // or format_f64s_sharded
//! assert_eq!(out.iter().collect::<Vec<_>>(), ["0.1", "1e23", "0.1", "NaN"]);
//!
//! // Stream a column straight to CSV through any DigitSink:
//! let mut csv = Vec::new();
//! fmt.write_csv(&[("v", &column[..2])], &mut csv);
//! assert_eq!(csv, b"v\n0.1\n1e23\n");
//! ```
//!
//! # Observability
//!
//! Built with `--features telemetry`, the pipeline counts everything it
//! does — tier answers, digits per conversion, §3.2 scale fixups, batch
//! shards, reader paths — into lock-free process-wide counters. Without the feature
//! every probe compiles to nothing:
//!
//! ```
//! let snap = fpp::telemetry::TelemetrySnapshot::capture();
//! println!("{}", snap.to_prometheus()); // or snap.to_json()
//! assert_eq!(snap.fixup_rate(), 0.0);   // zeros unless telemetry is on
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod printf;
pub mod scheme;

pub use fpp_baseline as baseline;
pub use fpp_batch as batch;
pub use fpp_bignum as bignum;
pub use fpp_core as core;
pub use fpp_float as float;
pub use fpp_reader as reader;
pub use fpp_telemetry as telemetry;
pub use fpp_testgen as testgen;

pub use fpp_batch::{BatchFormatter, BatchOptions, BatchOutput};
pub use fpp_core::{
    print_shortest, print_shortest_base, write_fixed, write_shortest, write_shortest_f32,
    DigitSink, DtoaContext, FixedFormat, FmtSink, FreeFormat, IoSink, SliceSink,
};
pub use fpp_reader::{read_f64, read_f64_fast, BatchParseOptions, BatchParser};
