//! # fpp-batch — columnar bulk float→decimal conversion
//!
//! The per-value API of `fpp-core` answers "what is the shortest string for
//! this double?"; this crate answers the production question: "here are ten
//! million doubles — give me all their strings, fast". It is the batch
//! layer the bulk-throughput literature (Lemire's gigabyte-per-second
//! parsing work, the Gareau–Lemire shortest-decimal review) measures:
//! conversion as an array-to-array problem, reported in floats/s and MB/s.
//!
//! Two mechanisms carry the throughput:
//!
//! 1. **A stateless tier** — the shortest tier answers every value of the
//!    batch recipe with `u64` arithmetic through
//!    [`fpp_core::FreeFormat::try_write`], so the engine holds no
//!    conversion context, for itself or any shard, and building one
//!    allocates nothing. Steady-state conversion performs zero heap
//!    allocations.
//! 2. **Columnar output** — all texts land back-to-back in one
//!    [`BatchOutput`] arena with a `u32` offsets table, instead of a
//!    million `String`s.
//!
//! [`BatchFormatter::format_f64s_sharded`] splits the input into
//! cache-friendly chunks across scoped threads — each shard with its own
//! output segment — and stitches the segments back in input order, so output is
//! **deterministic and byte-identical to the serial path** at any thread
//! count.
//!
//! ```
//! use fpp_batch::{BatchFormatter, BatchOutput};
//!
//! let column: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.1).collect();
//! let mut fmt = BatchFormatter::new();
//! let mut out = BatchOutput::new();
//! fmt.format_f64s(&column, &mut out);          // or format_f64s_sharded
//! assert_eq!(out.len(), 1000);
//! assert_eq!(out.get(1), "0.1");
//!
//! // Serializer frontends stream through any DigitSink:
//! let mut csv = Vec::new();
//! fmt.write_csv(&[("v", &column[..3])], &mut csv);
//! assert_eq!(csv, b"v\n0\n0.1\n0.2\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod formatter;
mod output;
mod serialize;

pub use formatter::{BatchFormatter, BatchOptions, MemoStats};
pub use output::BatchOutput;
