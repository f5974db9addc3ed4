//! Bulk string→float parsing: the reading-side mirror of `fpp-batch`'s
//! columnar formatter.
//!
//! A [`BatchParser`] turns a column of decimal strings into a `Vec<f64>`
//! in one pass, optionally sharded across scoped threads (the `parallel`
//! feature, on by default) with the same splitting rules as
//! `BatchFormatter`: contiguous chunks, a minimum shard length so short
//! columns never pay thread overhead, and results identical to the serial
//! path regardless of thread count — parsing writes fixed-width slots, so
//! no stitching is needed at all.
//!
//! For zero-copy round-trip pipelines it also consumes the printing
//! engine's arena layout directly: [`BatchParser::parse_offsets`] walks a
//! `(bytes, offsets)` pair — exactly what `fpp_batch::BatchOutput` exposes
//! via `arena()`/`offsets()` — without materializing any `&str` slice
//! first. The `roundtrip` bench drives print→parse through this interface.

use crate::ParseFloatError;

/// Tuning knobs for a [`BatchParser`].
#[derive(Debug, Clone)]
pub struct BatchParseOptions {
    /// Upper bound on shard threads for the `parallel` path. `None` asks
    /// the OS ([`std::thread::available_parallelism`]).
    pub threads: Option<usize>,
    /// Minimum strings per shard: inputs shorter than `2 * min_shard_len`
    /// stay serial, and shard counts are capped at `len / min_shard_len`.
    /// The default 4096 matches the formatter's tuning.
    pub min_shard_len: usize,
    /// Whether to use the fast tiers (scan → Clinger → Eisel–Lemire) with
    /// the exact reader as fallback (default `true`), or the exact
    /// big-integer path for every value (`false` — the measurement
    /// baseline, and a way to exercise the fallback itself).
    pub fast_path: bool,
}

impl Default for BatchParseOptions {
    fn default() -> Self {
        BatchParseOptions {
            threads: None,
            min_shard_len: 4096,
            fast_path: true,
        }
    }
}

/// A parse failure inside a bulk call: which entry failed and why. The
/// reported index is deterministic — always the **lowest** failing index,
/// even when shards hit errors concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchParseError {
    /// Position of the offending string in the input column.
    pub index: usize,
    /// The underlying scalar error.
    pub error: ParseFloatError,
}

impl std::fmt::Display for BatchParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entry {}: {}", self.index, self.error)
    }
}

impl std::error::Error for BatchParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

fn entry_error(index: usize, reason: &'static str) -> BatchParseError {
    BatchParseError {
        index,
        error: ParseFloatError::new(reason),
    }
}

/// Reusable bulk parser of decimal-string columns.
///
/// ```
/// use fpp_reader::BatchParser;
/// let parser = BatchParser::new();
/// let values = parser.parse_f64s(&["0.3", "1e23", "-0", "5e-324"]).unwrap();
/// assert_eq!(values, [0.3, 1e23, -0.0, 5e-324]);
/// let err = parser.parse_f64s(&["1.5", "bogus"]).unwrap_err();
/// assert_eq!(err.index, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchParser {
    opts: BatchParseOptions,
}

impl BatchParser {
    /// Creates a parser with [`BatchParseOptions::default`].
    #[must_use]
    pub fn new() -> Self {
        BatchParser::default()
    }

    /// Creates a parser with explicit tuning options.
    #[must_use]
    pub fn with_options(opts: BatchParseOptions) -> Self {
        BatchParser { opts }
    }

    /// The options this parser was built with.
    #[must_use]
    pub fn options(&self) -> &BatchParseOptions {
        &self.opts
    }

    /// Parses a column of strings into a fresh `Vec<f64>`.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchParseError`] if any entry is
    /// malformed.
    pub fn parse_f64s(&self, strings: &[&str]) -> Result<Vec<f64>, BatchParseError> {
        let mut out = Vec::new();
        self.parse_f64s_into(strings, &mut out)?;
        Ok(out)
    }

    /// Parses a column of strings into `out` (cleared first), reusing its
    /// capacity across batches. On `Err` the contents of `out` are
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchParseError`] if any entry is
    /// malformed.
    pub fn parse_f64s_into(
        &self,
        strings: &[&str],
        out: &mut Vec<f64>,
    ) -> Result<(), BatchParseError> {
        out.clear();
        out.resize(strings.len(), 0.0);
        self.run(out, strings.len(), |slot_base, slots| {
            for (j, slot) in slots.iter_mut().enumerate() {
                let i = slot_base + j;
                *slot = self.parse_entry(strings[i].as_bytes(), i)?;
            }
            Ok(())
        })
    }

    /// Parses a column stored as a contiguous byte arena with fence-post
    /// offsets — the layout `fpp_batch::BatchOutput` exposes through
    /// `arena()` and `offsets()` — into `out` (cleared first), copying no
    /// string data. Entry `i` is `arena[offsets[i]..offsets[i + 1]]`, so a
    /// column of `n` values carries `n + 1` offsets; an empty or
    /// single-element `offsets` means zero entries. On `Err` the contents
    /// of `out` are unspecified.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchParseError`] for a malformed,
    /// non-UTF-8, or out-of-bounds entry.
    pub fn parse_offsets(
        &self,
        arena: &[u8],
        offsets: &[u32],
        out: &mut Vec<f64>,
    ) -> Result<(), BatchParseError> {
        let entries = offsets.len().saturating_sub(1);
        out.clear();
        out.resize(entries, 0.0);
        self.run(out, entries, |slot_base, slots| {
            for (j, slot) in slots.iter_mut().enumerate() {
                let i = slot_base + j;
                let bytes = arena
                    .get(offsets[i] as usize..offsets[i + 1] as usize)
                    .ok_or_else(|| entry_error(i, "arena offsets out of bounds"))?;
                *slot = self.parse_entry(bytes, i)?;
            }
            Ok(())
        })
    }

    /// Converts entry `index` the way the options select. With the fast
    /// tiers on, the bytes go straight to the scanner: what it accepts is
    /// ASCII, so only the entries it (or a tier) declines pay for UTF-8
    /// validation and the general parser.
    fn parse_entry(&self, bytes: &[u8], index: usize) -> Result<f64, BatchParseError> {
        if self.opts.fast_path {
            if let Some(v) = crate::read_f64_fast_bytes(bytes) {
                return Ok(v);
            }
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| entry_error(index, "entry is not valid UTF-8"))?;
        let value = if self.opts.fast_path {
            crate::read_general(text)
        } else {
            crate::read_f64_exact(text)
        };
        value.map_err(|error| BatchParseError { index, error })
    }

    /// Runs `work(base_index, slot_chunk)` over `out`, serially or across
    /// scoped shard threads, and reduces per-shard errors to the
    /// lowest-index one.
    fn run(
        &self,
        out: &mut [f64],
        len: usize,
        work: impl Fn(usize, &mut [f64]) -> Result<(), BatchParseError> + Send + Sync,
    ) -> Result<(), BatchParseError> {
        let shards = self.shard_count(len);
        if shards <= 1 {
            fpp_telemetry::record_parse_batch(len);
            return work(0, out);
        }
        self.run_sharded(out, len, shards, &work)
    }

    /// Shard count for `len` entries, mirroring the formatter's rule.
    #[cfg(feature = "parallel")]
    fn shard_count(&self, len: usize) -> usize {
        let budget = self.opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let fed = len / self.opts.min_shard_len.max(1);
        budget.max(1).min(fed.max(1))
    }

    #[cfg(not(feature = "parallel"))]
    fn shard_count(&self, _len: usize) -> usize {
        1
    }

    #[cfg(feature = "parallel")]
    fn run_sharded(
        &self,
        out: &mut [f64],
        len: usize,
        shards: usize,
        work: &(impl Fn(usize, &mut [f64]) -> Result<(), BatchParseError> + Send + Sync),
    ) -> Result<(), BatchParseError> {
        let chunk_len = len.div_ceil(shards).max(1);
        let used = len.div_ceil(chunk_len);
        fpp_telemetry::record_parse_batch_sharded(used, len);
        let mut failures: Vec<Option<BatchParseError>> = vec![None; used];
        std::thread::scope(|scope| {
            for (k, (chunk, failure)) in out.chunks_mut(chunk_len).zip(&mut failures).enumerate() {
                scope.spawn(move || {
                    // Shard workers report into their own thread-local
                    // telemetry blocks; flush before the scope unblocks.
                    *failure = work(k * chunk_len, chunk).err();
                    fpp_telemetry::flush_thread();
                });
            }
        });
        match failures.into_iter().flatten().min_by_key(|e| e.index) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    #[cfg(not(feature = "parallel"))]
    fn run_sharded(
        &self,
        _out: &mut [f64],
        _len: usize,
        _shards: usize,
        _work: &(impl Fn(usize, &mut [f64]) -> Result<(), BatchParseError> + Send + Sync),
    ) -> Result<(), BatchParseError> {
        unreachable!("shard_count is 1 without the parallel feature")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_scalar_reader() {
        let strings = [
            "0.1",
            "-2.5e-3",
            "1e23",
            "18446744073709551616",
            "5e-324",
            "inf",
            "-0",
            "NaN",
        ];
        let parser = BatchParser::new();
        let values = parser.parse_f64s(&strings).expect("all valid");
        for (s, v) in strings.iter().zip(&values) {
            let scalar = crate::read_f64(s).expect("scalar parse");
            assert_eq!(v.to_bits(), scalar.to_bits(), "{s}");
        }
    }

    #[test]
    fn error_reports_lowest_index() {
        let parser = BatchParser::new();
        let err = parser.parse_f64s(&["1", "x", "2", "y"]).unwrap_err();
        assert_eq!(err.index, 1);
        // Sharded path: force many shards, errors in several of them.
        let mut strings: Vec<&str> = vec!["1.25"; 100];
        strings[93] = "later";
        strings[41] = "bad";
        let parser = BatchParser::with_options(BatchParseOptions {
            threads: Some(4),
            min_shard_len: 8,
            fast_path: true,
        });
        let err = parser.parse_f64s(&strings).unwrap_err();
        assert_eq!(err.index, 41, "lowest failing index wins");
    }

    #[test]
    fn sharded_matches_serial() {
        let strings: Vec<String> = (0..2000).map(|i| format!("{}.{i}e-3", i * 7)).collect();
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let serial = BatchParser::with_options(BatchParseOptions {
            threads: Some(1),
            ..BatchParseOptions::default()
        })
        .parse_f64s(&refs)
        .expect("serial");
        let sharded = BatchParser::with_options(BatchParseOptions {
            threads: Some(8),
            min_shard_len: 64,
            fast_path: true,
        })
        .parse_f64s(&refs)
        .expect("sharded");
        assert_eq!(serial.len(), sharded.len());
        for (a, b) in serial.iter().zip(&sharded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn exact_only_mode_agrees() {
        let strings = ["0.3", "9007199254740993", "2.2250738585072011e-308"];
        let exact = BatchParser::with_options(BatchParseOptions {
            fast_path: false,
            ..BatchParseOptions::default()
        });
        let fast = BatchParser::new();
        assert_eq!(
            exact.parse_f64s(&strings).unwrap(),
            fast.parse_f64s(&strings).unwrap()
        );
    }

    #[test]
    fn offsets_layout_round_trips() {
        // Hand-built arena in the BatchOutput fence-post layout.
        let arena = b"0.25-1e3NaN5e-324";
        let offsets = [0u32, 4, 8, 11, 17];
        let parser = BatchParser::new();
        let mut out = Vec::new();
        parser.parse_offsets(arena, &offsets, &mut out).expect("ok");
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 0.25);
        assert_eq!(out[1], -1e3);
        assert!(out[2].is_nan());
        assert_eq!(out[3], 5e-324);
        // Degenerate offsets: no entries.
        parser.parse_offsets(arena, &[], &mut out).expect("empty");
        assert!(out.is_empty());
        // Out-of-bounds offsets are an error, not a panic.
        let err = parser.parse_offsets(arena, &[0, 99], &mut out).unwrap_err();
        assert_eq!(err.index, 0);
    }
}
