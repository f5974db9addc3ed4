//! The batch engine itself: a [`BatchFormatter`] owning every piece of
//! reusable state one column conversion needs.
//!
//! The batch recipe is always answered by the shortest tier, which keeps
//! no state, so the formatter holds no conversion context: only a pool of
//! shard output segments. Formatting a slice walks it once, writing each
//! value through the tier straight into the arena. After a first batch has
//! grown the arenas, none of this touches the allocator (asserted by the
//! root crate's `alloc_count` test).

use crate::output::BatchOutput;
use fpp_core::{DigitSink, FreeFormat};
use fpp_float::FloatFormat;

/// Tuning knobs for a [`BatchFormatter`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Upper bound on shard threads for the sharded path. `None` asks
    /// the OS ([`std::thread::available_parallelism`]). The engine never
    /// spawns more shards than the input justifies (see `min_shard_len`).
    pub threads: Option<usize>,
    /// Minimum values per shard: inputs shorter than `2 * min_shard_len`
    /// stay on the serial path, and shard counts are capped at
    /// `len / min_shard_len` so tiny chunks never pay thread overhead. The
    /// default 4096 keeps each shard's slice and output comfortably inside
    /// the L2 cache while amortising spawn cost.
    pub min_shard_len: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: None,
            min_shard_len: 4096,
        }
    }
}

/// Counters of the retired repeat-value memo, kept so callers written
/// against it still compile. The shortest tier answers every value
/// directly, so nothing is memoised and every field reads zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Values answered from a memo: always 0.
    pub hits: u64,
    /// Values that missed a memo: always 0.
    pub misses: u64,
    /// Values that skipped a memo probe: always 0.
    pub skipped: u64,
}

/// Reusable bulk converter of float slices to shortest decimal text.
///
/// Construct once, feed it any number of batches; every buffer it owns is
/// recycled between calls. Output is byte-for-byte identical to calling
/// [`fpp_core::print_shortest`] per value (asserted over Schryer and
/// special-value suites by `tests/batch_parity.rs`).
///
/// ```
/// use fpp_batch::{BatchFormatter, BatchOutput};
/// let mut fmt = BatchFormatter::new();
/// let mut out = BatchOutput::new();
/// fmt.format_f64s(&[0.3, f64::NAN, -0.0, 5e-324], &mut out);
/// assert_eq!(out.iter().collect::<Vec<_>>(), ["0.3", "NaN", "-0", "5e-324"]);
/// ```
#[derive(Debug)]
pub struct BatchFormatter {
    /// The fixed conversion recipe: shortest round-tripping base-10 text,
    /// exactly [`fpp_core::print_shortest`]'s configuration.
    format: FreeFormat,
    opts: BatchOptions,
    /// One output segment per shard, retained across batches.
    shards: Vec<BatchOutput>,
}

impl Default for BatchFormatter {
    fn default() -> Self {
        BatchFormatter::new()
    }
}

impl BatchFormatter {
    /// Creates a formatter with [`BatchOptions::default`].
    #[must_use]
    pub fn new() -> Self {
        BatchFormatter::with_options(BatchOptions::default())
    }

    /// Creates a formatter with explicit tuning options. Allocates nothing.
    #[must_use]
    pub fn with_options(opts: BatchOptions) -> Self {
        BatchFormatter {
            format: FreeFormat::new(),
            opts,
            shards: Vec::new(),
        }
    }

    /// Formats a column of `f64`s into `out` (cleared first) on the calling
    /// thread. Steady-state allocation-free once the formatter and `out`
    /// have seen a batch of this size.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s arena grows past the 4 GiB `u32` offset range
    /// (see [`BatchOutput`]); split such a column into several batches.
    pub fn format_f64s(&mut self, values: &[f64], out: &mut BatchOutput) {
        fpp_telemetry::record_serial_batch();
        format_slice(&self.format, values, out);
    }

    /// Formats a column of `f32`s into `out` (cleared first), using `f32`
    /// boundaries: `0.1f32` prints as `0.1`, not the 17-digit expansion of
    /// its exact value.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s arena grows past the 4 GiB `u32` offset range
    /// (see [`BatchOutput`]); split such a column into several batches.
    pub fn format_f32s(&mut self, values: &[f32], out: &mut BatchOutput) {
        fpp_telemetry::record_serial_batch();
        format_slice(&self.format, values, out);
    }

    /// Formats one value into any sink — the building block of the
    /// serializer frontends, and useful for interleaving single values with
    /// batches.
    pub fn format_one_f64(&mut self, v: f64, sink: &mut impl DigitSink) {
        write_value(&self.format, sink, v);
    }

    /// Counters of the retired repeat-value memo: all zero, since the
    /// shortest tier answers every value without one. Kept for callers
    /// that read them.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }

    /// The options this formatter was built with.
    #[must_use]
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }
}

/// The shared per-slice conversion loop: each value goes through the
/// shortest tier straight into the arena, then its entry is sealed.
fn format_slice<F: FloatFormat>(format: &FreeFormat, values: &[F], out: &mut BatchOutput) {
    out.begin();
    for &v in values {
        write_value(format, out.sink(), v);
        out.seal();
    }
}

/// Writes one value through the shortest tier. The batch recipe (base 10,
/// the estimate scaler, nearest-even reading, `f64` or `f32`) is one the
/// tier serves for every value, so it never declines.
fn write_value<F: FloatFormat>(format: &FreeFormat, sink: &mut impl DigitSink, v: F) {
    assert!(
        format.try_write(sink, v),
        "the shortest tier answers every value of the batch recipe"
    );
}

impl BatchFormatter {
    /// Formats a column of `f64`s into `out` across shard threads.
    ///
    /// The input is split into contiguous chunks, one per shard; each
    /// shard converts its chunk into a private arena, and the segments are
    /// stitched back in input order — so the output is byte-identical to
    /// [`Self::format_f64s`] regardless of thread count, including on a
    /// single-core host.
    /// Inputs shorter than twice [`BatchOptions::min_shard_len`] take
    /// the serial path unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s arena grows past the 4 GiB `u32` offset range
    /// (see [`BatchOutput`]); split such a column into several batches.
    pub fn format_f64s_sharded(&mut self, values: &[f64], out: &mut BatchOutput) {
        self.format_sharded(values, out);
    }

    /// Formats a column of `f32`s into `out` across shard threads (see
    /// [`Self::format_f64s_sharded`] for the splitting/stitching rules).
    ///
    /// # Panics
    ///
    /// Panics if `out`'s arena grows past the 4 GiB `u32` offset range
    /// (see [`BatchOutput`]); split such a column into several batches.
    pub fn format_f32s_sharded(&mut self, values: &[f32], out: &mut BatchOutput) {
        self.format_sharded(values, out);
    }

    /// Shard count for an input of `len` values: bounded by the thread
    /// budget and by `len / min_shard_len` so short columns do not pay
    /// for threads they cannot feed.
    fn shard_count(&self, len: usize) -> usize {
        let budget = self.opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let fed = len / self.opts.min_shard_len.max(1);
        budget.max(1).min(fed.max(1))
    }

    fn format_sharded<F: FloatFormat + Send + Sync>(
        &mut self,
        values: &[F],
        out: &mut BatchOutput,
    ) {
        let shards = self.shard_count(values.len());
        let chunk_len = values.len().div_ceil(shards.max(1)).max(1);
        let used = values.len().div_ceil(chunk_len.max(1)).max(1);
        if self.shards.len() < used {
            self.shards.resize_with(used, BatchOutput::new);
        }
        fpp_telemetry::record_sharded_batch(used);
        let format = &self.format;
        let segments = &mut self.shards[..used];
        if used == 1 {
            // One shard: run inline, skipping thread spawn entirely.
            fpp_telemetry::record_shard(values.len());
            format_slice(format, values, &mut segments[0]);
        } else {
            std::thread::scope(|scope| {
                for (segment, chunk) in segments.iter_mut().zip(values.chunks(chunk_len)) {
                    scope.spawn(move || {
                        // Each worker reports into its own thread-local
                        // telemetry block; the explicit flush drains it
                        // into the global aggregate before the scope
                        // unblocks (TLS destructors alone can race the
                        // scope exit).
                        fpp_telemetry::record_shard(chunk.len());
                        format_slice(format, chunk, segment);
                        fpp_telemetry::flush_thread();
                    });
                }
            });
        }
        out.begin();
        for segment in &self.shards[..used] {
            out.append_shifted(segment);
        }
        fpp_telemetry::record_stitch_bytes(out.total_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_per_value_printer() {
        let values = [0.1, 1.0 / 3.0, 1e23, -2.5, 0.0, -0.0, f64::MAX];
        let mut fmt = BatchFormatter::new();
        let mut out = BatchOutput::new();
        fmt.format_f64s(&values, &mut out);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(out.get(i), fpp_core::print_shortest(v), "value {v}");
        }
    }

    #[test]
    fn memo_stats_read_zero() {
        let values = [2.5, 2.5, 1e23, 1e23];
        let mut fmt = BatchFormatter::new();
        let mut out = BatchOutput::new();
        fmt.format_f64s(&values, &mut out);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            ["2.5", "2.5", "1e23", "1e23"]
        );
        assert_eq!(fmt.memo_stats(), MemoStats::default());
    }

    #[test]
    fn f32_uses_its_own_boundaries() {
        let mut fmt = BatchFormatter::new();
        let mut out = BatchOutput::new();
        fmt.format_f32s(&[0.1f32, 0.1f32], &mut out);
        assert_eq!(out.get(0), "0.1");
        // The same bit pattern as an f64 prints with f64 boundaries.
        let alias = f64::from_bits(u64::from(0.1f32.to_bits()));
        let mut out64 = BatchOutput::new();
        fmt.format_f64s(&[alias], &mut out64);
        assert_eq!(out64.get(0), fpp_core::print_shortest(alias));
    }

    /// The batch engine asserts that the shortest tier answers every value
    /// of its recipe; specials, subnormals and both widths' extremes are
    /// where a declining tier would show, so each goes through the tier,
    /// the batch paths and the exact engine, with the same bytes.
    #[test]
    fn the_tier_answers_every_extreme() {
        let f64s = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::from_bits((1 << 52) - 1), // largest subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        let f32s = [
            f32::NAN,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),
            f32::from_bits((1 << 23) - 1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        let mut fmt = BatchFormatter::with_options(BatchOptions {
            threads: Some(2),
            min_shard_len: 2,
        });
        let exact = FreeFormat::new().fast_path(false);
        let (mut out, mut sharded) = (BatchOutput::new(), BatchOutput::new());
        fmt.format_f64s(&f64s, &mut out);
        fmt.format_f64s_sharded(&f64s, &mut sharded);
        for (i, &v) in f64s.iter().enumerate() {
            let mut tier = Vec::new();
            assert!(fmt.format.try_write(&mut tier, v), "{v:e}");
            let oracle = exact.format(v);
            assert_eq!(tier, oracle.as_bytes(), "{v:e}");
            assert_eq!(out.get(i), oracle, "{v:e}");
            assert_eq!(sharded.get(i), oracle, "{v:e}");
        }
        fmt.format_f32s(&f32s, &mut out);
        fmt.format_f32s_sharded(&f32s, &mut sharded);
        for (i, &v) in f32s.iter().enumerate() {
            let mut tier = Vec::new();
            assert!(fmt.format.try_write(&mut tier, v), "{v:e}");
            let oracle = exact.format_f32(v);
            assert_eq!(tier, oracle.as_bytes(), "{v:e}");
            assert_eq!(out.get(i), oracle, "{v:e}");
            assert_eq!(sharded.get(i), oracle, "{v:e}");
        }
    }

    #[test]
    fn format_one_matches_the_batch_path() {
        let mut fmt = BatchFormatter::new();
        let mut sink = Vec::new();
        fmt.format_one_f64(9.97, &mut sink);
        fmt.format_one_f64(-1e23, &mut sink);
        assert_eq!(sink, b"9.97-1e23");
    }

    #[test]
    fn sharded_output_is_identical_to_serial() {
        let values: Vec<f64> = (0..5000).map(|i| i as f64 * 0.37 - 900.0).collect();
        let mut fmt = BatchFormatter::with_options(BatchOptions {
            threads: Some(4),
            min_shard_len: 16,
        });
        let mut serial = BatchOutput::new();
        let mut sharded = BatchOutput::new();
        fmt.format_f64s(&values, &mut serial);
        fmt.format_f64s_sharded(&values, &mut sharded);
        assert_eq!(serial.arena(), sharded.arena());
        assert_eq!(serial.offsets(), sharded.offsets());
    }
}
