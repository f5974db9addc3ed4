//! # fpp-telemetry — zero-overhead instrumentation for the conversion stack
//!
//! The paper's entire evaluation is built on counting what the algorithm
//! does — digit lengths (§5), scale fixups (§3.2, Table 2), loop iterations.
//! This crate makes those same distributions observable in a *production*
//! pipeline: the shortest tier, the digit loop, the scaling estimator, the
//! bignum scratch arena, the batch sharder, and the reader all report into one
//! process-wide set of counters, fixed-bucket histograms and high-water
//! gauges.
//!
//! ## Zero overhead when disabled
//!
//! Everything is gated behind the `enabled` cargo feature (downstream
//! crates forward a `telemetry` feature to it). With the feature **off** —
//! the default — every `record_*` function is an empty `#[inline(always)]`
//! body, the crate holds no state (the internal state type is zero-sized,
//! asserted by a test), and [`TelemetrySnapshot::capture`] returns zeros.
//! Instrumented call sites additionally guard non-trivial argument
//! computation behind the [`ENABLED`] constant so the disabled build folds
//! them away entirely; the root crate's counting-allocator test and the
//! offline benchmark (`perfbench/`) hold the line behaviourally.
//!
//! ## Contention-free when enabled
//!
//! With the feature **on**, every thread accumulates into a private block
//! of plain `Cell<u64>`s — no atomics, no locks, no sharing on the hot
//! path. The block drains into a global set of `AtomicU64`s (relaxed adds
//! and `fetch_max`es — lock-free, never blocking) when the thread exits or
//! on an explicit [`flush_thread`]. The batch engine's scoped shard threads
//! therefore aggregate automatically: each worker flushes at scope exit,
//! before the batch call returns. Long-lived threads should call
//! [`flush_thread`] before a snapshot is taken elsewhere.
//!
//! ## Reading the numbers
//!
//! [`TelemetrySnapshot::capture`] flushes the calling thread and copies the
//! global state into a plain value with JSON ([`TelemetrySnapshot::to_json`])
//! and Prometheus text ([`TelemetrySnapshot::to_prometheus`]) exposition:
//!
//! ```
//! use fpp_telemetry::{record_generation, Termination, TelemetrySnapshot};
//! record_generation(3, Termination::Low); // no-op unless `enabled`
//! let snap = TelemetrySnapshot::capture();
//! assert!(snap.to_prometheus().contains("fpp_core_conversions"));
//! let _ = snap.to_json();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// Whether the instrumentation is compiled in. `false` means every
/// `record_*` call in this crate is an empty inline function; call sites
/// use this constant to fold away argument computation too.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Buckets of the digit-length histogram: bucket `i` counts conversions
/// that emitted exactly `i` digits, with the last bucket absorbing longer
/// outputs (shortest base-10 `f64` output is 1..=17 digits; other bases go
/// longer).
pub const DIGIT_LEN_BUCKETS: usize = 20;

/// Buckets of the shard-length histogram: bucket `i` counts shard runs of
/// `2^i ..= 2^(i+1)-1` values, with the last bucket absorbing larger shards.
pub const SHARD_LEN_BUCKETS: usize = 21;

macro_rules! metric_enum {
    ($(#[$meta:meta])* $enum_name:ident { $($(#[$vmeta:meta])* $variant:ident => $name:literal),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $enum_name { $($(#[$vmeta])* $variant),* }

        impl $enum_name {
            /// Number of metrics of this kind.
            pub const COUNT: usize = [$($enum_name::$variant),*].len();
            /// Every metric of this kind, in exposition order.
            pub const ALL: [$enum_name; Self::COUNT] = [$($enum_name::$variant),*];

            /// The stable exposition name (JSON key; Prometheus name is
            /// this with an `fpp_` prefix).
            #[must_use]
            pub fn name(self) -> &'static str {
                match self { $($enum_name::$variant => $name),* }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event counters, one per instrumented event across the
    /// whole stack (core digit loop, scaler, scratch arena, batch engine,
    /// reader).
    Counter {
        /// Conversions completed by the core digit-generation loop.
        CoreConversions => "core_conversions",
        /// Total digits emitted across all conversions.
        CoreDigitsEmitted => "core_digits_emitted",
        /// Loops ended by termination condition 1 alone (`r < m⁻`: the
        /// low endpoint was reached first).
        CoreTermLow => "core_term_low",
        /// Loops ended by termination condition 2 alone (`r + m⁺ > s`:
        /// the high endpoint was reached first).
        CoreTermHigh => "core_term_high",
        /// Loops ended with both conditions holding (both candidate
        /// outputs read back as `v`).
        CoreTermTie => "core_term_tie",
        /// Two-sided terminations resolved by rounding the final digit up.
        CoreTieRoundUp => "core_tie_round_up",
        /// Two-sided terminations resolved by keeping the final digit.
        CoreTieRoundDown => "core_tie_round_down",
        /// Scaling estimates that were exactly right (§3.2).
        CoreScaleExact => "core_scale_exact",
        /// Scaling estimates that were one low and took the penalty-free
        /// fixup (§3.2's "at most one").
        CoreScaleFixups => "core_scale_fixups",
        /// Violations of the §3.2 contract observed by the digit loop
        /// (estimate off by more than one). Must stay 0.
        CoreScaleViolations => "core_scale_violations",
        /// Free-format conversions answered by the shortest tier (no
        /// big-integer work).
        CoreFastPathHits => "core_fastpath_hits",
        /// Free-format conversions of finite values that ran the exact
        /// Burger–Dybvig engine instead: configurations the tier does not
        /// serve (other bases, directed modes, `fast_path(false)`).
        CoreFastPathFallbacks => "core_fastpath_fallbacks",
        /// Fixed-format conversions answered by the fixed tier (§4 at the
        /// float's own precision, no big-integer work).
        CoreFixedTierHits => "core_fixed_tier_hits",
        /// Fixed-format conversions of finite values that ran the exact
        /// engine instead: other bases and strategies, and final positions
        /// the tier does not serve.
        CoreFixedTierFallbacks => "core_fixed_tier_fallbacks",
        /// Buffers handed out by the scratch arena.
        ScratchTakes => "scratch_takes",
        /// Buffers returned to the scratch arena.
        ScratchPuts => "scratch_puts",
        /// Takes that found the pool empty and created a fresh buffer —
        /// the steady-state-allocation warning signal (non-zero after
        /// warm-up means the zero-alloc guarantee is at risk).
        ScratchPoolMisses => "scratch_pool_misses",
        /// Serial (single-context) batch conversions.
        BatchSerialBatches => "batch_serial_batches",
        /// Sharded batch conversions.
        BatchShardedBatches => "batch_sharded_batches",
        /// Shard runs across all sharded batches.
        BatchShardsRun => "batch_shards_run",
        /// Values converted through shard runs (sum of shard lengths).
        BatchShardedValues => "batch_sharded_values",
        /// Bytes copied while stitching shard arenas back in input order.
        BatchStitchBytes => "batch_stitch_bytes",
        /// Finite literals converted by the reader.
        ReaderReads => "reader_reads",
        /// Reads answered by Clinger's exact floating-point fast path
        /// (one hardware multiply or divide).
        ReaderFastPathHits => "reader_fast_path_hits",
        /// Reads answered by the Eisel–Lemire truncated-product path
        /// (64×128-bit multiply against the cached power-of-five table).
        ReaderEiselLemireHits => "reader_eisel_lemire_hits",
        /// Reads that fell back to the exact big-integer path.
        ReaderExactFallbacks => "reader_exact_fallbacks",
        /// Serial (single-thread) bulk parse calls.
        ReaderBatchSerial => "reader_batch_serial",
        /// Sharded bulk parse calls.
        ReaderBatchSharded => "reader_batch_sharded",
        /// Shard runs across all sharded bulk parses.
        ReaderBatchShards => "reader_batch_shards",
        /// Strings parsed through the bulk engine (serial + sharded).
        ReaderBatchValues => "reader_batch_values",
    }
}

metric_enum! {
    /// High-water-mark gauges (merged with `max`, not `+`).
    Gauge {
        /// Largest number of buffers ever parked in one scratch pool.
        ScratchPoolHwm => "scratch_pool_hwm",
        /// Largest limb capacity ever returned to a scratch pool.
        ScratchLimbsHwm => "scratch_limbs_hwm",
    }
}

/// How a digit-generation loop ended (the paper's two termination
/// conditions, §2.2 step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Condition 1 alone: the emitted digits already read back as `v`.
    Low,
    /// Condition 2 alone: the incremented final digit reads back as `v`.
    High,
    /// Both conditions: the closer candidate was chosen (`rounded_up`
    /// records the direction, including exact-tie resolution).
    Tie {
        /// Whether the final digit was incremented.
        rounded_up: bool,
    },
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, Gauge, DIGIT_LEN_BUCKETS, SHARD_LEN_BUCKETS};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The global aggregate: lock-free atomics, merged into by thread
    /// flushes and read by snapshots.
    pub(super) struct Global {
        counters: [AtomicU64; Counter::COUNT],
        gauges: [AtomicU64; Gauge::COUNT],
        digit_len: [AtomicU64; DIGIT_LEN_BUCKETS],
        shard_len: [AtomicU64; SHARD_LEN_BUCKETS],
    }

    pub(super) static GLOBAL: Global = Global {
        counters: [const { AtomicU64::new(0) }; Counter::COUNT],
        gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
        digit_len: [const { AtomicU64::new(0) }; DIGIT_LEN_BUCKETS],
        shard_len: [const { AtomicU64::new(0) }; SHARD_LEN_BUCKETS],
    };

    /// One thread's private accumulation block: plain cells, no sharing.
    /// Dropping it (thread exit) drains it into [`GLOBAL`].
    pub(super) struct Local {
        counters: [Cell<u64>; Counter::COUNT],
        gauges: [Cell<u64>; Gauge::COUNT],
        digit_len: [Cell<u64>; DIGIT_LEN_BUCKETS],
        shard_len: [Cell<u64>; SHARD_LEN_BUCKETS],
        /// Pause depth for [`super::with_recording_paused`]: while nonzero,
        /// this thread's records are dropped (warm-up traffic must not
        /// masquerade as workload).
        paused: Cell<u32>,
    }

    impl Local {
        const fn new() -> Self {
            Local {
                counters: [const { Cell::new(0) }; Counter::COUNT],
                gauges: [const { Cell::new(0) }; Gauge::COUNT],
                digit_len: [const { Cell::new(0) }; DIGIT_LEN_BUCKETS],
                shard_len: [const { Cell::new(0) }; SHARD_LEN_BUCKETS],
                paused: Cell::new(0),
            }
        }

        fn flush(&self) {
            for (local, global) in self.counters.iter().zip(&GLOBAL.counters) {
                global.fetch_add(local.replace(0), Ordering::Relaxed);
            }
            for (local, global) in self.gauges.iter().zip(&GLOBAL.gauges) {
                global.fetch_max(local.replace(0), Ordering::Relaxed);
            }
            for (local, global) in self.digit_len.iter().zip(&GLOBAL.digit_len) {
                global.fetch_add(local.replace(0), Ordering::Relaxed);
            }
            for (local, global) in self.shard_len.iter().zip(&GLOBAL.shard_len) {
                global.fetch_add(local.replace(0), Ordering::Relaxed);
            }
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static LOCAL: Local = const { Local::new() };
    }

    /// Runs `f` against the thread's block; silently skipped during thread
    /// teardown (the block has already drained) and while recording is
    /// paused.
    fn with_local(f: impl FnOnce(&Local)) {
        let _ = LOCAL.try_with(|l| {
            if l.paused.get() == 0 {
                f(l);
            }
        });
    }

    pub(super) fn paused<R>(f: impl FnOnce() -> R) -> R {
        let _ = LOCAL.try_with(|l| l.paused.set(l.paused.get() + 1));
        let result = f();
        let _ = LOCAL.try_with(|l| l.paused.set(l.paused.get().saturating_sub(1)));
        result
    }

    pub(super) fn add(c: Counter, n: u64) {
        with_local(|l| {
            let cell = &l.counters[c as usize];
            cell.set(cell.get() + n);
        });
    }

    pub(super) fn gauge_max(g: Gauge, v: u64) {
        with_local(|l| {
            let cell = &l.gauges[g as usize];
            cell.set(cell.get().max(v));
        });
    }

    pub(super) fn digit_len_record(bucket: usize) {
        with_local(|l| {
            let cell = &l.digit_len[bucket.min(DIGIT_LEN_BUCKETS - 1)];
            cell.set(cell.get() + 1);
        });
    }

    pub(super) fn shard_len_record(values: usize) {
        let bucket = (values.max(1).ilog2() as usize).min(SHARD_LEN_BUCKETS - 1);
        with_local(|l| {
            let cell = &l.shard_len[bucket];
            cell.set(cell.get() + 1);
        });
    }

    pub(super) fn flush_thread() {
        with_local(Local::flush);
    }

    pub(super) fn reset() {
        with_local(|l| {
            for c in &l.counters {
                c.set(0);
            }
            for g in &l.gauges {
                g.set(0);
            }
            for b in &l.digit_len {
                b.set(0);
            }
            for b in &l.shard_len {
                b.set(0);
            }
        });
        for a in GLOBAL
            .counters
            .iter()
            .chain(&GLOBAL.gauges)
            .chain(&GLOBAL.digit_len)
            .chain(&GLOBAL.shard_len)
        {
            a.store(0, Ordering::Relaxed);
        }
    }

    pub(super) fn capture() -> super::TelemetrySnapshot {
        flush_thread();
        let mut snap = super::TelemetrySnapshot::default();
        for (i, a) in GLOBAL.counters.iter().enumerate() {
            snap.counters[i] = a.load(Ordering::Relaxed);
        }
        for (i, a) in GLOBAL.gauges.iter().enumerate() {
            snap.gauges[i] = a.load(Ordering::Relaxed);
        }
        for (i, a) in GLOBAL.digit_len.iter().enumerate() {
            snap.digit_len[i] = a.load(Ordering::Relaxed);
        }
        for (i, a) in GLOBAL.shard_len.iter().enumerate() {
            snap.shard_len_log2[i] = a.load(Ordering::Relaxed);
        }
        snap
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, Gauge};

    /// The disabled build's entire state: nothing. A unit test asserts this
    /// stays zero-sized, so a disabled binary carries no telemetry data at
    /// all (the codegen-size guarantee).
    pub(super) struct Global;

    /// Zero-sized, like [`Global`].
    pub(super) static GLOBAL: Global = Global;

    #[inline(always)]
    pub(super) fn paused<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    pub(super) fn add(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub(super) fn gauge_max(_g: Gauge, _v: u64) {}

    #[inline(always)]
    pub(super) fn digit_len_record(_bucket: usize) {}

    #[inline(always)]
    pub(super) fn shard_len_record(_values: usize) {}

    #[inline(always)]
    pub(super) fn flush_thread() {}

    #[inline(always)]
    pub(super) fn reset() {}

    #[inline(always)]
    pub(super) fn capture() -> super::TelemetrySnapshot {
        let _: &Global = &GLOBAL; // zero-sized: nothing to read, nothing to copy
        super::TelemetrySnapshot::default()
    }
}

// ---------------------------------------------------------------------------
// Recording API (the functions instrumented crates call).
// ---------------------------------------------------------------------------

/// Records one completed digit-generation loop: how many digits it emitted
/// and which termination condition ended it.
#[inline(always)]
pub fn record_generation(digit_count: usize, term: Termination) {
    imp::add(Counter::CoreConversions, 1);
    imp::add(Counter::CoreDigitsEmitted, digit_count as u64);
    imp::digit_len_record(digit_count);
    match term {
        Termination::Low => imp::add(Counter::CoreTermLow, 1),
        Termination::High => imp::add(Counter::CoreTermHigh, 1),
        Termination::Tie { rounded_up } => {
            imp::add(Counter::CoreTermTie, 1);
            imp::add(
                if rounded_up {
                    Counter::CoreTieRoundUp
                } else {
                    Counter::CoreTieRoundDown
                },
                1,
            );
        }
    }
}

/// Records one scaling-estimate check: `fixed_up` is true when the §3.2
/// estimate was one low and the penalty-free fixup fired.
#[inline(always)]
pub fn record_scale(fixed_up: bool) {
    imp::add(
        if fixed_up {
            Counter::CoreScaleFixups
        } else {
            Counter::CoreScaleExact
        },
        1,
    );
}

/// Records a violation of the §3.2 "estimate within one" contract — the
/// monitored invariant. Any non-zero count is a bug in the estimator.
#[inline(always)]
pub fn record_scale_violation() {
    imp::add(Counter::CoreScaleViolations, 1);
}

/// Records one free-format conversion of a finite value: `hit` is true
/// when the shortest tier answered it, false when the configuration sent
/// it to the exact engine.
#[inline(always)]
pub fn record_fastpath(hit: bool) {
    imp::add(
        if hit {
            Counter::CoreFastPathHits
        } else {
            Counter::CoreFastPathFallbacks
        },
        1,
    );
}

/// Records one fixed-format conversion of a finite value: `hit` is true
/// when the fixed tier answered it, false when it ran the exact engine.
#[inline(always)]
pub fn record_fixed_tier(hit: bool) {
    imp::add(
        if hit {
            Counter::CoreFixedTierHits
        } else {
            Counter::CoreFixedTierFallbacks
        },
        1,
    );
}

/// Records a scratch-arena take; `recycled` is false when the pool was
/// empty and a fresh buffer had to be created (the steady-state-allocation
/// warning signal).
#[inline(always)]
pub fn record_scratch_take(recycled: bool) {
    imp::add(Counter::ScratchTakes, 1);
    if !recycled {
        imp::add(Counter::ScratchPoolMisses, 1);
    }
}

/// Records a scratch-arena put: the pool length after parking the buffer
/// and the buffer's limb capacity (both tracked as high-water gauges).
#[inline(always)]
pub fn record_scratch_put(pool_len: usize, limb_capacity: usize) {
    imp::add(Counter::ScratchPuts, 1);
    imp::gauge_max(Gauge::ScratchPoolHwm, pool_len as u64);
    imp::gauge_max(Gauge::ScratchLimbsHwm, limb_capacity as u64);
}

/// Records one serial batch conversion.
#[inline(always)]
pub fn record_serial_batch() {
    imp::add(Counter::BatchSerialBatches, 1);
}

/// Records one sharded batch conversion and how many shards it used.
#[inline(always)]
pub fn record_sharded_batch(shards: usize) {
    imp::add(Counter::BatchShardedBatches, 1);
    imp::add(Counter::BatchShardsRun, shards as u64);
}

/// Records one shard run of `values` values (shard-length histogram plus
/// the sharded-values total).
#[inline(always)]
pub fn record_shard(values: usize) {
    imp::add(Counter::BatchShardedValues, values as u64);
    imp::shard_len_record(values);
}

/// Records the bytes copied while stitching shard arenas in input order.
#[inline(always)]
pub fn record_stitch_bytes(bytes: usize) {
    imp::add(Counter::BatchStitchBytes, bytes as u64);
}

/// Which conversion tier answered one finite read (cheapest first — the
/// reader tries them in this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Clinger's fast path: one exact hardware multiply or divide.
    FastPath,
    /// The Eisel–Lemire truncated 64×128-bit product.
    EiselLemire,
    /// The exact big-integer fallback.
    Exact,
}

/// Records one finite read and which tier answered it.
#[inline(always)]
pub fn record_read(path: ReadPath) {
    imp::add(Counter::ReaderReads, 1);
    imp::add(
        match path {
            ReadPath::FastPath => Counter::ReaderFastPathHits,
            ReadPath::EiselLemire => Counter::ReaderEiselLemireHits,
            ReadPath::Exact => Counter::ReaderExactFallbacks,
        },
        1,
    );
}

/// Records one serial bulk parse of `values` strings.
#[inline(always)]
pub fn record_parse_batch(values: usize) {
    imp::add(Counter::ReaderBatchSerial, 1);
    imp::add(Counter::ReaderBatchValues, values as u64);
}

/// Records one sharded bulk parse: how many shards it used and the total
/// string count.
#[inline(always)]
pub fn record_parse_batch_sharded(shards: usize, values: usize) {
    imp::add(Counter::ReaderBatchSharded, 1);
    imp::add(Counter::ReaderBatchShards, shards as u64);
    imp::add(Counter::ReaderBatchValues, values as u64);
}

/// Drains the calling thread's private block into the global aggregate.
/// Short-lived threads (the batch shard workers) flush automatically at
/// exit; long-lived worker threads should call this before another thread
/// captures a snapshot.
#[inline(always)]
pub fn flush_thread() {
    imp::flush_thread();
}

/// Zeros the global aggregate and the calling thread's private block (for
/// benches and tests; other live threads' unflushed blocks are untouched).
#[inline(always)]
pub fn reset() {
    imp::reset();
}

/// Runs `f` with this thread's recording suspended: every `record_*` call
/// made inside (at any depth — the suspension nests) is dropped instead of
/// counted. Infrastructure traffic such as [`DtoaContext::warm_up`]'s
/// priming conversions uses this so lazily-constructed contexts never
/// contaminate live counters mid-measurement. Keep the region short and
/// don't capture or reset inside it (both are thread-block operations and
/// would be skipped too). No-op overhead when telemetry is disabled.
///
/// [`DtoaContext::warm_up`]: https://docs.rs/fpp-core
#[inline(always)]
pub fn with_recording_paused<R>(f: impl FnOnce() -> R) -> R {
    imp::paused(f)
}

// ---------------------------------------------------------------------------
// Snapshot + exposition.
// ---------------------------------------------------------------------------

/// A point-in-time copy of every metric: plain data, detached from the live
/// registry. All-zero when the `enabled` feature is off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Gauge values, indexed by `Gauge as usize`.
    pub gauges: [u64; Gauge::COUNT],
    /// Digits-per-conversion histogram (bucket = digit count, last bucket
    /// absorbs overflow). Sums to `core_conversions`.
    pub digit_len: [u64; DIGIT_LEN_BUCKETS],
    /// Shard-length histogram (bucket `i` = shard of `2^i..2^(i+1)`
    /// values). Sums to `batch_shards_run`.
    pub shard_len_log2: [u64; SHARD_LEN_BUCKETS],
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            digit_len: [0; DIGIT_LEN_BUCKETS],
            shard_len_log2: [0; SHARD_LEN_BUCKETS],
        }
    }
}

impl TelemetrySnapshot {
    /// Flushes the calling thread and copies the global aggregate.
    #[must_use]
    pub fn capture() -> Self {
        imp::capture()
    }

    /// The value of one counter.
    #[must_use]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The value of one high-water gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Fraction of finite free-format conversions the shortest tier
    /// answered (0 when none were recorded).
    #[must_use]
    pub fn fastpath_hit_rate(&self) -> f64 {
        ratio(
            self.get(Counter::CoreFastPathHits),
            self.get(Counter::CoreFastPathHits) + self.get(Counter::CoreFastPathFallbacks),
        )
    }

    /// Fraction of finite reads answered without big-integer work (Clinger
    /// or Eisel–Lemire; 0 when no reads were recorded).
    #[must_use]
    pub fn reader_fastpath_rate(&self) -> f64 {
        ratio(
            self.get(Counter::ReaderFastPathHits) + self.get(Counter::ReaderEiselLemireHits),
            self.get(Counter::ReaderReads),
        )
    }

    /// Fraction of scaling estimates that needed the one-step fixup.
    #[must_use]
    pub fn fixup_rate(&self) -> f64 {
        ratio(
            self.get(Counter::CoreScaleFixups),
            self.get(Counter::CoreScaleFixups) + self.get(Counter::CoreScaleExact),
        )
    }

    /// Mean digits emitted per conversion (the paper's §5 statistic).
    #[must_use]
    pub fn mean_digits(&self) -> f64 {
        ratio(
            self.get(Counter::CoreDigitsEmitted),
            self.get(Counter::CoreConversions),
        )
    }

    /// Serializes every metric as one JSON object (stable keys; no
    /// dependencies — the writer is hand-rolled like the bench reports).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"schema_version\": 1,\n");
        let _ = writeln!(s, "  \"enabled\": {ENABLED},");
        s.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let comma = if i + 1 < Counter::COUNT { "," } else { "" };
            let _ = writeln!(s, "    \"{}\": {}{comma}", c.name(), self.get(*c));
        }
        s.push_str("  },\n  \"gauges\": {\n");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let comma = if i + 1 < Gauge::COUNT { "," } else { "" };
            let _ = writeln!(s, "    \"{}\": {}{comma}", g.name(), self.gauge(*g));
        }
        s.push_str("  },\n  \"histograms\": {\n");
        let _ = writeln!(
            s,
            "    \"core_digit_len\": {},",
            json_array(&self.digit_len)
        );
        let _ = writeln!(
            s,
            "    \"batch_shard_len_log2\": {}",
            json_array(&self.shard_len_log2)
        );
        s.push_str("  }\n}\n");
        s
    }

    /// Serializes every metric in the Prometheus text exposition format
    /// (`# TYPE` comments, `fpp_`-prefixed names, cumulative histogram
    /// buckets with `le` labels plus `_sum`/`_count` series).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        for c in Counter::ALL {
            let _ = writeln!(s, "# TYPE fpp_{} counter", c.name());
            let _ = writeln!(s, "fpp_{} {}", c.name(), self.get(c));
        }
        for g in Gauge::ALL {
            let _ = writeln!(s, "# TYPE fpp_{} gauge", g.name());
            let _ = writeln!(s, "fpp_{} {}", g.name(), self.gauge(g));
        }
        prometheus_histogram(
            &mut s,
            "fpp_core_digit_len",
            &self.digit_len,
            self.get(Counter::CoreDigitsEmitted),
        );
        prometheus_histogram(
            &mut s,
            "fpp_batch_shard_len_log2",
            &self.shard_len_log2,
            self.get(Counter::BatchShardedValues),
        );
        s
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn json_array(buckets: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, b) in buckets.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{b}");
    }
    s.push(']');
    s
}

/// Emits one histogram in Prometheus form: cumulative `_bucket{le="..."}`
/// series, `_sum` (supplied by the caller from the matching counter) and
/// `_count`.
fn prometheus_histogram(s: &mut String, name: &str, buckets: &[u64], sum: u64) {
    let _ = writeln!(s, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        let _ = writeln!(s, "{name}_bucket{{le=\"{i}\"}} {cumulative}");
    }
    let _ = writeln!(s, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(s, "{name}_sum {sum}");
    let _ = writeln!(s, "{name}_count {cumulative}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exposition names are unique and lowercase-with-underscores (stable
    /// JSON keys, valid Prometheus names when prefixed).
    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
        {
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "bad metric name {name}"
            );
        }
    }

    /// Every Prometheus line is either a comment or `name[{labels}] value`
    /// with a parseable value — the line-format contract scrapers rely on.
    fn assert_prometheus_parses(text: &str) {
        for line in text.lines() {
            if line.starts_with("# TYPE ") {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("metric SP value");
            let name_end = metric.find('{').unwrap_or(metric.len());
            let name = &metric[..name_end];
            assert!(
                !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                "bad metric name in line: {line}"
            );
            if name_end < metric.len() {
                let labels = &metric[name_end..];
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "bad label block in line: {line}"
                );
            }
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in line: {line}"
            );
        }
    }

    #[test]
    fn snapshot_exposition_formats_are_well_formed() {
        let mut snap = TelemetrySnapshot::default();
        snap.counters[Counter::CoreConversions as usize] = 3;
        snap.counters[Counter::CoreDigitsEmitted as usize] = 17;
        snap.digit_len[5] = 1;
        snap.digit_len[6] = 2;
        let prom = snap.to_prometheus();
        assert_prometheus_parses(&prom);
        assert!(prom.contains("fpp_core_digit_len_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("fpp_core_digit_len_sum 17"));
        let json = snap.to_json();
        assert!(json.contains("\"core_conversions\": 3"));
        assert!(json.contains("\"core_digit_len\": [0, 0, 0, 0, 0, 1, 2,"));
        // Rough JSON well-formedness: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn derived_rates_handle_empty_and_populated() {
        let mut snap = TelemetrySnapshot::default();
        assert_eq!(snap.fixup_rate(), 0.0);
        assert_eq!(snap.mean_digits(), 0.0);
        snap.counters[Counter::CoreFastPathHits as usize] = 3;
        snap.counters[Counter::CoreFastPathFallbacks as usize] = 1;
        snap.counters[Counter::CoreScaleFixups as usize] = 1;
        snap.counters[Counter::CoreScaleExact as usize] = 3;
        snap.counters[Counter::CoreDigitsEmitted as usize] = 34;
        snap.counters[Counter::CoreConversions as usize] = 2;
        assert!((snap.fastpath_hit_rate() - 0.75).abs() < 1e-12);
        assert!((snap.fixup_rate() - 0.25).abs() < 1e-12);
        assert!((snap.mean_digits() - 17.0).abs() < 1e-12);
    }

    #[cfg(not(feature = "enabled"))]
    mod disabled {
        use super::super::*;

        /// The codegen-size assertion: a disabled build's entire telemetry
        /// state is zero-sized, so instrumentation adds no data to the
        /// binary and no work to the hot paths.
        #[test]
        fn disabled_state_is_zero_sized() {
            const { assert!(!ENABLED) };
            assert_eq!(std::mem::size_of::<crate::imp::Global>(), 0);
        }

        /// Recording is a no-op: the snapshot stays all-zero no matter how
        /// much the pipeline reports.
        #[test]
        fn disabled_recording_is_a_no_op() {
            for i in 0..100 {
                record_generation(17, Termination::Low);
                record_scale(i % 2 == 0);
                record_scratch_take(false);
                record_scratch_put(4, 128);
                record_fastpath(true);
                record_shard(4096);
                record_read(ReadPath::FastPath);
                record_parse_batch(16);
                record_parse_batch_sharded(4, 100_000);
            }
            flush_thread();
            assert_eq!(TelemetrySnapshot::capture(), TelemetrySnapshot::default());
        }
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;

        /// One test covers accumulation, cross-thread flush-on-exit, reset
        /// and capture — a single `#[test]` because the registry is
        /// process-global and the harness runs tests concurrently.
        #[test]
        fn records_aggregate_across_threads() {
            const { assert!(ENABLED) };
            reset();
            record_generation(5, Termination::Low);
            record_generation(17, Termination::Tie { rounded_up: true });
            record_scale(true);
            record_scale(false);
            record_scratch_take(true);
            record_scratch_take(false);
            record_scratch_put(3, 64);
            std::thread::spawn(|| {
                record_generation(17, Termination::High);
                record_fastpath(true);
                record_shard(5000);
                record_read(ReadPath::Exact);
                record_read(ReadPath::EiselLemire);
                record_parse_batch_sharded(2, 5000);
                record_scratch_put(2, 999);
                // No explicit flush: thread exit drains the block.
            })
            .join()
            .expect("worker");
            // Paused recording drops everything inside the region (nested
            // pauses included) and resumes cleanly afterwards.
            with_recording_paused(|| {
                record_generation(9, Termination::Low);
                with_recording_paused(|| record_fastpath(true));
                record_fastpath(false);
            });
            record_fastpath(true);
            record_fastpath(false);
            let snap = TelemetrySnapshot::capture();
            assert_eq!(snap.get(Counter::CoreFastPathHits), 2);
            assert_eq!(
                snap.get(Counter::CoreFastPathFallbacks),
                1,
                "paused record dropped"
            );
            assert_eq!(snap.get(Counter::CoreConversions), 3);
            assert_eq!(snap.get(Counter::CoreDigitsEmitted), 39);
            assert_eq!(snap.get(Counter::CoreTermLow), 1);
            assert_eq!(snap.get(Counter::CoreTermHigh), 1);
            assert_eq!(snap.get(Counter::CoreTermTie), 1);
            assert_eq!(snap.get(Counter::CoreTieRoundUp), 1);
            assert_eq!(snap.get(Counter::CoreScaleFixups), 1);
            assert_eq!(snap.get(Counter::CoreScaleExact), 1);
            assert_eq!(snap.get(Counter::ScratchPoolMisses), 1);
            assert_eq!(snap.get(Counter::ScratchTakes), 2);
            assert_eq!(snap.get(Counter::ReaderExactFallbacks), 1);
            assert_eq!(snap.get(Counter::ReaderEiselLemireHits), 1);
            assert_eq!(snap.get(Counter::ReaderReads), 2);
            assert_eq!(snap.get(Counter::ReaderBatchSharded), 1);
            assert_eq!(snap.get(Counter::ReaderBatchShards), 2);
            assert_eq!(snap.get(Counter::ReaderBatchValues), 5000);
            assert!((snap.reader_fastpath_rate() - 0.5).abs() < 1e-12);
            assert_eq!(snap.gauge(Gauge::ScratchLimbsHwm), 999);
            assert_eq!(snap.gauge(Gauge::ScratchPoolHwm), 3);
            assert_eq!(snap.digit_len[5], 1);
            assert_eq!(snap.digit_len[17], 2);
            assert_eq!(snap.shard_len_log2[12], 1, "5000 lands in 2^12 bucket");
            assert_eq!(snap.digit_len.iter().sum::<u64>(), 3);
            // Histogram overflow bucket.
            record_generation(1000, Termination::Low);
            let snap = TelemetrySnapshot::capture();
            assert_eq!(snap.digit_len[DIGIT_LEN_BUCKETS - 1], 1);
            // Reset zeroes everything.
            reset();
            assert_eq!(TelemetrySnapshot::capture(), TelemetrySnapshot::default());
        }
    }
}
