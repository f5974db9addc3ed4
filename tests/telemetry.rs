//! End-to-end checks of the live instrumentation (`--features telemetry`):
//! the registry's view of the exact engine must agree with an offline
//! recount and with the §3.2 scaling contract, the shortest tier must
//! account for every value of a batch run, the fixed tier for every finite
//! fixed-format value, and the exposition formats must stay
//! machine-readable.
//!
//! Everything lives in ONE `#[test]` function: the registry is
//! process-global and the harness runs test functions concurrently, so
//! exact-count assertions must not share a binary with other recording
//! tests. (`Cargo.toml` gates this target behind the `telemetry` feature.)

use fpp::batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp::core::{
    free_format_digits, DtoaContext, FixedFormat, FreeFormat, ScalingStrategy, TieBreak,
};
use fpp::float::{RoundingMode, SoftFloat};
use fpp::telemetry::{self, Counter, TelemetrySnapshot, DIGIT_LEN_BUCKETS};
use fpp::testgen::{log_uniform_doubles, SchryerSet};

/// Offline digit-length recount over distinct values of the workload.
fn offline_hist(values: &[f64]) -> [u64; DIGIT_LEN_BUCKETS] {
    let mut counts = std::collections::HashMap::new();
    for &v in values {
        *counts.entry(v.to_bits()).or_insert(0u64) += 1;
    }
    let mut powers = fpp::bignum::PowerTable::with_capacity(10, 350);
    let mut hist = [0u64; DIGIT_LEN_BUCKETS];
    for (&bits, &count) in &counts {
        let sf = SoftFloat::from_f64(f64::from_bits(bits).abs()).expect("finite");
        let d = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        hist[d.digits.len().min(DIGIT_LEN_BUCKETS - 1)] += count;
    }
    hist
}

/// Minimal Prometheus text-format validation: every line is a `# TYPE`
/// comment or `name[{labels}] value` with a parseable value.
fn assert_prometheus_parses(text: &str) {
    assert!(!text.is_empty());
    for line in text.lines() {
        if line.starts_with("# TYPE ") {
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line is not `metric SP value`: {line}"));
        let name_end = metric.find('{').unwrap_or(metric.len());
        assert!(
            !metric[..name_end].is_empty()
                && metric[..name_end]
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "bad metric name: {line}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad sample value: {line}"
        );
    }
}

#[test]
fn live_counters_agree_with_offline_recount() {
    // This target only exists with --features telemetry (Cargo.toml gates it).
    const { assert!(telemetry::ENABLED) };
    let n = 20_000;
    let values: Vec<f64> = log_uniform_doubles(0xBEEF).take(n).collect();

    // Contexts and formatters warm up real conversions at construction —
    // build them all before resetting the counters.
    let mut ctx = DtoaContext::new(10);
    ctx.warm_up();
    let exact = FreeFormat::new().fast_path(false);
    let mut batch = BatchFormatter::new();
    let mut out = BatchOutput::new();
    let offline = offline_hist(&values);

    // Pass 1: the exact engine alone, every value through the digit loop
    // exactly once.
    telemetry::reset();
    let mut text = Vec::new();
    for &v in &values {
        text.clear();
        exact.write_to(&mut ctx, &mut text, v);
    }
    let snap = TelemetrySnapshot::capture();

    assert_eq!(snap.get(Counter::CoreConversions), n as u64);
    assert_eq!(
        snap.digit_len, offline,
        "live digit-length histogram diverges from the offline recount"
    );
    assert_eq!(
        snap.digit_len.iter().sum::<u64>(),
        snap.get(Counter::CoreConversions),
        "histogram mass equals conversion count"
    );
    assert_eq!(
        snap.get(Counter::CoreDigitsEmitted),
        offline
            .iter()
            .enumerate()
            .map(|(len, &c)| len as u64 * c)
            .sum::<u64>(),
        "digit total agrees with the recount"
    );
    assert_eq!(
        snap.get(Counter::CoreTermLow)
            + snap.get(Counter::CoreTermHigh)
            + snap.get(Counter::CoreTermTie),
        n as u64,
        "every loop records exactly one termination cause"
    );
    assert_eq!(
        snap.get(Counter::CoreScaleExact) + snap.get(Counter::CoreScaleFixups),
        n as u64,
        "every conversion records exactly one scale-estimate check"
    );
    assert_eq!(
        snap.get(Counter::CoreScaleViolations),
        0,
        "§3.2 'within one' contract violated"
    );
    assert!(
        snap.get(Counter::ScratchTakes) > 0,
        "scratch arena instrumentation is wired"
    );
    assert_eq!(
        snap.get(Counter::CoreFastPathHits),
        0,
        "a tier-disabled formatter must not record tier answers"
    );
    assert_eq!(
        snap.get(Counter::CoreFastPathFallbacks),
        n as u64,
        "every exact-engine conversion records one fallback"
    );

    // Tier pass: the batch engine's recipe is answered entirely by the
    // shortest tier; the exact engine never runs.
    telemetry::reset();
    batch.format_f64s(&values, &mut out);
    let snap = TelemetrySnapshot::capture();
    assert_eq!(snap.get(Counter::BatchSerialBatches), 1);
    assert_eq!(snap.get(Counter::CoreFastPathHits), n as u64);
    assert_eq!(snap.get(Counter::CoreFastPathFallbacks), 0);
    assert_eq!(snap.get(Counter::CoreConversions), 0, "exact engine idle");
    assert!((snap.fastpath_hit_rate() - 1.0).abs() < 1e-12);

    // Fixed tier: at the paper's 17 significant digits it answers every
    // value of a Schryer sample, and the exact engine never runs.
    let schryer: Vec<f64> = SchryerSet::new().iter().step_by(50).collect();
    let fixed17 = FixedFormat::new();
    telemetry::reset();
    for &v in &schryer {
        text.clear();
        fixed17.write_to(&mut ctx, &mut text, v);
    }
    let snap = TelemetrySnapshot::capture();
    assert_eq!(snap.get(Counter::CoreFixedTierHits), schryer.len() as u64);
    assert_eq!(snap.get(Counter::CoreFixedTierFallbacks), 0);
    assert_eq!(snap.get(Counter::CoreConversions), 0, "exact engine idle");

    // Every finite fixed-format value records one tier hit or one fallback;
    // specials record neither. Three significant digits and 30 fraction
    // digits are coarser and finer than most values' own precision.
    telemetry::reset();
    let formats = [
        FixedFormat::new(),
        FixedFormat::new().significant_digits(3),
        FixedFormat::new().fraction_digits(30),
    ];
    let mixed = [1.0 / 3.0, -2.5, 1e23, 5e-324, 0.0, f64::NAN, f64::INFINITY];
    for fmt in &formats {
        for &v in &mixed {
            text.clear();
            fmt.write_to(&mut ctx, &mut text, v);
        }
    }
    let snap = TelemetrySnapshot::capture();
    let finite =
        (formats.len() * mixed.iter().filter(|v| v.is_finite() && **v != 0.0).count()) as u64;
    assert_eq!(
        snap.get(Counter::CoreFixedTierHits) + snap.get(Counter::CoreFixedTierFallbacks),
        finite,
        "one record per finite fixed-format conversion"
    );
    assert!(snap.get(Counter::CoreFixedTierHits) > 0);
    assert!(snap.get(Counter::CoreFixedTierFallbacks) > 0);

    // Sharded pass: worker threads flush their blocks when the scope joins
    // them, so the aggregate sees every shard's values.
    telemetry::reset();
    let mut sharded = BatchFormatter::with_options(BatchOptions {
        threads: Some(3),
        min_shard_len: 8,
    });
    let mut sharded_out = BatchOutput::new();
    let column: Vec<f64> = values.iter().copied().take(10_000).collect();
    sharded.format_f64s_sharded(&column, &mut sharded_out);
    let snap = TelemetrySnapshot::capture();
    assert_eq!(snap.get(Counter::BatchShardedBatches), 1);
    assert_eq!(snap.get(Counter::BatchShardsRun), 3);
    assert_eq!(
        snap.get(Counter::BatchShardedValues),
        column.len() as u64,
        "shard lengths sum to the input length"
    );
    assert!(snap.get(Counter::BatchStitchBytes) > 0);
    assert_eq!(
        snap.get(Counter::CoreFastPathHits),
        column.len() as u64,
        "the shortest tier answers every sharded value"
    );
    assert_eq!(
        snap.get(Counter::CoreFastPathFallbacks) + snap.get(Counter::CoreConversions),
        0,
        "exact engine idle in the sharded pass"
    );
    assert_eq!(
        snap.shard_len_log2.iter().sum::<u64>(),
        snap.get(Counter::BatchShardsRun),
        "shard histogram mass equals shard count"
    );

    // Reader wiring: a short literal takes Clinger's fast path, a
    // 20-significant-digit one is answered by Eisel–Lemire, and the exact
    // 53-digit decimal expansion of 1 + 2^-53 (a tie whose tail extends
    // past the 19-digit scan window, so the w/w+1 bracket straddles the
    // halfway point) falls back to exact big-integer conversion.
    telemetry::reset();
    assert_eq!(fpp::reader::read_f64("0.5").unwrap(), 0.5);
    let _ = fpp::reader::read_f64("1.2345678901234567890e-300").unwrap();
    let tie = "1.00000000000000011102230246251565404236316680908203125";
    assert_eq!(fpp::reader::read_f64(tie).unwrap(), 1.0, "ties to even");
    let snap = TelemetrySnapshot::capture();
    assert_eq!(snap.get(Counter::ReaderReads), 3);
    assert_eq!(snap.get(Counter::ReaderFastPathHits), 1);
    assert_eq!(snap.get(Counter::ReaderEiselLemireHits), 1);
    assert_eq!(snap.get(Counter::ReaderExactFallbacks), 1);
    assert!((snap.reader_fastpath_rate() - 2.0 / 3.0).abs() < 1e-12);

    // Bulk-parse wiring: serial and sharded calls report batch counters.
    telemetry::reset();
    let parser = fpp::BatchParser::new();
    let strings = ["0.1", "2.5", "3.25e4"];
    parser.parse_f64s(&strings).expect("valid column");
    let sharded_parser = fpp::BatchParser::with_options(fpp::BatchParseOptions {
        threads: Some(3),
        min_shard_len: 1,
    });
    sharded_parser.parse_f64s(&strings).expect("valid column");
    let snap = TelemetrySnapshot::capture();
    assert_eq!(snap.get(Counter::ReaderBatchSerial), 1);
    assert_eq!(snap.get(Counter::ReaderBatchSharded), 1);
    assert_eq!(snap.get(Counter::ReaderBatchShards), 3);
    assert_eq!(snap.get(Counter::ReaderBatchValues), 6);
    assert_eq!(snap.get(Counter::ReaderReads), 6, "per-shard reads flushed");

    // Exposition smoke: Prometheus lines parse, JSON carries the stable keys.
    let prom = snap.to_prometheus();
    assert_prometheus_parses(&prom);
    assert!(prom.contains("# TYPE fpp_core_conversions counter"));
    assert!(prom.contains("# TYPE fpp_core_fastpath_hits counter"));
    assert!(prom.contains("fpp_reader_reads 6"));
    assert!(prom.contains("fpp_core_digit_len_bucket{le=\"+Inf\"}"));
    let json = snap.to_json();
    for key in [
        "\"schema_version\"",
        "\"core_conversions\"",
        "\"core_fastpath_hits\"",
        "\"core_fastpath_fallbacks\"",
        "\"core_fixed_tier_hits\"",
        "\"core_fixed_tier_fallbacks\"",
        "\"scratch_pool_hwm\"",
        "\"core_digit_len\"",
        "\"batch_shard_len_log2\"",
    ] {
        assert!(json.contains(key), "JSON missing {key}");
    }
}
