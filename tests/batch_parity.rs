//! Byte-for-byte parity of the batch engine against the per-value API.
//!
//! Every batch path — serial and sharded at several thread counts — must
//! reproduce [`fpp::print_shortest`]'s exact bytes over the Schryer hard
//! cases, log-uniform doubles, the special-value gallery (signed zeros,
//! subnormals, infinities, NaN), and duplicate-heavy columns. Buffer-reuse stability is asserted here too;
//! the steady-state *zero-allocation* proof lives with the counting global
//! allocator in `tests/alloc_count.rs`.

use fpp::batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp::testgen::{log_uniform_doubles, special_values, SchryerSet};
use fpp::{print_shortest, FreeFormat};

/// Schryer workload, subsampled so the debug-profile run stays quick while
/// release CI covers a denser slice.
fn schryer_workload() -> Vec<f64> {
    let step = if cfg!(debug_assertions) { 32 } else { 4 };
    SchryerSet::new()
        .collect()
        .into_iter()
        .step_by(step)
        .collect()
}

/// Special values plus their negations: signed zeros, subnormal boundary
/// cases, infinities and NaN (policy: `NaN`, `inf`, `-inf`, `-0`).
fn specials() -> Vec<f64> {
    let mut vals = special_values();
    vals.extend(special_values().iter().map(|v| -v));
    vals.extend([0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE, f64::MAX]);
    vals
}

/// A formatter whose sharded path really shards, regardless of host cores.
fn sharded_formatter(threads: usize) -> BatchFormatter {
    BatchFormatter::with_options(BatchOptions {
        threads: Some(threads),
        min_shard_len: 8,
    })
}

fn assert_parity(values: &[f64], out: &BatchOutput, label: &str) {
    assert_eq!(out.len(), values.len(), "{label}: entry count");
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(
            out.get(i),
            print_shortest(v),
            "{label}: index {i} (bits {:#x})",
            v.to_bits()
        );
    }
}

#[test]
fn serial_batch_matches_print_shortest_on_schryer() {
    let values = schryer_workload();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "serial");
}

#[test]
fn sharded_batch_matches_serial_at_any_thread_count() {
    let values = schryer_workload();
    let mut serial = BatchOutput::new();
    BatchFormatter::new().format_f64s(&values, &mut serial);
    for threads in [1, 2, 3, 7] {
        let mut fmt = sharded_formatter(threads);
        let mut out = BatchOutput::new();
        fmt.format_f64s_sharded(&values, &mut out);
        assert_eq!(
            serial.arena(),
            out.arena(),
            "sharded({threads}) arena differs from serial"
        );
        assert_eq!(
            serial.offsets(),
            out.offsets(),
            "sharded({threads}) offsets"
        );
    }
}

#[test]
fn log_uniform_columns_match_print_shortest_serial_and_sharded() {
    let values: Vec<f64> = log_uniform_doubles(42).take(20_000).collect();
    let mut out = BatchOutput::new();
    BatchFormatter::new().format_f64s(&values, &mut out);
    assert_parity(&values, &out, "log-uniform serial");
    let mut out_sh = BatchOutput::new();
    sharded_formatter(3).format_f64s_sharded(&values, &mut out_sh);
    assert_eq!(out.arena(), out_sh.arena(), "log-uniform sharded arena");
    assert_eq!(
        out.offsets(),
        out_sh.offsets(),
        "log-uniform sharded offsets"
    );
}

#[test]
fn special_values_follow_the_per_value_policy() {
    let values = specials();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "specials serial");

    // Twice, so the second pass runs on the reused buffers.
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "specials reused");

    let mut sharded = sharded_formatter(3);
    let mut out_sh = BatchOutput::new();
    sharded.format_f64s_sharded(&values, &mut out_sh);
    assert_parity(&values, &out_sh, "specials sharded");
}

#[test]
fn duplicate_heavy_columns_match_print_shortest() {
    // 40 distinct values repeated through a 20,000-value column.
    let pool: Vec<f64> = SchryerSet::new().iter().step_by(977).take(40).collect();
    let values: Vec<f64> = (0..20_000).map(|i| pool[(i * 7 + i / 13) % 40]).collect();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    assert_parity(&values, &out, "duplicate-heavy");
}

#[test]
fn f32_columns_use_f32_boundaries() {
    let free = FreeFormat::new();
    let mut values: Vec<f32> = (0u32..20_000)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    values.extend([0.1f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE]);
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f32s(&values, &mut out);
    let mut sharded = sharded_formatter(3);
    let mut out_sh = BatchOutput::new();
    sharded.format_f32s_sharded(&values, &mut out_sh);
    for (i, &v) in values.iter().enumerate() {
        let expected = free.format_f32(v);
        assert_eq!(out.get(i), expected, "f32 serial index {i}");
    }
    assert_eq!(out.arena(), out_sh.arena(), "f32 sharded arena");
    assert_eq!(out.offsets(), out_sh.offsets());
}

#[test]
fn offsets_table_is_well_formed() {
    let values = specials();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    let offsets = out.offsets();
    assert_eq!(offsets.len(), values.len() + 1);
    assert_eq!(offsets[0], 0);
    assert_eq!(*offsets.last().unwrap() as usize, out.total_bytes());
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "monotonic offsets"
    );
    let concatenated: String = out.iter().collect();
    assert_eq!(concatenated.as_bytes(), out.arena());
}

#[test]
fn reused_buffers_stay_stable_across_batches() {
    let values = schryer_workload();
    let mut fmt = BatchFormatter::new();
    let mut out = BatchOutput::new();
    fmt.format_f64s(&values, &mut out);
    let first: Vec<String> = out.iter().map(str::to_owned).collect();
    let arena_ptr = out.arena().as_ptr();
    // Second batch into the same output: identical bytes, and the arena
    // must not reallocate (clear() keeps capacity; same input → same
    // high-water mark). The allocator-level proof is in alloc_count.rs.
    fmt.format_f64s(&values, &mut out);
    assert!(out.iter().eq(first.iter().map(String::as_str)));
    assert_eq!(
        out.arena().as_ptr(),
        arena_ptr,
        "arena reallocated on an identical second batch"
    );
}

#[test]
fn serializers_agree_with_per_value_output() {
    let column = [0.1, 1e23, f64::NAN, -0.0, 5e-324, f64::NEG_INFINITY];
    let mut fmt = BatchFormatter::new();

    let mut csv = Vec::new();
    fmt.write_csv(&[("v", &column[..])], &mut csv);
    let expected_csv = std::iter::once("v".to_string())
        .chain(column.iter().map(|&v| print_shortest(v)))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(csv, expected_csv.as_bytes());

    let mut jsonl = Vec::new();
    fmt.write_json_lines(&column, &mut jsonl);
    let expected_jsonl = column
        .iter()
        .map(|&v| {
            if v.is_finite() {
                print_shortest(v)
            } else {
                "null".to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(jsonl, expected_jsonl.as_bytes());
}
