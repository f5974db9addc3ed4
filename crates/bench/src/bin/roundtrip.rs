//! Print→parse round-trip report: how fast the reader turns the printer's
//! shortest output back into the original bits, and what the Eisel–Lemire
//! fast path buys over the exact big-integer reader.
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin roundtrip            # 1M values
//! cargo run -p fpp-bench --release --bin roundtrip -- --quick # CI smoke
//! ```
//!
//! Two workloads (shared with the other report binaries via
//! [`fpp_bench::workloads`]):
//!
//! * `uniform` — log-uniform doubles printed shortest, the acceptance-rate
//!   headline: the bar is ≥ 99% of shortest-printed f64 parsed without
//!   falling back, at ≥ 4x the exact reader's throughput.
//! * `schryer` — the paper's boundary-heavy hard cases, a stress test for
//!   the rejection criterion.
//!
//! Per workload: the column is printed once through [`BatchFormatter`]
//! into a [`BatchOutput`] arena; an acceptance census runs every string
//! through [`fpp_reader::read_f64_fast`]; a bit-level audit parses every
//! string through both the fast-tier reader and the exact-only reader and
//! compares both against the original bits; then best-of-`reps` timed
//! passes drive [`BatchParser::parse_offsets`] zero-copy over the arena,
//! once with the fast tiers and once exact-only. Results land in
//! `BENCH_reader.json` (schema validated by `ci.sh`).

use fpp_batch::{BatchFormatter, BatchOutput};
use fpp_bench::workloads::{schryer_column, uniform_column};
use fpp_reader::{read_f64, read_f64_exact, read_f64_fast, BatchParseOptions, BatchParser};
use std::fmt::Write as _;
use std::time::Instant;

/// Counts fast-tier acceptances over the printed column.
fn acceptance(out: &BatchOutput) -> usize {
    out.iter().filter(|s| read_f64_fast(s).is_some()).count()
}

/// Bit-level round-trip audit: every printed string must parse back to the
/// original bits through the fast-tier reader *and* through the exact-only
/// reader. Panics on the first divergence.
fn audit_roundtrip(values: &[f64], out: &BatchOutput) {
    for (i, (v, s)) in values.iter().zip(out.iter()).enumerate() {
        let fast = read_f64(s).expect("printed text parses");
        let exact = read_f64_exact(s).expect("printed text parses");
        assert_eq!(
            fast.to_bits(),
            v.to_bits(),
            "fast reader breaks round-trip at index {i} ({s:?})"
        );
        assert_eq!(
            exact.to_bits(),
            fast.to_bits(),
            "fast reader diverges from exact reader at index {i} ({s:?})"
        );
    }
}

/// Best-of-`reps` timing of one parser zero-copy over the arena, after one
/// warming pass. Returns seconds.
fn run_timed(parser: &BatchParser, out: &BatchOutput, reps: usize) -> f64 {
    let mut parsed = Vec::new();
    parser
        .parse_offsets(out.arena(), out.offsets(), &mut parsed)
        .expect("warm pass");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        parser
            .parse_offsets(out.arena(), out.offsets(), &mut parsed)
            .expect("timed pass");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` timing of the full print→parse round trip (format into
/// the arena, parse back out of it). Returns seconds.
fn run_roundtrip_timed(
    fmt: &mut BatchFormatter,
    parser: &BatchParser,
    values: &[f64],
    reps: usize,
) -> f64 {
    let mut out = BatchOutput::new();
    let mut parsed = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        // First lap warms the formatter/arena and is never the best.
        let start = Instant::now();
        fmt.format_f64s(values, &mut out);
        parser
            .parse_offsets(out.arena(), out.offsets(), &mut parsed)
            .expect("round trip");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 40_000 } else { 1_000_000 };
    let reps: usize = if quick { 1 } else { 3 };

    let workloads: Vec<(&str, Vec<f64>)> = vec![
        ("uniform", uniform_column(n)),
        ("schryer", schryer_column(n)),
    ];

    // Single-threaded parsers: this report measures the scalar conversion
    // engines, not shard scaling (the sharded path is covered by its own
    // tests and degenerates to one shard on the CI host anyway).
    let serial = BatchParseOptions {
        threads: Some(1),
        ..BatchParseOptions::default()
    };
    let fast = BatchParser::with_options(serial.clone());
    let exact = BatchParser::with_options(BatchParseOptions {
        fast_path: false,
        ..serial
    });
    let mut formatter = BatchFormatter::new();

    println!("round-trip report: {n} values/workload, best of {reps} rep(s)\n");

    let mut workload_json = String::new();
    let mut summary = None;
    for (wi, (name, values)) in workloads.iter().enumerate() {
        let mut out = BatchOutput::new();
        formatter.format_f64s(values, &mut out);

        let accepted = acceptance(&out);
        let accept_rate = accepted as f64 / values.len() as f64;
        audit_roundtrip(values, &out);

        let exact_s = run_timed(&exact, &out, reps);
        let fast_s = run_timed(&fast, &out, reps);
        let exact_fps = values.len() as f64 / exact_s;
        let fast_fps = values.len() as f64 / fast_s;
        let speedup = fast_fps / exact_fps;
        let rt_s = run_roundtrip_timed(&mut formatter, &fast, values, reps);
        let rt_fps = values.len() as f64 / rt_s;

        println!(
            "workload `{name}`: accept {accept_rate:.4} ({accepted}/{})",
            values.len()
        );
        println!("  parse exact {exact_s:>9.3} s {exact_fps:>13.0} floats/s");
        println!("  parse fast  {fast_s:>9.3} s {fast_fps:>13.0} floats/s  ({speedup:.2}x)");
        println!("  round trip  {rt_s:>9.3} s {rt_fps:>13.0} floats/s (print+parse)\n");

        if *name == "uniform" {
            summary = Some((accept_rate, exact_fps, fast_fps, speedup, rt_fps));
        }
        if wi > 0 {
            workload_json.push_str(",\n");
        }
        let _ = write!(
            workload_json,
            "    {{\n      \"name\": \"{name}\",\n      \"values\": {},\n      \"accept_rate\": {accept_rate:.6},\n      \"exact_floats_per_sec\": {exact_fps:.0},\n      \"fast_floats_per_sec\": {fast_fps:.0},\n      \"speedup\": {speedup:.3},\n      \"roundtrip_floats_per_sec\": {rt_fps:.0},\n      \"roundtrip_ok\": true\n    }}",
            values.len()
        );
    }

    let (accept_rate, exact_fps, fast_fps, speedup, rt_fps) =
        summary.expect("uniform workload present");
    println!(
        "summary (uniform): accept {accept_rate:.4}, fast parse {fast_fps:.0} floats/s vs exact {exact_fps:.0} floats/s = {speedup:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"roundtrip\",\n  \"schema_version\": 1,\n  \"quick\": {quick},\n  \"element_count\": {n},\n  \"workloads\": [\n{workload_json}\n  ],\n  \"summary\": {{\n    \"workload\": \"uniform\",\n    \"accept_rate\": {accept_rate:.6},\n    \"exact_floats_per_sec\": {exact_fps:.0},\n    \"fast_floats_per_sec\": {fast_fps:.0},\n    \"speedup\": {speedup:.3},\n    \"roundtrip_floats_per_sec\": {rt_fps:.0},\n    \"roundtrip_ok\": true,\n    \"parity_checked\": true\n  }}\n}}\n"
    );
    let path = fpp_bench::write_report("BENCH_reader.json", quick, &json);
    println!("wrote {}", path.display());
}
