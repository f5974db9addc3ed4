//! Shortest-tier coverage and speedup report: how often the shortest tier
//! answers on its own (every value, for the default recipe), and what that
//! buys over the exact Burger–Dybvig engine on the scalar shortest-digits
//! route.
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin fastpath            # 1M values
//! cargo run -p fpp-bench --release --bin fastpath -- --quick # CI smoke
//! ```
//!
//! Two workloads (shared with `throughput`/`stats_live` via
//! [`fpp_bench::workloads`]):
//!
//! * `uniform` — log-uniform doubles, the throughput headline.
//! * `schryer` — the paper's hard cases, deliberately boundary-heavy.
//!
//! Per workload: an acceptance census via [`FreeFormat::try_write_fast`]
//! (`ci.sh` asserts it is 1.0), a byte-for-byte parity audit of the default
//! formatter against a `.fast_path(false)` exact formatter over *every*
//! value, and best-of-`reps` timed passes of both through a reused
//! [`SliceSink`]. Results land in `BENCH_fastpath.json` (schema validated
//! by `ci.sh`); a `--quick` run writes under `target/bench-smoke/`
//! instead.

use fpp_bench::workloads::{schryer_column, uniform_column};
use fpp_core::{DtoaContext, FreeFormat, SliceSink};
use std::fmt::Write as _;
use std::time::Instant;

/// Longest shortest-form f64 rendering is well under this.
const BUF: usize = 64;

/// Counts the values the shortest tier answers itself.
fn acceptance(ctx: &mut DtoaContext, values: &[f64]) -> usize {
    let fast = FreeFormat::new();
    let mut buf = [0u8; BUF];
    let mut accepted = 0usize;
    for &v in values {
        let mut sink = SliceSink::new(&mut buf);
        if fast.try_write_fast(ctx, &mut sink, v) {
            accepted += 1;
        }
    }
    accepted
}

/// Byte-for-byte parity of the default format against the exact engine,
/// over every value. Panics on the first divergence.
fn audit_parity(ctx: &mut DtoaContext, values: &[f64]) {
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut fbuf = [0u8; BUF];
    let mut ebuf = [0u8; BUF];
    for (i, &v) in values.iter().enumerate() {
        let mut fsink = SliceSink::new(&mut fbuf);
        fast.write_to(ctx, &mut fsink, v);
        let flen = fsink.written();
        let mut esink = SliceSink::new(&mut ebuf);
        exact.write_to(ctx, &mut esink, v);
        let elen = esink.written();
        assert_eq!(
            &fbuf[..flen],
            &ebuf[..elen],
            "the shortest tier diverges from the exact engine at index {i} ({v:?})"
        );
    }
}

/// Best-of-`reps` timing of one formatter over the column, after one
/// warming pass. Returns (seconds, bytes).
fn run_timed(ctx: &mut DtoaContext, fmt: &FreeFormat, values: &[f64], reps: usize) -> (f64, usize) {
    let mut buf = [0u8; BUF];
    let mut bytes = 0usize;
    for &v in &values[..values.len().min(64)] {
        let mut sink = SliceSink::new(&mut buf);
        fmt.write_to(ctx, &mut sink, v);
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        bytes = 0;
        for &v in values {
            let mut sink = SliceSink::new(&mut buf);
            fmt.write_to(ctx, &mut sink, v);
            bytes += sink.written();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, bytes)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 40_000 } else { 1_000_000 };
    let reps: usize = if quick { 1 } else { 3 };

    let workloads: Vec<(&str, Vec<f64>)> = vec![
        ("uniform", uniform_column(n)),
        ("schryer", schryer_column(n)),
    ];

    let mut ctx = DtoaContext::new(10);
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);

    println!("shortest-tier report: {n} values/workload, best of {reps} rep(s)\n");

    let mut workload_json = String::new();
    let mut summary = None;
    for (wi, (name, values)) in workloads.iter().enumerate() {
        let accepted = acceptance(&mut ctx, values);
        let accept_rate = accepted as f64 / values.len() as f64;
        audit_parity(&mut ctx, values);

        let (exact_s, exact_bytes) = run_timed(&mut ctx, &exact, values, reps);
        let (fast_s, fast_bytes) = run_timed(&mut ctx, &fast, values, reps);
        assert_eq!(exact_bytes, fast_bytes, "byte totals diverge on `{name}`");
        let exact_fps = values.len() as f64 / exact_s;
        let fast_fps = values.len() as f64 / fast_s;
        let speedup = fast_fps / exact_fps;

        println!(
            "workload `{name}`: accept {accept_rate:.4} ({accepted}/{})",
            values.len()
        );
        println!("  exact  {exact_s:>9.3} s {exact_fps:>13.0} floats/s");
        println!("  fast   {fast_s:>9.3} s {fast_fps:>13.0} floats/s  ({speedup:.2}x)\n");

        if *name == "uniform" {
            summary = Some((accept_rate, exact_fps, fast_fps, speedup));
        }
        if wi > 0 {
            workload_json.push_str(",\n");
        }
        let _ = write!(
            workload_json,
            "    {{\n      \"name\": \"{name}\",\n      \"values\": {},\n      \"accept_rate\": {accept_rate:.6},\n      \"exact_floats_per_sec\": {exact_fps:.0},\n      \"fast_floats_per_sec\": {fast_fps:.0},\n      \"speedup\": {speedup:.3},\n      \"parity\": true\n    }}",
            values.len()
        );
    }

    let (accept_rate, exact_fps, fast_fps, speedup) = summary.expect("uniform workload present");
    println!(
        "summary (uniform): accept {accept_rate:.4}, fast {fast_fps:.0} floats/s vs exact {exact_fps:.0} floats/s = {speedup:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"fastpath\",\n  \"schema_version\": 1,\n  \"quick\": {quick},\n  \"element_count\": {n},\n  \"workloads\": [\n{workload_json}\n  ],\n  \"summary\": {{\n    \"workload\": \"uniform\",\n    \"accept_rate\": {accept_rate:.6},\n    \"exact_floats_per_sec\": {exact_fps:.0},\n    \"fast_floats_per_sec\": {fast_fps:.0},\n    \"speedup\": {speedup:.3},\n    \"parity_checked\": true\n  }}\n}}\n"
    );
    let path = fpp_bench::write_report("BENCH_fastpath.json", quick, &json);
    println!("wrote {}", path.display());
}
