//! Bulk-conversion throughput: the batch engine measured the way the
//! gigabyte-per-second literature measures it — floats/s and MB/s over
//! large arrays — with a parity audit against the per-value API.
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin throughput            # 1M values
//! cargo run -p fpp-bench --release --bin throughput -- --quick # CI smoke
//! ```
//!
//! Three workloads (all deterministic):
//!
//! * `uniform` — log-uniform doubles, essentially all distinct.
//! * `telemetry` — 1M draws from 2,000 distinct quantized readings: the
//!   duplicate-heavy column shape (sensor dumps, sparse matrices).
//! * `schryer` — the paper's Schryer-form hard cases, cycled to size.
//!
//! Three paths per workload: `scalar` (the status-quo per-value
//! `print_shortest` `String` loop), `batch` (serial arena) and `sharded`
//! (the engine's default bulk path). Every batch path's arena is verified
//! byte-identical to the other and, at sampled indices, to
//! `print_shortest`; a mismatch fails the run.
//!
//! Timings are best-of-3 steady-state passes after a warming pass (the
//! minimum is the least noise-contaminated estimate on shared/bursty
//! hosts); `--quick` does a single pass over a small input for CI smoke.
//!
//! Results land in `BENCH_batch.json` (schema validated by `ci.sh`); a
//! `--quick` run writes under `target/bench-smoke/` instead. On a
//! single-core host the sharded path degenerates to one shard, so its gains
//! there come from context reuse alone; shard scaling needs cores.

use fpp_batch::{BatchFormatter, BatchOutput};
use fpp_bench::workloads::{schryer_column, telemetry_column, uniform_column};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed run of one path over one workload.
struct RunStat {
    path: &'static str,
    elapsed_s: f64,
    bytes: usize,
    values: usize,
}

impl RunStat {
    fn floats_per_sec(&self) -> f64 {
        self.values as f64 / self.elapsed_s
    }

    fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed_s
    }
}

/// The status-quo loop every caller writes today: one `String` per value.
/// Best-of-`reps` timing: on shared/bursty hosts the minimum is the least
/// noise-contaminated estimate of the true cost.
fn run_scalar(values: &[f64], reps: usize) -> RunStat {
    // Warm the thread-local context so the timed region is steady-state.
    for &v in &values[..values.len().min(64)] {
        let _ = fpp_core::print_shortest(v);
    }
    let mut best = f64::INFINITY;
    let mut bytes = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        bytes = 0;
        for &v in values {
            bytes += fpp_core::print_shortest(v).len();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    RunStat {
        path: "scalar",
        elapsed_s: best,
        bytes,
        values: values.len(),
    }
}

/// Times one batch path, best of `reps` steady-state passes (one warming
/// pass first grows every recycled buffer to its high-water mark).
fn run_batch(
    path: &'static str,
    fmt: &mut BatchFormatter,
    values: &[f64],
    sharded: bool,
    reps: usize,
) -> (RunStat, BatchOutput) {
    let mut out = BatchOutput::with_capacity(values.len(), values.len() * 18);
    let mut run = |out: &mut BatchOutput| {
        if sharded {
            fmt.format_f64s_sharded(values, out);
        } else {
            fmt.format_f64s(values, out);
        }
    };
    run(&mut out); // warm
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run(&mut out);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let stat = RunStat {
        path,
        elapsed_s: best,
        bytes: out.total_bytes(),
        values: values.len(),
    };
    (stat, out)
}

/// Byte-identity audit: batch arenas agree with each other, and with
/// `print_shortest` at sampled indices.
fn audit_parity(values: &[f64], outputs: &[&BatchOutput]) {
    let first = outputs[0];
    assert_eq!(first.len(), values.len(), "entry count mismatch");
    for out in &outputs[1..] {
        assert_eq!(first.arena(), out.arena(), "batch arenas differ");
        assert_eq!(first.offsets(), out.offsets(), "offset tables differ");
    }
    let step = (values.len() / 512).max(1);
    for i in (0..values.len()).step_by(step) {
        let expected = fpp_core::print_shortest(values[i]);
        assert_eq!(
            first.get(i),
            expected,
            "batch output diverges from print_shortest at index {i}"
        );
    }
}

fn json_runs(runs: &[RunStat]) -> String {
    let mut s = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "        {{\"path\": \"{}\", \"elapsed_s\": {:.6}, \"bytes\": {}, \"floats_per_sec\": {:.0}, \"mb_per_sec\": {:.2}}}",
            r.path,
            r.elapsed_s,
            r.bytes,
            r.floats_per_sec(),
            r.mb_per_sec()
        );
    }
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 40_000 } else { 1_000_000 };
    let reps: usize = if quick { 1 } else { 3 };
    let distinct = 2_000usize;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let workloads: Vec<(&str, Vec<f64>)> = vec![
        ("uniform", uniform_column(n)),
        ("telemetry", telemetry_column(n, distinct)),
        ("schryer", schryer_column(n)),
    ];

    println!("batch throughput: {n} values/workload, {threads} hardware thread(s)\n");

    let mut workload_json = String::new();
    let mut summary = None;
    for (wi, (name, values)) in workloads.iter().enumerate() {
        let mut runs = Vec::new();
        runs.push(run_scalar(values, reps));

        let (stat, out_batch) = run_batch("batch", &mut BatchFormatter::new(), values, false, reps);
        runs.push(stat);
        let (stat, out_sharded) =
            run_batch("sharded", &mut BatchFormatter::new(), values, true, reps);
        runs.push(stat);

        audit_parity(values, &[&out_batch, &out_sharded]);

        println!("workload `{name}`:");
        for r in &runs {
            println!(
                "  {:<16} {:>9.3} s {:>13.0} floats/s {:>9.2} MB/s",
                r.path,
                r.elapsed_s,
                r.floats_per_sec(),
                r.mb_per_sec()
            );
        }
        println!();

        if *name == "telemetry" {
            let scalar = runs[0].floats_per_sec();
            let sharded = runs[2].floats_per_sec();
            summary = Some((scalar, sharded));
        }
        if wi > 0 {
            workload_json.push_str(",\n");
        }
        let _ = write!(
            workload_json,
            "    {{\n      \"name\": \"{name}\",\n      \"values\": {n},\n      \"parity\": true,\n      \"runs\": [\n{}\n      ]\n    }}",
            json_runs(&runs)
        );
    }

    let (scalar, sharded) = summary.expect("telemetry workload present");
    let speedup = sharded / scalar;
    println!(
        "summary (telemetry, the engine's target column shape): sharded {:.0} floats/s vs scalar {:.0} floats/s = {speedup:.2}x",
        sharded, scalar
    );

    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"schema_version\": 2,\n  \"quick\": {quick},\n  \"threads\": {threads},\n  \"element_count\": {n},\n  \"telemetry_distinct_values\": {distinct},\n  \"workloads\": [\n{workload_json}\n  ],\n  \"summary\": {{\n    \"workload\": \"telemetry\",\n    \"scalar_floats_per_sec\": {scalar:.0},\n    \"sharded_floats_per_sec\": {sharded:.0},\n    \"sharded_vs_scalar\": {speedup:.3},\n    \"parity_checked\": true\n  }}\n}}\n"
    );
    let path = fpp_bench::write_report("BENCH_batch.json", quick, &json);
    println!("wrote {}", path.display());
}
