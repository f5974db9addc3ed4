//! Context-reusing bulk CSV export of one million floats.
//!
//! ```bash
//! cargo run --release --example batch_export
//! ```
//!
//! A telemetry-shaped column (a million samples drawn from a few thousand
//! distinct quantized readings) is formatted three ways with ONE
//! [`BatchFormatter`] — every context and arena buffer reused across
//! batches:
//!
//! 1. into a columnar [`BatchOutput`] arena (the analytics-engine shape),
//! 2. again, to show the steady state (no warm-up, no reallocation),
//! 3. streamed as CSV through an [`IoSink`] without one intermediate
//!    `String`.

use fpp::batch::{BatchFormatter, BatchOutput};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::IoSink;
use std::time::Instant;

fn main() {
    const N: usize = 1_000_000;
    const DISTINCT: u64 = 4_000;

    // A duplicate-heavy column, the shape real exports have.
    let pool: Vec<f64> = fpp::testgen::log_uniform_doubles(2024)
        .take(DISTINCT as usize)
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let column: Vec<f64> = (0..N)
        .map(|_| pool[rng.range_inclusive(0, DISTINCT - 1) as usize])
        .collect();

    let mut formatter = BatchFormatter::new();
    let mut out = BatchOutput::with_capacity(N, N * 18);

    // Batch 1: cold — grows every recycled buffer to its high-water mark.
    let t = Instant::now();
    formatter.format_f64s_sharded(&column, &mut out);
    let cold = t.elapsed();

    // Batch 2: warm — the steady state a long-running exporter lives in.
    let t = Instant::now();
    formatter.format_f64s_sharded(&column, &mut out);
    let warm = t.elapsed();

    println!(
        "formatted {N} floats into a {:.1} MB arena ({} offsets)",
        out.total_bytes() as f64 / 1e6,
        out.offsets().len()
    );
    println!(
        "first three entries: {:?}",
        out.iter().take(3).collect::<Vec<_>>()
    );
    println!(
        "cold batch {cold:?}, warm batch {warm:?} ({:.0} floats/s warm)",
        N as f64 / warm.as_secs_f64()
    );

    // CSV straight to an io::Write (std::io::sink() here; swap in a
    // BufWriter<File> for a real export) — zero intermediate Strings.
    let t = Instant::now();
    let mut sink = IoSink::new(std::io::sink());
    formatter.write_csv(&[("reading", &column)], &mut sink);
    sink.finish().expect("io sink cannot fail");
    let csv = t.elapsed();
    println!("streamed the column as CSV in {csv:?}");
}
