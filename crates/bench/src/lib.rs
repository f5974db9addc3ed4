//! Benchmark harness for the Burger–Dybvig reproduction.
//!
//! The paper's evaluation (§3.2 Table 2, §5 Table 3) times conversions of a
//! Schryer-style test set of positive normalized doubles to base 10. This
//! crate provides the shared sweep machinery used by both the Criterion
//! micro-benchmarks (`benches/`) and the table-regenerating report binaries
//! (`src/bin/table2.rs`, `src/bin/table3.rs`, `src/bin/digit_stats.rs`):
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin table2
//! cargo run -p fpp-bench --release --bin table3
//! cargo run -p fpp-bench --release --bin digit_stats
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;
pub mod workloads;

use std::path::PathBuf;

/// Writes a report binary's JSON and returns where it went: the committed
/// `BENCH_*.json` in the working directory for a full run, or
/// `target/bench-smoke/` for a `--quick` smoke run, so CI smoke numbers
/// never overwrite the committed ones.
///
/// # Panics
///
/// Panics if the file (or the smoke directory) cannot be written.
pub fn write_report(file: &str, quick: bool, json: &str) -> PathBuf {
    let path = if quick {
        let dir = PathBuf::from("target/bench-smoke");
        std::fs::create_dir_all(&dir).expect("create target/bench-smoke");
        dir.join(file)
    } else {
        PathBuf::from(file)
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

pub use sweep::{
    count_fixed_roundtrip_failures, count_free_roundtrip_failures, count_naive_incorrect,
    sweep_fixed_seventeen, sweep_free, sweep_naive_printf, sweep_scale_only, sweep_shortest_sink,
    sweep_shortest_strings, sweep_state_only, SweepOutcome,
};
