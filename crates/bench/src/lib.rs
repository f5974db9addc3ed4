//! Benchmark harness for the Burger–Dybvig reproduction.
//!
//! The paper's evaluation (§3.2 Table 2, §5 Table 3) times conversions of a
//! Schryer-style test set of positive normalized doubles to base 10. This
//! crate provides the sweep machinery behind the table-regenerating report
//! binaries (`src/bin/table2.rs`, `src/bin/table3.rs`,
//! `src/bin/digit_stats.rs`, `src/bin/verify.rs`):
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin table2
//! cargo run -p fpp-bench --release --bin table3
//! cargo run -p fpp-bench --release --bin digit_stats
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

pub use sweep::{
    count_fixed_roundtrip_failures, count_free_roundtrip_failures, count_naive_incorrect,
    sweep_fixed_seventeen, sweep_free, sweep_naive_printf, sweep_scale_only, sweep_shortest_sink,
    sweep_shortest_strings, sweep_state_only, SweepOutcome,
};
