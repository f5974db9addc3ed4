//! Deterministic workload columns shared by the report binaries
//! (`throughput`, `stats_live`, `fastpath`), so every bench measures the
//! same three input shapes and the JSON artifacts stay comparable run to
//! run.

use fpp_testgen::prng::Xoshiro256pp;
use fpp_testgen::{log_uniform_doubles, SchryerSet};

/// Log-uniform doubles, essentially all distinct — raw conversion speed.
#[must_use]
pub fn uniform_column(n: usize) -> Vec<f64> {
    log_uniform_doubles(42).take(n).collect()
}

/// The duplicate-heavy column: `n` draws from `distinct` quantized
/// readings — the sensor-dump/sparse-matrix shape.
#[must_use]
pub fn telemetry_column(n: usize, distinct: usize) -> Vec<f64> {
    let pool: Vec<f64> = log_uniform_doubles(0xC0FFEE).take(distinct).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    (0..n)
        .map(|_| pool[rng.range_inclusive(0, distinct as u64 - 1) as usize])
        .collect()
}

/// The paper's Schryer-form hard cases, cycled to length `n`.
#[must_use]
pub fn schryer_column(n: usize) -> Vec<f64> {
    let base: Vec<f64> = SchryerSet::new().collect();
    base.iter().copied().cycle().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_deterministic_and_sized() {
        assert_eq!(uniform_column(100), uniform_column(100));
        assert_eq!(telemetry_column(100, 7), telemetry_column(100, 7));
        assert_eq!(schryer_column(100), schryer_column(100));
        assert_eq!(uniform_column(100).len(), 100);
        assert_eq!(schryer_column(3).len(), 3);
        // The telemetry column really draws from `distinct` values.
        let col = telemetry_column(10_000, 7);
        let mut seen: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() <= 7);
    }
}
