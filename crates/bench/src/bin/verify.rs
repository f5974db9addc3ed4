//! Full-set correctness audit: machine-checks the repository's headline
//! guarantees over the complete Schryer-style workload (249,612 doubles)
//! and prints a pass/fail report.
//!
//! ```bash
//! cargo run -p fpp-bench --release --bin verify [--quick]
//! ```
//!
//! Checks, per value:
//! 1. free-format output round-trips bit-identically through `str::parse`;
//! 2. all four scaling strategies produce identical digits;
//! 3. the independent Steele–White implementation agrees with the
//!    conservative-mode pipeline;
//! 4. the straightforward 17-digit output round-trips.

use fpp_baseline::simple_fixed::simple_fixed_digits;
use fpp_baseline::steele_white::steele_white_digits;
use fpp_bignum::PowerTable;
use fpp_core::{free_format_digits, render, Digits, Notation, ScalingStrategy, TieBreak};
use fpp_float::{RoundingMode, SoftFloat};
use fpp_testgen::SchryerSet;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut values = SchryerSet::new().collect();
    if quick {
        values = values.iter().copied().step_by(16).collect();
    }
    println!(
        "correctness audit over {} Schryer-form doubles\n",
        values.len()
    );
    let start = Instant::now();
    let mut powers = PowerTable::with_capacity(10, 350);

    let mut failures = [0usize; 4];

    for &v in &values {
        let sf = SoftFloat::from_f64(v).expect("positive finite");

        // 1. shortest round-trips
        let d = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::NearestEven,
            TieBreak::Up,
            &mut powers,
        );
        let s = render(&d, Notation::Scientific);
        if s.parse::<f64>().map(|x| x != v).unwrap_or(true) {
            failures[0] += 1;
        }

        // 2. strategies agree
        for strategy in [
            ScalingStrategy::Iterative,
            ScalingStrategy::Log,
            ScalingStrategy::Gay,
        ] {
            let alt = free_format_digits(
                &sf,
                strategy,
                RoundingMode::NearestEven,
                TieBreak::Up,
                &mut powers,
            );
            if alt.digits != d.digits || alt.k != d.k {
                failures[1] += 1;
            }
        }

        // 3. independent Steele–White agreement (conservative mode)
        let sw = steele_white_digits(&sf, 10);
        let cons = free_format_digits(
            &sf,
            ScalingStrategy::Estimate,
            RoundingMode::Conservative,
            TieBreak::Up,
            &mut powers,
        );
        if sw.digits != cons.digits || sw.k != cons.k {
            failures[2] += 1;
        }

        // 4. fixed-17 round-trips
        let (digits, k) = simple_fixed_digits(&sf, 17, &mut powers);
        let fixed = render(&Digits { digits, k }, Notation::Scientific);
        if fixed.parse::<f64>().map(|x| x != v).unwrap_or(true) {
            failures[3] += 1;
        }
    }

    let names = [
        "free-format round-trip (std parse)",
        "scaling strategies digit-identical",
        "independent Steele-White agreement",
        "fixed-17 round-trip",
    ];
    let mut all_ok = true;
    for (name, &f) in names.iter().zip(&failures) {
        let status = if f == 0 { "PASS" } else { "FAIL" };
        all_ok &= f == 0;
        println!("  [{status}] {name:<40} failures: {f}");
    }
    println!("\nelapsed: {:.1} s", start.elapsed().as_secs_f64());
    if !all_ok {
        std::process::exit(1);
    }
    println!("\nall checks passed");
}
