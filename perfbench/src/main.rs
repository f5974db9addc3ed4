//! The offline benchmark of the fpp stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload print_uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop caller on one thread converts a whole column block by
//! block, then starts the next pass, reusing its engine and buffers. An
//! untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) also times each layer's public functions over precomputed
//! inputs and prints the per-layer metrics. Every run checks every output
//! and ends with one JSON result line. See README.md in this directory.

mod affinity;
mod alloc;
mod harness;
mod print;
mod read;
mod report;

use report::RunArgs;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: &[&str] = &[
    "print_uniform",
    "print_repeat",
    "print_fixed",
    "read_shortest",
];

const USAGE: &str =
    "usage: perfbench --workload <print_uniform|print_repeat|print_fixed|read_shortest> \
--seed <u64> --seconds <secs> --trace <0|1>";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "print_uniform" => print::uniform(args.seed, budget, args.trace),
        "print_repeat" => print::repeat(args.seed, budget, args.trace),
        "print_fixed" => print::fixed(args.seed, budget, args.trace),
        "read_shortest" => read::shortest(args.seed, budget, args.trace),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    report::emit(&args, &outcome);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} values failed the correctness check",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
