#!/usr/bin/env bash
# Hermetic CI: everything here runs with no registry access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc: no warnings, so links to deleted items fail =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== build (release) =="
cargo build --workspace --release

echo "== full-set audit: every Schryer value (release) =="
# Round trips, strategy identity, Steele-White agreement and fixed-17 round
# trips over all 249,612 values; exits 1 on any failure.
cargo run --release --offline -q -p fpp-bench --bin verify

echo "== test =="
cargo test --workspace -q

echo "== allocation regression (release) =="
cargo test --release -q --test alloc_count

echo "== batch parity (release) =="
cargo test --release -q --test batch_parity

echo "== digit stream vs rational oracle, every positive F16 (release) =="
cargo test --release -q --test sink_parity

echo "== shortest tier: parity tests (release) =="
# Byte-for-byte parity of the shortest tier against the exact engine: the
# sampled/stratified/exhaustive-16-bit suites and the notation × style
# layout matrix, plus the 10M-sample sweep, the 1M-value matrix sweep and
# every 29th positive f32 (ignored by default — they need release-mode
# speed).
cargo test --release -q --test fastpath_parity
cargo test --release -q --test fastpath_parity -- --ignored ten_million
cargo test --release -q --test fastpath_parity -- --ignored layout_matrix_one_million
cargo test --release -q --test fastpath_parity -- --ignored strided_f32

echo "== fixed tier: parity tests (release) =="
# Byte-for-byte parity of FixedFormat's fixed tier against the exact
# engine: every 16-bit value, every Schryer value and sampled doubles, plus
# the ten-million-double sweep at 17 digits (ignored by default — it needs
# release-mode speed).
cargo test --release -q --test exhaustive_f16_fixed
cargo test --release -q --test exhaustive_f16_fixed -- --ignored ten_million

echo "== printf layer vs std: seeded 200k-case sweep (release) =="
cargo test --release -q --test printf_diff -- --ignored

echo "== reader: parse parity + round-trip batteries (release) =="
# The Eisel–Lemire tiers against the exact big-integer oracle and std:
# the crate's unit tests (among them the scanner's bitmap path against its
# general path on every generated entry of 1–32 bytes), generated literals,
# adversarial halfway corpus, the sampled 10M-value round trip, the
# fast-grammar edge cases, the scanner's boundaries (8-byte digit runs, the
# 19-digit window, 8- and 24-byte entries, 8-digit exponents), and the
# seeded mutation fuzzer — plus its 2M-mutant sweep and every 29th
# non-negative f32 round trip (ignored by default — they need release-mode
# speed).
cargo test --release -q -p fpp-reader
cargo test --release -q --test reader_differential
cargo test --release -q --test reader_adversarial
cargo test --release -q --test reader_roundtrip
cargo test --release -q --test reader_edgecases
cargo test --release -q --test reader_scanner
cargo test --release -q --test reader_mutation
cargo test --release -q --test reader_mutation -- --ignored
cargo test --release -q --test reader_roundtrip -- --ignored strided_f32

echo "== every feature: build + tests (--all-features) =="
# The instrumented configuration is a separate feature unification: build it,
# run the whole suite under it (including the exact-count tests/telemetry.rs
# target, which only exists with the feature on), and run the telemetry
# crate's own disabled-mode tests explicitly. `--all-features` compiles and
# runs any feature-gated target, so none can rot unbuilt.
cargo build --workspace --release --all-features
cargo test --workspace -q --all-features
cargo test -q -p fpp-telemetry

echo "== telemetry-off zero-cost guard (release) =="
# With the feature off every record_* call compiles to a no-op: the counting
# allocator must see zero steady-state allocations, same as the seed.
cargo test --release -q --test alloc_count

echo "== benchmark: offline build + 1-second smoke run of each workload =="
# perfbench is its own package (see BENCHMARK.json); building it catches
# library API drift, and each run exits non-zero if any output check fails.
# Its run records go to the gitignored perfbench/results/.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for w in print_uniform print_repeat print_fixed read_shortest; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0
done

echo "== benchmark: 1-second traced run of each workload =="
# --trace 1 adds the per-layer stages, perfbench's only callers of
# FreeFormat::try_write_fast and render_into; no untraced run reaches them.
for w in print_uniform print_repeat print_fixed read_shortest; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 1
done

echo "CI OK"
