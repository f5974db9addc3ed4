#!/usr/bin/env bash
# Hermetic CI: everything here runs with no registry access (the proptest /
# criterion suites are feature-gated out; see DESIGN.md §9).
set -euo pipefail
cd "$(dirname "$0")"

# `--quick` smoke runs of the bench bins write their reports here, never
# over the committed BENCH_*.json files.
SMOKE=target/bench-smoke

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --workspace --release

echo "== test =="
cargo test --workspace -q

echo "== allocation regression (release) =="
cargo test --release -q --test alloc_count

echo "== batch parity (release) =="
cargo test --release -q --test batch_parity

echo "== batch throughput smoke + BENCH_batch.json schema =="
cargo run -p fpp-bench --release --bin throughput -- --quick
for key in bench schema_version threads element_count workloads floats_per_sec \
           mb_per_sec summary scalar_floats_per_sec \
           sharded_floats_per_sec sharded_vs_scalar parity_checked; do
  grep -q "\"$key\"" "$SMOKE/BENCH_batch.json" \
    || { echo "BENCH_batch.json missing key: $key"; exit 1; }
done

echo "== shortest tier: parity tests (release) =="
# Byte-for-byte parity of the shortest tier against the exact engine: the
# sampled/stratified/exhaustive-16-bit suites, plus the 10M-sample sweep
# (ignored by default — it needs release-mode speed).
cargo test --release -q --test fastpath_parity
cargo test --release -q --test fastpath_parity -- --ignored ten_million

echo "== shortest tier: bench smoke + BENCH_fastpath.json schema =="
cargo run -p fpp-bench --release --bin fastpath -- --quick
for key in bench schema_version quick element_count workloads accept_rate \
           exact_floats_per_sec fast_floats_per_sec speedup summary \
           parity_checked; do
  grep -q "\"$key\"" "$SMOKE/BENCH_fastpath.json" \
    || { echo "BENCH_fastpath.json missing key: $key"; exit 1; }
done
grep -q '"parity_checked": true' "$SMOKE/BENCH_fastpath.json" \
  || { echo "shortest-tier parity audit did not run"; exit 1; }
# The default recipe is answered by the tier for every value.
if grep '"accept_rate"' "$SMOKE/BENCH_fastpath.json" | grep -qv '"accept_rate": 1.000000'; then
  echo "shortest tier declined values of the default recipe"; exit 1
fi

echo "== reader: parse parity + round-trip batteries (release) =="
# The Eisel–Lemire tiers against the exact big-integer oracle and std:
# generated literals, adversarial halfway corpus, the sampled 10M-value
# round trip, the fast-grammar edge cases, the scanner's 8-byte and
# 19-digit boundaries, and the seeded mutation fuzzer — plus its 2M-mutant
# sweep (ignored by default — it needs release-mode speed).
cargo test --release -q --test reader_differential
cargo test --release -q --test reader_adversarial
cargo test --release -q --test reader_roundtrip
cargo test --release -q --test reader_edgecases
cargo test --release -q --test reader_scanner
cargo test --release -q --test reader_mutation
cargo test --release -q --test reader_mutation -- --ignored

echo "== reader: round-trip bench smoke + BENCH_reader.json schema =="
cargo run -p fpp-bench --release --bin roundtrip -- --quick
for key in bench schema_version quick element_count workloads accept_rate \
           exact_floats_per_sec fast_floats_per_sec speedup \
           roundtrip_floats_per_sec roundtrip_ok summary parity_checked; do
  grep -q "\"$key\"" "$SMOKE/BENCH_reader.json" \
    || { echo "BENCH_reader.json missing key: $key"; exit 1; }
done
grep -q '"roundtrip_ok": true' "$SMOKE/BENCH_reader.json" \
  || { echo "round-trip bit audit did not pass"; exit 1; }

echo "== telemetry build + tests (--features telemetry) =="
# The instrumented configuration is a separate feature unification: build it,
# run the whole suite under it (including the exact-count tests/telemetry.rs
# target, which only exists with the feature on), and run the telemetry
# crate's own disabled-mode tests explicitly.
cargo build --workspace --release --features telemetry
cargo test --workspace -q --features telemetry
cargo test -q -p fpp-telemetry

echo "== telemetry-off zero-cost guard (release) =="
# With the feature off every record_* call compiles to a no-op: the counting
# allocator must see zero steady-state allocations, same as the seed.
cargo test --release -q --test alloc_count

echo "== live stats smoke + BENCH_telemetry.json schema =="
cargo run -p fpp-bench --release --features telemetry --bin stats_live -- --quick
for key in bench schema_version quick telemetry_enabled threads element_count \
           distinct_values digit_len_hist digit_len_offline histogram_match \
           mean_digits fixup_rate scale_violations term fastpath scratch \
           sharded; do
  grep -q "\"$key\"" "$SMOKE/BENCH_telemetry.json" \
    || { echo "BENCH_telemetry.json missing key: $key"; exit 1; }
done
grep -q '"histogram_match": true' "$SMOKE/BENCH_telemetry.json" \
  || { echo "live digit histogram diverged from offline recount"; exit 1; }

echo "CI OK"
