//! Print→parse round-trip battery for the Eisel–Lemire fast tiers: the
//! shortest printer's output must read back bit-identically through every
//! reader tier, and the fast tiers must accept all of it.
//!
//! The default suite samples millions of doubles (hundreds of thousands
//! under debug builds). Two `f32` sweeps are `#[ignore]`d: every 29th
//! non-negative finite encoding, which `ci.sh` runs, and all 2^31 − 2^23
//! of them, which runs by hand:
//!
//! ```bash
//! cargo test --release --test reader_roundtrip -- --ignored strided_f32
//! cargo test --release --test reader_roundtrip -- --ignored exhaustive_positive_f32
//! ```

use fpp::batch::{BatchFormatter, BatchOutput};
use fpp::core::{write_shortest, write_shortest_f32, DtoaContext, SliceSink};
use fpp::reader::{read_f32, read_f32_fast, read_f64, read_f64_exact, read_f64_fast, BatchParser};
use fpp::testgen::{log_uniform_doubles, special_values, uniform_bit_doubles, SchryerSet};

/// Prints every value shortest and reads it back through the tiered
/// reader, the fast tiers alone and (at a fixed stride) the exact-only
/// reader, each of which must return the original bits. Returns how many
/// strings the fast tiers declined.
fn round_trip_all(values: impl Iterator<Item = f64>) -> u64 {
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; 32];
    let mut declined: u64 = 0;
    // The exact reader re-derives every value from big-integer scratch, so
    // auditing it on the full sample would dominate the suite's runtime;
    // a fixed stride keeps it honest at ~1% of the cost.
    const EXACT_STRIDE: usize = 101;
    for (i, v) in values.enumerate() {
        let mut sink = SliceSink::new(&mut buf);
        write_shortest(&mut ctx, &mut sink, v);
        let s = sink.as_str();

        let tiered = read_f64(s).expect("printed text parses");
        assert_eq!(tiered.to_bits(), v.to_bits(), "tiered reader broke {s:?}");
        match read_f64_fast(s) {
            Some(fast) => assert_eq!(fast.to_bits(), v.to_bits(), "fast tier broke {s:?}"),
            None => declined += 1,
        }
        if i % EXACT_STRIDE == 0 {
            let exact = read_f64_exact(s).expect("printed text parses");
            assert_eq!(exact.to_bits(), v.to_bits(), "exact reader broke {s:?}");
        }
    }
    declined
}

/// Sampled f64 sweep: shortest-printed text must round-trip bit-identically
/// through every tier, and the fast tiers must accept all of it.
#[test]
fn sampled_f64_shortest_output_round_trips_through_every_tier() {
    let n: usize = if cfg!(debug_assertions) {
        300_000
    } else {
        10_000_000
    };
    let bit_patterns = uniform_bit_doubles(0x5EED_F00D)
        .filter(|v| v.is_finite())
        .take(n / 2);
    let declined = round_trip_all(bit_patterns);
    assert_eq!(
        declined, 0,
        "fast tiers declined {declined} shortest-printed uniform-bit doubles"
    );
    let declined = round_trip_all(log_uniform_doubles(0xD1FF_0001).take(n / 2));
    assert_eq!(
        declined, 0,
        "fast tiers declined {declined} shortest-printed log-uniform doubles"
    );
}

/// The paper's Schryer set, printed by the batch engine and read back out
/// of its arena by `BatchParser::parse_offsets`: every value round-trips
/// and the fast tiers answer every string.
#[test]
fn schryer_set_round_trips_through_the_batch_engines() {
    let step = if cfg!(debug_assertions) { 8 } else { 1 };
    let values: Vec<f64> = SchryerSet::new().iter().step_by(step).collect();
    let mut out = BatchOutput::new();
    BatchFormatter::new().format_f64s(&values, &mut out);
    let mut back = Vec::new();
    BatchParser::new()
        .parse_offsets(out.arena(), out.offsets(), &mut back)
        .expect("printed text parses");
    for (i, (v, b)) in values.iter().zip(&back).enumerate() {
        assert_eq!(b.to_bits(), v.to_bits(), "index {i}: {:?}", out.get(i));
    }
    assert_eq!(
        round_trip_all(values.into_iter()),
        0,
        "fast tiers declined Schryer strings"
    );
}

/// Special values and the subnormal fringe, where the fast tiers hand off:
/// every tier that answers must answer identically.
#[test]
fn boundary_f64_values_round_trip_through_every_tier() {
    let mut pool: Vec<f64> = special_values()
        .into_iter()
        .filter(|v| v.is_finite())
        .collect();
    // Every subnormal-boundary neighborhood: the smallest subnormals, the
    // subnormal/normal seam, and the overflow edge.
    for bits in (0u64..64)
        .chain((1u64 << 52) - 64..(1 << 52) + 64)
        .chain(0x7FEF_FFFF_FFFF_FFC0..=0x7FEF_FFFF_FFFF_FFFF)
    {
        pool.push(f64::from_bits(bits));
    }
    let mut ctx = DtoaContext::new(10);
    let mut buf = [0u8; 32];
    for v in pool {
        for v in [v, -v] {
            let mut sink = SliceSink::new(&mut buf);
            write_shortest(&mut ctx, &mut sink, v);
            let s = sink.as_str();
            let tiered = read_f64(s).expect("printed text parses");
            assert_eq!(tiered.to_bits(), v.to_bits(), "tiered reader broke {s:?}");
            let exact = read_f64_exact(s).expect("printed text parses");
            assert_eq!(exact.to_bits(), v.to_bits(), "exact reader broke {s:?}");
            if let Some(fast) = read_f64_fast(s) {
                assert_eq!(fast.to_bits(), v.to_bits(), "fast tier broke {s:?}");
            }
        }
    }
}

/// Prints every `stride`-th non-negative finite `f32`, from `+0` through
/// `f32::MAX`, shortest and reads it back through the tiered reader and the
/// `f32` fast tier alone, on at most `available_parallelism` threads. Both
/// must return the original bits, so the fast tier must answer every
/// string: shortest output has at most 9 significant digits, and
/// Eisel–Lemire answers every coefficient of at most 19.
fn f32_round_trip_sweep(stride: u32) {
    const LAST: u32 = 0x7F7F_FFFF; // f32::MAX
    let count = LAST / stride + 1;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut ctx = DtoaContext::new(10);
                let mut buf = [0u8; 32];
                for i in t * chunk..((t + 1) * chunk).min(count) {
                    let bits = i * stride;
                    let mut sink = SliceSink::new(&mut buf);
                    write_shortest_f32(&mut ctx, &mut sink, f32::from_bits(bits));
                    let s = sink.as_str();
                    let back = read_f32(s).expect("printed text parses");
                    assert_eq!(back.to_bits(), bits, "tiered reader broke {s:?}");
                    let fast = read_f32_fast(s).map(f32::to_bits);
                    assert_eq!(fast, Some(bits), "fast tier broke or declined {s:?}");
                }
            });
        }
    });
}

/// Exhaustive non-negative finite `f32` sweep (ignored by default: ~2
/// billion encodings, several minutes on two cores).
#[test]
#[ignore = "exhaustive 2^31-point sweep; run explicitly with --ignored --release"]
fn exhaustive_positive_f32_round_trips() {
    f32_round_trip_sweep(1);
}

/// Every 29th non-negative finite `f32`: about 74 million values across
/// every binade and the subnormals. `ci.sh` runs it in release mode next
/// to the reader's mutation sweep.
#[test]
#[ignore = "long-running; exercised by ci.sh in release mode"]
fn strided_f32_round_trips() {
    f32_round_trip_sweep(29);
}
