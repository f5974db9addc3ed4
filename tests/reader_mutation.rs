//! Deterministic mutation fuzzing of the reader. Printer output and the
//! adversarial halfway literals are mutated by inserting, deleting or
//! replacing bytes drawn from an alphabet of grammar bytes, near misses
//! and non-ASCII bytes, with a fixed seed. Every mutant must:
//!
//! - not panic;
//! - read the same through `read_f64` as through the exact oracle
//!   `read_f64_exact`, on Ok/Err and on the bits;
//! - read the same through `BatchParser::parse_offsets` as through
//!   `from_utf8` and `read_f64_exact` entry by entry, on the values, the
//!   lowest failing index and the reason;
//! - be accepted by `read_f64` exactly when `str::parse::<f64>` accepts
//!   it, unless it holds `#` or `@`, the grammar's two extensions;
//! - match `str::parse::<f64>` wherever both accept it.
//!
//! The tier-1 run covers 200,000 mutants; the `#[ignore]`d sweep covers
//! 2,000,000 and runs in release:
//!
//! ```text
//! cargo test --release --test reader_mutation -- --ignored
//! ```

use fpp::reader::{read_f64, read_f64_exact, read_f64_fast, BatchParseOptions, BatchParser};
use fpp::testgen::prng::Xoshiro256pp;
use fpp::testgen::{log_uniform_doubles, special_values, uniform_bit_doubles};
use fpp::{print_shortest, FixedFormat};

const SEED: u64 = 0x00f1_0a75_ca11_ab1e;

/// Entries per `parse_offsets` call.
const BATCH: usize = 16;

/// The bytes a mutation inserts or substitutes: the plain grammar, the
/// general grammar's extras (`#`, `@`, words), near misses on either side
/// of the digit range, and non-ASCII bytes (a lone continuation byte, the
/// two bytes of `é`, invalid lead bytes).
const ALPHABET: &[u8] = b"0123456789000.eE+-#@/:_ xnaifINFAy\x00\x7f\x80\xb0\xc3\xa9\xfe\xff";

/// Literals engineered to sit on rounding boundaries (the adversarial
/// corpus), as mutation seeds.
const ADVERSARIAL: &[&str] = &[
    "7.2057594037927933e16",
    "9007199254740993",
    "9007199254740993.00000000000000000000000000000001",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "100000000000000000000000",
    "1e23",
    "12345678901234567890123456789",
    "1.2345678901234567890123456789e-5",
    "9999999999999999999999999999999999999999e-20",
    "99999999999999999999",
    "9.9999999999999999999999999999999999999999e22",
    "3.141592653589793238462643383279502884197e-320",
    "2.2250738585072014e-308",
    "2.2250738585072011e-308",
    "4.9406564584124654e-324",
    "2.470328229206232e-324",
    "2.4703282292062328e-324",
    "1e-400",
    "1.7976931348623157e308",
    "1.7976931348623158e308",
    "1.7976931348623159e308",
    "123456789e400",
    "16777217",
    "3.4028235e38",
    "7.0064923216240854e-46",
    "inf",
    "-Infinity",
    "NaN",
    "0.3333333###",
];

/// Mutation seeds: the adversarial corpus plus printer output — shortest
/// text of log-uniform, uniform-bit and special doubles, and fixed-format
/// text with `#` marks.
fn seeds() -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = ADVERSARIAL.iter().map(|s| s.as_bytes().to_vec()).collect();
    let values = log_uniform_doubles(SEED)
        .take(200)
        .chain(uniform_bit_doubles(SEED).take(100))
        .chain(special_values());
    let fixed = FixedFormat::new().significant_digits(22);
    for (i, v) in values.enumerate() {
        seeds.push(print_shortest(v).into_bytes());
        if i % 4 == 0 && v.is_finite() {
            seeds.push(fixed.format(v).into_bytes());
        }
    }
    seeds
}

/// One to three random insertions, deletions or replacements.
fn mutate(rng: &mut Xoshiro256pp, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.range_inclusive(1, 3) {
        let byte = ALPHABET[rng.range_inclusive(0, ALPHABET.len() as u64 - 1) as usize];
        let at = rng.range_inclusive(0, bytes.len() as u64) as usize;
        match rng.range_inclusive(0, 2) {
            0 => bytes.insert(at, byte),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ if at < bytes.len() => bytes[at] = byte,
            _ => bytes.push(byte),
        }
    }
    bytes
}

/// The scalar checks on a mutant that is valid UTF-8; returns whether it
/// reads as a number.
fn check_scalar(s: &str) -> bool {
    let tiered = read_f64(s);
    let exact = read_f64_exact(s);
    assert_eq!(
        tiered.as_ref().map(|v| v.to_bits()),
        exact.as_ref().map(|v| v.to_bits()),
        "read_f64 vs read_f64_exact on {s:?}"
    );
    if let Some(fast) = read_f64_fast(s) {
        assert_eq!(
            Ok(fast.to_bits()),
            tiered.as_ref().map(|v| v.to_bits()),
            "{s:?}"
        );
    }
    let std_result = s.parse::<f64>();
    if !s.contains(['#', '@']) {
        assert_eq!(
            tiered.is_ok(),
            std_result.is_ok(),
            "read_f64 vs str::parse on accepting {s:?}"
        );
    }
    if let (Ok(ours), Ok(std_v)) = (&tiered, std_result) {
        assert!(
            ours.to_bits() == std_v.to_bits() || (ours.is_nan() && std_v.is_nan()),
            "read_f64 vs str::parse on {s:?}: {ours:e} vs {std_v:e}"
        );
    }
    tiered.is_ok()
}

/// A batch result in comparable form: the values' bits, or the error's
/// index and message.
fn batch(parser: &BatchParser, arena: &[u8], offsets: &[u32]) -> Result<Vec<u64>, (usize, String)> {
    let mut out = Vec::new();
    match parser.parse_offsets(arena, offsets, &mut out) {
        Ok(()) => Ok(out.iter().map(|v| v.to_bits()).collect()),
        Err(e) => Err((e.index, e.error.to_string())),
    }
}

/// What `parse_offsets` must return: every entry through `from_utf8` and
/// the exact oracle, stopping at the lowest failing index.
fn oracle(arena: &[u8], offsets: &[u32]) -> Result<Vec<u64>, (usize, String)> {
    offsets
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let text = std::str::from_utf8(&arena[w[0] as usize..w[1] as usize])
                .map_err(|_| (i, NOT_UTF8.to_string()))?;
            read_f64_exact(text)
                .map(f64::to_bits)
                .map_err(|e| (i, e.to_string()))
        })
        .collect()
}

/// The batch parser's error message for an entry that is not UTF-8.
const NOT_UTF8: &str = "invalid float literal: entry is not valid UTF-8";

/// A column of entries awaiting one `parse_offsets` comparison with the
/// exact oracle.
struct Column<'p> {
    parser: &'p BatchParser,
    arena: Vec<u8>,
    offsets: Vec<u32>,
}

impl<'p> Column<'p> {
    fn new(parser: &'p BatchParser) -> Self {
        Column {
            parser,
            arena: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Adds an entry, comparing the column once [`BATCH`] entries are in.
    fn push(&mut self, entry: &[u8]) {
        self.arena.extend_from_slice(entry);
        self.offsets.push(self.arena.len() as u32);
        if self.offsets.len() > BATCH {
            self.flush();
        }
    }

    /// Parses the pending entries, asserts the result is the oracle's, and
    /// starts over.
    fn flush(&mut self) {
        assert_eq!(
            batch(self.parser, &self.arena, &self.offsets),
            oracle(&self.arena, &self.offsets),
            "parse_offsets vs the exact oracle on {:?}",
            String::from_utf8_lossy(&self.arena)
        );
        self.arena.clear();
        self.offsets.truncate(1);
    }
}

fn run(cases: usize) {
    let seeds = seeds();
    let mut rng = Xoshiro256pp::seed_from_u64(SEED);
    let parser = BatchParser::with_options(BatchParseOptions {
        threads: Some(1),
        ..BatchParseOptions::default()
    });
    // Every mutant goes into `all`, whose columns mostly fail: the error
    // index and reason are compared. The mutants that read back go into
    // `valid` as well, whose columns succeed: the values are compared.
    let mut all = Column::new(&parser);
    let mut valid = Column::new(&parser);
    let (mut not_utf8, mut readable) = (0, 0);
    for _ in 0..cases {
        let seed = &seeds[rng.range_inclusive(0, seeds.len() as u64 - 1) as usize];
        let mutant = mutate(&mut rng, seed);
        match std::str::from_utf8(&mutant) {
            Ok(s) if check_scalar(s) => {
                readable += 1;
                valid.push(&mutant);
            }
            Ok(_) => {}
            Err(_) => not_utf8 += 1,
        }
        all.push(&mutant);
    }
    all.flush();
    valid.flush();
    // Both kinds of input must be well represented.
    assert!(
        not_utf8 * 20 > cases,
        "{not_utf8} of {cases} mutants not UTF-8"
    );
    assert!(
        readable * 5 > cases,
        "{readable} of {cases} mutants readable"
    );
}

#[test]
fn mutants_agree_across_every_reader_path() {
    run(200_000);
}

#[test]
#[ignore = "2M-mutant sweep; run explicitly with --ignored --release"]
fn mutants_agree_across_every_reader_path_2m() {
    run(2_000_000);
}
