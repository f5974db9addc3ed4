//! Boundary tests for the reader's fast-tier scanner, which measures digit
//! runs and converts digits eight bytes at a time: every run length across
//! the 8-byte steps and the 19-digit window, and foreign bytes at every
//! offset of an 8-byte window. Each literal must read the same through the
//! fast tiers as through the exact big-integer oracle, and a literal the
//! scanner accepts must be one `parse_literal` accepts. Byte strings that
//! are not UTF-8 reach the scanner through `BatchParser::parse_offsets`,
//! whose error contract is checked on the serial and the sharded path.

use fpp::reader::{
    parse_literal, read_f32_exact, read_f32_fast, read_f64, read_f64_exact, read_f64_fast,
    BatchParseOptions, BatchParser, Literal,
};

/// Checks one literal and reports whether the fast tiers answered it.
fn check(s: &str) -> bool {
    let exact = read_f64_exact(s).map(f64::to_bits);
    assert_eq!(
        read_f64(s).map(f64::to_bits),
        exact,
        "read_f64 vs exact on {s:?}"
    );
    let Some(fast) = read_f64_fast(s) else {
        return false;
    };
    assert!(
        matches!(parse_literal(s, 10), Ok(Literal::Finite(_))),
        "fast tiers accepted {s:?}, parse_literal did not"
    );
    assert_eq!(Ok(fast.to_bits()), exact, "fast vs exact on {s:?}");
    if let Some(fast32) = read_f32_fast(s) {
        assert_eq!(
            Ok(fast32.to_bits()),
            read_f32_exact(s).map(f32::to_bits),
            "f32 fast vs exact on {s:?}"
        );
    }
    true
}

/// `len` digits cycling through 1–9, optionally ending in a zero.
fn digits(len: usize, zero_last: bool) -> String {
    let mut s: String = (0..len).map(|i| char::from(b'1' + (i % 9) as u8)).collect();
    if zero_last {
        s.pop();
        s.push('0');
    }
    s
}

#[test]
fn digit_runs_of_every_length() {
    let (mut total, mut answered) = (0, 0);
    for len in 1..=40 {
        for zero_last in [false, true] {
            let run = digits(len, zero_last);
            for lead in ["", "0", "0000000", "00000000", "000000000"] {
                for s in [
                    format!("{lead}{run}"),
                    format!("-{lead}{run}."),
                    format!("{lead}{run}e-20"),
                    format!("0.{lead}{run}"),
                    format!(".{lead}{run}E+5"),
                    format!("{lead}7.{lead}{run}e-300"),
                    format!("{lead}{run}.{lead}{run}"),
                    format!("+{lead}{run}.5e17"),
                ] {
                    total += 1;
                    answered += usize::from(check(&s));
                }
            }
        }
    }
    // The tiers answer nearly everything of this shape; the check above is
    // vacuous for the rest, so make sure it ran.
    assert!(answered * 10 > total * 9, "{answered} of {total} answered");
}

#[test]
fn nineteen_and_twenty_digit_windows() {
    // 19 kept digits and a 20th that is dropped: zero (the value is exact)
    // or non-zero (the tiers must bracket the tail), at every split of the
    // window between integer and fraction, behind leading zeros, and with a
    // run of trailing zeros after the dropped digit.
    let mut answered = 0;
    for kept in [
        "1234567890123456789",
        "9999999999999999999",
        "1000000000000000000",
    ] {
        for dropped in ['0', '1', '5', '9'] {
            let window = format!("{kept}{dropped}");
            for split in 0..=window.len() {
                let (int, frac) = window.split_at(split);
                for s in [
                    format!("{int}.{frac}"),
                    format!("0.000{int}{frac}"),
                    format!("{int}.{frac}e-310"),
                    format!("{int}.{frac}000000000e15"),
                    format!("-{int}.{frac}1"),
                ] {
                    answered += usize::from(check(&s));
                }
            }
        }
    }
    assert!(answered > 0);
}

/// Bytes that must end or break a digit run wherever they appear.
const FOREIGN: [u8; 9] = [b'/', b':', 0x80, 0xFF, b'#', b'@', b'_', b'.', b'e'];

#[test]
fn foreign_byte_at_every_window_offset() {
    let bases: [&[u8]; 4] = [
        b"1234567812345678",
        b"12345678.87654321",
        b"-0.000000001234567812345678e-5",
        b"12345678.87654321e+123",
    ];
    let mut entries: Vec<Vec<u8>> = Vec::new();
    for base in bases {
        for pos in 0..=base.len() {
            for byte in FOREIGN {
                let mut inserted = base.to_vec();
                inserted.insert(pos, byte);
                entries.push(inserted);
                if pos < base.len() && base[pos] != byte {
                    let mut replaced = base.to_vec();
                    replaced[pos] = byte;
                    entries.push(replaced);
                }
            }
        }
    }
    for bytes in &entries {
        if let Ok(s) = std::str::from_utf8(bytes) {
            check(s);
        }
        // Every entry alone, through both batch paths.
        let offsets = [0, bytes.len() as u32];
        assert_eq!(
            parse(&serial(true), bytes, &offsets),
            parse(&serial(false), bytes, &offsets),
            "{:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

fn serial(fast_path: bool) -> BatchParser {
    BatchParser::with_options(BatchParseOptions {
        threads: Some(1),
        fast_path,
        ..BatchParseOptions::default()
    })
}

fn sharded(fast_path: bool) -> BatchParser {
    BatchParser::with_options(BatchParseOptions {
        threads: Some(4),
        min_shard_len: 8,
        fast_path,
    })
}

/// A batch result in comparable form: the values' bits, or the error's
/// index and message.
fn parse(parser: &BatchParser, arena: &[u8], offsets: &[u32]) -> Result<Vec<u64>, (usize, String)> {
    let mut out = Vec::new();
    match parser.parse_offsets(arena, offsets, &mut out) {
        Ok(()) => Ok(out.iter().map(|v| v.to_bits()).collect()),
        Err(e) => Err((e.index, e.error.to_string())),
    }
}

/// Packs entries into one arena with fence-post offsets.
fn pack(entries: &[&[u8]]) -> (Vec<u8>, Vec<u32>) {
    let mut arena = Vec::new();
    let mut offsets = vec![0u32];
    for e in entries {
        arena.extend_from_slice(e);
        offsets.push(arena.len() as u32);
    }
    (arena, offsets)
}

#[test]
fn invalid_utf8_entries_report_their_index() {
    const NOT_UTF8: &str = "invalid float literal: entry is not valid UTF-8";
    for bad in [
        &b"1.5\xff"[..],
        b"12\xb045678",          // inside an otherwise valid 8-digit chunk
        b"0.1234567\xb0e5",      // last byte of a fraction chunk
        b"\xb01234567812345678", // before the first chunk
    ] {
        for at in [0, 1, 50, 99] {
            let mut entries: Vec<&[u8]> = vec![b"0.30000000000000004"; 100];
            entries[at] = bad;
            // A later malformed entry must not mask the earlier one.
            if at < 99 {
                entries[99] = b"bogus";
            }
            let (arena, offsets) = pack(&entries);
            for parser in [serial(true), serial(false), sharded(true), sharded(false)] {
                assert_eq!(
                    parse(&parser, &arena, &offsets),
                    Err((at, NOT_UTF8.to_string())),
                    "{:?} at {at}, {:?}",
                    String::from_utf8_lossy(bad),
                    parser.options()
                );
            }
        }
    }
}
