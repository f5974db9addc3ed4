//! The reading workload: `read_shortest` drives
//! `BatchParser::parse_offsets` over the shortest text of a log-uniform
//! column.

use crate::harness::{self, blocks, e2e_budget, Pipeline, Stage, MIN_ROUNDS};
use crate::print::COLUMN;
use crate::report::{push_trace, ratio, Json, Outcome};
use fpp_batch::{BatchFormatter, BatchOutput};
use fpp_reader::{
    eisel_lemire_f64, fast_path, read_f64_exact, read_f64_fast, BatchParseOptions, BatchParser,
};
use fpp_testgen::log_uniform_doubles;
use std::hint::black_box;
use std::ops::Range;
use std::time::Duration;

/// Strings timed through the exact reader in the traced run.
const EXACT_SAMPLE: usize = 4_096;

/// `read_shortest`: the shortest text of distinct log-uniform doubles,
/// printed during input generation, parsed back on one thread.
pub fn shortest(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let values: Vec<f64> = log_uniform_doubles(seed).take(COLUMN).collect();
    let mut text = BatchOutput::new();
    BatchFormatter::new().format_f64s(&values, &mut text);
    let (arena, offsets) = (text.arena(), text.offsets());
    let strings: Vec<&str> = (0..values.len()).map(|i| text.get(i)).collect();

    let (mut p, e2e) = harness::measure(values.len(), e2e_budget(budget, trace), || {
        ReadPipe::new(arena, offsets)
    });
    let census = check(&mut p, &values, &strings);
    drop(p);
    let n = values.len() as f64;
    let mut out = Outcome {
        attempted: values.len() as u64,
        failed: census.failed,
        e2e,
        ..Outcome::default()
    };
    out.tier_mix = vec![
        ("clinger", census.clinger_hits as f64 / n),
        ("eisel_lemire", census.eisel_lemire_hits as f64 / n),
        ("fast_tiers", census.fast_hits as f64 / n),
        ("exact_reader", 1.0 - census.fast_hits as f64 / n),
    ];
    out.details
        .push(("column_values", Json::Int(values.len() as u64)));
    if trace {
        let budget = budget - e2e_budget(budget, trace);
        trace_read(arena, offsets, &strings, &census, budget, &mut out);
    }
    out
}

/// The bulk parser, on one thread, parsing its column block by block into
/// one reused `Vec<f64>` straight from the printer's arena and offsets.
struct ReadPipe<'a> {
    arena: &'a [u8],
    offsets: &'a [u32],
    parser: BatchParser,
    out: Vec<f64>,
    errors: u64,
}

impl<'a> ReadPipe<'a> {
    fn new(arena: &'a [u8], offsets: &'a [u32]) -> Self {
        ReadPipe {
            arena,
            offsets,
            parser: BatchParser::with_options(BatchParseOptions {
                threads: Some(1),
                ..BatchParseOptions::default()
            }),
            out: Vec::new(),
            errors: 0,
        }
    }
}

impl Pipeline for ReadPipe<'_> {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn convert(&mut self, range: Range<usize>) {
        let offsets = &self.offsets[range.start..=range.end];
        if self
            .parser
            .parse_offsets(self.arena, offsets, &mut self.out)
            .is_err()
        {
            self.errors += 1;
        }
    }
}

/// Correctness and tier counts from one checked pass.
struct ReadCensus {
    failed: u64,
    fast_hits: u64,
    clinger_hits: u64,
    eisel_lemire_hits: u64,
    /// `(digits, exponent)` of every string.
    pairs: Vec<(u64, i64)>,
}

/// Runs one more pass of the engine the timed passes used: every value
/// must come back with its original bits. The same pass asks each fast
/// tier on its own (`read_f64_fast`, then Clinger and Eisel–Lemire on the
/// benchmark's own decomposition) and counts what each answers; an answer
/// with the wrong bits is a failure too.
fn check(p: &mut ReadPipe<'_>, values: &[f64], strings: &[&str]) -> ReadCensus {
    let mut census = ReadCensus {
        failed: 0,
        fast_hits: 0,
        clinger_hits: 0,
        eisel_lemire_hits: 0,
        pairs: Vec::with_capacity(values.len()),
    };
    let same = |x: f64, v: f64| x.to_bits() == v.to_bits();
    for r in blocks(values.len(), p.block()) {
        let first = r.start;
        let errors = p.errors;
        p.convert(r.clone());
        let block_ok = p.errors == errors;
        for i in r {
            let v = values[i];
            let mut ok = block_ok && same(p.out[i - first], v);
            if let Some(x) = read_f64_fast(strings[i]) {
                census.fast_hits += 1;
                ok &= same(x, v);
            }
            match decompose(strings[i]) {
                None => ok = false,
                Some(pair) => {
                    census.pairs.push(pair);
                    if let Some(x) = fast_path(pair.0, pair.1) {
                        census.clinger_hits += 1;
                        ok &= same(x, v);
                    } else if let Some(x) = eisel_lemire_f64(pair.0, pair.1) {
                        census.eisel_lemire_hits += 1;
                        ok &= same(x, v);
                    }
                }
            }
            census.failed += u64::from(!ok);
        }
    }
    census
}

/// A positive decimal literal as `digits × 10^exponent`, with trailing
/// zeros folded into the exponent so every shortest output fits a `u64`.
fn decompose(text: &str) -> Option<(u64, i64)> {
    let (mantissa, mut exponent) = match text.split_once(['e', 'E']) {
        Some((m, e)) => (m, e.parse::<i64>().ok()?),
        None => (text, 0),
    };
    let mut digits: u64 = 0;
    let mut zeros = 0u32;
    let mut after_point = false;
    for b in mantissa.bytes() {
        match b {
            b'.' if !after_point => after_point = true,
            b'0'..=b'9' => {
                exponent -= i64::from(after_point);
                if b == b'0' {
                    zeros += 1;
                    continue;
                }
                digits = digits.checked_mul(10u64.checked_pow(zeros + 1)?)?;
                digits = digits.checked_add(u64::from(b - b'0'))?;
                zeros = 0;
            }
            _ => return None,
        }
    }
    Some((digits, exponent + i64::from(zeros)))
}

/// The traced rounds of `read_shortest`, each stage over the whole column.
/// Layer tree per value: the pass (`parse_offsets`) holds the
/// fast reader (`read_f64_fast`), which holds the private scanner, Clinger,
/// and Eisel–Lemire on Clinger's rejects; the exact reader takes what the
/// fast reader rejects. The scanner's and the batch layer's self times are
/// remainders.
fn trace_read(
    arena: &[u8],
    offsets: &[u32],
    strings: &[&str],
    census: &ReadCensus,
    budget: Duration,
    out: &mut Outcome,
) {
    let n = strings.len();
    let pairs = &census.pairs;
    let rejects: Vec<(u64, i64)> = pairs
        .iter()
        .copied()
        .filter(|&(d, e)| fast_path(d, e).is_none())
        .collect();
    let exact_sample: Vec<&str> = strings
        .iter()
        .copied()
        .step_by((n / EXACT_SAMPLE).max(1))
        .collect();
    let (rejects, exact_sample) = (&rejects, &exact_sample);
    let mut stages = vec![
        Stage::new("pass", n, {
            let mut p = ReadPipe::new(arena, offsets);
            harness::pass(&mut p);
            move || harness::pass(&mut p)
        }),
        Stage::new("reader.fast", n, move || {
            for &s in strings {
                black_box(read_f64_fast(black_box(s)));
            }
        }),
        Stage::new("reader.clinger", n, move || {
            for &(d, e) in pairs {
                black_box(fast_path(black_box(d), e));
            }
        }),
        Stage::new("reader.eisel_lemire", rejects.len(), move || {
            for &(d, e) in rejects {
                black_box(eisel_lemire_f64(black_box(d), e));
            }
        }),
        Stage::new("reader.exact", exact_sample.len(), move || {
            for &s in exact_sample {
                black_box(read_f64_exact(black_box(s)).ok());
            }
        }),
    ];
    let trace = harness::rounds(&mut stages, budget, MIN_ROUNDS);
    drop(stages);

    let fast_accept = census.fast_hits as f64 / n as f64;
    let rejects_frac = rejects.len() as f64 / n as f64;
    let tiers =
        |ns: &dyn Fn(&str) -> f64| ns("reader.clinger") + ns("reader.eisel_lemire") * rejects_frac;
    let scan = |ns: &dyn Fn(&str) -> f64| ns("reader.fast") - tiers(ns);
    let exact_share = |ns: &dyn Fn(&str) -> f64| ns("reader.exact") * (1.0 - fast_accept);
    let batch_self = |ns: &dyn Fn(&str) -> f64| ns("pass") - ns("reader.fast") - exact_share(ns);
    let covered = trace.per_round(|ns| scan(ns) + tiers(ns) + exact_share(ns) + batch_self(ns));
    let e2e_ns = out.e2e.ns_per_value();
    let pass = trace.ns_per_call("pass");
    out.layers.extend([
        ("reader.fast_ns", trace.ns_per_call("reader.fast")),
        ("reader.fast.accept_ratio", fast_accept),
        ("reader.scan_ns", trace.per_round(scan)),
        ("reader.clinger_ns", trace.ns_per_call("reader.clinger")),
        (
            "reader.clinger.accept_ratio",
            ratio(census.clinger_hits as f64, census.pairs.len() as f64),
        ),
        (
            "reader.eisel_lemire_ns",
            trace.ns_per_call("reader.eisel_lemire"),
        ),
        (
            "reader.eisel_lemire.accept_ratio",
            ratio(
                census.eisel_lemire_hits as f64,
                (census.pairs.len() as u64 - census.clinger_hits) as f64,
            ),
        ),
        ("reader.exact_ns", trace.ns_per_call("reader.exact")),
        ("reader.batch.pass_ns", pass),
        ("reader.batch.self_ns", trace.per_round(batch_self)),
        ("alloc.steady_per_pass", out.e2e.allocs_per_pass as f64),
        ("trace.coverage", covered / e2e_ns),
        ("trace.overhead", pass / e2e_ns - 1.0),
    ]);
    push_trace(out, &trace, e2e_ns, covered);
}

#[cfg(test)]
mod tests {
    use super::decompose;

    #[test]
    fn decompose_handles_every_shortest_layout() {
        assert_eq!(decompose("0.000123"), Some((123, -6)));
        assert_eq!(decompose("1230000"), Some((123, 4)));
        assert_eq!(decompose("1.5e-7"), Some((15, -8)));
        assert_eq!(decompose("123000000000000000000"), Some((123, 18)));
        assert_eq!(
            decompose("1.7976931348623157e308"),
            Some((17976931348623157, 292))
        );
        assert_eq!(decompose("10.01"), Some((1001, -2)));
        assert_eq!(decompose("1x"), None);
    }
}
