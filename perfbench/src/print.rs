//! The three printing workloads: `print_uniform` and `print_repeat` drive
//! `BatchFormatter::format_f64s`, `print_fixed` drives
//! `FixedFormat::write_to`.

use crate::harness::{self, blocks, e2e_budget, Pipeline, Stage, MIN_ROUNDS};
use crate::report::{nproc, push_trace, ratio, Json, Outcome};
use fpp_batch::{BatchFormatter, BatchOptions, BatchOutput};
use fpp_core::{
    estimate_k, fixed_digits_exact, render_fixed_into, render_into, DtoaContext, FixedFormat,
    FixedLayout, FreeFormat, Notation, RenderOptions, SliceSink, TieBreak,
};
use fpp_float::{FloatFormat, SoftFloat};
use fpp_testgen::prng::Xoshiro256pp;
use fpp_testgen::{log_uniform_doubles, SchryerSet};
use std::cell::RefCell;
use std::hint::black_box;
use std::ops::Range;
use std::time::Duration;

/// Values in the `print_uniform`, `print_repeat` and `read_shortest`
/// columns: 1 MiB of `f64` input and about 2.8 MB of text. The column is
/// meant to be as large as the per-core L2 of the reference host, not
/// larger: that host's L3 is shared with other tenants, whose traffic made
/// the throughput of an 8 MiB column swing by up to a third between
/// minutes, while a column of this size held within a few percent.
pub const COLUMN: usize = 1 << 17;

/// Distinct values `print_repeat` draws its column from.
const DISTINCT: usize = 2_000;

/// Values per timed block of `print_repeat`. Its column has no slow values
/// (the memo answers every reject), so its p99 can only show the host. A
/// 64-value block lets the host's brief interruptions set the p99, which
/// then moved by a quarter between runs; a 256-value block averages them.
const REPEAT_BLOCK: usize = 256;

/// Values per column checked byte for byte against the exact engine.
const SHORTEST_ORACLE_SAMPLE: usize = 4_096;

/// Values checked against the rational fixed-format oracle, which is slow
/// on extreme exponents.
const FIXED_ORACLE_SAMPLE: usize = 512;

/// Values whose digits are precomputed for the `core.render` stage.
const RENDER_SAMPLE: usize = 16_384;

/// Significant digits of the `print_fixed` output: the paper's Table 3.
const FIXED_DIGITS: i32 = 17;

/// Largest text one value can print to.
const TEXT_MAX: usize = 64;

/// `print_uniform`: distinct log-uniform doubles. The fast tier answers
/// nearly every value and the memo almost never hits.
pub fn uniform(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let values: Vec<f64> = log_uniform_doubles(seed).take(COLUMN).collect();
    shortest(&values, harness::BLOCK, budget, trace, true)
}

/// `print_repeat`: the same path over draws from a few thousand distinct
/// values, so the fast tier's rejects repeat and the memo answers them.
pub fn repeat(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let pool: Vec<f64> = log_uniform_doubles(seed).take(DISTINCT).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(!seed);
    let values: Vec<f64> = (0..COLUMN)
        .map(|_| pool[rng.range_inclusive(0, DISTINCT as u64 - 1) as usize])
        .collect();
    shortest(&values, REPEAT_BLOCK, budget, trace, false)
}

/// A warm context for base 10.
fn warm_ctx() -> DtoaContext {
    let mut ctx = DtoaContext::new(10);
    ctx.warm_up();
    ctx
}

/// Whether `text` reads back, through the standard library, as exactly `v`.
fn parses_to(text: &[u8], v: f64) -> bool {
    std::str::from_utf8(text)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .is_some_and(|x| x.to_bits() == v.to_bits())
}

/// Low mantissa bits that change from pass to pass (see [`BatchPrint`]).
const SALT_MASK: u64 = (1 << 20) - 1;

/// The batch engine converting its column block by block into one reused
/// output, as a streaming exporter does.
///
/// Each pass flips the same few low mantissa bits of every value, chosen
/// afresh per pass. Without this, re-converting one column would let the
/// repeat memo answer the fast tier's rejects from the previous pass, so
/// `print_uniform` would not be the distinct-values workload it stands
/// for. Equal values stay equal, so `print_repeat` keeps its repeats. The
/// copy into the block buffer costs well under 1% of a block.
struct BatchPrint<'a> {
    values: &'a [f64],
    block_len: usize,
    passes: u64,
    salt: u64,
    block: Vec<f64>,
    fmt: BatchFormatter,
    out: BatchOutput,
}

impl<'a> BatchPrint<'a> {
    fn new(values: &'a [f64], block_len: usize) -> Self {
        BatchPrint {
            values,
            block_len,
            passes: 0,
            salt: 0,
            block: Vec::new(),
            fmt: BatchFormatter::new(),
            out: BatchOutput::new(),
        }
    }
}

impl Pipeline for BatchPrint<'_> {
    fn block(&self) -> usize {
        self.block_len
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn convert(&mut self, range: Range<usize>) {
        if range.start == 0 {
            self.passes += 1;
            self.salt = Xoshiro256pp::seed_from_u64(self.passes).next_u64() & SALT_MASK;
        }
        let salt = self.salt;
        self.block.clear();
        self.block.extend(
            self.values[range]
                .iter()
                .map(|v| f64::from_bits(v.to_bits() ^ salt)),
        );
        self.fmt.format_f64s(&self.block, &mut self.out);
    }
}

/// Correctness and tier counts from one checked pass of the batch engine.
struct ShortestCensus {
    failed: u64,
    fast_rejects: u64,
    exact_runs: u64,
    memo_probes: u64,
    memo_hits: u64,
}

/// Runs one more pass of the engine the timed passes used and checks every
/// output: it must read back as the same bits through `str::parse`, and
/// on a fixed stride sample it must match the exact engine byte for byte.
/// The memo counters over this pass give the tier counts.
fn check_shortest(p: &mut BatchPrint<'_>) -> ShortestCensus {
    let values = p.values;
    let exact = FreeFormat::new().fast_path(false);
    let mut ctx = warm_ctx();
    let stride = (values.len() / SHORTEST_ORACLE_SAMPLE).max(1);
    let before = p.fmt.memo_stats();
    let mut failed = 0;
    let mut buf = [0u8; TEXT_MAX];
    for r in blocks(values.len(), p.block_len) {
        let first = r.start;
        p.convert(r.clone());
        for i in r {
            let (v, text) = (p.block[i - first], p.out.bytes_of(i - first));
            let mut ok = parses_to(text, v);
            if i % stride == 0 {
                let mut sink = SliceSink::new(&mut buf);
                exact.write_to(&mut ctx, &mut sink, v);
                ok &= sink.as_bytes() == text;
            }
            failed += u64::from(!ok);
        }
    }
    let after = p.fmt.memo_stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let skipped = after.skipped - before.skipped;
    ShortestCensus {
        failed,
        fast_rejects: hits + misses + skipped,
        exact_runs: misses + skipped,
        memo_probes: hits + misses,
        memo_hits: hits,
    }
}

fn shortest(
    values: &[f64],
    block: usize,
    budget: Duration,
    trace: bool,
    shard_curve: bool,
) -> Outcome {
    let (mut p, e2e) = harness::measure(values.len(), e2e_budget(budget, trace), || {
        BatchPrint::new(values, block)
    });
    let census = check_shortest(&mut p);
    drop(p);
    let n = values.len() as f64;
    let mut out = Outcome {
        attempted: values.len() as u64,
        failed: census.failed,
        e2e,
        ..Outcome::default()
    };
    out.tier_mix = vec![
        ("fast_tier", 1.0 - census.fast_rejects as f64 / n),
        ("memo", census.memo_hits as f64 / n),
        ("exact_engine", census.exact_runs as f64 / n),
    ];
    out.details
        .push(("column_values", Json::Int(values.len() as u64)));
    if trace {
        trace_shortest(
            values,
            block,
            &census,
            budget - e2e_budget(budget, trace),
            shard_curve,
            &mut out,
        );
    }
    out
}

/// A warmed sharded formatter capped at `threads` shard threads, writing
/// into the shared whole-column output.
fn sharded<'a>(
    values: &'a [f64],
    threads: usize,
    out: &'a RefCell<BatchOutput>,
) -> impl FnMut() + 'a {
    let mut fmt = BatchFormatter::with_options(BatchOptions {
        threads: Some(threads),
        ..BatchOptions::default()
    });
    fmt.format_f64s_sharded(values, &mut out.borrow_mut());
    move || fmt.format_f64s_sharded(values, &mut out.borrow_mut())
}

/// The traced rounds of `print_uniform` and `print_repeat`. Every stage
/// runs over the whole column, so the layers see the same cache footprint
/// as the timed passes.
///
/// Layer tree per value: the pass (`format_f64s`) holds the fast tier
/// (`try_write_fast`, holding `decode` and, for accepted values,
/// `render_into`) and the exact engine (for the fast tier's rejects that
/// the memo does not answer). The batch layer's self time is the pass
/// minus both tiers; it covers the memo, the arena and the loop.
fn trace_shortest(
    values: &[f64],
    block: usize,
    census: &ShortestCensus,
    budget: Duration,
    shard_curve: bool,
    out: &mut Outcome,
) {
    let n = values.len();
    let fast = FreeFormat::new();
    let exact = FreeFormat::new().fast_path(false);
    let mut ctx = warm_ctx();
    let mut buf = [0u8; TEXT_MAX];
    let rejects: Vec<f64> = values
        .iter()
        .copied()
        .filter(|&v| !fast.try_write_fast(&mut ctx, &mut SliceSink::new(&mut buf), v))
        .collect();

    // Digits and exponent of a stride sample, computed once, so the render
    // stage times `render_into` alone.
    let mut digits = Vec::new();
    let mut render_inputs = Vec::new();
    let mut render_bytes = 0;
    for &v in values.iter().step_by((n / RENDER_SAMPLE).max(1)) {
        let d = fast.digits(&SoftFloat::from_f64(v).expect("column values are positive"));
        let mut sink = SliceSink::new(&mut buf);
        render_into(
            &mut sink,
            &d.digits,
            d.k,
            Notation::default(),
            10,
            &RenderOptions::default(),
        );
        render_bytes += sink.written();
        render_inputs.push((digits.len()..digits.len() + d.digits.len(), d.k));
        digits.extend_from_slice(&d.digits);
    }

    let whole = RefCell::new(BatchOutput::new());
    let threads = nproc();
    let (rejects, digits, render_inputs, whole) = (&rejects, &digits, &render_inputs, &whole);
    let mut stages = vec![
        Stage::new("pass", n, {
            let mut p = BatchPrint::new(values, block);
            harness::pass(&mut p);
            move || harness::pass(&mut p)
        }),
        Stage::new("float.decode", n, move || decode_all(values)),
        Stage::new("core.fastpath", n, {
            let (fast, mut ctx) = (fast.clone(), warm_ctx());
            move || {
                let mut buf = [0u8; TEXT_MAX];
                for &v in values {
                    let mut sink = SliceSink::new(&mut buf);
                    black_box(fast.try_write_fast(&mut ctx, &mut sink, black_box(v)));
                }
            }
        }),
        Stage::new("core.exact", rejects.len(), {
            let mut ctx = warm_ctx();
            move || {
                let mut buf = [0u8; TEXT_MAX];
                for &v in rejects {
                    let mut sink = SliceSink::new(&mut buf);
                    exact.write_to(&mut ctx, &mut sink, black_box(v));
                    black_box(sink.written());
                }
            }
        }),
        Stage::new("core.render", render_inputs.len(), move || {
            let mut buf = [0u8; TEXT_MAX];
            let opts = RenderOptions::default();
            for (range, k) in render_inputs {
                let mut sink = SliceSink::new(&mut buf);
                let digits = black_box(&digits[range.clone()]);
                render_into(&mut sink, digits, *k, Notation::default(), 10, &opts);
                black_box(sink.written());
            }
        }),
        Stage::new("batch.whole", n, {
            let mut fmt = BatchFormatter::new();
            fmt.format_f64s(values, &mut whole.borrow_mut());
            move || fmt.format_f64s(values, &mut whole.borrow_mut())
        }),
        Stage::new("batch.sharded1", n, sharded(values, 1, whole)),
    ];
    let curve_threads = if shard_curve { threads } else { 1 };
    for t in 2..=curve_threads {
        stages.push(Stage::threaded(
            format!("batch.sharded{t}"),
            n,
            t,
            sharded(values, t, whole),
        ));
    }
    let trace = harness::rounds(&mut stages, budget, MIN_ROUNDS);
    drop(stages);

    let accept = 1.0 - census.fast_rejects as f64 / n as f64;
    let exact_frac = census.exact_runs as f64 / n as f64;
    let exact_share = |ns: &dyn Fn(&str) -> f64| ns("core.exact") * exact_frac;
    let fast_self = |ns: &dyn Fn(&str) -> f64| {
        ns("core.fastpath") - ns("float.decode") - ns("core.render") * accept
    };
    let batch_self = |ns: &dyn Fn(&str) -> f64| ns("pass") - ns("core.fastpath") - exact_share(ns);
    let covered = trace.per_round(|ns| {
        ns("float.decode")
            + ns("core.render") * accept
            + fast_self(ns)
            + exact_share(ns)
            + batch_self(ns)
    });
    let e2e_ns = out.e2e.ns_per_value();
    let pass = trace.ns_per_call("pass");

    if shard_curve {
        let speedup = |t: usize| {
            let layer = format!("batch.sharded{t}");
            trace.per_round(|ns| ratio(ns("batch.sharded1"), ns(&layer)))
        };
        let curve = (1..=threads)
            .map(|t| {
                Json::Obj(vec![
                    ("threads".into(), Json::Int(t as u64)),
                    (
                        "ns_per_value".into(),
                        Json::Num(trace.ns_per_call(&format!("batch.sharded{t}"))),
                    ),
                    ("speedup".into(), Json::Num(speedup(t))),
                ])
            })
            .collect();
        out.layers.insert("batch.shard_speedup", speedup(threads));
        out.details.push(("shard_curve", Json::Arr(curve)));
    }

    out.layers.extend([
        ("float.decode_ns", trace.ns_per_call("float.decode")),
        ("core.fastpath_ns", trace.ns_per_call("core.fastpath")),
        ("core.fastpath.self_ns", trace.per_round(fast_self)),
        ("core.fastpath.calls", n as f64),
        ("core.fastpath.accept_ratio", accept),
        ("core.exact_ns", trace.ns_per_call("core.exact")),
        ("core.exact.calls", census.exact_runs as f64),
        ("core.render_ns", trace.ns_per_call("core.render")),
        (
            "core.render.bytes",
            ratio(render_bytes as f64, render_inputs.len() as f64),
        ),
        ("batch.pass_ns", pass),
        ("batch.self_ns", trace.per_round(batch_self)),
        ("batch.memo.probes", census.memo_probes as f64),
        (
            "batch.memo.hit_ratio",
            ratio(census.memo_hits as f64, census.memo_probes as f64),
        ),
        (
            "batch.stitch_ns",
            trace.per_round(|ns| ns("batch.sharded1") - ns("batch.whole")),
        ),
        ("alloc.steady_per_pass", out.e2e.allocs_per_pass as f64),
        ("trace.coverage", covered / e2e_ns),
        ("trace.overhead", pass / e2e_ns - 1.0),
    ]);
    push_trace(out, &trace, e2e_ns, covered);
}

/// `FloatFormat::decode` over the column, folding the mantissas so the
/// work cannot be dropped.
fn decode_all(values: &[f64]) {
    let mut acc = 0u64;
    for &v in values {
        if let Some((_, mantissa, _)) = black_box(v).decode().finite_parts() {
            acc ^= mantissa;
        }
    }
    black_box(acc);
}

/// `print_fixed`: the Schryer set, in an order shuffled by the seed,
/// printed to 17 significant digits with `#` marks.
pub fn fixed(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut values = SchryerSet::new().collect();
    shuffle(&mut values, seed);
    let (mut p, e2e) = harness::measure(values.len(), e2e_budget(budget, trace), || {
        FixedPrint::new(&values)
    });
    let failed = check_fixed(&mut p);
    drop(p);
    let mut out = Outcome {
        attempted: values.len() as u64,
        failed,
        e2e,
        ..Outcome::default()
    };
    out.tier_mix = vec![("fast_tier", 0.0), ("memo", 0.0), ("exact_engine", 1.0)];
    out.details
        .push(("column_values", Json::Int(values.len() as u64)));
    if trace {
        trace_fixed(&values, budget - e2e_budget(budget, trace), &mut out);
    }
    out
}

/// Fisher–Yates shuffle driven by the seed.
fn shuffle(values: &mut [f64], seed: u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for i in (1..values.len()).rev() {
        values.swap(i, rng.range_inclusive(0, i as u64) as usize);
    }
}

/// Fixed-format printing of a column block by block into a reused arena
/// and offset table, with one warm context.
struct FixedPrint<'a> {
    values: &'a [f64],
    fmt: FixedFormat,
    ctx: DtoaContext,
    arena: Vec<u8>,
    offsets: Vec<usize>,
}

impl<'a> FixedPrint<'a> {
    fn new(values: &'a [f64]) -> Self {
        FixedPrint {
            values,
            fmt: FixedFormat::new(),
            ctx: warm_ctx(),
            arena: Vec::new(),
            offsets: Vec::new(),
        }
    }
}

impl Pipeline for FixedPrint<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn convert(&mut self, range: Range<usize>) {
        self.arena.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for &v in &self.values[range] {
            self.fmt.write_to(&mut self.ctx, &mut self.arena, v);
            self.offsets.push(self.arena.len());
        }
    }
}

/// Checks one more pass: every text, with `#` read as `0`, must read back
/// as the same bits, and on a stride sample it must match the rational
/// oracle. Returns the number of values that fail.
fn check_fixed(p: &mut FixedPrint<'_>) -> u64 {
    let values = p.values;
    let stride = (values.len() / FIXED_ORACLE_SAMPLE).max(1);
    let mut failed = 0;
    for r in blocks(values.len(), p.block()) {
        let first = r.start;
        p.convert(r.clone());
        for i in r {
            let j = i - first;
            let text = &p.arena[p.offsets[j]..p.offsets[j + 1]];
            let zeroed: Vec<u8> = text
                .iter()
                .map(|&b| if b == b'#' { b'0' } else { b })
                .collect();
            let mut ok = parses_to(&zeroed, values[i]);
            if i % stride == 0 {
                ok &= fixed_oracle(values[i]) == text;
            }
            failed += u64::from(!ok);
        }
    }
    failed
}

/// The 17-significant-digit text of positive `v` from the exact rational
/// §4 engine: find the absolute position that yields 17 digits (rounding
/// can carry into a new leading digit), then render it.
fn fixed_oracle(v: f64) -> Vec<u8> {
    let soft = SoftFloat::from_f64(v).expect("column values are positive");
    let mut j = estimate_k(&soft, 10) - FIXED_DIGITS;
    let mut d = fixed_digits_exact(&soft, 10, j, TieBreak::Up);
    for _ in 0..4 {
        if d.k - j == FIXED_DIGITS {
            break;
        }
        j = d.k - FIXED_DIGITS;
        d = fixed_digits_exact(&soft, 10, j, TieBreak::Up);
    }
    let layout = FixedLayout {
        digits: &d.digits,
        k: d.k,
        insignificant: d.insignificant,
        position: d.position,
        hash_marks: true,
    };
    let mut text = Vec::new();
    render_fixed_into(
        &mut text,
        &layout,
        Notation::default(),
        10,
        &RenderOptions::default(),
    );
    text
}

/// The traced rounds of `print_fixed`. Layer tree per value: the pass holds `FixedFormat::write_to`, which holds `decode` and the
/// §3.2 scale estimate; `core.fixed.self_ns` is the rest of `write_to`
/// (fixup, digit generation, render), counting one decode and one
/// estimate per value.
fn trace_fixed(values: &[f64], budget: Duration, out: &mut Outcome) {
    let n = values.len();
    let softs: Vec<SoftFloat> = values
        .iter()
        .map(|&v| SoftFloat::from_f64(v).expect("column values are positive"))
        .collect();
    let softs = &softs;
    let mut stages = vec![
        Stage::new("pass", n, {
            let mut p = FixedPrint::new(values);
            harness::pass(&mut p);
            move || harness::pass(&mut p)
        }),
        Stage::new("float.decode", n, move || decode_all(values)),
        Stage::new("core.scale.estimate", n, move || {
            let mut acc = 0i64;
            for soft in softs {
                acc += i64::from(estimate_k(black_box(soft), 10));
            }
            black_box(acc);
        }),
        Stage::new("core.fixed", n, {
            let (fmt, mut ctx) = (FixedFormat::new(), warm_ctx());
            let mut text = Vec::with_capacity(TEXT_MAX);
            move || {
                for &v in values {
                    text.clear();
                    fmt.write_to(&mut ctx, &mut text, black_box(v));
                    black_box(text.len());
                }
            }
        }),
    ];
    let trace = harness::rounds(&mut stages, budget, MIN_ROUNDS);
    drop(stages);

    let covered = trace.ns_per_call("core.fixed");
    let e2e_ns = out.e2e.ns_per_value();
    out.layers.extend([
        ("float.decode_ns", trace.ns_per_call("float.decode")),
        (
            "core.scale.estimate_ns",
            trace.ns_per_call("core.scale.estimate"),
        ),
        ("core.fixed_ns", covered),
        (
            "core.fixed.self_ns",
            trace.per_round(|ns| ns("core.fixed") - ns("float.decode") - ns("core.scale.estimate")),
        ),
        ("alloc.steady_per_pass", out.e2e.allocs_per_pass as f64),
        ("trace.coverage", covered / e2e_ns),
        ("trace.overhead", trace.ns_per_call("pass") / e2e_ns - 1.0),
    ]);
    push_trace(out, &trace, e2e_ns, covered);
}
