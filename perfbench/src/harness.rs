//! Timing machinery shared by every workload: closed-loop passes timed per
//! block, set-ups spread over the run, the choice of the quiet stretches
//! the end-to-end metrics come from, and the traced run's interleaved
//! layer rounds.

use crate::affinity::Rotation;
use crate::alloc;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Consecutive values per timed block, and per call of the engine in the
/// loop, unless a pipeline says otherwise: 2,048 blocks per pass over a
/// 131,072-value column, 3,901 over the Schryer set. A block costs 4 to
/// 150 µs, so the clock read per block costs under 1% of it. Blocks are
/// small so that their p99 shows the slow values of the column rather than
/// the host: a `read_shortest` block rarely meets an interruption of the
/// host, about 1 in 25 `print_uniform` blocks holds two or more of the fast
/// tier's rejects, and a `print_fixed` block varies more with its values
/// than with an interruption. With 256-value blocks the p99 of
/// `read_shortest` moved with the host from run to run.
pub const BLOCK: usize = 64;

/// Consecutive blocks per window. Windows are the unit that is kept or
/// dropped when the quiet stretches of a run are chosen.
const WINDOW: usize = 8;

/// One window in this many is kept: the quietest eighth of a run.
const QUIET_SHARE: usize = 8;

/// Stretches of the kept windows the p99 is taken in (see [`EndToEnd`]).
const TAIL_GROUPS: usize = 5;

/// Fewest windows kept (all of them when a run has fewer), so each tail
/// group has at least 1,000 blocks and ten samples beyond its p99.
const MIN_QUIET_WINDOWS: usize = TAIL_GROUPS * 1000 / WINDOW;

/// Fewest timed passes a run makes, however long a pass takes.
const MIN_PASSES: usize = 5;

/// Set-ups per run, spread evenly over it; each one replaces the engine
/// the timed passes use. `setup_s` is the median of the fastest quarter:
/// a set-up is short, and what the host adds to it only ever adds time.
const SETUPS: usize = 25;

/// Values the warming pass of a set-up converts: enough for every buffer
/// to reach its working size and every table to be touched.
const WARM_VALUES: usize = 8192;

/// Untimed passes before anything is measured, so the first set-up does
/// not also pay for a cold processor and a cold allocator.
const WARM_UP: Duration = Duration::from_millis(300);

/// Fewest traced rounds, however long a round takes.
pub const MIN_ROUNDS: usize = 5;

/// How long the traced rounds stay on one processor before moving to the
/// next, as the timed passes do after each set-up.
const ROUNDS_PER_PROCESSOR: Duration = Duration::from_secs(1);

/// Most block samples kept per second of measuring (4 bytes each); the
/// buffer is sized before measuring starts so recording never allocates.
/// The fastest workload records about half of this.
const SAMPLES_PER_SECOND: f64 = 400_000.0;

/// The time given to the timed passes: all of it in an untraced run, 30%
/// in a traced run, whose layer rounds take the rest.
pub fn e2e_budget(budget: Duration, trace: bool) -> Duration {
    if trace {
        budget.mul_f64(0.3)
    } else {
        budget
    }
}

/// One workload's conversion engine as the closed-loop caller drives it:
/// the caller converts its column block by block into reused buffers.
pub trait Pipeline {
    /// Values per timed block.
    fn block(&self) -> usize {
        BLOCK
    }
    /// Values in the column.
    fn len(&self) -> usize;
    /// Converts the values in `range`, reusing the engine's buffers.
    fn convert(&mut self, range: Range<usize>);
}

/// The ranges of a column of `n` values cut into blocks of `block`.
pub fn blocks(n: usize, block: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n).step_by(block).map(move |s| s..(s + block).min(n))
}

/// One untimed pass over the whole column.
pub fn pass(p: &mut impl Pipeline) {
    for r in blocks(p.len(), p.block()) {
        p.convert(r);
    }
}

/// What the timed passes of one run measured.
///
/// On a shared host, other tenants slow the machine by up to 70% for
/// seconds or minutes at a time, so a run's blocks come from a fast and a
/// slow mode in a proportion that changes from run to run. The
/// throughput and latency metrics therefore come from the quiet windows
/// only: the eighth of the windows whose neighbours (the window before
/// and the window after) ran fastest. A window is judged by its
/// neighbours, not by itself, so a window holding hard values or a slow
/// tail block is kept as often as any other, and the kept blocks are an
/// unbiased sample of the column converted on a quiet host.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Values over ns of the kept windows, per second.
    pub values_per_s: f64,
    /// Median of ns per value over the blocks of the kept windows.
    pub value_ns_p50: f64,
    /// 99th percentile of the same: the median of its value within each
    /// of [`TAIL_GROUPS`] consecutive stretches of the kept windows, so a
    /// stretch in which the host interrupted the run more than usual moves
    /// one group and not the metric.
    pub value_ns_p99: f64,
    pub p99_by_group: Vec<f64>,
    /// Block samples the p50 comes from, and the fewest samples beyond the
    /// p99 in any group.
    pub blocks: usize,
    pub p99_tail: usize,
    /// Windows recorded and windows kept.
    pub windows: usize,
    pub windows_kept: usize,
    /// Median of the fastest quarter of the set-ups.
    pub setup_s: f64,
    /// Every set-up's duration in seconds, in the order they ran.
    pub setups_s: Vec<f64>,
    /// Peak live heap above the baseline taken before the first set-up,
    /// in MB.
    pub peak_heap_mb: f64,
    /// Timed passes made.
    pub passes: usize,
    /// Allocations during the last timed pass.
    pub allocs_per_pass: u64,
    /// Every timed pass's duration in seconds, in the order they ran.
    pub pass_s: Vec<f64>,
}

impl EndToEnd {
    /// Ns per value the throughput comes from.
    pub fn ns_per_value(&self) -> f64 {
        1e9 / self.values_per_s
    }
}

/// A run of consecutive timed blocks of one pass.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Index of its first block in the sample buffer, and its block count.
    first: usize,
    blocks: usize,
    values: usize,
    ns: f64,
}

/// Builds and warms an engine: `build()`, then the blocks holding the
/// first [`WARM_VALUES`] values of the column.
fn set_up<P: Pipeline>(build: &mut impl FnMut() -> P) -> P {
    let mut p = build();
    for r in blocks(p.len(), p.block()).take_while(|r| r.start < WARM_VALUES) {
        p.convert(r);
    }
    p
}

/// Runs timed passes over a column of `n` values until `budget` has
/// elapsed and at least [`MIN_PASSES`] passes are done, with [`SETUPS`]
/// set-ups spread evenly over that time.
///
/// A set-up drops the engine, builds a new one and warms it (see
/// [`set_up`]); later passes use the new engine. After each set-up the
/// thread moves to the next processor it may use (see [`Rotation`]), so a
/// set-up always runs with the caches its predecessor left. Peak heap is tracked from just before the first set-up to the end
/// of the last pass, so it covers the engine and its buffers but not the
/// inputs or the benchmark's own sample buffer.
pub fn measure<P: Pipeline>(
    n: usize,
    budget: Duration,
    mut build: impl FnMut() -> P,
) -> (P, EndToEnd) {
    let mut warm = set_up(&mut build);
    let warm_until = Instant::now() + WARM_UP;
    loop {
        pass(&mut warm);
        if Instant::now() >= warm_until {
            break;
        }
    }
    let block = warm.block();
    drop(warm);

    let per_pass = n.div_ceil(block);
    // The ns of every timed block, pass after pass. A pass is recorded
    // only if all of its blocks fit, so sample `i` is block
    // `i % per_pass` of its pass, and the buffer never grows while a pass
    // is timed. Pages of it that are never written are never touched.
    let cap = ((budget.as_secs_f64() * SAMPLES_PER_SECOND) as usize).max(per_pass * MIN_PASSES);
    let mut samples: Vec<f32> = Vec::with_capacity(cap);
    let mut pass_ns: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut rotation = Rotation::of_this_thread();
    let baseline = alloc::reset_peak();

    let origin = Instant::now();
    let deadline = origin + budget;
    let mut engine: Option<P> = None;
    let mut allocs_per_pass;
    loop {
        let due = origin.elapsed().mul_f64(SETUPS as f64) >= budget * setups.len() as u32;
        if engine.is_none() || (setups.len() < SETUPS && due) {
            drop(engine.take());
            let start = Instant::now();
            engine = Some(set_up(&mut build));
            setups.push(start.elapsed().as_secs_f64());
            rotation.advance();
        }
        let p = engine.as_mut().expect("a set-up just ran");
        assert_eq!(
            p.len(),
            n,
            "the engine converts the column it was sized for"
        );

        let record = samples.len() + per_pass <= samples.capacity();
        let allocs_before = alloc::count();
        let start = Instant::now();
        let mut prev = start;
        for r in blocks(n, block) {
            p.convert(r);
            let now = Instant::now();
            if record {
                samples.push((now - prev).as_nanos() as f32);
            }
            prev = now;
        }
        pass_ns.push((prev - start).as_nanos() as f64);
        allocs_per_pass = alloc::count() - allocs_before;
        if prev >= deadline && pass_ns.len() >= MIN_PASSES {
            break;
        }
    }
    drop(rotation);
    let peak_heap_mb = (alloc::peak().saturating_sub(baseline)) as f64 / 1e6;

    let block_len = |i: usize| block.min(n - i % per_pass * block);
    let windows: Vec<Window> = (0..samples.len())
        .step_by(per_pass)
        .flat_map(|pass| (pass..pass + per_pass).step_by(WINDOW))
        .map(|first| {
            let blocks = WINDOW.min(per_pass - first % per_pass);
            let range = first..first + blocks;
            Window {
                first,
                blocks,
                values: range.clone().map(block_len).sum(),
                ns: range.map(|i| f64::from(samples[i])).sum(),
            }
        })
        .collect();

    // ns per value of each window; a window is as quiet as the slower of
    // the recorded windows on either side of it.
    let speed: Vec<f64> = windows.iter().map(|w| w.ns / w.values as f64).collect();
    let slower = |sides: [Option<usize>; 2]| {
        sides
            .iter()
            .filter_map(|&i| speed.get(i?).copied())
            .fold(0.0, f64::max)
    };
    let window_noise = |k: usize| slower([k.checked_sub(1), Some(k + 1)]);
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| window_noise(a).total_cmp(&window_noise(b)));
    order.truncate((windows.len() / QUIET_SHARE).max(MIN_QUIET_WINDOWS));
    order.sort_unstable();
    let kept: Vec<Window> = order.iter().map(|&k| windows[k]).collect();
    let kept_values: usize = kept.iter().map(|w| w.values).sum();
    let kept_ns: f64 = kept.iter().map(|w| w.ns).sum();
    let latencies_of = |windows: &[Window]| {
        let mut ns: Vec<f32> = windows
            .iter()
            .flat_map(|w| w.first..w.first + w.blocks)
            .map(|i| samples[i] / block_len(i) as f32)
            .collect();
        ns.sort_unstable_by(f32::total_cmp);
        ns
    };
    let latencies = latencies_of(&kept);

    // The p99 of each of TAIL_GROUPS stretches of the kept windows, in the
    // order they ran; the metric is their median.
    let mut p99_by_group = Vec::with_capacity(TAIL_GROUPS);
    let mut p99_tail = usize::MAX;
    for group in kept.chunks(kept.len().div_ceil(TAIL_GROUPS)) {
        let ns = latencies_of(group);
        let rank = quantile_rank(ns.len(), 0.99);
        p99_by_group.push(f64::from(ns[rank]));
        p99_tail = p99_tail.min(ns.len() - 1 - rank);
    }

    let mut fast_setups: Vec<f64> = fastest_quarter(&setups, 1)
        .into_iter()
        .map(|i| setups[i])
        .collect();

    let e2e = EndToEnd {
        values_per_s: kept_values as f64 / (kept_ns / 1e9),
        value_ns_p50: f64::from(latencies[quantile_rank(latencies.len(), 0.5)]),
        value_ns_p99: median(&mut p99_by_group.clone()),
        p99_by_group,
        blocks: latencies.len(),
        p99_tail,
        windows: windows.len(),
        windows_kept: kept.len(),
        setup_s: median(&mut fast_setups),
        setups_s: setups,
        peak_heap_mb,
        passes: pass_ns.len(),
        allocs_per_pass,
        pass_s: pass_ns.iter().map(|ns| ns / 1e9).collect(),
    };
    (engine.expect("the timed passes ran on an engine"), e2e)
}

/// Indices of the fastest quarter of `durations`, but at least `floor` of
/// them (all of them when there are fewer).
fn fastest_quarter(durations: &[f64], floor: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..durations.len()).collect();
    order.sort_unstable_by(|&a, &b| durations[a].total_cmp(&durations[b]));
    order.truncate((durations.len() / 4).max(floor));
    order
}

/// Nearest-rank index of quantile `q` in a sorted sample of `len` values.
fn quantile_rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "no samples were recorded");
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Median of `values` (reorders them).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One layer call timed in the traced run: `run` makes `calls` calls into
/// one layer's public function over precomputed inputs, on `threads`
/// threads.
pub struct Stage<'a> {
    pub layer: String,
    pub calls: usize,
    pub threads: usize,
    pub run: Box<dyn FnMut() + 'a>,
}

impl<'a> Stage<'a> {
    pub fn new(layer: impl Into<String>, calls: usize, run: impl FnMut() + 'a) -> Self {
        Self::threaded(layer, calls, 1, run)
    }

    pub fn threaded(
        layer: impl Into<String>,
        calls: usize,
        threads: usize,
        run: impl FnMut() + 'a,
    ) -> Self {
        Stage {
            layer: layer.into(),
            calls,
            threads,
            run: Box::new(run),
        }
    }
}

/// A span: one stage's run in one round, or the round itself. Times are
/// ns since the traced rounds began; `parent` indexes the round's span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: usize,
}

/// The span log of the traced rounds, kept in memory and written out with
/// the run's results.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub rounds: usize,
}

impl Trace {
    /// Median over rounds of one layer's ns per call; 0 when the layer was
    /// not timed on this workload.
    pub fn ns_per_call(&self, layer: &str) -> f64 {
        self.per_round(|ns| ns(layer))
    }

    /// Median of `f` over the fastest quarter of the rounds (at least
    /// [`MIN_ROUNDS`]), where `f` reads that round's ns per call of any
    /// layer (0 for a layer the round did not time). Derived numbers such
    /// as a self time are computed within each round and only then reduced,
    /// so a slow spell of the host cancels out of a difference instead of
    /// landing on one of its terms; keeping the fastest rounds follows the
    /// same rule as the end-to-end metrics (see [`EndToEnd`]).
    pub fn per_round(&self, f: impl Fn(&dyn Fn(&str) -> f64) -> f64) -> f64 {
        let rounds: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        let durations: Vec<f64> = rounds
            .iter()
            .map(|&i| (self.spans[i].end_ns - self.spans[i].start_ns) as f64)
            .collect();
        let mut values: Vec<f64> = fastest_quarter(&durations, MIN_ROUNDS)
            .into_iter()
            .map(|k| {
                let round = rounds[k];
                let ns = |layer: &str| {
                    self.spans
                        .iter()
                        .find(|s| s.parent == Some(round) && s.layer == layer)
                        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / s.calls as f64)
                };
                f(&ns)
            })
            .collect();
        median(&mut values)
    }
}

/// Runs every stage once per round, in order, until `budget` has elapsed
/// and at least `min_rounds` rounds are done. Stages with no calls are
/// skipped. Interleaving the stages spreads slow spells of the host over
/// all layers instead of letting them land on one. Like the timed passes,
/// the rounds take turns on each processor the process may use (see
/// [`Rotation`]), so the self-check compares like with like; a stage on
/// several threads runs unpinned.
pub fn rounds(stages: &mut [Stage<'_>], budget: Duration, min_rounds: usize) -> Trace {
    let mut rotation = Rotation::of_this_thread();
    let origin = Instant::now();
    let deadline = origin + budget;
    let ns = |t: Instant| (t - origin).as_nanos() as u64;
    let mut trace = Trace::default();
    let mut moved: Option<Instant> = None;
    loop {
        if moved.is_none_or(|t| t.elapsed() >= ROUNDS_PER_PROCESSOR) {
            rotation.advance();
            moved = Some(Instant::now());
        }
        let round = trace.spans.len();
        let round_start = Instant::now();
        trace.spans.push(Span {
            layer: "round".to_owned(),
            parent: None,
            start_ns: ns(round_start),
            end_ns: 0,
            calls: 0,
        });
        for stage in stages.iter_mut().filter(|s| s.calls > 0) {
            if stage.threads > 1 {
                rotation.release();
            }
            let start = Instant::now();
            (stage.run)();
            let end = Instant::now();
            if stage.threads > 1 {
                rotation.repin();
            }
            trace.spans.push(Span {
                layer: stage.layer.clone(),
                parent: Some(round),
                start_ns: ns(start),
                end_ns: ns(end),
                calls: stage.calls,
            });
        }
        let end = Instant::now();
        trace.spans[round].end_ns = ns(end);
        trace.rounds += 1;
        if end >= deadline && trace.rounds >= min_rounds {
            break;
        }
    }
    trace
}
