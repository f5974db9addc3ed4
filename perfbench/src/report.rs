//! Everything a run prints or stores: the metric tables, the result line,
//! the per-run record with host facts, and a minimal JSON writer.

use crate::harness::{EndToEnd, Trace};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::Path;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("values_per_s", "1/s"),
    ("value_ns_p50", "ns"),
    ("value_ns_p99", "ns"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Times are
/// ns per call of the layer's function, counts are per pass over the
/// column; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("float.decode_ns", "ns"),
    ("core.fastpath_ns", "ns"),
    ("core.fastpath.self_ns", "ns"),
    ("core.fastpath.calls", "count"),
    ("core.fastpath.accept_ratio", "ratio"),
    ("core.exact_ns", "ns"),
    ("core.exact.calls", "count"),
    ("core.render_ns", "ns"),
    ("core.render.bytes", "B"),
    ("core.scale.estimate_ns", "ns"),
    ("core.fixed_ns", "ns"),
    ("core.fixed.self_ns", "ns"),
    ("batch.pass_ns", "ns"),
    ("batch.self_ns", "ns"),
    ("batch.memo.probes", "count"),
    ("batch.memo.hit_ratio", "ratio"),
    ("batch.stitch_ns", "ns"),
    ("batch.shard_speedup", "ratio"),
    ("reader.fast_ns", "ns"),
    ("reader.fast.accept_ratio", "ratio"),
    ("reader.scan_ns", "ns"),
    ("reader.clinger_ns", "ns"),
    ("reader.clinger.accept_ratio", "ratio"),
    ("reader.eisel_lemire_ns", "ns"),
    ("reader.eisel_lemire.accept_ratio", "ratio"),
    ("reader.exact_ns", "ns"),
    ("reader.batch.pass_ns", "ns"),
    ("reader.batch.self_ns", "ns"),
    ("alloc.steady_per_pass", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Values whose output was checked, and how many failed the check.
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Shares of the column each tier answered; stored with every run.
    pub tier_mix: Vec<(&'static str, f64)>,
    /// Anything else worth keeping with the run: column size, shard
    /// curve, the traced run's span log.
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn end_to_end(&self) -> [f64; 5] {
        let e = &self.e2e;
        [
            e.values_per_s,
            e.value_ns_p50,
            e.value_ns_p99,
            e.setup_s,
            e.peak_heap_mb,
        ]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The run's parameters as given on the command line.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Prints the human-readable report and the closing result line, and
/// stores the full record under `results/` next to this package.
pub fn emit(args: &RunArgs, outcome: &Outcome) {
    let table: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, outcome.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(outcome.end_to_end())
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    println!(
        "workload {} seed {} trace {} nproc {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for &(name, value, unit) in &table {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "  {:<34} {:>16.4} ratio",
        "failed_frac",
        outcome.failed_frac()
    );
    for &(name, share) in &outcome.tier_mix {
        println!("  tier mix {name:<25} {share:>16.6}");
    }

    let metrics = Json::Obj(
        table
            .iter()
            .map(|&(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_owned(), entry)
            })
            .collect(),
    );
    store(args, outcome, &metrics);
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Int(outcome.attempted)),
        ("failed".into(), Json::Int(outcome.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{line}");
}

/// Writes the run's record: host facts, seed, tier mix, every measured
/// number and the details. A failure to write is reported, not fatal.
fn store(args: &RunArgs, outcome: &Outcome, metrics: &Json) {
    let e = &outcome.e2e;
    let mut record = vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host()),
        ("metrics".into(), metrics.clone()),
        ("attempted".into(), Json::Int(outcome.attempted)),
        ("failed".into(), Json::Int(outcome.failed)),
        ("failed_frac".into(), Json::Num(outcome.failed_frac())),
        (
            "tier_mix".into(),
            Json::Obj(
                outcome
                    .tier_mix
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "timing".into(),
            Json::Obj(vec![
                ("passes".into(), Json::Int(e.passes as u64)),
                ("windows".into(), Json::Int(e.windows as u64)),
                ("windows_kept".into(), Json::Int(e.windows_kept as u64)),
                ("blocks".into(), Json::Int(e.blocks as u64)),
                ("p99_tail_blocks".into(), Json::Int(e.p99_tail as u64)),
                (
                    "p99_by_group".into(),
                    Json::Arr(e.p99_by_group.iter().map(|&ns| Json::Num(ns)).collect()),
                ),
                ("allocs_per_pass".into(), Json::Int(e.allocs_per_pass)),
                ("ns_per_value".into(), Json::Num(e.ns_per_value())),
                (
                    "setups_s".into(),
                    Json::Arr(e.setups_s.iter().map(|&s| Json::Num(s)).collect()),
                ),
                (
                    "pass_s".into(),
                    Json::Arr(e.pass_s.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        ),
    ];
    record.extend(
        outcome
            .details
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone())),
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, format!("{}\n", Json::Obj(record))));
    if let Err(err) = written {
        eprintln!("perfbench: could not store {}: {err}", file.display());
    }
}

/// Stores the span log and the self-check, and warns when the layers do
/// not account for the end-to-end time to within 10%.
pub fn push_trace(out: &mut Outcome, trace: &Trace, e2e_ns: f64, covered: f64) {
    let coverage = covered / e2e_ns;
    if (coverage - 1.0).abs() > 0.10 {
        eprintln!(
            "perfbench: trace self-check: layers cover {covered:.2} of {e2e_ns:.2} ns per value (coverage {coverage:.3})"
        );
    }
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("layer".into(), Json::Str(s.layer.clone())),
                (
                    "parent".into(),
                    s.parent
                        .map_or(Json::Str(String::new()), |p| Json::Int(p as u64)),
                ),
                ("start_ns".into(), Json::Int(s.start_ns)),
                ("end_ns".into(), Json::Int(s.end_ns)),
                ("calls".into(), Json::Int(s.calls as u64)),
            ])
        })
        .collect();
    out.details
        .push(("trace_rounds", Json::Int(trace.rounds as u64)));
    out.details.push(("spans", Json::Arr(spans)));
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The facts every stored number is read against.
fn host() -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc() as u64)),
        ("cpu".into(), Json::Str(cpu_model())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        (
            "rustc".into(),
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").into()),
        ),
        ("commit".into(), Json::Str(commit())),
    ])
}

/// The checked-out commit, read from the repository's `.git` when there is
/// one; "unknown" in an exported tree.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    std::fs::read_to_string(git.join(reference))
        .ok()
        .map(|hash| hash.trim().to_owned())
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The processor's brand string, from `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: every x86_64 processor implements `cpuid`, and leaf
    // 0x8000_0000 reports the highest extended leaf it answers.
    #[allow(unused_unsafe)]
    let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".into();
    }
    let mut brand = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        // SAFETY: as above; `leaf` is at most the highest extended leaf.
        #[allow(unused_unsafe)]
        let regs = unsafe { __cpuid(leaf) };
        for reg in [regs.eax, regs.ebx, regs.ecx, regs.edx] {
            brand.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// Just enough JSON to write results without a serialization crate.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust prints every finite f64 with all the digits it takes to
            // read back, and never in exponent form, which JSON accepts.
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{value}", Json::Str(key.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}
