//! `bench_e2e`: the paper-scale end-to-end benchmark.
//!
//! ```text
//! bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! bench_e2e compare DIR_A DIR_B
//! ```
//!
//! Defaults: seed 42, 15 s of measurement, untraced. With `--workload`, runs that workload once and prints each metric as
//! `name value unit`, then, as the last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics. The run is also
//! written to `DIR/<workload>.json` (plus `DIR/<workload>.trace.json`
//! with the sampled scope trees when traced) and appended to
//! `DIR/runs.jsonl`. DIR defaults to `results/bench_e2e`.
//!
//! Without `--workload`, runs every workload, each in a child process of
//! its own so that peak RSS is per workload, and prints
//! `workload name value unit` for every metric.
//!
//! `compare` reads `runs.jsonl` from two directories and judges each
//! end-to-end metric of set B against set A under the bounds in
//! `BENCHMARK.json`, and checks that runs of the same seed agree on the
//! deterministic quality figures. The bounds were measured at the
//! `run_seconds` of `BENCHMARK.json`, the `--seconds` every benchmark run
//! is given; `compare` refuses runs of different lengths.
//!
//! Exit status: 0 when every check passed, 1 when a check failed or a
//! compared metric got worse, 2 on bad usage or I/O errors.

use crp_e2e_bench::stats::{self, Better, Verdict};
use crp_e2e_bench::trace::{LayerStats, Trace};
use crp_e2e_bench::workloads::{self, Outcome, Size, Workload};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str =
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       bench_e2e compare DIR_A DIR_B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Options::parse(&args).and_then(|opts| match opts.workload {
            Some(w) => run_one(w, &opts),
            None => run_all(&opts),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: None,
            seed: 42,
            seconds: 15,
            trace: false,
            out: PathBuf::from("results/bench_e2e"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?;
                    opts.workload = Some(w);
                }
                "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    };
                }
                "--out" => opts.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// A metric as printed and as written into the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The metrics a user of the system sees, from an untraced run. Latency
/// and rate are medians over windows of [`workloads::MIN_OPS`]
/// operations, so that each window's p90 has ten samples beyond it.
fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    let ops = stats::windowed(&outcome.op_ns, workloads::MIN_OPS)
        .ok_or("fewer operations than one window")?;
    let rss = crp_telemetry::profile::peak_rss_bytes()
        .ok_or("peak RSS is not readable on this platform")?;
    Ok(vec![
        metric("setup_s", stats::median(&outcome.setup_s), "s"),
        metric("op_p50_ms", ops.p50_ns / 1e6, "ms"),
        metric("op_p90_ms", ops.p90_ns / 1e6, "ms"),
        metric("ops_per_s", ops.per_s, "1/s"),
        metric("peak_rss_mib", rss as f64 / f64::from(1 << 20), "MiB"),
    ])
}

/// The per-layer metrics of a traced run, over its set-up and traced
/// operations.
fn per_layer(outcome: &Outcome, trace: &Trace) -> Vec<Metric> {
    let secs = |ns: u64| ns as f64 / 1e9;
    let per_call = |s: LayerStats| ratio(s.busy_ns as f64, s.calls as f64);
    let cdn = trace.layer("cdn.authoritative_answer");
    // DNS lookups and answer assembly, around the CDN's answers; inside
    // `observe_hosts` also `CrpService::record`.
    let probe_self_ns =
        trace.layer("scenario.observe").self_ns + trace.layer("probe.observe").self_ns;
    let record = trace.layer("core.record");
    let ratio_map = trace.layer("core.ratio_map");
    let rank = trace.layer("core.rank");
    let smf = trace.layer("core.smf");
    // Gathering and freeing the maps a query ranks or clusters.
    let query_self_ns = trace.layer("core.closest").self_ns + trace.layer("core.cluster").self_ns;
    let answered = outcome.cdn.queries_answered as f64;
    let badly_covered = (outcome.cdn.fallback_answers + outcome.cdn.scattered_answers) as f64;
    let traced_ns: u64 = outcome.traced_op_ns.iter().sum();
    // Overhead over the operations both phases ran: the traced phase
    // replays the untraced phase's sequence from the start.
    let common = outcome.op_ns.len().min(outcome.traced_op_ns.len());
    let plain_common: u64 = outcome.op_ns[..common].iter().sum();
    let traced_common: u64 = outcome.traced_op_ns[..common].iter().sum();
    vec![
        metric("cdn.answer.calls", cdn.calls as f64, "count"),
        metric("cdn.answer.busy_s", secs(cdn.busy_ns), "s"),
        metric("cdn.answer.ns_per_call", per_call(cdn), "ns"),
        metric(
            "cdn.well_covered_ratio",
            ratio(answered - badly_covered, answered),
            "ratio",
        ),
        metric("probe.self_s", secs(probe_self_ns), "s"),
        metric("core.record.calls", record.calls as f64, "count"),
        metric("core.record.busy_s", secs(record.busy_ns), "s"),
        metric("core.record.ns_per_call", per_call(record), "ns"),
        metric("core.ratio_map.calls", ratio_map.calls as f64, "count"),
        metric("core.ratio_map.busy_s", secs(ratio_map.busy_ns), "s"),
        metric("core.ratio_map.ns_per_call", per_call(ratio_map), "ns"),
        metric("core.rank.calls", rank.calls as f64, "count"),
        metric("core.smf.calls", smf.calls as f64, "count"),
        metric("core.select.busy_s", secs(rank.busy_ns + smf.busy_ns), "s"),
        metric("core.query.self_s", secs(query_self_ns), "s"),
        metric(
            "unattributed_frac",
            1.0 - ratio(outcome.traced_top_level_ns as f64, traced_ns as f64),
            "ratio",
        ),
        metric(
            "trace_overhead_frac",
            ratio(traced_common as f64, plain_common as f64) - 1.0,
            "ratio",
        ),
    ]
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

fn int(x: u64) -> Value {
    Value::Int(i64::try_from(x).unwrap_or(i64::MAX))
}

fn metrics_value(metrics: &[Metric]) -> Value {
    obj(metrics
        .iter()
        .map(|m| {
            let entry = obj(vec![
                ("value", num(m.value)),
                ("unit", Value::String(m.unit.to_owned())),
            ]);
            (m.name, entry)
        })
        .collect())
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("non-finite numbers are written as null")
}

fn run_one(workload: Workload, opts: &Options) -> Result<bool, String> {
    let budget = Duration::from_secs(opts.seconds);
    let outcome = workloads::run(workload, &Size::paper(), opts.seed, budget, opts.trace);
    let metrics = match &outcome.trace {
        Some(trace) => per_layer(&outcome, trace),
        None => end_to_end(&outcome)?,
    };
    for p in &outcome.problems {
        eprintln!("bench_e2e: {}: check failed: {p}", workload.name());
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.correct();
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", metrics_value(&metrics)),
    ]);
    write_results(workload, opts, &outcome, &metrics)?;
    println!("{}", to_json(&line));
    Ok(correct)
}

fn write_results(
    workload: Workload,
    opts: &Options,
    outcome: &Outcome,
    metrics: &[Metric],
) -> Result<(), String> {
    let io = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    fs::create_dir_all(&opts.out).map_err(|e| io(&opts.out, e))?;
    let quality = outcome.quality.iter().map(|(k, v)| (*k, num(*v))).collect();
    // The whole run's tail at the highest percentile with ten samples
    // beyond it, beside the windowed metrics.
    let mut ms: Vec<f64> = outcome.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let tail = stats::tail_per_mille(ms.len()).map_or(Value::Null, |pm| {
        obj(vec![
            ("per_mille", int(pm as u64)),
            ("ms", num(stats::percentile(&ms, pm))),
        ])
    });
    let run = obj(vec![
        ("workload", Value::String(workload.name().to_owned())),
        ("seed", int(opts.seed)),
        ("seconds", int(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", metrics_value(metrics)),
        ("operations", int(ms.len() as u64)),
        ("op_tail", tail),
        ("quality", obj(quality)),
        (
            "problems",
            Value::Array(
                outcome
                    .problems
                    .iter()
                    .cloned()
                    .map(Value::String)
                    .collect(),
            ),
        ),
    ]);
    let mut files = vec![(format!("{}.json", workload.name()), to_json(&run))];
    if let Some(trace) = &outcome.trace {
        files.push((
            format!("{}.trace.json", workload.name()),
            to_json(&trace_file(workload, opts.seed, trace)),
        ));
    }
    for (name, text) in files {
        let path = opts.out.join(name);
        fs::write(&path, text + "\n").map_err(|e| io(&path, e))?;
    }
    let path = opts.out.join("runs.jsonl");
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", to_json(&run)))
        .map_err(|e| io(&path, e))
}

/// Per-scope aggregates and the sampled scope trees of a traced run.
fn trace_file(workload: Workload, seed: u64, trace: &Trace) -> Value {
    let layers = trace
        .layers()
        .iter()
        .map(|(name, s)| {
            obj(vec![
                ("name", Value::String(name.clone())),
                ("calls", int(s.calls)),
                ("busy_ns", int(s.busy_ns)),
                ("self_ns", int(s.self_ns)),
            ])
        })
        .collect();
    let units = trace.sampled().iter().map(Serialize::to_value).collect();
    obj(vec![
        ("workload", Value::String(workload.name().to_owned())),
        ("seed", int(seed)),
        ("top_level_ns", int(trace.top_level_ns())),
        ("layers", Value::Array(layers)),
        ("sampled_units", Value::Array(units)),
    ])
}

/// Runs every workload in a child process of its own.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_ok = true;
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let parsed = serde_json::parse(line).map_err(|e| format!("{}: {e}", w.name()))?;
        let correct = parsed.field("correct").and_then(bool::from_value);
        all_ok &= output.status.success() && correct == Ok(true);
        let metrics = parsed.field("metrics").map_err(|e| e.to_string())?;
        for (name, m) in metrics.as_object().unwrap_or_default() {
            let value = m
                .field("value")
                .and_then(f64::from_value)
                .unwrap_or(f64::NAN);
            let unit = m
                .field("unit")
                .and_then(String::from_value)
                .unwrap_or_default();
            println!("{} {name} {value} {unit}", w.name());
        }
    }
    Ok(all_ok)
}

/// One untraced run read back from `runs.jsonl`.
struct Run {
    workload: String,
    seed: u64,
    seconds: u64,
    metrics: Value,
    quality: Value,
}

fn load_runs(dir: &str) -> Result<Vec<Run>, String> {
    let path = Path::new(dir).join("runs.jsonl");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |e: serde::Error| format!("{}:{}: {e}", path.display(), n + 1);
        let v = serde_json::parse(line).map_err(bad)?;
        if v.field("trace").and_then(bool::from_value).map_err(bad)? {
            continue;
        }
        runs.push(Run {
            workload: v
                .field("workload")
                .and_then(String::from_value)
                .map_err(bad)?,
            seed: v.field("seed").and_then(u64::from_value).map_err(bad)?,
            seconds: v.field("seconds").and_then(u64::from_value).map_err(bad)?,
            metrics: v.field("metrics").map_err(bad)?.clone(),
            quality: v.field("quality").map_err(bad)?.clone(),
        });
    }
    Ok(runs)
}

/// The `end_to_end` entries of `BENCHMARK.json`: name, direction, bound.
fn load_bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let text = fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bad = |e: serde::Error| format!("BENCHMARK.json: {e}");
    let spec = serde_json::parse(&text).map_err(bad)?;
    let entries = spec.field("end_to_end").map_err(bad)?;
    let mut out = Vec::new();
    for e in entries.as_array().unwrap_or_default() {
        let name = e.field("name").and_then(String::from_value).map_err(bad)?;
        let better = e
            .field("better")
            .and_then(String::from_value)
            .map_err(bad)?;
        let better = Better::parse(&better).ok_or(format!("{name}: bad `better` {better}"))?;
        let bound = e.field("bound").and_then(f64::from_value).map_err(bad)?;
        out.push((name, better, bound));
    }
    Ok(out)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [dir_a, dir_b] = args else {
        return Err(USAGE.to_owned());
    };
    let bounds = load_bounds()?;
    let (runs_a, runs_b) = (load_runs(dir_a)?, load_runs(dir_b)?);
    // The bounds hold for one measurement length only.
    let mut lengths: Vec<u64> = runs_a.iter().chain(&runs_b).map(|r| r.seconds).collect();
    lengths.sort_unstable();
    lengths.dedup();
    if lengths.len() > 1 {
        return Err(format!(
            "runs measured for different --seconds ({lengths:?}) are not comparable"
        ));
    }
    let mut ok = true;
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    for w in Workload::ALL.map(Workload::name) {
        let a: Vec<&Run> = runs_a.iter().filter(|r| r.workload == w).collect();
        let b: Vec<&Run> = runs_b.iter().filter(|r| r.workload == w).collect();
        if a.is_empty() || b.is_empty() {
            continue;
        }
        for (name, better, bound) in &bounds {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| {
                        r.metrics
                            .field(name)
                            .and_then(|m| m.field("value"))
                            .and_then(f64::from_value)
                            .ok()
                    })
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let c = stats::compare_runs(&va, &vb, *better, *bound);
            ok &= c.verdict != Verdict::Worse;
            println!(
                "{w:<14} {name:<13} {:>12.5} {:>12.5} {:>7.1}% {:>6.1}% {:>5.0}%  {}",
                c.median_a,
                c.median_b,
                c.worsening * 100.0,
                c.spread * 100.0,
                bound * 100.0,
                c.verdict.label()
            );
        }
        // Same seed, same world: the deterministic figures must agree.
        let mut shared = 0;
        for rb in &b {
            for ra in a.iter().filter(|ra| ra.seed == rb.seed) {
                shared += 1;
                if ra.quality != rb.quality {
                    ok = false;
                    println!("{w:<14} seed {}: quality figures differ", rb.seed);
                }
            }
        }
        println!("{w:<14} quality figures compared on {shared} same-seed pair(s)");
    }
    Ok(ok)
}
