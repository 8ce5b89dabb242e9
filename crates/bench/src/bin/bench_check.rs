//! The bench gate: diffs a fresh `bench_all` run against the committed
//! baselines, timing and memory in one pass.
//!
//! ```text
//! cargo run --release -p crp-bench --bin bench_check [-- \
//!     --baseline <file>] [--current <file>] [--tolerance <pct>[%]]
//! ```
//!
//! - **Timing**: `--current` (default `results/bench.json`) against
//!   `--baseline`, by default the `BENCH_pr<N>.json` in the working
//!   directory with the largest `N` (the newest committed snapshot). A
//!   benchmark regresses when its p50 exceeds the baseline's by more
//!   than the tolerance.
//! - **Memory**: the `mem.json` beside `--current` against the committed
//!   `MEM_BASELINE.json` in the working directory. A domain budget
//!   regresses when its allocations per iteration or its peak bytes
//!   exceed the baseline's by more than the same tolerance.
//!
//! Either gate fails on a baseline row the current run lacks — a silent
//! drop would disable its own gate. The tolerance defaults to 20%.
//!
//! Prints the p50 delta table, the memory budget delta table and the
//! per-benchmark attribution table (the top domains by allocations per
//! iteration, with each row's attributed fraction), with each gate's
//! notes and verdict. A passing run still shows how close each row sits
//! to its gate: the deltas are what a baseline refresh is decided from.
//! Refreshing the memory budgets is a copy of a full (not `--quick`)
//! run's `results/mem.json` over `MEM_BASELINE.json`: peak bytes scale
//! with the plan's iteration count.
//!
//! Exit status: 0 when both gates pass, 1 on a regression or a missing
//! row in either, 2 on usage or I/O errors.

use crp_bench::harness::{
    compare, compare_mem, parse_tolerance, snapshot_number, BenchReport, Comparison, MemComparison,
    MemReport,
};
use crp_eval::output;
use serde::Deserialize;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Domains the attribution table lists per benchmark.
const TOP_DOMAINS: usize = 10;

struct Options {
    baseline: Option<PathBuf>,
    current: PathBuf,
    tolerance_pct: f64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        baseline: None,
        current: PathBuf::from("results/bench.json"),
        tolerance_pct: 20.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?));
            }
            "--current" => {
                opts.current = PathBuf::from(it.next().ok_or("--current needs a value")?);
            }
            "--tolerance" => {
                opts.tolerance_pct =
                    parse_tolerance(it.next().ok_or("--tolerance needs a value")?)?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn usage() {
    eprintln!("usage: bench_check [--baseline <file>] [--current <file>] [--tolerance <pct>[%]]");
}

/// The newest committed snapshot in `dir`: the `BENCH_pr<N>.json` with
/// the largest `N` (see [`snapshot_number`]).
fn default_baseline(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| {
            let number = snapshot_number(entry.file_name().to_str()?)?;
            Some((number, entry.path()))
        })
        .max_by_key(|(number, _)| *number)
        .map(|(_, path)| path)
}

/// A report and the file it came from.
struct Loaded<T> {
    path: PathBuf,
    report: T,
}

fn load<T: Deserialize>(path: PathBuf) -> Result<Loaded<T>, String> {
    let raw = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let report = serde_json::from_str(&raw)
        .map_err(|err| format!("{}: malformed report: {err}", path.display()))?;
    Ok(Loaded { path, report })
}

/// Both gates' inputs.
struct Inputs {
    tolerance_pct: f64,
    baseline: Loaded<BenchReport>,
    current: Loaded<BenchReport>,
    mem_baseline: Loaded<MemReport>,
    mem_current: Loaded<MemReport>,
}

fn load_inputs(opts: Options) -> Result<Inputs, String> {
    let baseline = opts
        .baseline
        .or_else(|| default_baseline(Path::new(".")))
        .ok_or("no --baseline given and no BENCH_pr<N>.json snapshot found")?;
    Ok(Inputs {
        tolerance_pct: opts.tolerance_pct,
        baseline: load(baseline)?,
        mem_current: load(opts.current.with_file_name("mem.json"))?,
        current: load(opts.current)?,
        mem_baseline: load(PathBuf::from("MEM_BASELINE.json"))?,
    })
}

fn format_bytes(bytes: i64) -> String {
    let magnitude = bytes.unsigned_abs();
    let sign = if bytes < 0 { "-" } else { "" };
    if magnitude >= 1 << 20 {
        format!("{sign}{:.1}MiB", magnitude as f64 / (1 << 20) as f64)
    } else if magnitude >= 1 << 10 {
        format!("{sign}{:.1}KiB", magnitude as f64 / (1 << 10) as f64)
    } else {
        format!("{sign}{magnitude}B")
    }
}

/// One gate's notes and verdict line. `row` names what was checked
/// (`benchmark`, `domain budget`); `added` rows are notes, and a
/// `missing` row or a regression fails the gate.
fn footer(
    out: &mut impl Write,
    row: &str,
    checked: usize,
    (added, missing): (&[String], &[String]),
    regressions: &[String],
    tolerance: f64,
) -> io::Result<()> {
    for name in added {
        writeln!(out, "bench_check: note: new {row} {name} (not in baseline)")?;
    }
    for name in missing {
        writeln!(
            out,
            "bench_check: MISSING {name}: in baseline but not in current run"
        )?;
    }
    for regression in regressions {
        writeln!(out, "bench_check: REGRESSION {regression}")?;
    }
    if missing.is_empty() && regressions.is_empty() {
        writeln!(
            out,
            "bench_check: OK — {checked} {row}(s) within {tolerance}% of baseline"
        )
    } else {
        let (regressed, missed) = (regressions.len(), missing.len());
        writeln!(
            out,
            "bench_check: FAILED — {regressed} regression(s), {missed} missing of {checked} checked"
        )
    }
}

/// Both gates' outcomes, decided before anything prints: a reader that
/// closes the pipe early cuts the tables short, not the verdict.
struct Outcomes {
    timing: Comparison,
    memory: MemComparison,
}

impl Outcomes {
    fn of(inputs: &Inputs) -> Outcomes {
        let tolerance = inputs.tolerance_pct;
        Outcomes {
            timing: compare(&inputs.baseline.report, &inputs.current.report, tolerance),
            memory: compare_mem(
                &inputs.mem_baseline.report,
                &inputs.mem_current.report,
                tolerance,
            ),
        }
    }

    fn passed(&self) -> bool {
        self.timing.passed() && self.memory.passed()
    }
}

/// Renders the p50 table and the memory budget table, each with its
/// gate's notes and verdict, then the attribution table.
fn render(out: &mut impl Write, inputs: &Inputs, outcomes: &Outcomes) -> io::Result<()> {
    let tolerance = inputs.tolerance_pct;
    let (baseline, current) = (&inputs.baseline.report, &inputs.current.report);
    writeln!(
        out,
        "bench_check: {} (label {:?}) vs {} (label {:?}), tolerance {tolerance}%",
        inputs.current.path.display(),
        current.label,
        inputs.baseline.path.display(),
        baseline.label,
    )?;
    writeln!(
        out,
        "bench_check: per-benchmark p50 deltas (current vs baseline):"
    )?;
    writeln!(
        out,
        "  {:<40} {:>12} {:>12} {:>8}",
        "benchmark", "baseline", "current", "ratio"
    )?;
    for base in &baseline.results {
        let Some(cur) = current.result(&base.name) else {
            continue;
        };
        let ratio = if base.p50_ns == 0 {
            "n/a".to_owned()
        } else {
            format!("{:.2}x", cur.p50_ns as f64 / base.p50_ns as f64)
        };
        let (name, base_ns, cur_ns) = (&base.name, base.p50_ns, cur.p50_ns);
        writeln!(
            out,
            "  {name:<40} {base_ns:>10}ns {cur_ns:>10}ns {ratio:>8}"
        )?;
    }
    let timing = &outcomes.timing;
    let regressions: Vec<String> = timing
        .regressions
        .iter()
        .map(|r| {
            let (base, cur) = (r.baseline_p50_ns, r.current_p50_ns);
            format!("{}: p50 {base}ns -> {cur}ns ({:.2}x)", r.name, r.ratio)
        })
        .collect();
    let notes = (&timing.added[..], &timing.missing[..]);
    footer(
        out,
        "benchmark",
        timing.checked,
        notes,
        &regressions,
        tolerance,
    )?;
    writeln!(out)?;

    let (baseline, current) = (&inputs.mem_baseline.report, &inputs.mem_current.report);
    writeln!(
        out,
        "bench_check: {} (label {:?}) vs {} (label {:?}), tolerance {tolerance}%",
        inputs.mem_current.path.display(),
        current.label,
        inputs.mem_baseline.path.display(),
        baseline.label,
    )?;
    writeln!(
        out,
        "bench_check: per-domain budget deltas (current vs baseline):"
    )?;
    writeln!(
        out,
        "  {:<34} {:<22} {:>14} {:>14} {:>12} {:>12}",
        "benchmark", "domain", "base allocs", "cur allocs", "base peak", "cur peak"
    )?;
    for base in &baseline.results {
        let Some(cur) = current.result(&base.name) else {
            continue;
        };
        for row in &base.domains {
            let (cur_allocs, cur_peak) = cur
                .domain(&row.domain)
                .map_or((0, 0), |d| (d.allocs_per_iter as i64, d.peak_bytes));
            writeln!(
                out,
                "  {:<34} {:<22} {:>14} {:>14} {:>12} {:>12}",
                base.name, row.domain, row.allocs_per_iter, cur_allocs, row.peak_bytes, cur_peak
            )?;
        }
    }
    let memory = &outcomes.memory;
    let regressions: Vec<String> = memory
        .regressions
        .iter()
        .map(|r| {
            let (name, domain, metric) = (&r.name, &r.domain, &r.metric);
            let (base, cur, ratio) = (r.baseline, r.current, r.ratio);
            format!("{name}/{domain}: {metric} {base} -> {cur} ({ratio:.2}x)")
        })
        .collect();
    let notes = (&memory.added[..], &memory.missing[..]);
    footer(
        out,
        "domain budget",
        memory.checked,
        notes,
        &regressions,
        tolerance,
    )?;
    writeln!(out)?;
    attribution_table(out, current)
}

/// Who allocated, how much, and what stayed unaccounted: the top
/// [`TOP_DOMAINS`] domains of each benchmark by allocations per
/// iteration, under the share of its allocations charged to named
/// domains.
fn attribution_table(out: &mut impl Write, report: &MemReport) -> io::Result<()> {
    writeln!(out, "bench_check: per-benchmark allocation attribution:")?;
    let plan = if report.quick { " (quick plan)" } else { "" };
    let (label, rows) = (&report.label, report.results.len());
    writeln!(
        out,
        "bench_check: label {label:?}{plan}, {rows} benchmark(s)"
    )?;
    for result in &report.results {
        writeln!(
            out,
            "\n{} — {} iterations, {:.1}% of allocations attributed",
            result.name,
            result.iters,
            result.attributed_fraction * 100.0
        )?;
        let (domain, allocs, bytes, peak) = ("domain", "allocs/iter", "bytes/iter", "peak");
        writeln!(out, "  {domain:<24} {allocs:>14} {bytes:>14} {peak:>12}")?;
        let mut rows: Vec<_> = result.domains.iter().collect();
        rows.sort_by(|a, b| {
            b.allocs_per_iter
                .cmp(&a.allocs_per_iter)
                .then_with(|| a.domain.cmp(&b.domain))
        });
        for row in rows.iter().take(TOP_DOMAINS) {
            let peak = format_bytes(row.peak_bytes);
            let (domain, allocs, bytes) = (&row.domain, row.allocs_per_iter, row.bytes_per_iter);
            writeln!(out, "  {domain:<24} {allocs:>14} {bytes:>14} {peak:>12}")?;
        }
        if rows.len() > TOP_DOMAINS {
            writeln!(out, "  ... {} more domain(s)", rows.len() - TOP_DOMAINS)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inputs = match parse_options(&args) {
        Ok(opts) => load_inputs(opts),
        Err(err) => {
            eprintln!("bench_check: {err}");
            usage();
            return ExitCode::from(2);
        }
    };
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(err) => {
            eprintln!("bench_check: {err}");
            return ExitCode::from(2);
        }
    };
    let outcomes = Outcomes::of(&inputs);
    let stdout = &mut io::stdout().lock();
    if let Err(err) = output::emit(stdout, |out| render(out, &inputs, &outcomes)) {
        eprintln!("bench_check: {err}");
        return ExitCode::from(2);
    }
    if outcomes.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded<T: Deserialize>(json: &str) -> Loaded<T> {
        let report = serde_json::from_str(json).expect("fixture");
        let path = PathBuf::from("fixture.json");
        Loaded { path, report }
    }

    fn inputs(current_p50: u64, current_allocs: u64) -> Inputs {
        let bench = |label: &str, p50: u64| {
            loaded(&format!(
                r#"{{"label":"{label}","quick":true,"results":[{{"name":"a/one","samples":5,
                "iters_per_sample":1,"p50_ns":{p50},"p95_ns":{p50},"mean_ns":{p50},
                "min_ns":{p50},"max_ns":{p50},"throughput_per_sec":1.0,
                "alloc_bytes_per_iter":0,"allocs_per_iter":0}}]}}"#
            ))
        };
        let mem = |label: &str, allocs: u64| {
            loaded(&format!(
                r#"{{"label":"{label}","quick":true,"results":[{{"name":"a/one","iters":6,
                "attributed_fraction":0.5,"domains":[{{"domain":"core.tracker",
                "peak_bytes":2048,"allocs_per_iter":{allocs},"bytes_per_iter":64}}]}}]}}"#
            ))
        };
        Inputs {
            tolerance_pct: 50.0,
            baseline: bench("pr5", 100),
            current: bench("ci", current_p50),
            mem_baseline: mem("full", 10),
            mem_current: mem("ci", current_allocs),
        }
    }

    fn rendered(inputs: &Inputs) -> (bool, String) {
        let outcomes = Outcomes::of(inputs);
        let mut text = Vec::new();
        render(&mut text, inputs, &outcomes).expect("renders");
        (outcomes.passed(), String::from_utf8(text).expect("utf8"))
    }

    #[test]
    fn one_render_gates_timing_and_memory() {
        let (passed, text) = rendered(&inputs(120, 12));
        assert!(passed, "{text}");
        assert!(text.contains("bench_check: OK — 1 benchmark(s) within 50% of baseline"));
        assert!(text.contains("bench_check: OK — 1 domain budget(s) within 50% of baseline"));
        assert!(text.contains("\na/one — 6 iterations, 50.0% of allocations attributed\n"));
        assert!(text.contains("2.0KiB"), "{text}");

        let (passed, text) = rendered(&inputs(200, 12));
        assert!(!passed);
        assert!(
            text.contains("REGRESSION a/one: p50 100ns -> 200ns (2.00x)"),
            "{text}"
        );
        let (passed, text) = rendered(&inputs(120, 16));
        assert!(!passed);
        assert!(text.contains("REGRESSION a/one/core.tracker: allocs_per_iter 10 -> 16"));
    }

    /// A writer whose reader went away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_cuts_the_tables_short_without_an_error() {
        let inputs = inputs(200, 16);
        let outcomes = Outcomes::of(&inputs);
        let emitted = output::emit(&mut ClosedPipe, |out| render(out, &inputs, &outcomes));
        assert!(emitted.is_ok(), "{emitted:?}");
        assert!(
            !outcomes.passed(),
            "the verdict does not depend on the reader"
        );
    }
}
