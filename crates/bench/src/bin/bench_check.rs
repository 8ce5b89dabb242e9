//! The perf-regression gate: diffs a fresh `bench_all` run against a
//! committed baseline snapshot.
//!
//! ```text
//! cargo run --release -p crp-bench --bin bench_check [-- \
//!     --baseline <file>] [--current <file>] [--tolerance <pct>[%]]
//! ```
//!
//! Defaults: `--current results/bench.json`, `--baseline` the
//! `BENCH_pr<N>.json` in the working directory with the largest `N`
//! (the newest committed snapshot), tolerance 20%.
//!
//! Exit status: 0 when every baseline benchmark is present and within
//! tolerance, 1 on regression or missing benchmarks, 2 on usage or I/O
//! errors — mirroring `telemetry_check`. A per-benchmark p50 delta
//! table is printed either way, so a passing run still shows how close
//! each benchmark sits to the gate.

use crp_bench::harness::{compare, parse_tolerance, snapshot_number, BenchReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    serde_json::from_str(&raw).map_err(|err| format!("{}: malformed report: {err}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("bench_check: {err}");
            usage();
            return ExitCode::from(2);
        }
    };
    let baseline_path = match opts.baseline.or_else(|| default_baseline(Path::new("."))) {
        Some(path) => path,
        None => {
            eprintln!("bench_check: no --baseline given and no BENCH_pr<N>.json snapshot found");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (load_report(&baseline_path), load_report(&opts.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("bench_check: {err}");
            return ExitCode::from(2);
        }
    };

    eprintln!(
        "bench_check: {} (label {:?}) vs {} (label {:?}), tolerance {}%",
        opts.current.display(),
        current.label,
        baseline_path.display(),
        baseline.label,
        opts.tolerance_pct
    );
    let outcome = compare(&baseline, &current, opts.tolerance_pct);

    // Per-benchmark delta table, printed on success too: a run that
    // passes the gate can still be drifting toward it, and the deltas
    // are what a baseline-refresh decision is made from.
    println!("bench_check: per-benchmark p50 deltas (current vs baseline):");
    println!(
        "  {:<40} {:>12} {:>12} {:>8}",
        "benchmark", "baseline", "current", "ratio"
    );
    for base in &baseline.results {
        let Some(cur) = current.result(&base.name) else {
            continue;
        };
        let ratio = if base.p50_ns == 0 {
            "n/a".to_owned()
        } else {
            format!("{:.2}x", cur.p50_ns as f64 / base.p50_ns as f64)
        };
        println!(
            "  {:<40} {:>10}ns {:>10}ns {:>8}",
            base.name, base.p50_ns, cur.p50_ns, ratio
        );
    }

    for name in &outcome.added {
        eprintln!("bench_check: note: new benchmark {name} (not in baseline)");
    }
    for name in &outcome.missing {
        eprintln!("bench_check: MISSING {name}: in baseline but not in current run");
    }
    for reg in &outcome.regressions {
        eprintln!(
            "bench_check: REGRESSION {}: p50 {}ns -> {}ns ({:.2}x)",
            reg.name, reg.baseline_p50_ns, reg.current_p50_ns, reg.ratio
        );
    }
    if outcome.passed() {
        println!(
            "bench_check: OK — {} benchmark(s) within {}% of baseline",
            outcome.checked, opts.tolerance_pct
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_check: FAILED — {} regression(s), {} missing of {} checked",
            outcome.regressions.len(),
            outcome.missing.len(),
            outcome.checked
        );
        ExitCode::from(1)
    }
}
