//! The bench gate: diffs a fresh `bench_all` run against the newest
//! committed timing snapshot.
//!
//! ```text
//! cargo run --release -p crp-bench --bin bench_check [-- \
//!     --baseline <file>] [--current <file>] [--tolerance <pct>[%]]
//! ```
//!
//! `--current` (default `results/bench.json`) is compared against
//! `--baseline`, by default the `BENCH_pr<N>.json` in the working
//! directory with the largest `N` (the newest committed snapshot). A
//! benchmark regresses when its p50 exceeds the baseline's by more than
//! the tolerance (default 20%); a baseline row the current run lacks
//! fails the gate too — a silent drop would disable its own gate.
//!
//! Prints the p50 delta table, then the gate's notes and verdict. A
//! passing run still shows how close each row sits to its gate: the
//! deltas are what a baseline refresh is decided from.
//!
//! Exit status: 0 when the gate passes, 1 on a regression or a missing
//! row, 2 on usage or I/O errors.

use crp_bench::harness::{compare, parse_tolerance, snapshot_number, BenchReport, Comparison};
use crp_eval::output;
use std::io::{self, Write};
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

/// A report and the file it came from.
struct Loaded {
    path: PathBuf,
    report: BenchReport,
}

fn load(path: PathBuf) -> Result<Loaded, String> {
    let raw = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let report = serde_json::from_str(&raw)
        .map_err(|err| format!("{}: malformed report: {err}", path.display()))?;
    Ok(Loaded { path, report })
}

/// The gate's inputs.
struct Inputs {
    tolerance_pct: f64,
    baseline: Loaded,
    current: Loaded,
}

impl Inputs {
    fn compare(&self) -> Comparison {
        compare(
            &self.baseline.report,
            &self.current.report,
            self.tolerance_pct,
        )
    }
}

fn load_inputs(opts: Options) -> Result<Inputs, String> {
    let baseline = opts
        .baseline
        .or_else(|| default_baseline(Path::new(".")))
        .ok_or("no --baseline given and no BENCH_pr<N>.json snapshot found")?;
    Ok(Inputs {
        tolerance_pct: opts.tolerance_pct,
        baseline: load(baseline)?,
        current: load(opts.current)?,
    })
}

/// Renders the p50 table, then the gate's notes and verdict. The
/// verdict is decided before anything prints: a reader that closes the
/// pipe early cuts the table short, not the verdict.
fn render(out: &mut impl Write, inputs: &Inputs, verdict: &Comparison) -> io::Result<()> {
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
    for name in &verdict.added {
        writeln!(
            out,
            "bench_check: note: new benchmark {name} (not in baseline)"
        )?;
    }
    for name in &verdict.missing {
        writeln!(
            out,
            "bench_check: MISSING {name}: in baseline but not in current run"
        )?;
    }
    for r in &verdict.regressions {
        let (name, base, cur, ratio) = (&r.name, r.baseline_p50_ns, r.current_p50_ns, r.ratio);
        writeln!(
            out,
            "bench_check: REGRESSION {name}: p50 {base}ns -> {cur}ns ({ratio:.2}x)"
        )?;
    }
    let checked = verdict.checked;
    if verdict.passed() {
        writeln!(
            out,
            "bench_check: OK — {checked} benchmark(s) within {tolerance}% of baseline"
        )
    } else {
        let (regressed, missed) = (verdict.regressions.len(), verdict.missing.len());
        writeln!(
            out,
            "bench_check: FAILED — {regressed} regression(s), {missed} missing of {checked} checked"
        )
    }
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
    let verdict = inputs.compare();
    let stdout = &mut io::stdout().lock();
    if let Err(err) = output::emit(stdout, |out| render(out, &inputs, &verdict)) {
        eprintln!("bench_check: {err}");
        return ExitCode::from(2);
    }
    if verdict.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline `pr5` and a current `ci` report holding the given
    /// `(name, p50)` rows, gated at 50%.
    fn inputs(baseline: &[(&str, u64)], current: &[(&str, u64)]) -> Inputs {
        let loaded = |label: &str, rows: &[(&str, u64)]| {
            let results: Vec<String> = rows
                .iter()
                .map(|(name, p50)| {
                    format!(
                        r#"{{"name":"{name}","samples":5,"iters_per_sample":1,"p50_ns":{p50},
                        "p95_ns":{p50},"mean_ns":{p50},"min_ns":{p50},"max_ns":{p50},
                        "throughput_per_sec":1.0}}"#
                    )
                })
                .collect();
            let json = format!(r#"{{"label":"{label}","results":[{}]}}"#, results.join(","));
            let report = serde_json::from_str(&json).expect("fixture");
            let path = PathBuf::from(format!("{label}.json"));
            Loaded { path, report }
        };
        Inputs {
            tolerance_pct: 50.0,
            baseline: loaded("pr5", baseline),
            current: loaded("ci", current),
        }
    }

    fn rendered(inputs: &Inputs) -> (bool, String) {
        let verdict = inputs.compare();
        let mut text = Vec::new();
        render(&mut text, inputs, &verdict).expect("renders");
        (verdict.passed(), String::from_utf8(text).expect("utf8"))
    }

    #[test]
    fn render_prints_the_deltas_and_the_verdict() {
        let (passed, text) = rendered(&inputs(&[("a/one", 100)], &[("a/one", 120)]));
        assert!(passed, "{text}");
        assert!(text.contains("  a/one "), "{text}");
        assert!(text.contains("1.20x"), "{text}");
        assert!(text.contains("bench_check: OK — 1 benchmark(s) within 50% of baseline"));

        let (passed, text) = rendered(&inputs(&[("a/one", 100)], &[("a/one", 200)]));
        assert!(!passed);
        assert!(
            text.contains("REGRESSION a/one: p50 100ns -> 200ns (2.00x)"),
            "{text}"
        );

        let (passed, text) = rendered(&inputs(&[("a/one", 100)], &[("b/two", 100)]));
        assert!(!passed);
        assert!(text.contains("MISSING a/one: in baseline but not in current run"));
        assert!(text.contains("note: new benchmark b/two (not in baseline)"));
        assert!(text.contains("FAILED — 0 regression(s), 1 missing of 0 checked"));
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
    fn a_closed_pipe_cuts_the_table_short_without_an_error() {
        let inputs = inputs(&[("a/one", 100)], &[("a/one", 200)]);
        let verdict = inputs.compare();
        let emitted = output::emit(&mut ClosedPipe, |out| render(out, &inputs, &verdict));
        assert!(emitted.is_ok(), "{emitted:?}");
        assert!(
            !verdict.passed(),
            "the verdict does not depend on the reader"
        );
    }
}
