//! The measurement engine behind `bench_all` and the comparison logic
//! behind `bench_check`.
//!
//! Design goals, in order: **reproducible shape** (fixed warmup and
//! iteration counts, no adaptive calibration, so two runs of the same
//! binary execute the same work), **machine-readable output** (a
//! [`BenchReport`] serialized to `results/bench.json` and snapshotted to
//! `BENCH_<label>.json`), and **diffability** ([`compare`] turns two
//! reports into a pass/fail regression verdict for CI).
//!
//! Timing works sample-wise: each sample times `iters_per_sample`
//! back-to-back iterations and records the mean nanoseconds per
//! iteration; p50/p95 are nearest-rank percentiles over the samples.
//! Allocation counts are not measured here: `tests/hot_path_allocs.rs`
//! pins them exactly.
//!
//! This module deliberately does **no file I/O** (`clippy.toml` disallows it):
//! the binaries own reading and writing; the harness owns measuring and
//! comparing, so every decision procedure here is unit-testable.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Statistics for one named benchmark.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable benchmark name, slash-namespaced (`similarity/cosine_16`).
    pub name: String,
    /// Samples actually measured.
    pub samples: u64,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration (the headline number).
    pub p50_ns: u64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: u64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: u64,
    /// Fastest sample, ns per iteration.
    pub min_ns: u64,
    /// Slowest sample, ns per iteration.
    pub max_ns: u64,
    /// Iterations per second implied by the median (`1e9 / p50_ns`).
    pub throughput_per_sec: f64,
}

/// A full benchmark run: the `bench.json` / `BENCH_<label>.json` schema.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Snapshot label (`pr5`, `ci`, ...).
    pub label: String,
    /// Results in execution order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Looks up a result by benchmark name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }
}

/// Runs registered benchmarks under a fixed, deterministic plan.
#[derive(Default)]
pub struct Runner {
    results: Vec<BenchResult>,
}

impl Runner {
    /// Measures `f` as benchmark `name`: one warmup sample, then
    /// `samples` timed samples of `iters_per_sample` iterations each
    /// (both at least 1).
    pub fn run<T, F>(&mut self, name: &str, samples: usize, iters_per_sample: u64, mut f: F)
    where
        F: FnMut() -> T,
    {
        let (samples, iters) = (samples.max(1), iters_per_sample.max(1));

        // Warmup: one untimed sample to populate caches and lazy state.
        for _ in 0..iters {
            std::hint::black_box(f());
        }

        let mut per_iter_ns: Vec<u64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            #[expect(
                clippy::disallowed_methods,
                reason = "the bench harness times its samples on the wall clock"
            )]
            let started = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let total = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            per_iter_ns.push(total / iters);
        }
        self.results.push(summarize(name, &per_iter_ns, iters));
    }

    /// Finishes the run and labels the report.
    pub fn into_report(self, label: &str) -> BenchReport {
        BenchReport {
            label: label.to_owned(),
            results: self.results,
        }
    }
}

/// Condenses per-iteration sample times into a [`BenchResult`].
fn summarize(name: &str, per_iter_ns: &[u64], iters_per_sample: u64) -> BenchResult {
    let mut sorted = per_iter_ns.to_vec();
    sorted.sort_unstable();
    let p50 = percentile(&sorted, 50);
    let sum: u64 = sorted.iter().fold(0u64, |acc, &v| acc.saturating_add(v));
    BenchResult {
        name: name.to_owned(),
        samples: sorted.len() as u64,
        iters_per_sample,
        p50_ns: p50,
        p95_ns: percentile(&sorted, 95),
        mean_ns: if sorted.is_empty() {
            0
        } else {
            sum / sorted.len() as u64
        },
        min_ns: sorted.first().copied().unwrap_or(0),
        max_ns: sorted.last().copied().unwrap_or(0),
        throughput_per_sec: if p50 == 0 { 0.0 } else { 1e9 / p50 as f64 },
    }
}

/// Nearest-rank percentile over an ascending slice (`pct` in 0..=100):
/// the value at rank `ceil(len * pct / 100)`. Returns 0 for an empty
/// slice.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100);
    sorted[rank.saturating_sub(1)]
}

/// One benchmark whose median got slower than the gate allows.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, ns per iteration.
    pub baseline_p50_ns: u64,
    /// Current median, ns per iteration.
    pub current_p50_ns: u64,
    /// `current / baseline` slowdown factor.
    pub ratio: f64,
}

/// Outcome of diffing a current run against a baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// Benchmarks present in both reports.
    pub checked: usize,
    /// Benchmarks beyond tolerance, worst first.
    pub regressions: Vec<Regression>,
    /// Baseline benchmarks missing from the current run (a silent drop
    /// would otherwise disable its own gate).
    pub missing: Vec<String>,
    /// Current benchmarks absent from the baseline (informational).
    pub added: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes: nothing regressed, nothing missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Diffs `current` against `baseline`: a benchmark regresses when its
/// median exceeds the baseline median by more than `tolerance_pct`
/// percent. Zero-valued baselines (sub-resolution medians) are skipped
/// rather than divided by.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance_pct: f64) -> Comparison {
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for base in &baseline.results {
        let Some(cur) = current.result(&base.name) else {
            missing.push(base.name.clone());
            continue;
        };
        checked += 1;
        if base.p50_ns == 0 {
            continue;
        }
        let limit = base.p50_ns as f64 * (1.0 + tolerance_pct / 100.0);
        if (cur.p50_ns as f64) > limit {
            regressions.push(Regression {
                name: base.name.clone(),
                baseline_p50_ns: base.p50_ns,
                current_p50_ns: cur.p50_ns,
                ratio: cur.p50_ns as f64 / base.p50_ns as f64,
            });
        }
    }
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    let added = current
        .results
        .iter()
        .filter(|r| baseline.result(&r.name).is_none())
        .map(|r| r.name.clone())
        .collect();
    Comparison {
        checked,
        regressions,
        missing,
        added,
    }
}

/// The order of committed timing snapshots: the `<N>` of a
/// `BENCH_pr<N>.json` file name, `None` for any other name. The newest
/// snapshot is the one with the largest number — filename order would
/// put `BENCH_pr10.json` before `BENCH_pr5.json`.
pub fn snapshot_number(file_name: &str) -> Option<u64> {
    file_name
        .strip_prefix("BENCH_pr")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Parses a tolerance argument: `"50"`, `"50%"`, `"12.5%"` → percent.
///
/// # Errors
///
/// Returns a message when the value is not a finite non-negative number.
pub fn parse_tolerance(raw: &str) -> Result<f64, String> {
    let trimmed = raw.trim().trim_end_matches('%').trim();
    let value: f64 = trimmed
        .parse()
        .map_err(|_| format!("invalid tolerance {raw:?}: expected a percentage like 20%"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("invalid tolerance {raw:?}: must be >= 0"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, entries: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            label: label.to_owned(),
            results: entries
                .iter()
                .map(|&(name, p50)| BenchResult {
                    name: name.to_owned(),
                    samples: 10,
                    iters_per_sample: 1,
                    p50_ns: p50,
                    p95_ns: p50 * 2,
                    mean_ns: p50,
                    min_ns: p50 / 2,
                    max_ns: p50 * 3,
                    throughput_per_sec: if p50 == 0 { 0.0 } else { 1e9 / p50 as f64 },
                })
                .collect(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 95), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn summarize_orders_and_averages() {
        let r = summarize("x", &[30, 10, 20], 4);
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 4);
        assert_eq!(r.p50_ns, 20);
        assert_eq!(r.p95_ns, 30);
        assert_eq!(r.mean_ns, 20);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.max_ns, 30);
        assert!((r.throughput_per_sec - 5e7).abs() < 1e-6);
    }

    #[test]
    fn runner_executes_fixed_plans() {
        let mut counted = 0u64;
        let mut runner = Runner::default();
        runner.run("count", 3, 5, || counted += 1);
        // 1 warmup sample + 3 timed samples, 5 iterations each.
        assert_eq!(counted, 20);
        let report = runner.into_report("test");
        assert_eq!(report.label, "test");
        let r = report.result("count").expect("result recorded");
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 5);
        assert!(r.max_ns >= r.p95_ns && r.p95_ns >= r.p50_ns && r.p50_ns >= r.min_ns);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut runner = Runner::default();
        runner.run("a/one", 2, 1, || 1 + 1);
        runner.run("b/two", 2, 1, || vec![0u8; 32].len());
        let report = runner.into_report("rt");
        let text = serde_json::to_string(&report).expect("serialize");
        let back: BenchReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn reports_with_retired_fields_still_parse() {
        // Snapshots written before the quick plan and the allocation
        // columns were dropped carry both; fields are read by name.
        let old = r#"{"label":"pr5","quick":false,"results":[{"name":"a/one","samples":30,
            "iters_per_sample":2000,"p50_ns":175,"p95_ns":229,"mean_ns":180,"min_ns":165,
            "max_ns":238,"throughput_per_sec":5714285.7,"alloc_bytes_per_iter":0,
            "allocs_per_iter":0}]}"#;
        let report: BenchReport = serde_json::from_str(old).expect("parse");
        assert_eq!(report.result("a/one").map(|r| r.p50_ns), Some(175));
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let base = report("base", &[("a", 100), ("b", 100), ("c", 100)]);
        let cur = report("cur", &[("a", 119), ("b", 121), ("c", 300)]);
        let cmp = compare(&base, &cur, 20.0);
        assert_eq!(cmp.checked, 3);
        assert!(!cmp.passed());
        let names: Vec<&str> = cmp.regressions.iter().map(|r| r.name.as_str()).collect();
        // Worst first; `a` is within the 20% gate.
        assert_eq!(names, ["c", "b"]);
        assert!((cmp.regressions[0].ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compare_fails_on_missing_and_reports_added() {
        let base = report("base", &[("a", 100), ("gone", 50)]);
        let cur = report("cur", &[("a", 100), ("new", 10)]);
        let cmp = compare(&base, &cur, 20.0);
        assert_eq!(cmp.missing, ["gone"]);
        assert_eq!(cmp.added, ["new"]);
        assert!(!cmp.passed(), "a missing benchmark must fail the gate");
    }

    #[test]
    fn compare_skips_zero_baselines_and_passes_when_clean() {
        let base = report("base", &[("zero", 0), ("a", 100)]);
        let cur = report("cur", &[("zero", 999), ("a", 90)]);
        let cmp = compare(&base, &cur, 10.0);
        assert!(cmp.passed(), "{cmp:?}");
        assert_eq!(cmp.checked, 2);
    }

    #[test]
    fn snapshots_order_by_label_number() {
        let mut names = ["BENCH_pr10.json", "BENCH_pr5.json", "BENCH_pr3.json"];
        names.sort_by_key(|n| snapshot_number(n));
        assert_eq!(
            names,
            ["BENCH_pr3.json", "BENCH_pr5.json", "BENCH_pr10.json"]
        );
        assert_eq!(snapshot_number("BENCH_pr10.json"), Some(10));
        for other in ["BENCH_ci.json", "BENCH_pr.json", "BENCH_pr5.json.bak"] {
            assert_eq!(snapshot_number(other), None, "{other}");
        }
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(parse_tolerance("50"), Ok(50.0));
        assert_eq!(parse_tolerance("50%"), Ok(50.0));
        assert_eq!(parse_tolerance(" 12.5% "), Ok(12.5));
        assert_eq!(parse_tolerance("0"), Ok(0.0));
        assert!(parse_tolerance("abc").is_err());
        assert!(parse_tolerance("-5").is_err());
        assert!(parse_tolerance("NaN").is_err());
    }
}
