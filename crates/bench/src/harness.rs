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
//! When the running binary installs
//! [`crp_telemetry::profile::CountingAllocator`] as its global
//! allocator, per-iteration allocation pressure is reported as well.
//!
//! This module deliberately does **no file I/O** (lint rule CRP006):
//! the binaries own reading and writing; the harness owns measuring and
//! comparing, so every decision procedure here is unit-testable.

use crp_telemetry::profile;
use crp_telemetry::MemSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Statistics for one named benchmark.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable benchmark name, slash-namespaced (`smf/cluster_177x8`).
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
    /// Mean heap bytes allocated per iteration (0 without the counting
    /// allocator installed).
    pub alloc_bytes_per_iter: u64,
    /// Mean heap allocations per iteration (same caveat).
    pub allocs_per_iter: u64,
}

/// A full benchmark run: the `bench.json` / `BENCH_<label>.json` schema.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Snapshot label (`pr3`, `ci`, ...).
    pub label: String,
    /// Whether the reduced `--quick` plan produced these numbers.
    pub quick: bool,
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
pub struct Runner {
    quick: bool,
    results: Vec<BenchResult>,
}

impl Runner {
    /// Creates a runner; `quick` shrinks every plan (fewer samples and
    /// iterations) for smoke runs where latency matters more than
    /// precision.
    pub fn new(quick: bool) -> Runner {
        Runner {
            quick,
            results: Vec::new(),
        }
    }

    /// Whether this runner is on the reduced plan.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Measures `f` as benchmark `name`: one warmup sample, then
    /// `samples` timed samples of `iters_per_sample` iterations each.
    /// In quick mode samples are capped at 5 and iterations divided by
    /// 4 (floor 1).
    pub fn run<T, F>(&mut self, name: &str, samples: usize, iters_per_sample: u64, mut f: F)
    where
        F: FnMut() -> T,
    {
        let (samples, iters) = if self.quick {
            (samples.min(5), (iters_per_sample / 4).max(1))
        } else {
            (samples.max(1), iters_per_sample.max(1))
        };

        // Warmup: one untimed sample to populate caches and lazy state.
        for _ in 0..iters {
            std::hint::black_box(f());
        }

        let mut per_iter_ns: Vec<u64> = Vec::with_capacity(samples);
        let bytes_before = profile::allocated_bytes();
        let allocs_before = profile::allocation_count();
        for _ in 0..samples {
            let started = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let total = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            per_iter_ns.push(total / iters);
        }
        let total_iters = samples as u64 * iters;
        let bytes = profile::allocated_bytes().saturating_sub(bytes_before);
        let allocs = profile::allocation_count().saturating_sub(allocs_before);

        self.results.push(summarize(
            name,
            &per_iter_ns,
            iters,
            bytes / total_iters,
            allocs / total_iters,
        ));
    }

    /// The most recently recorded result (the row a mem snapshot taken
    /// right after [`run`](Runner::run) belongs to).
    pub fn last(&self) -> Option<&BenchResult> {
        self.results.last()
    }

    /// Finishes the run and labels the report.
    pub fn into_report(self, label: &str) -> BenchReport {
        BenchReport {
            label: label.to_owned(),
            quick: self.quick,
            results: self.results,
        }
    }
}

/// Condenses per-iteration sample times into a [`BenchResult`].
fn summarize(
    name: &str,
    per_iter_ns: &[u64],
    iters_per_sample: u64,
    alloc_bytes_per_iter: u64,
    allocs_per_iter: u64,
) -> BenchResult {
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
        alloc_bytes_per_iter,
        allocs_per_iter,
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

// ---------------------------------------------------------------------
// Memory attribution: the `mem.json` / `MEM_BASELINE.json` schema and
// the comparison behind `bench_check`'s memory gate
// ---------------------------------------------------------------------

/// One domain's allocation budget for one benchmark row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemDomainRow {
    /// Attribution domain name (`core.tracker`, `(unattributed)`, ...).
    pub domain: String,
    /// Peak live bytes over the whole row (raw, not per-iteration — a
    /// high-water mark does not scale with the plan).
    pub peak_bytes: i64,
    /// Mean heap allocations per iteration charged to this domain.
    pub allocs_per_iter: u64,
    /// Mean bytes allocated per iteration charged to this domain.
    pub bytes_per_iter: u64,
}

/// Per-domain allocation statistics for one benchmark row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemResult {
    /// Benchmark name, matching the [`BenchResult`] it annotates.
    pub name: String,
    /// Iterations the counters cover (warmup included — attribution
    /// sees every iteration the row ran).
    pub iters: u64,
    /// Fraction of the row's allocations charged to named domains.
    pub attributed_fraction: f64,
    /// Active domains, name-sorted; zero-activity domains are dropped.
    pub domains: Vec<MemDomainRow>,
}

impl MemResult {
    /// Looks up a domain row by name.
    pub fn domain(&self, name: &str) -> Option<&MemDomainRow> {
        self.domains.iter().find(|d| d.domain == name)
    }
}

/// A full memory-attribution run: the `mem.json` / `MEM_BASELINE.json`
/// schema.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemReport {
    /// Snapshot label, matching the bench report of the same run.
    pub label: String,
    /// Whether the reduced `--quick` plan produced these numbers.
    pub quick: bool,
    /// Results in execution order.
    pub results: Vec<MemResult>,
}

impl MemReport {
    /// Looks up a result by benchmark name.
    pub fn result(&self, name: &str) -> Option<&MemResult> {
        self.results.iter().find(|r| r.name == name)
    }
}

/// Condenses an armed attribution snapshot into the [`MemResult`] for
/// the benchmark row just measured. `result` supplies the plan shape:
/// counters are normalized over every iteration the row executed —
/// `(samples + 1) * iters_per_sample`, warmup included, because the
/// attribution counters saw the warmup too.
pub fn mem_result_for(result: &BenchResult, snap: &MemSnapshot) -> MemResult {
    let iters = (result.samples + 1).max(1) * result.iters_per_sample.max(1);
    let domains = snap
        .domains
        .iter()
        .filter(|d| d.allocs > 0 || d.reallocs > 0 || d.peak_bytes > 0)
        .map(|d| MemDomainRow {
            domain: d.name.clone(),
            peak_bytes: d.peak_bytes,
            allocs_per_iter: d.allocs / iters,
            bytes_per_iter: d.total_bytes / iters,
        })
        .collect();
    MemResult {
        name: result.name.clone(),
        iters,
        attributed_fraction: snap.attributed_fraction(),
        domains,
    }
}

/// One domain budget that grew beyond the gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemRegression {
    /// Benchmark name.
    pub name: String,
    /// Attribution domain within the benchmark.
    pub domain: String,
    /// Which budget regressed: `allocs_per_iter` or `peak_bytes`.
    pub metric: String,
    /// Baseline value.
    pub baseline: i64,
    /// Current value.
    pub current: i64,
    /// `current / baseline` growth factor.
    pub ratio: f64,
}

/// Outcome of diffing a current memory report against a baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct MemComparison {
    /// Domain budgets present in both reports.
    pub checked: usize,
    /// Budgets beyond tolerance, worst first.
    pub regressions: Vec<MemRegression>,
    /// Baseline benchmarks missing from the current run.
    pub missing: Vec<String>,
    /// `benchmark/domain` pairs new in the current run (informational —
    /// a new domain moves allocations, it does not create them).
    pub added: Vec<String>,
}

impl MemComparison {
    /// Whether the gate passes: nothing regressed, nothing missing.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Diffs `current` against `baseline`: a domain budget regresses when
/// its per-iteration allocation count or raw peak bytes exceed the
/// baseline by more than `tolerance_pct` percent. Zero-valued baseline
/// budgets are skipped rather than divided by. A baseline domain with a
/// non-zero budget that the current run lacks is *missing*, like a
/// missing benchmark: read as zero, a renamed domain would silently
/// un-gate its budget. `missing` lists it as `benchmark/domain`.
pub fn compare_mem(baseline: &MemReport, current: &MemReport, tolerance_pct: f64) -> MemComparison {
    let limit = 1.0 + tolerance_pct / 100.0;
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for base in &baseline.results {
        let Some(cur) = current.result(&base.name) else {
            missing.push(base.name.clone());
            continue;
        };
        for row in &base.domains {
            checked += 1;
            let Some(cur_row) = cur.domain(&row.domain) else {
                if row.allocs_per_iter > 0 || row.peak_bytes > 0 {
                    missing.push(format!("{}/{}", base.name, row.domain));
                }
                continue;
            };
            for (metric, base_val, cur_val) in [
                (
                    "allocs_per_iter",
                    row.allocs_per_iter as i64,
                    cur_row.allocs_per_iter as i64,
                ),
                ("peak_bytes", row.peak_bytes, cur_row.peak_bytes),
            ] {
                if base_val <= 0 {
                    continue;
                }
                if cur_val as f64 > base_val as f64 * limit {
                    regressions.push(MemRegression {
                        name: base.name.clone(),
                        domain: row.domain.clone(),
                        metric: metric.to_owned(),
                        baseline: base_val,
                        current: cur_val,
                        ratio: cur_val as f64 / base_val as f64,
                    });
                }
            }
        }
    }
    regressions.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    let mut added = Vec::new();
    for cur in &current.results {
        let base = baseline.result(&cur.name);
        for row in &cur.domains {
            if base.is_none_or(|b| b.domain(&row.domain).is_none()) {
                added.push(format!("{}/{}", cur.name, row.domain));
            }
        }
    }
    MemComparison {
        checked,
        regressions,
        missing,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, entries: &[(&str, u64)]) -> BenchReport {
        BenchReport {
            label: label.to_owned(),
            quick: false,
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
                    alloc_bytes_per_iter: 0,
                    allocs_per_iter: 0,
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
        let r = summarize("x", &[30, 10, 20], 4, 128, 2);
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 4);
        assert_eq!(r.p50_ns, 20);
        assert_eq!(r.p95_ns, 30);
        assert_eq!(r.mean_ns, 20);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.max_ns, 30);
        assert!((r.throughput_per_sec - 5e7).abs() < 1e-6);
        assert_eq!(r.alloc_bytes_per_iter, 128);
    }

    #[test]
    fn runner_executes_fixed_plans() {
        let mut counted = 0u64;
        let mut runner = Runner::new(false);
        runner.run("count", 3, 5, || counted += 1);
        // 1 warmup sample + 3 timed samples, 5 iterations each.
        assert_eq!(counted, 20);
        let report = runner.into_report("test");
        assert_eq!(report.label, "test");
        assert!(!report.quick);
        let r = report.result("count").expect("result recorded");
        assert_eq!(r.samples, 3);
        assert_eq!(r.iters_per_sample, 5);
        assert!(r.max_ns >= r.p95_ns && r.p95_ns >= r.p50_ns && r.p50_ns >= r.min_ns);
    }

    #[test]
    fn quick_mode_shrinks_the_plan() {
        let mut counted = 0u64;
        let mut runner = Runner::new(true);
        runner.run("count", 30, 8, || counted += 1);
        // samples capped at 5, iters 8/4 = 2; plus one warmup sample.
        assert_eq!(counted, (5 + 1) * 2);
        let report = runner.into_report("q");
        assert!(report.quick);
        assert_eq!(report.result("count").map(|r| r.samples), Some(5));
        assert_eq!(report.result("count").map(|r| r.iters_per_sample), Some(2));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut runner = Runner::new(true);
        runner.run("a/one", 2, 1, || 1 + 1);
        runner.run("b/two", 2, 1, || vec![0u8; 32].len());
        let report = runner.into_report("rt");
        let text = serde_json::to_string(&report).expect("serialize");
        let back: BenchReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, report);
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

    fn mem_report(label: &str, rows: &[(&str, &[(&str, i64, u64)])]) -> MemReport {
        MemReport {
            label: label.to_owned(),
            quick: false,
            results: rows
                .iter()
                .map(|&(name, domains)| MemResult {
                    name: name.to_owned(),
                    iters: 100,
                    attributed_fraction: 0.97,
                    domains: domains
                        .iter()
                        .map(|&(domain, peak, allocs)| MemDomainRow {
                            domain: domain.to_owned(),
                            peak_bytes: peak,
                            allocs_per_iter: allocs,
                            bytes_per_iter: allocs * 32,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn mem_result_normalizes_over_warmup_inclusive_iters() {
        let bench = summarize("row", &[10, 10, 10], 5, 0, 0);
        let snap = crp_telemetry::MemSnapshot {
            domains: vec![
                crp_telemetry::DomainMem {
                    name: "core.tracker".to_owned(),
                    live_bytes: 0,
                    peak_bytes: 4096,
                    total_bytes: 40_000,
                    allocs: 400,
                    deallocs: 400,
                    reallocs: 0,
                    size_classes: vec![0; 16],
                },
                crp_telemetry::DomainMem {
                    name: "idle.domain".to_owned(),
                    live_bytes: 0,
                    peak_bytes: 0,
                    total_bytes: 0,
                    allocs: 0,
                    deallocs: 0,
                    reallocs: 0,
                    size_classes: vec![0; 16],
                },
            ],
        };
        let r = mem_result_for(&bench, &snap);
        // 3 samples + 1 warmup, 5 iters each = 20 iterations.
        assert_eq!(r.iters, 20);
        let row = r.domain("core.tracker").expect("active domain kept");
        assert_eq!(row.allocs_per_iter, 20);
        assert_eq!(row.bytes_per_iter, 2_000);
        assert_eq!(row.peak_bytes, 4096, "peak stays raw");
        assert!(r.domain("idle.domain").is_none(), "idle domains dropped");
    }

    #[test]
    fn compare_mem_flags_both_budgets_and_skips_zero_baselines() {
        let base = mem_report(
            "base",
            &[("bm", &[("a", 1000, 100), ("b", 0, 50), ("zero", 0, 0)])],
        );
        let cur = mem_report(
            "cur",
            &[(
                "bm",
                &[
                    ("a", 1300, 100),
                    ("b", 512, 80),
                    ("fresh", 9, 9),
                    ("zero", 9, 9),
                ],
            )],
        );
        let cmp = compare_mem(&base, &cur, 20.0);
        assert!(!cmp.passed());
        let keys: Vec<(&str, &str)> = cmp
            .regressions
            .iter()
            .map(|r| (r.domain.as_str(), r.metric.as_str()))
            .collect();
        // `a` peak grew 30% (> 20%), `b` allocs grew 60%; `b` peak and
        // `zero` have no baseline to gate against.
        assert!(keys.contains(&("a", "peak_bytes")), "{keys:?}");
        assert!(keys.contains(&("b", "allocs_per_iter")), "{keys:?}");
        assert_eq!(keys.len(), 2, "{keys:?}");
        assert_eq!(cmp.regressions[0].ratio, 1.6, "worst first");
        assert_eq!(cmp.added, ["bm/fresh"], "new domains are informational");
    }

    #[test]
    fn compare_mem_fails_on_renamed_domains_and_missing_benchmarks() {
        // `core.select` renamed to `core.rank` must not read as zero and
        // pass; an idle baseline domain has no budget to lose.
        let base = mem_report(
            "base",
            &[
                ("bm", &[("core.select", 36_864, 16), ("idle", 0, 0)]),
                ("gone", &[]),
            ],
        );
        let cur = mem_report("cur", &[("bm", &[("core.rank", 36_864, 16)])]);
        let cmp = compare_mem(&base, &cur, 50.0);
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.missing, ["bm/core.select", "gone"]);
        assert_eq!(cmp.added, ["bm/core.rank"]);
        assert!(!cmp.passed());
    }

    #[test]
    fn mem_report_round_trips_through_json() {
        let report = mem_report("rt", &[("bm", &[("a", 42, 7)])]);
        let text = serde_json::to_string(&report).expect("serialize");
        let back: MemReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, report);
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
        for other in [
            "BENCH_ci.json",
            "BENCH_pr.json",
            "BENCH_pr5.json.bak",
            "MEM_BASELINE.json",
        ] {
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
