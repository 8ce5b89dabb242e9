//! Runs every experiment binary in sequence with shared flags —
//! regenerates all tables and figures in one command:
//!
//! ```text
//! cargo run --release -p crp-eval --bin run_all [-- --seed 42 ...]
//! ```
//!
//! Flags are forwarded verbatim to every experiment. With `--observe
//! <dir>` each binary writes its observer artifacts there (see
//! `crp_eval::telemetry`), and run_all joins them into four files under
//! `<out>`:
//!
//! - `telemetry_summary.json`: the per-experiment summaries, their
//!   `combined` roll-up, per-experiment wall-clock durations and peak
//!   RSS (best-effort, Linux `/proc`), each time-series store's
//!   late-point and series-capacity drop counters, and the list of
//!   failed experiments (written on every run, even without
//!   `--observe`);
//! - `audit_report.json`: drift timelines and decision provenance
//!   joined into run-health verdicts;
//! - `alerts.json`: the SLO alert logs with a cross-run firing count;
//! - `mem_report.json`: the allocation snapshots with per-experiment
//!   attributed fractions.
//!
//! `--profile <dir>` makes each binary write its wall-clock scope tree
//! there. All durations come from [`Stopwatch`] — the same monotonic
//! clock the profiler uses — so coarse and fine-grained attribution
//! share a basis.

use crp_eval::EvalArgs;
use crp_telemetry::profile::{peak_rss_bytes_for, Stopwatch};
use crp_telemetry::TelemetrySummary;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig4_closest_latency",
    "fig5_relative_error",
    "table1_cluster_summary",
    "fig6_cluster_cdf",
    "fig7_good_clusters",
    "fig8_probe_interval",
    "fig9_window_size",
    "forensics_tail_errors",
    "ablation_name_filter",
    "ablation_similarity_metric",
    "ablation_smf_init",
    "ablation_detour",
    "ablation_overhead",
    "ablation_passive_bootstrap",
    "ablation_cluster_stability",
    "ablation_baselines",
    "change_detection",
];

/// Wall-clock accounting for one completed experiment.
struct ExperimentRun {
    name: &'static str,
    seconds: f64,
    peak_rss_bytes: Option<u64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current executable path");
    let dir = me.parent().expect("executable has a parent directory");
    let mut failures = Vec::new();
    let mut runs: Vec<ExperimentRun> = Vec::new();
    for exp in EXPERIMENTS {
        let path = dir.join(exp);
        if !path.exists() {
            eprintln!("[run_all] {exp}: missing binary {path:?} (build the workspace first)");
            failures.push(*exp);
            continue;
        }
        eprintln!("[run_all] running {exp} ...");
        match run_experiment(&path, &args) {
            Ok((seconds, peak_rss_bytes)) => runs.push(ExperimentRun {
                name: exp,
                seconds,
                peak_rss_bytes,
            }),
            Err(err) => {
                eprintln!("[run_all] {exp} FAILED: {err}");
                failures.push(*exp);
            }
        }
    }

    eprintln!("[run_all] wall-clock durations:");
    for run in &runs {
        let rss = match run.peak_rss_bytes {
            Some(bytes) => format!("{:6.1} MiB peak", bytes as f64 / (1024.0 * 1024.0)),
            None => "rss n/a".to_owned(),
        };
        eprintln!("[run_all]   {:<28} {:7.2}s  {rss}", run.name, run.seconds);
    }

    // Fold the per-experiment telemetry summaries plus the wall-clock
    // attribution into one file, then join the other observer
    // artifacts (the audit report folds in the summary, so it comes
    // after).
    if let Ok(parsed) = EvalArgs::try_from_args(args) {
        let observe = parsed.observe.as_deref().map(Path::new);
        let out_dir = parsed.out_dir.as_str();
        match aggregate_summaries(observe, out_dir, &runs, &failures) {
            Ok(n) => eprintln!("[run_all] aggregated {n} telemetry summaries"),
            Err(err) => {
                eprintln!("[run_all] telemetry aggregation failed: {err}");
                failures.push("telemetry_aggregation");
            }
        }
        if let Some(dir) = observe {
            match crp_eval::audit::generate_report(dir, out_dir) {
                Ok(verdicts) => {
                    for v in &verdicts {
                        let mark = if v.passed { "ok " } else { "FAIL" };
                        eprintln!("[run_all] audit {mark} {}: {}", v.name, v.detail);
                    }
                }
                Err(err) => {
                    eprintln!("[run_all] audit report failed: {err}");
                    failures.push("audit_report");
                }
            }
            match aggregate_alerts(dir, out_dir) {
                Ok((n, firing)) => {
                    eprintln!("[run_all] aggregated {n} alert logs, {firing} rule(s) firing");
                }
                Err(err) => {
                    eprintln!("[run_all] alert aggregation failed: {err}");
                    failures.push("alert_aggregation");
                }
            }
            match aggregate_mem(dir, out_dir) {
                Ok(n) => eprintln!("[run_all] aggregated {n} memory snapshots"),
                Err(err) => {
                    eprintln!("[run_all] memory aggregation failed: {err}");
                    failures.push("mem_aggregation");
                }
            }
        }
    }

    if failures.is_empty() {
        eprintln!("[run_all] all {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("[run_all] failures: {failures:?}");
        std::process::exit(1);
    }
}

/// Reads `<dir>/<exp>_<kind>.json` for every experiment that left one,
/// in experiment order, as `(experiment, raw value, typed value)`. A
/// missing file means the experiment failed or ran unobserved.
fn read_artifacts<T: Deserialize>(
    dir: &Path,
    kind: &str,
) -> Result<Vec<(&'static str, Value, T)>, String> {
    let mut found = Vec::new();
    for exp in EXPERIMENTS {
        let path = dir.join(format!("{exp}_{kind}.json"));
        let Ok(raw) = std::fs::read_to_string(&path) else {
            continue;
        };
        let value = serde_json::parse(&raw)
            .map_err(|e| format!("{}: malformed {kind}: {e}", path.display()))?;
        let typed = T::from_value(&value)
            .map_err(|e| format!("{}: unexpected shape: {e}", path.display()))?;
        found.push((*exp, value, typed));
    }
    Ok(found)
}

/// Writes one joined document to `<out_dir>/<file>`.
fn write_joined(out_dir: &str, file: &str, document: &Value) -> Result<(), String> {
    let json = serde_json::to_string(document).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let out_path = Path::new(out_dir).join(file);
    std::fs::write(&out_path, json + "\n").map_err(|e| e.to_string())?;
    eprintln!("[run_all] wrote {}", out_path.display());
    Ok(())
}

/// Collects every `<dir>/<exp>_alerts.json` into
/// `<out_dir>/alerts.json`: an object with `experiments` (per-experiment
/// alert logs, each wrapped with its name and the rules it left firing)
/// and `firing_total`, the cross-run count of still-firing rules.
/// Returns `(logs_folded, firing_total)`.
fn aggregate_alerts(dir: &Path, out_dir: &str) -> Result<(usize, usize), String> {
    let logs = read_artifacts::<crp_telemetry::alert::AlertLog>(dir, "alerts")?;
    let mut firing_total = 0usize;
    let mut entries: Vec<Value> = Vec::new();
    for (exp, value, log) in &logs {
        let firing = log.firing();
        firing_total += firing.len();
        entries.push(Value::Object(vec![
            ("experiment".to_owned(), Value::String((*exp).to_owned())),
            (
                "firing".to_owned(),
                Value::Array(
                    firing
                        .iter()
                        .map(|name| Value::String((*name).to_owned()))
                        .collect(),
                ),
            ),
            ("alerts".to_owned(), value.clone()),
        ]));
    }
    let document = Value::Object(vec![
        ("experiments".to_owned(), Value::Array(entries)),
        ("firing_total".to_owned(), Value::UInt(firing_total as u64)),
    ]);
    write_joined(out_dir, "alerts.json", &document)?;
    Ok((logs.len(), firing_total))
}

/// Collects every `<dir>/<exp>_mem.json` into
/// `<out_dir>/mem_report.json`: an object with `experiments` (each
/// snapshot wrapped with its name, total allocation count, and
/// attributed fraction) and `attributed_fraction_min`, the worst
/// per-experiment fraction — the single number a dashboard gates on.
/// Returns how many snapshots were folded in.
fn aggregate_mem(dir: &Path, out_dir: &str) -> Result<usize, String> {
    let snaps = read_artifacts::<crp_telemetry::MemSnapshot>(dir, "mem")?;
    let mut min_fraction: Option<f64> = None;
    let mut entries: Vec<Value> = Vec::new();
    for (exp, value, snap) in &snaps {
        let fraction = snap.attributed_fraction();
        min_fraction = Some(min_fraction.map_or(fraction, |m: f64| m.min(fraction)));
        entries.push(Value::Object(vec![
            ("experiment".to_owned(), Value::String((*exp).to_owned())),
            ("total_allocs".to_owned(), Value::UInt(snap.total_allocs())),
            ("total_bytes".to_owned(), Value::UInt(snap.total_bytes())),
            ("attributed_fraction".to_owned(), Value::Float(fraction)),
            ("mem".to_owned(), value.clone()),
        ]));
    }
    let document = Value::Object(vec![
        ("experiments".to_owned(), Value::Array(entries)),
        (
            "attributed_fraction_min".to_owned(),
            min_fraction.map_or(Value::Null, Value::Float),
        ),
    ]);
    write_joined(out_dir, "mem_report.json", &document)?;
    Ok(snaps.len())
}

/// Spawns one experiment and supervises it to completion, sampling its
/// peak RSS from `/proc/<pid>/status` while it runs (best-effort: the
/// sample loop can miss a short-lived peak, and non-Linux platforms
/// report `None`). Returns `(seconds, peak_rss_bytes)` on success.
fn run_experiment(path: &Path, args: &[String]) -> Result<(f64, Option<u64>), String> {
    let stopwatch = Stopwatch::start();
    let mut child = Command::new(path)
        .args(args)
        .spawn()
        .map_err(|err| format!("failed to spawn: {err}"))?;
    let pid = child.id();
    let mut peak: Option<u64> = None;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => {
                return Ok((stopwatch.elapsed_secs(), peak));
            }
            Ok(Some(status)) => return Err(format!("exited with {status}")),
            Ok(None) => {
                if let Some(rss) = peak_rss_bytes_for(pid) {
                    peak = Some(peak.map_or(rss, |p| p.max(rss)));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(err) => return Err(format!("wait failed: {err}")),
        }
    }
}

/// Collects every `<dir>/<exp>_summary.json` into
/// `<out_dir>/telemetry_summary.json` as an object with five keys:
/// `experiments` (the per-experiment summaries, in experiment order),
/// `wall_clock` (per-experiment seconds and peak RSS measured by
/// run_all), `combined` (all summaries merged into one roll-up),
/// `timeseries_health` (per-experiment late-point and series-capacity
/// drop counters read back from the time-series stores, so silent data
/// loss in the observability layer itself is visible in the artifact),
/// and `failed_experiments` (names that failed so far, so a partial run
/// is visible in the artifact and not just in the exit code). Returns
/// how many summaries were folded in.
fn aggregate_summaries(
    dir: Option<&Path>,
    out_dir: &str,
    runs: &[ExperimentRun],
    failures: &[&str],
) -> Result<usize, String> {
    let mut combined = TelemetrySummary {
        experiment: "combined".to_owned(),
        events_recorded: 0,
        spans_recorded: 0,
        sink_dropped: 0,
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    let (summaries, stores) = match dir {
        Some(dir) => (
            read_artifacts::<TelemetrySummary>(dir, "summary")?,
            read_artifacts::<crp_telemetry::timeseries::TimeSeriesExport>(dir, "timeseries")?,
        ),
        None => (Vec::new(), Vec::new()),
    };
    let mut entries: Vec<Value> = Vec::new();
    for (_, value, summary) in &summaries {
        combined.merge(summary);
        entries.push(value.clone());
    }
    let mut ts_health: Vec<Value> = Vec::new();
    let mut late_total = 0u64;
    let mut series_dropped_total = 0u64;
    for (exp, _, export) in &stores {
        late_total += export.late_dropped;
        series_dropped_total += export.series_dropped;
        ts_health.push(Value::Object(vec![
            ("experiment".to_owned(), Value::String((*exp).to_owned())),
            ("late_dropped".to_owned(), Value::UInt(export.late_dropped)),
            (
                "series_dropped".to_owned(),
                Value::UInt(export.series_dropped),
            ),
        ]));
    }
    if late_total > 0 || series_dropped_total > 0 {
        eprintln!(
            "[run_all] timeseries health: {late_total} late point(s) dropped, \
             {series_dropped_total} series rejected at capacity"
        );
    }
    let wall_clock: Vec<Value> = runs
        .iter()
        .map(|run| {
            Value::Object(vec![
                ("experiment".to_owned(), Value::String(run.name.to_owned())),
                ("seconds".to_owned(), Value::Float(run.seconds)),
                (
                    "peak_rss_bytes".to_owned(),
                    run.peak_rss_bytes.map_or(Value::Null, Value::UInt),
                ),
            ])
        })
        .collect();
    let document = Value::Object(vec![
        ("experiments".to_owned(), Value::Array(entries)),
        ("wall_clock".to_owned(), Value::Array(wall_clock)),
        ("combined".to_owned(), combined.to_value()),
        (
            "timeseries_health".to_owned(),
            Value::Object(vec![
                ("experiments".to_owned(), Value::Array(ts_health)),
                ("late_dropped_total".to_owned(), Value::UInt(late_total)),
                (
                    "series_dropped_total".to_owned(),
                    Value::UInt(series_dropped_total),
                ),
            ]),
        ),
        (
            "failed_experiments".to_owned(),
            Value::Array(
                failures
                    .iter()
                    .map(|f| Value::String((*f).to_owned()))
                    .collect(),
            ),
        ),
    ]);
    write_joined(out_dir, "telemetry_summary.json", &document)?;
    Ok(summaries.len())
}
