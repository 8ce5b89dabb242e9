//! Runs every experiment binary in sequence with shared flags —
//! regenerates all tables and figures in one command:
//!
//! ```text
//! cargo run --release -p crp-eval --bin run_all [-- --seed 42 ...]
//! ```
//!
//! Flags are forwarded verbatim to every experiment. With `--observe
//! <dir>` each binary writes its one run manifest there (see
//! `crp_eval::telemetry`). At the end run_all joins the manifests
//! with its own wall-clock rows (seconds and best-effort peak RSS from
//! Linux `/proc`) and failure list into `<out>/run_report.json`: the
//! three run-health verdicts and the roll-ups `crp_eval::audit` defines.
//! The report is written on every run, even without `--observe`, so a
//! partial run is visible in the artifact and not just in the exit
//! code. Failed verdicts are printed, not fatal: run_all exits non-zero
//! only when an experiment or the join itself failed.
//!
//! `--profile <dir>` makes each binary write its wall-clock scope tree
//! there. All durations come from [`Stopwatch`] — the same monotonic
//! clock the profiler uses — so coarse and fine-grained attribution
//! share a basis.

use crp_eval::audit::{self, WallClock};
use crp_eval::{telemetry, EvalArgs};
use crp_telemetry::profile::{peak_rss_bytes_for, Stopwatch};
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().expect("current executable path");
    let dir = me.parent().expect("executable has a parent directory");
    let mut failures: Vec<String> = Vec::new();
    let mut runs: Vec<WallClock> = Vec::new();
    for exp in EXPERIMENTS {
        let path = dir.join(exp);
        if !path.exists() {
            eprintln!("[run_all] {exp}: missing binary {path:?} (build the workspace first)");
            failures.push((*exp).to_owned());
            continue;
        }
        eprintln!("[run_all] running {exp} ...");
        match run_experiment(&path, &args) {
            Ok((seconds, peak_rss_bytes)) => runs.push(WallClock {
                experiment: (*exp).to_owned(),
                seconds,
                peak_rss_bytes,
            }),
            Err(err) => {
                eprintln!("[run_all] {exp} FAILED: {err}");
                failures.push((*exp).to_owned());
            }
        }
    }

    eprintln!("[run_all] wall-clock durations:");
    for run in &runs {
        let rss = match run.peak_rss_bytes {
            Some(bytes) => format!("{:6.1} MiB peak", bytes as f64 / (1024.0 * 1024.0)),
            None => "rss n/a".to_owned(),
        };
        eprintln!(
            "[run_all]   {:<28} {:7.2}s  {rss}",
            run.experiment, run.seconds
        );
    }

    if let Ok(parsed) = EvalArgs::try_from_args(args) {
        let observed = match parsed.observe.as_deref() {
            Some(dir) => telemetry::load(Path::new(dir)),
            None => Ok(Vec::new()),
        };
        let joined = observed.and_then(|observed| {
            let report = audit::run_report(&observed, runs, failures.clone())?;
            let path = audit::write_run_report(Path::new(&parsed.out_dir), &report)?;
            Ok((observed.len(), report, path))
        });
        match joined {
            Ok((manifests, report, path)) => {
                for v in &report.verdicts {
                    eprintln!("[run_all] {v}");
                }
                eprintln!(
                    "[run_all] joined {manifests} manifest(s), {} change(s) detected; wrote {}",
                    report.changes_detected,
                    path.display()
                );
            }
            Err(err) => {
                eprintln!("[run_all] run report failed: {err}");
                failures.push("run_report".to_owned());
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
