//! Observer wiring shared by the experiment binaries, and the one
//! reader of what they leave behind.
//!
//! Each binary calls [`session`] right after parsing its flags. With
//! `--observe <dir>` the session arms every SimTime-side observer layer
//! (see [`crp_telemetry::stage`]) for the whole run, and one file lands
//! in that directory: `<experiment>_manifest.json`, one [`RunManifest`]
//! written when the returned [`TelemetrySession`] drops at the end of
//! `main`. Each layer is one optional section of it: `summary` (the
//! aggregated [`TelemetrySummary`]), `timeseries` and `traces` (the
//! SimTime [time-series store](crp_telemetry::timeseries) and the
//! sampled [causal traces](crp_telemetry::trace)) and `mem` (the
//! per-stage [allocation attribution](crp_telemetry::mem) snapshot).
//! Two more are what an auditing binary hands over: `inversions`, its
//! classified tail-rank inversions ([`TelemetrySession::set_inversions`]),
//! and `detect`, the change-detection report — the run's one drift
//! record ([`TelemetrySession::set_detect`]).
//!
//! [`load`] reads a directory's manifests back, and [`dashboard`]
//! renders one run's live sections; the `report` binary
//! and `run_all` join the loaded runs with [`crate::audit::run_report`].
//! Every layer is a pure observer keyed on simulated time or
//! wall-clock-side allocator traffic, so arming them never changes
//! experiment outputs (`tests/telemetry_determinism.rs` proves it byte
//! for byte), and a seeded run writes a byte-identical manifest.
//!
//! `--profile <dir>` starts the wall-clock profiler
//! ([`crp_telemetry::profile`]) and writes
//! `<dir>/<experiment>_profile.json`. It stays a flag of its
//! own so the profile never times the other observers; the profile is
//! wall-clock data and is excluded from any determinism comparison.
//! Without either flag nothing is armed and every instrumentation hook
//! across the workspace stays on its one-branch disabled path.

use crate::audit::InversionRecord;
use crate::EvalArgs;
use crp_audit::detect::DetectionReport;
use crp_telemetry::timeseries::{self, TimeSeriesExport};
use crp_telemetry::trace::{self, TraceLog};
use crp_telemetry::{MemSnapshot, TelemetrySummary};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Keeps the armed observers alive for one run; see [`session`].
///
/// Dropping the session finalizes the run: it tears down every armed
/// layer and writes the run's manifest.
#[must_use = "bind to a variable that lives until the end of main"]
pub struct TelemetrySession {
    observe_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    experiment: &'static str,
    inversions: Option<Vec<InversionRecord>>,
    detect: Option<DetectionReport>,
}

impl TelemetrySession {
    /// Whether `--observe` armed the observers; auditing passes run
    /// only then.
    pub fn observing(&self) -> bool {
        self.observe_dir.is_some()
    }

    /// Hands the run's classified tail-rank inversions to the manifest.
    pub fn set_inversions(&mut self, inversions: Vec<InversionRecord>) {
        self.inversions = Some(inversions);
    }

    /// Hands the run's change-detection report to the manifest.
    pub fn set_detect(&mut self, report: DetectionReport) {
        self.detect = Some(report);
    }
}

/// Arms the observers `args` asks for, for `experiment`.
pub fn session(args: &EvalArgs, experiment: &'static str) -> TelemetrySession {
    let observe_dir = args.observe.as_ref().map(PathBuf::from);
    if let Some(dir) = &observe_dir {
        // The directory exists before attribution starts, so the
        // manifest does not depend on whether the run had to create it.
        // A failure surfaces when the manifest is written.
        let _ = fs::create_dir_all(dir);
        crp_telemetry::install();
        timeseries::start(timeseries::TimeSeriesConfig::default());
        trace::start(trace::TraceConfig::default());
        crp_telemetry::mem::start();
    }
    let profile_dir = args.profile.as_ref().map(PathBuf::from);
    if profile_dir.is_some() {
        crp_telemetry::profile::start();
    }
    TelemetrySession {
        observe_dir,
        profile_dir,
        experiment,
        inversions: None,
        detect: None,
    }
}

/// Everything one observed run recorded: the `<experiment>_manifest.json`
/// schema. A section is `null` when its layer did not run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment (binary) name.
    pub experiment: String,
    /// Counters, gauges and histograms aggregated over the run.
    pub summary: Option<TelemetrySummary>,
    /// Classified tail-rank inversions.
    pub inversions: Option<Vec<InversionRecord>>,
    /// The SimTime time-series store.
    pub timeseries: Option<TimeSeriesExport>,
    /// Sampled causal traces.
    pub traces: Option<TraceLog>,
    /// Per-stage allocation attribution.
    pub mem: Option<MemSnapshot>,
    /// Change-detection scan over the recorded history: per-window
    /// drift and churn features and the changes raised.
    pub detect: Option<DetectionReport>,
}

const MANIFEST_SUFFIX: &str = "_manifest.json";

/// Writes `value` as one line of JSON to `path` and prints the path.
/// Failures degrade to a warning: an observer artifact must never abort
/// an experiment.
fn write_json<T: Serialize>(path: &Path, value: &T) {
    let write = || -> io::Result<()> {
        let json = serde_json::to_string(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, json + "\n")
    };
    match write() {
        Ok(()) => println!("  [wrote {}]", path.display()),
        Err(err) => eprintln!("[telemetry] cannot write {}: {err}", path.display()),
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        // Memory attribution first, so the snapshot covers the run and
        // not the other layers' flush traffic.
        let mem = crp_telemetry::mem::finish();
        let summary = crp_telemetry::shutdown(self.experiment);
        let store = timeseries::finish();
        let traces = trace::finish();
        if let (Some(dir), Some(tree)) = (&self.profile_dir, crp_telemetry::profile::finish()) {
            write_json(
                &dir.join(format!("{}_profile.json", self.experiment)),
                &tree,
            );
        }
        let Some(dir) = &self.observe_dir else {
            return;
        };
        let manifest = RunManifest {
            experiment: self.experiment.to_owned(),
            summary,
            inversions: self.inversions.take(),
            timeseries: store.as_ref().map(|store| store.export()),
            traces,
            mem,
            detect: self.detect.take(),
        };
        let path = dir.join(format!("{}{MANIFEST_SUFFIX}", self.experiment));
        write_json(&path, &manifest);
    }
}

/// Reads every `<experiment>_manifest.json` in `dir`, sorted by
/// experiment so the joined report is byte-stable regardless of
/// directory order.
///
/// # Errors
///
/// An unreadable directory, or a malformed manifest: bad JSON, a wrong
/// shape, or an `experiment` field that disagrees with its file name.
pub fn load(dir: &Path) -> Result<Vec<RunManifest>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut found: Vec<(String, PathBuf)> = entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let experiment = name.strip_suffix(MANIFEST_SUFFIX)?.to_owned();
            Some((experiment, path))
        })
        .collect();
    found.sort();
    found
        .into_iter()
        .map(|(experiment, path)| {
            let raw = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let manifest: RunManifest = serde_json::from_str(&raw)
                .map_err(|e| format!("{}: malformed manifest: {e}", path.display()))?;
            if manifest.experiment != experiment {
                return Err(format!(
                    "{}: manifest names experiment `{}`",
                    path.display(),
                    manifest.experiment
                ));
            }
            Ok(manifest)
        })
        .collect()
}

fn hours(ms: u64) -> f64 {
    ms as f64 / 3_600_000.0
}

/// Sampled traces whose full span trees the dashboard prints; the rest
/// stay in the manifest for targeted queries.
const TRACES_SHOWN: usize = 3;

/// Renders `manifest`'s live sections the way an on-call engineer wants
/// to see a run: per-metric aggregates with tail quantiles and the
/// first sampled causal traces with full span trees. Renders nothing
/// unless the run recorded time series and traces.
///
/// # Errors
///
/// Any error writing to `out`.
pub fn dashboard(out: &mut impl Write, manifest: &RunManifest) -> io::Result<()> {
    let (Some(ts), Some(traces)) = (&manifest.timeseries, &manifest.traces) else {
        return Ok(());
    };
    writeln!(out, "live report: {}", manifest.experiment)?;
    writeln!(out)?;
    writeln!(out, "== time series ==")?;
    writeln!(
        out,
        "{:<34} {:>8} {:>9} {:>9} {:>9} {:>9}  windows",
        "metric", "count", "mean", "p50", "p99", "max"
    )?;
    for series in &ts.series {
        let t = &series.total;
        let mean = if t.count > 0 {
            t.sum / t.count as f64
        } else {
            0.0
        };
        let p50 = t.quantile(&ts.bounds, 0.50).unwrap_or(0.0);
        let p99 = t.quantile(&ts.bounds, 0.99).unwrap_or(0.0);
        let widths: Vec<String> = series
            .tiers
            .iter()
            .map(|tier| format!("{}@{}s", tier.windows.len(), tier.window_ms / 1000))
            .collect();
        writeln!(
            out,
            "{:<34} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {}",
            series.name,
            t.count,
            mean,
            p50,
            p99,
            t.max,
            widths.join(" ")
        )?;
    }
    if ts.late_dropped > 0 || ts.series_dropped > 0 {
        writeln!(
            out,
            "dropped: {} late samples, {} past the series cap",
            ts.late_dropped, ts.series_dropped
        )?;
    }

    writeln!(out)?;
    writeln!(out, "== causal traces ==")?;
    writeln!(
        out,
        "minted {}, sampled {} (1 in {}), dropped {}",
        traces.minted, traces.sampled, traces.sample_one_in, traces.dropped_traces
    )?;
    // Exemplars connect the tail back to the traces: list each top-
    // bucket exemplar of the ingest-latency series that we can expand.
    if let Some(series) = ts.series("cdn.best_candidate_ms") {
        for ex in &series.total.exemplars {
            let reachable = traces.trace(&ex.trace).is_some();
            writeln!(
                out,
                "exemplar bucket {} -> trace {} ({})",
                ex.bucket,
                ex.trace,
                if reachable { "sampled" } else { "unsampled" }
            )?;
        }
    }
    for tree in traces.traces.iter().take(TRACES_SHOWN) {
        let dropped = if tree.dropped_spans > 0 {
            format!(", {} dropped", tree.dropped_spans)
        } else {
            String::new()
        };
        writeln!(
            out,
            "trace {} (start {:.2}h, {} span(s){dropped})",
            tree.id,
            hours(tree.start_ms),
            tree.spans.len(),
        )?;
        for span in &tree.spans {
            let times = if span.count > 1 {
                format!(" x{}", span.count)
            } else {
                String::new()
            };
            writeln!(
                out,
                "    {:>8.2}h  {}{times}",
                hours(span.time_ms),
                span.name
            )?;
        }
    }
    if traces.traces.len() > TRACES_SHOWN {
        writeln!(
            out,
            "... and {} more sampled trace(s) in the JSON",
            traces.traces.len() - TRACES_SHOWN
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_telemetry::profile::ProfileNode;
    use crp_telemetry::stage;
    use serde::Deserialize;

    fn read<T: Deserialize>(path: &Path) -> T {
        let raw = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let value = serde_json::parse(&raw).expect("valid json");
        T::from_value(&value).expect("shape")
    }

    // One test drives every path: the session arms process-global
    // layers, so parallel test threads must not share them. The stages
    // entered here are ones no other test in this crate enters.
    #[test]
    fn session_lifecycle() {
        let s = session(&EvalArgs::default(), "t_disabled");
        assert_eq!(stage::mask(), 0, "no flag arms nothing");
        drop(s);
        assert!(crp_telemetry::shutdown("t_disabled").is_none());

        // --observe arms every SimTime-side layer and writes one
        // manifest into the directory.
        let dir = std::env::temp_dir().join("crp-eval-observe-test");
        let _ = fs::remove_dir_all(&dir);
        let args = EvalArgs {
            observe: Some(dir.to_string_lossy().into_owned()),
            ..EvalArgs::default()
        };
        let mut s = session(&args, "t_obs");
        let layers = stage::METRICS | stage::TIMESERIES | stage::TRACE | stage::MEM;
        assert_eq!(stage::mask(), layers, "--observe arms all but the profiler");
        assert!(s.observing());
        crp_telemetry::counter_add("test.calls", 3);
        {
            crp_telemetry::stage!(AUDIT_DETECT_SCAN);
            let _buf: Vec<u8> = Vec::with_capacity(64);
        }
        s.set_inversions(vec![InversionRecord {
            client: "c0".to_owned(),
            selected: "r1".to_owned(),
            selected_rank: 3,
            optimal: "r0".to_owned(),
            top_score: 0.4,
            explained: true,
            reason: "weak_signal".to_owned(),
        }]);
        trace::begin(trace::mint(&[7]), 0, stage::CDN_AUTHORITATIVE_ANSWER.name);
        crp_telemetry::observe_at(0, "cdn.best_candidate_ms", 12.5);
        let report = r#"{"interval_ms":1,"snapshots":0,"windows":[],"changes":[]}"#;
        s.set_detect(serde_json::from_str(report).expect("a detection report"));
        drop(s);
        assert_eq!(stage::mask(), 0, "the drop disarms every layer");
        let mut files: Vec<String> = fs::read_dir(&dir)
            .expect("observe dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["t_obs_manifest.json"]);
        let runs = load(&dir).expect("loads");
        assert_eq!(runs.len(), 1);
        let m = &runs[0];
        assert_eq!(m.experiment, "t_obs");
        let summary = m.summary.as_ref().expect("summary section");
        assert_eq!(summary.experiment, "t_obs");
        assert_eq!(summary.counter("test.calls"), Some(3));
        assert_eq!(summary.counter(stage::AUDIT_DETECT_SCAN.calls), Some(1));
        let inversions = m.inversions.as_ref().expect("inversions section");
        assert_eq!(inversions.len(), 1);
        assert_eq!(inversions[0].client, "c0");
        assert!(m.timeseries.is_some() && m.traces.is_some());
        // This crate installs the counting allocator, so the snapshot
        // carries real counts.
        let snap = m.mem.as_ref().expect("mem section");
        let domain = snap
            .domain(stage::AUDIT_DETECT_SCAN.name)
            .expect("stage domain in the snapshot");
        assert!(domain.allocs > 0, "{snap:?}");
        assert_eq!(m.detect.as_ref().map(|d| d.interval_ms), Some(1));
        let mut text = Vec::new();
        dashboard(&mut text, m).expect("renders");
        let text = String::from_utf8(text).expect("utf8");
        assert!(text.starts_with("live report: t_obs\n"), "{text}");
        assert!(text.contains("cdn.best_candidate_ms"), "{text}");
        let _ = fs::remove_dir_all(&dir);

        // --profile starts only the profiler; the drop writes the tree.
        let pdir = std::env::temp_dir().join("crp-eval-profile-test");
        let _ = fs::remove_dir_all(&pdir);
        let args = EvalArgs {
            profile: Some(pdir.to_string_lossy().into_owned()),
            ..EvalArgs::default()
        };
        let s = session(&args, "t_profile");
        assert_eq!(stage::mask(), stage::PROFILE);
        assert!(!s.observing());
        {
            crp_telemetry::stage!(AUDIT_DETECT_SCAN);
        }
        drop(s);
        assert!(!crp_telemetry::profile::profiling());
        let tree: ProfileNode = read(&pdir.join("t_profile_profile.json"));
        assert_eq!(tree.name, "root");
        // Other test threads' stages may enclose it in the shared tree.
        fn reaches(node: &ProfileNode, name: &str) -> bool {
            node.name == name || node.children.iter().any(|c| reaches(c, name))
        }
        assert!(
            reaches(&tree, stage::AUDIT_DETECT_SCAN.name),
            "tree: {tree:?}"
        );
        let _ = fs::remove_dir_all(&pdir);
    }

    #[test]
    fn load_sorts_by_experiment_and_rejects_malformed_manifests() {
        let dir = std::env::temp_dir().join("crp-eval-load-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let manifest = |experiment: &str| {
            format!(
                r#"{{"experiment":"{experiment}","summary":null,"inversions":null,
                "timeseries":null,"traces":null,"mem":null,"detect":null}}"#
            )
        };
        for exp in ["zeta", "alpha"] {
            fs::write(dir.join(format!("{exp}{MANIFEST_SUFFIX}")), manifest(exp)).expect("write");
        }
        fs::write(dir.join("alpha_notes.json"), "not a manifest").expect("write");
        let runs = load(&dir).expect("loads");
        let names: Vec<&str> = runs.iter().map(|m| m.experiment.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);

        fs::write(
            dir.join(format!("beta{MANIFEST_SUFFIX}")),
            manifest("alpha"),
        )
        .expect("write");
        assert!(load(&dir)
            .expect_err("misnamed")
            .contains("names experiment `alpha`"));
        fs::write(dir.join(format!("beta{MANIFEST_SUFFIX}")), "{").expect("write");
        assert!(load(&dir)
            .expect_err("malformed")
            .contains("malformed manifest"));
        let _ = fs::remove_dir_all(&dir);
    }
}
