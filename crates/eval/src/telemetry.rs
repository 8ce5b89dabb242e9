//! Observer wiring shared by the experiment binaries.
//!
//! Each binary calls [`session`] right after parsing its flags. With
//! `--observe <dir>` the session arms every SimTime-side observer layer
//! (see [`crp_telemetry::stage`]) for the whole run, and when the
//! returned [`TelemetrySession`] drops at the end of `main` it writes
//! each layer's artifact into that one directory:
//!
//! - `<experiment>.jsonl` and `<experiment>_summary.json`: the record
//!   stream and the aggregated
//!   [`TelemetrySummary`](crp_telemetry::TelemetrySummary);
//! - `<experiment>_provenance.json`: the [`crp_core::explain`] decision
//!   provenance log;
//! - `<experiment>_timeseries.json`, `<experiment>_alerts.json` and
//!   `<experiment>_traces.json`: the SimTime
//!   [time-series store](crp_telemetry::timeseries), the
//!   [SLO alert engine](crp_telemetry::alert) replayed over it, and the
//!   sampled [causal traces](crp_telemetry::trace);
//! - `<experiment>_mem.json`: the per-stage
//!   [allocation attribution](crp_telemetry::mem) snapshot.
//!
//! Auditing binaries add their drift timelines and detection reports to
//! the same directory through [`TelemetrySession::observe_dir`]. Every
//! layer is a pure observer keyed on simulated time or wall-clock-side
//! allocator traffic, so arming them never changes experiment outputs
//! (`tests/telemetry_determinism.rs` proves it byte for byte).
//!
//! `--profile <dir>` starts the wall-clock profiler
//! ([`crp_telemetry::profile`]) and writes
//! `<dir>/<experiment>_profile.json`. It stays a flag of its
//! own so the profile never times the other observers; the profile is
//! wall-clock data and is excluded from any determinism comparison.
//! Without either flag nothing is armed and every instrumentation hook
//! across the workspace stays on its one-branch disabled path.

use crate::EvalArgs;
use crp_telemetry::JsonlSink;
use crp_telemetry::{alert, timeseries, trace};
use std::fs;
use std::path::{Path, PathBuf};

/// Keeps the armed observers alive for one run; see [`session`].
///
/// Dropping the session finalizes the run: it tears down every armed
/// layer and writes its artifact.
#[must_use = "bind to a variable that lives until the end of main"]
pub struct TelemetrySession {
    observe_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    experiment: &'static str,
}

impl TelemetrySession {
    /// The observe directory, when `--observe` was given.
    pub fn observe_dir(&self) -> Option<&Path> {
        self.observe_dir.as_deref()
    }
}

/// Arms the observers `args` asks for, for `experiment`.
///
/// A sink failure (unwritable directory) degrades to metrics-only
/// collection with a warning rather than aborting the experiment.
pub fn session(args: &EvalArgs, experiment: &'static str) -> TelemetrySession {
    let observe_dir = args.observe.as_ref().map(PathBuf::from);
    if let Some(dir) = &observe_dir {
        let path = dir.join(format!("{experiment}.jsonl"));
        match JsonlSink::create(&path) {
            Ok(sink) => crp_telemetry::install(Box::new(sink)),
            Err(err) => {
                eprintln!(
                    "[telemetry] cannot create {}: {err}; collecting metrics only",
                    path.display()
                );
                crp_telemetry::install_metrics_only();
            }
        }
        crp_core::explain::start();
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
    }
}

/// Writes `value` as JSON to `<dir>/<experiment>_<kind>.json` and
/// prints the path. Failures degrade to a warning: an observer artifact
/// must never abort an experiment.
pub fn write_artifact<T: serde::Serialize>(dir: &Path, experiment: &str, kind: &str, value: &T) {
    let path = dir.join(format!("{experiment}_{kind}.json"));
    let write = || -> std::io::Result<()> {
        let json = serde_json::to_string(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        fs::create_dir_all(dir)?;
        fs::write(&path, json + "\n")
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
        let provenance = crp_core::explain::finish();
        let store = timeseries::finish();
        let traces = trace::finish();
        if let (Some(dir), Some(tree)) = (&self.profile_dir, crp_telemetry::profile::finish()) {
            write_artifact(dir, self.experiment, "profile", &tree);
        }
        let Some(dir) = &self.observe_dir else {
            return;
        };
        let exp = self.experiment;
        if let Some(summary) = &summary {
            write_artifact(dir, exp, "summary", summary);
        }
        if let Some(log) = &provenance {
            write_artifact(dir, exp, "provenance", log);
        }
        if let Some(store) = &store {
            write_artifact(dir, exp, "timeseries", &store.export());
            // The alert engine replays the completed windows, so it runs
            // after every instrumented call site has gone quiet.
            let alerts = alert::AlertEngine::new(alert::default_rules()).evaluate(store);
            for name in alerts.firing() {
                eprintln!("[live] ALERT firing at end of run: {name}");
            }
            write_artifact(dir, exp, "alerts", &alerts);
        }
        if let Some(traces) = &traces {
            write_artifact(dir, exp, "traces", traces);
        }
        if let Some(mem) = &mem {
            write_artifact(dir, exp, "mem", mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_core::explain::ExplainLog;
    use crp_telemetry::profile::ProfileNode;
    use crp_telemetry::{stage, TelemetrySummary};
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

        // --observe arms every SimTime-side layer and writes every
        // artifact into the one directory.
        let dir = std::env::temp_dir().join("crp-eval-observe-test");
        let _ = fs::remove_dir_all(&dir);
        let args = EvalArgs {
            observe: Some(dir.to_string_lossy().into_owned()),
            ..EvalArgs::default()
        };
        let s = session(&args, "t_obs");
        let layers =
            stage::METRICS | stage::EXPLAIN | stage::TIMESERIES | stage::TRACE | stage::MEM;
        assert_eq!(stage::mask(), layers, "--observe arms all but the profiler");
        assert_eq!(s.observe_dir(), Some(dir.as_path()));
        crp_telemetry::counter_add("test.calls", 3);
        crp_telemetry::event(5, "test.tick", &[]);
        {
            crp_telemetry::stage!(AUDIT_DRIFT_SCAN);
            let _buf: Vec<u8> = Vec::with_capacity(64);
        }
        crp_core::explain::record_inversion(crp_core::explain::InversionRecord {
            client: "c0".to_owned(),
            selected: "r1".to_owned(),
            selected_rank: 3,
            optimal: "r0".to_owned(),
            top_score: 0.4,
            explained: true,
            reason: "weak signal".to_owned(),
        });
        trace::begin(trace::mint(&[7]), 0, stage::CDN_AUTHORITATIVE_ANSWER.name);
        crp_telemetry::observe_at(0, "cdn.best_candidate_ms", 12.5);
        drop(s);
        assert_eq!(stage::mask(), 0, "the drop disarms every layer");
        assert!(dir.join("t_obs.jsonl").exists());
        for kind in ["timeseries", "traces"] {
            let path = dir.join(format!("t_obs_{kind}.json"));
            assert!(path.exists(), "missing {}", path.display());
        }
        let summary: TelemetrySummary = read(&dir.join("t_obs_summary.json"));
        assert_eq!(summary.experiment, "t_obs");
        assert_eq!(summary.counter("test.calls"), Some(3));
        assert_eq!(summary.counter(stage::AUDIT_DRIFT_SCAN.calls), Some(1));
        let log: ExplainLog = read(&dir.join("t_obs_provenance.json"));
        assert_eq!(log.inversions.len(), 1);
        assert_eq!(log.inversions[0].client, "c0");
        let alerts: alert::AlertLog = read(&dir.join("t_obs_alerts.json"));
        assert!(alerts.rule("ingest-latency-p99").is_some());
        assert!(alerts.firing().is_empty(), "one cheap sample cannot fire");
        // This crate installs the counting allocator, so the snapshot
        // carries real counts.
        let snap: crp_telemetry::MemSnapshot = read(&dir.join("t_obs_mem.json"));
        let domain = snap
            .domain(stage::AUDIT_DRIFT_SCAN.name)
            .expect("stage domain in the snapshot");
        assert!(domain.allocs > 0, "{snap:?}");
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
        assert_eq!(s.observe_dir(), None);
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
}
