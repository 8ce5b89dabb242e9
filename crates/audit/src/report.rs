//! Run-health verdicts for the run report.
//!
//! crp-eval's `report` binary and `run_all` join every run manifest of
//! an `--observe` directory into `run_report.json`; the verdict logic —
//! what counts as healthy — lives here so it is unit-testable without
//! the file plumbing. Four verdicts, matching the failure modes the
//! observers exist to catch:
//!
//! * **drift-within-bounds** — no detection window drifted more of the
//!   population than the bound allows (changes the detector raised are
//!   *reported*, not failed: a change the monitor saw is a change that
//!   can be correlated with a ranking regression);
//! * **no-unexplained-tail-errors** — every recorded rank inversion in
//!   the selection experiments carries a structural explanation
//!   (no shared replicas, weak signal), up to a small tolerance;
//! * **stream-matches-summary** — each run's JSONL record stream agrees
//!   with the counters its summary aggregated, and the sink lost too
//!   few records for that cross-check to mean anything;
//! * **timeseries-lossless** — no time-series store dropped points as
//!   late or past its series cap. Stamps are SimTime, so a lost point
//!   is an instrumentation bug, not scheduling jitter.
//!
//! A verdict with nothing to judge passes as explicitly *skipped*.

use crate::detect::DetectionReport;
use crp_telemetry::{TelemetrySummary, TimeSeriesExport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One named health check with its outcome and a human-readable detail
/// line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthVerdict {
    /// Verdict name (`drift-within-bounds`, ...).
    pub name: String,
    /// Whether the check passed.
    pub passed: bool,
    /// What was measured, or why the check was skipped.
    pub detail: String,
}

impl fmt::Display for HealthVerdict {
    /// `ok  <name>: <detail>` or `FAIL <name>: <detail>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.passed { "ok " } else { "FAIL" };
        write!(f, "{mark} {}: {}", self.name, self.detail)
    }
}

fn skipped(name: &str, why: &str) -> HealthVerdict {
    HealthVerdict {
        name: name.to_owned(),
        passed: true,
        detail: format!("skipped: {why}"),
    }
}

/// Judges every detection report against `max_drifted_fraction`: the
/// run is healthy when no window's `global` group saw more than that
/// fraction of hosts drift past [`DRIFT_L1`](crate::detect::DRIFT_L1).
/// `reports` pairs each experiment name with its report; an empty slice
/// passes as skipped (no detection scan ran).
pub fn drift_within_bounds(
    reports: &[(&str, &DetectionReport)],
    max_drifted_fraction: f64,
) -> HealthVerdict {
    let name = "drift-within-bounds";
    if reports.is_empty() {
        return skipped(name, "no detection reports recorded");
    }
    let mut worst: f64 = 0.0;
    let mut worst_name = "";
    let mut changes = 0u64;
    for (experiment, r) in reports {
        let f = r.max_drifted_fraction();
        if f >= worst {
            worst = f;
            worst_name = experiment;
        }
        changes += r.changes.len() as u64;
    }
    HealthVerdict {
        name: name.to_owned(),
        passed: worst <= max_drifted_fraction,
        detail: format!(
            "max drifted fraction {worst:.3} (bound {max_drifted_fraction:.3}) in {worst_name}; \
             {changes} change(s) raised across {} detection report(s)",
            reports.len()
        ),
    }
}

/// Judges the recorded rank inversions: healthy when at most
/// `tolerated_fraction` of them lack a structural explanation. With no
/// inversions recorded at all the check passes as skipped.
pub fn no_unexplained_tail_errors(
    unexplained: u64,
    total: u64,
    tolerated_fraction: f64,
) -> HealthVerdict {
    let name = "no-unexplained-tail-errors";
    if total == 0 {
        return skipped(name, "no rank inversions recorded");
    }
    let fraction = unexplained as f64 / total as f64;
    HealthVerdict {
        name: name.to_owned(),
        passed: fraction <= tolerated_fraction,
        detail: format!(
            "{unexplained}/{total} inversions unexplained ({:.1}%, tolerance {:.1}%)",
            fraction * 100.0,
            tolerated_fraction * 100.0
        ),
    }
}

/// What one walk over a run's JSONL record stream counted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamCounts {
    /// Lines in the stream.
    pub records: u64,
    /// `kind == "event"` lines.
    pub events: u64,
    /// `kind == "span_end"` lines (one per completed span).
    pub spans: u64,
    /// Event lines per event name.
    pub per_name: BTreeMap<String, u64>,
}

/// One run's stream against its summary; `Err` names the first rule
/// broken. Counters are recorded in-process and never dropped, so the
/// stream can only ever run short of them — and must match exactly when
/// the sink reports no drops.
fn check_stream(
    experiment: &str,
    counts: &StreamCounts,
    summary: &TelemetrySummary,
    max_dropped: u64,
) -> Result<(), String> {
    if summary.experiment != experiment {
        return Err(format!("summary names experiment `{}`", summary.experiment));
    }
    if summary.sink_dropped > max_dropped {
        return Err(format!(
            "sink dropped {} record(s), above the limit of {max_dropped}; \
             the stream is too lossy to validate",
            summary.sink_dropped
        ));
    }
    let lossy = summary.sink_dropped > 0;
    let consistent = |stream: u64, counted: u64| {
        if lossy {
            stream <= counted
        } else {
            stream == counted
        }
    };
    if !consistent(counts.events, summary.events_recorded) {
        return Err(format!(
            "summary says {} events, stream has {}",
            summary.events_recorded, counts.events
        ));
    }
    if !consistent(counts.spans, summary.spans_recorded) {
        return Err(format!(
            "summary says {} spans, stream has {} span_end records",
            summary.spans_recorded, counts.spans
        ));
    }
    for (name, n) in &counts.per_name {
        let counter = format!("event.{name}");
        if !consistent(*n, summary.counter(&counter).unwrap_or(0)) {
            return Err(format!(
                "counter `{counter}` is {:?}, stream has {n} `{name}` events",
                summary.counter(&counter)
            ));
        }
    }
    Ok(())
}

/// Judges each run's record stream against its summary: every
/// `event.<name>` counter must equal the stream's events of that name,
/// `events_recorded` and `spans_recorded` the stream's totals, and the
/// sink may have dropped at most `max_dropped` records (below that, the
/// stream may only run short of the counters). `streams` pairs each
/// experiment with its walked stream — or why the walk failed — and its
/// summary; an empty slice passes as skipped.
pub fn stream_matches_summary(
    streams: &[(&str, &Result<StreamCounts, String>, &TelemetrySummary)],
    max_dropped: u64,
) -> HealthVerdict {
    let name = "stream-matches-summary";
    if streams.is_empty() {
        return skipped(name, "no record streams");
    }
    let mut failures = Vec::new();
    let mut consistent = Vec::new();
    let mut dropped = 0u64;
    for (experiment, counts, summary) in streams {
        let checked = counts
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|c| check_stream(experiment, c, summary, max_dropped).map(|()| c));
        match checked {
            Ok(c) => consistent.push(format!("{experiment} {}", c.records)),
            Err(err) => failures.push(format!("{experiment}: {err}")),
        }
        dropped += summary.sink_dropped;
    }
    let detail = if failures.is_empty() {
        let mut detail = format!(
            "{} stream(s) match their summaries ({} record(s))",
            consistent.len(),
            consistent.join(", ")
        );
        if dropped > 0 {
            detail.push_str(&format!(
                "; the sinks dropped {dropped} record(s) (limit {max_dropped} per run), \
                 so counters stay authoritative but the streams are incomplete"
            ));
        }
        detail
    } else {
        failures.join("; ")
    };
    HealthVerdict {
        name: name.to_owned(),
        passed: failures.is_empty(),
        detail,
    }
}

/// Judges each run's time-series store: healthy when none lost more
/// than `max_lost` points, late or past the series cap. `stores` pairs
/// each experiment with its exported store; an empty slice passes as
/// skipped.
pub fn timeseries_lossless(stores: &[(&str, &TimeSeriesExport)], max_lost: u64) -> HealthVerdict {
    let name = "timeseries-lossless";
    if stores.is_empty() {
        return skipped(name, "no time-series stores recorded");
    }
    let mut failures = Vec::new();
    let mut lost_total = 0u64;
    for (experiment, store) in stores {
        let lost = store.late_dropped + store.series_dropped;
        lost_total += lost;
        if lost > max_lost {
            failures.push(format!(
                "{experiment} lost {lost} point(s) ({} late, {} series at capacity)",
                store.late_dropped, store.series_dropped
            ));
        }
    }
    let detail = if failures.is_empty() {
        format!(
            "{} store(s) lost {lost_total} point(s), none above the limit of {max_lost}",
            stores.len()
        )
    } else {
        format!("{}; limit {max_lost} per store", failures.join("; "))
    };
    HealthVerdict {
        name: name.to_owned(),
        passed: failures.is_empty(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{ChangeClass, DetectWindow, DetectedChange, GroupWindow};
    use crp_telemetry::CounterEntry;

    /// A one-window report whose global group drifted `drifted_fraction`
    /// of its 20 hosts, with `changes` raised changes.
    fn report(drifted_fraction: f64, changes: usize) -> DetectionReport {
        DetectionReport {
            interval_ms: 3_600_000,
            snapshots: 2,
            windows: vec![DetectWindow {
                from_ms: 0,
                to_ms: 3_600_000,
                cluster_distance: -1.0,
                groups: vec![GroupWindow {
                    scope: "global".to_owned(),
                    hosts_compared: 20,
                    drifted_hosts: (drifted_fraction * 20.0).round() as u64,
                    drifted_fraction,
                    ..GroupWindow::default()
                }],
            }],
            changes: (0..changes)
                .map(|i| DetectedChange {
                    onset_ms: 0,
                    detected_ms: 3_600_000 * (i as u64 + 1),
                    class: ChangeClass::MassRemap,
                    scope: "global".to_owned(),
                    hosts_affected: 5,
                    magnitude: 0.5,
                    replicas: Vec::new(),
                })
                .collect(),
            clustering_bytes: Vec::new(),
        }
    }

    #[test]
    fn drift_verdict_bounds() {
        let ok = drift_within_bounds(&[("fig4", &report(0.75, 1))], 0.75);
        assert!(ok.passed, "{ok:?}");
        assert!(ok.detail.contains("1 change(s) raised"), "{ok:?}");
        let bad = drift_within_bounds(&[("fig4", &report(0.76, 0))], 0.75);
        assert!(!bad.passed);
        assert!(
            bad.detail
                .starts_with("max drifted fraction 0.760 (bound 0.750) in fig4"),
            "{bad:?}"
        );
        // A regional group drifting past the bound is not the verdict's
        // business; the global group judges the population.
        let mut regional = report(0.1, 0);
        regional.windows[0].groups.push(GroupWindow {
            scope: "eu".to_owned(),
            drifted_fraction: 1.0,
            ..GroupWindow::default()
        });
        assert!(drift_within_bounds(&[("fig4", &regional)], 0.75).passed);
        let skipped = drift_within_bounds(&[], 0.75);
        assert!(skipped.passed);
        assert!(skipped.detail.starts_with("skipped"));
    }

    #[test]
    fn tail_error_verdict_tolerance() {
        assert!(no_unexplained_tail_errors(0, 100, 0.02).passed);
        assert!(no_unexplained_tail_errors(2, 100, 0.02).passed);
        assert!(!no_unexplained_tail_errors(3, 100, 0.02).passed);
        let skipped = no_unexplained_tail_errors(0, 0, 0.02);
        assert!(skipped.passed);
        assert!(skipped.detail.starts_with("skipped"));
    }

    #[test]
    fn stream_verdict_tolerates_only_short_lossy_streams() {
        let summary = |sink_dropped: u64| TelemetrySummary {
            experiment: "exp".to_owned(),
            events_recorded: 4,
            spans_recorded: 0,
            sink_dropped,
            counters: vec![CounterEntry {
                name: "event.tick".to_owned(),
                value: 4,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let stream = |ticks: u64| -> Result<StreamCounts, String> {
            Ok(StreamCounts {
                records: ticks,
                events: ticks,
                spans: 0,
                per_name: BTreeMap::from([("tick".to_owned(), ticks)]),
            })
        };
        let verdict = |name, counts, dropped| {
            stream_matches_summary(&[(name, &counts, &summary(dropped))], 100)
        };
        assert!(verdict("exp", stream(4), 0).detail.contains("exp 4"));
        // A lossy sink may run short of the counters, never past them.
        assert!(verdict("exp", stream(3), 1).passed);
        assert!(!verdict("exp", stream(5), 1).passed);
        let renamed = verdict("other", stream(4), 0).detail;
        assert!(
            renamed.contains("summary names experiment `exp`"),
            "{renamed}"
        );
        assert_eq!(
            verdict("exp", Err("gone".to_owned()), 0).detail,
            "exp: gone"
        );
    }

    #[test]
    fn verdict_serializes_round_trip() {
        let v = no_unexplained_tail_errors(1, 4, 0.05);
        let text = serde_json::to_string(&v).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        assert_eq!(HealthVerdict::from_value(&value).expect("shape"), v);
        assert!(v
            .to_string()
            .starts_with("FAIL no-unexplained-tail-errors: 1/4"));
    }
}
