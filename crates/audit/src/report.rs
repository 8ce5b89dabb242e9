//! Run-health verdicts for the run report.
//!
//! crp-eval's `report` binary and `run_all` join every run manifest of
//! an `--observe` directory into `run_report.json`; the verdict logic —
//! what counts as healthy — lives here so it is unit-testable without
//! the file plumbing. Three verdicts, matching the failure modes the
//! observers exist to catch:
//!
//! * **drift-within-bounds** — no detection window drifted more of the
//!   population than the bound allows (changes the detector raised are
//!   *reported*, not failed: a change the monitor saw is a change that
//!   can be correlated with a ranking regression);
//! * **no-unexplained-tail-errors** — every recorded rank inversion in
//!   the selection experiments carries a structural explanation
//!   (no shared replicas, weak signal), up to a small tolerance;
//! * **timeseries-lossless** — no time-series store dropped points as
//!   late or past its series cap. Stamps are SimTime, so a lost point
//!   is an instrumentation bug, not scheduling jitter.
//!
//! A verdict with nothing to judge passes as explicitly *skipped*.

use crate::detect::DetectionReport;
use crp_telemetry::TimeSeriesExport;
use serde::{Deserialize, Serialize};
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
