//! Run-health plumbing: the tail-inversion classification the
//! selection experiments record, the region scopes their detection
//! scans localize changes to, and the join that turns an observed run's
//! manifests into `run_report.json`.
//!
//! The division of labour mirrors `telemetry.rs`: the *judgement* logic
//! (what counts as drift, what counts as healthy) lives in
//! [`crp_audit::report`] where it is unit-testable without files; this
//! module feeds it. [`run_report`] computes the three run-health verdicts
//! over the manifests [`crate::telemetry::load`] read back, and rolls the
//! manifests up — combined summary, per-run time-series drops,
//! attributed allocation fractions, inversion counts, raised changes —
//! next to the caller's wall-clock rows and failures.
//! The full sections stay in the manifests. The `report` binary and
//! `run_all` both write the result to `<out>/run_report.json`
//! ([`write_run_report`]).
//!
//! Everything here runs after the simulation has finished; nothing in
//! this module can perturb experiment outputs.

use crate::closest::ClientOutcome;
use crate::telemetry::RunManifest;
use crp::Scenario;
use crp_audit::detect::DetectionReport;
use crp_audit::report::{self, HealthVerdict};
use crp_netsim::HostId;
use crp_telemetry::{TelemetrySummary, TimeSeriesExport};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Bound for the `drift-within-bounds` verdict: no detection window may
/// see more than this fraction of hosts drift past the L1 threshold.
/// The churn scenario intentionally remaps a slice of the population,
/// so the bound tolerates localized drift and only fails on a
/// population-wide upheaval.
pub const MAX_DRIFTED_FRACTION: f64 = 0.75;

/// Tolerated fraction of rank inversions without a structural
/// explanation for the `no-unexplained-tail-errors` verdict.
pub const TAIL_TOLERANCE: f64 = 0.05;

/// Time-series points a run may lose, late or past the series cap,
/// under the `timeseries-lossless` verdict: none. SimTime stamps are
/// deterministic, so any lost point is an instrumentation bug.
pub const MAX_LOST_POINTS: u64 = 0;

/// Top-1 similarity below which a tail error counts as structurally
/// explained: the score itself says the pick was a guess.
pub const WEAK_SIGNAL_SCORE: f64 = 0.25;

/// Slack (ms) within which a Top-5 recommendation "recovers" a Top-1
/// tail error — the paper's within-7-ms band.
pub const TOP5_RECOVERY_MS: f64 = 7.0;

/// Rank at or past which a Top-1 pick counts as a tail-rank inversion
/// worth explaining (upper quarter of the candidate list, floor 2).
pub fn tail_rank(candidates: usize) -> usize {
    (candidates - candidates / 4).max(2)
}

/// A Top-1 pick that landed in the tail of the ground-truth RTT
/// ordering, classified by [`inversion_for`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InversionRecord {
    /// Client host, Debug-formatted.
    pub client: String,
    /// The candidate CRP selected.
    pub selected: String,
    /// Rank of the selection in the RTT ordering (0 = optimal).
    pub selected_rank: u64,
    /// The truly closest candidate.
    pub optimal: String,
    /// The selection's similarity score.
    pub top_score: f64,
    /// Whether the error has a structural explanation.
    pub explained: bool,
    /// The explanation (`no_signal`, `weak_signal`, `top5_recovers`);
    /// empty when unexplained.
    pub reason: String,
}

/// Classifies one closest-node outcome, returning an
/// [`InversionRecord`] when the Top-1 pick landed in the tail of the
/// ground-truth ranking. An inversion is *explained* when the decision
/// carried its own warning: the client had no replica overlap with the
/// pick (`no_signal`), the similarity was below [`WEAK_SIGNAL_SCORE`]
/// (`weak_signal`), or the Top-5 set already recovered the error
/// (`top5_recovers`).
pub fn inversion_for(outcome: &ClientOutcome, candidates: usize) -> Option<InversionRecord> {
    if outcome.crp_top1_rank < tail_rank(candidates) {
        return None;
    }
    let (explained, reason) = if !outcome.crp_has_signal || outcome.crp_top1_score <= 0.0 {
        (true, "no_signal")
    } else if outcome.crp_top1_score < WEAK_SIGNAL_SCORE {
        (true, "weak_signal")
    } else if outcome.crp_top5_ms <= outcome.optimal_ms + TOP5_RECOVERY_MS {
        (true, "top5_recovers")
    } else {
        (false, "")
    };
    Some(InversionRecord {
        client: format!("{:?}", outcome.client),
        selected: format!("{:?}", outcome.crp_top1_selected),
        selected_rank: outcome.crp_top1_rank as u64,
        optimal: format!("{:?}", outcome.optimal_selected),
        top_score: outcome.crp_top1_score,
        explained,
        reason: reason.to_owned(),
    })
}

/// Pairs each of `hosts` with its region slug: the scopes
/// [`crp_audit::detect::scan`] localizes changes to, next to its
/// synthetic `"global"` scope.
pub fn region_scopes(scenario: &Scenario, hosts: &[HostId]) -> Vec<(HostId, String)> {
    let network = scenario.network();
    hosts
        .iter()
        .map(|&h| (h, network.host(h).region().slug().to_owned()))
        .collect()
}

/// Wall-clock accounting for one completed experiment, measured by
/// `run_all`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WallClock {
    /// Experiment (binary) name.
    pub experiment: String,
    /// Wall-clock seconds from spawn to exit.
    pub seconds: f64,
    /// Peak resident set size, when the platform reports one.
    pub peak_rss_bytes: Option<u64>,
}

/// Tail-inversion counts of one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRollup {
    /// Tail-rank inversions recorded.
    pub inversions: u64,
    /// Inversions without a structural explanation.
    pub unexplained_inversions: u64,
}

/// One run's roll-up; a field is `null` when the run lacks its section.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRollup {
    /// Experiment (binary) name.
    pub experiment: String,
    /// Time-series points dropped as too late for their ring slot.
    pub late_dropped: Option<u64>,
    /// Time-series points dropped past the series cap.
    pub series_dropped: Option<u64>,
    /// Share of allocations charged to named stages.
    pub attributed_fraction: Option<f64>,
    /// Tail-inversion counts.
    pub provenance: Option<ProvenanceRollup>,
}

impl ExperimentRollup {
    fn of(m: &RunManifest) -> ExperimentRollup {
        ExperimentRollup {
            experiment: m.experiment.clone(),
            late_dropped: m.timeseries.as_ref().map(|t| t.late_dropped),
            series_dropped: m.timeseries.as_ref().map(|t| t.series_dropped),
            attributed_fraction: m.mem.as_ref().map(|s| s.attributed_fraction()),
            provenance: m.inversions.as_ref().map(|list| ProvenanceRollup {
                inversions: list.len() as u64,
                unexplained_inversions: list.iter().filter(|i| !i.explained).count() as u64,
            }),
        }
    }
}

/// The `run_report.json` schema: verdicts and roll-ups, no copies of
/// the manifest sections.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Every verdict passed and no experiment failed.
    pub healthy: bool,
    /// The three verdicts, in fixed order.
    pub verdicts: Vec<HealthVerdict>,
    /// Experiments that failed to run.
    pub failed_experiments: Vec<String>,
    /// Per-experiment wall clock and peak RSS.
    pub wall_clock: Vec<WallClock>,
    /// Every run's summary merged into one.
    pub combined: TelemetrySummary,
    /// Per-run roll-ups, sorted by experiment.
    pub experiments: Vec<ExperimentRollup>,
    /// The lowest attributed allocation fraction of any run.
    pub attributed_fraction_min: Option<f64>,
    /// Changes raised across every detection report.
    pub changes_detected: u64,
}

/// Joins `manifests` (as [`crate::telemetry::load`] read them) into a
/// [`RunReport`]: the three verdicts — drift, tail errors, lossless time
/// series — and the roll-ups. `wall_clock` and `failed_experiments` come
/// from the caller: `run_all` supervised the runs, a standalone report
/// passes none.
///
/// # Errors
///
/// A manifest without a `summary` section, or whose summary names
/// another experiment: the run did not record what its manifest claims.
pub fn run_report(
    manifests: &[RunManifest],
    wall_clock: Vec<WallClock>,
    failed_experiments: Vec<String>,
) -> Result<RunReport, String> {
    let mut combined = TelemetrySummary {
        experiment: "combined".to_owned(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    for m in manifests {
        let summary = m
            .summary
            .as_ref()
            .ok_or_else(|| format!("manifest `{}` has no summary section", m.experiment))?;
        if summary.experiment != m.experiment {
            return Err(format!(
                "manifest `{}` carries the summary of `{}`",
                m.experiment, summary.experiment
            ));
        }
        combined.merge(summary);
    }
    let detections: Vec<(&str, &DetectionReport)> = manifests
        .iter()
        .filter_map(|m| Some((m.experiment.as_str(), m.detect.as_ref()?)))
        .collect();
    let stores: Vec<(&str, &TimeSeriesExport)> = manifests
        .iter()
        .filter_map(|m| Some((m.experiment.as_str(), m.timeseries.as_ref()?)))
        .collect();
    let experiments: Vec<ExperimentRollup> = manifests.iter().map(ExperimentRollup::of).collect();
    let (inversions, unexplained) = experiments
        .iter()
        .filter_map(|e| e.provenance.as_ref())
        .fold((0, 0), |(total, unexplained), p| {
            (total + p.inversions, unexplained + p.unexplained_inversions)
        });
    let verdicts = vec![
        report::drift_within_bounds(&detections, MAX_DRIFTED_FRACTION),
        report::no_unexplained_tail_errors(unexplained, inversions, TAIL_TOLERANCE),
        report::timeseries_lossless(&stores, MAX_LOST_POINTS),
    ];
    Ok(RunReport {
        healthy: verdicts.iter().all(|v| v.passed) && failed_experiments.is_empty(),
        verdicts,
        failed_experiments,
        wall_clock,
        combined,
        attributed_fraction_min: experiments
            .iter()
            .filter_map(|e| e.attributed_fraction)
            .min_by(f64::total_cmp),
        changes_detected: detections.iter().map(|(_, r)| r.changes.len() as u64).sum(),
        experiments,
    })
}

/// Writes `report` to `<out_dir>/run_report.json` and returns the path.
///
/// # Errors
///
/// An unwritable output directory or file.
pub fn write_run_report(out_dir: &Path, report: &RunReport) -> Result<PathBuf, String> {
    let json = serde_json::to_string(report).map_err(|e| e.to_string())?;
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("run_report.json");
    fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_audit::detect::{ChangeClass, DetectWindow, DetectedChange, GroupWindow};
    use crp_telemetry::CounterEntry;

    /// A one-window detection report whose global group drifted
    /// `drifted_fraction` of its 20 hosts, with one raised change.
    fn detection(drifted_fraction: f64) -> DetectionReport {
        DetectionReport {
            interval_ms: 3_600_000,
            snapshots: 2,
            windows: vec![DetectWindow {
                from_ms: 0,
                to_ms: 3_600_000,
                cluster_distance: 0.0,
                groups: vec![GroupWindow {
                    scope: "global".to_owned(),
                    hosts_compared: 20,
                    mean_l1: 0.2,
                    drifted_hosts: (drifted_fraction * 20.0).round() as u64,
                    drifted_fraction,
                    ..GroupWindow::default()
                }],
            }],
            changes: vec![DetectedChange {
                onset_ms: 0,
                detected_ms: 3_600_000,
                class: ChangeClass::MassRemap,
                scope: "global".to_owned(),
                hosts_affected: 6,
                magnitude: 0.3,
                replicas: Vec::new(),
            }],
        }
    }

    fn inversion(explained: bool) -> InversionRecord {
        InversionRecord {
            client: "c1".to_owned(),
            selected: "r2".to_owned(),
            selected_rank: 4,
            optimal: "r0".to_owned(),
            top_score: 0.1,
            explained,
            reason: if explained { "no_signal" } else { "" }.to_owned(),
        }
    }

    /// A run every verdict passes on, each at its edge: drifted fraction
    /// 0.75 of bound 0.75, 1 of 20 inversions (5%) unexplained, no late
    /// points.
    fn healthy_run(experiment: &str) -> RunManifest {
        RunManifest {
            experiment: experiment.to_owned(),
            summary: Some(TelemetrySummary {
                experiment: experiment.to_owned(),
                counters: vec![CounterEntry {
                    name: "core.tracker.calls".to_owned(),
                    value: 4,
                }],
                gauges: Vec::new(),
                histograms: Vec::new(),
            }),
            inversions: Some((0..20).map(|i| inversion(i > 0)).collect()),
            timeseries: Some(TimeSeriesExport {
                bounds: Vec::new(),
                tiers: Vec::new(),
                late_dropped: 0,
                series_dropped: 0,
                series: Vec::new(),
            }),
            traces: None,
            mem: None,
            detect: Some(detection(MAX_DRIFTED_FRACTION)),
        }
    }

    #[test]
    fn each_verdict_passes_its_healthy_fixture_and_fails_its_broken_one() {
        let healthy = run_report(&[healthy_run("exp")], Vec::new(), Vec::new()).expect("joins");
        assert!(healthy.healthy, "{:?}", healthy.verdicts);
        let names: Vec<&str> = healthy.verdicts.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "drift-within-bounds",
                "no-unexplained-tail-errors",
                "timeseries-lossless"
            ]
        );
        assert!(healthy
            .verdicts
            .iter()
            .all(|v| !v.detail.starts_with("skipped")));

        type Breakage = fn(&mut RunManifest);
        let broken: [(&str, Breakage, &str); 3] = [
            (
                "timeseries-lossless",
                |run| {
                    if let Some(store) = &mut run.timeseries {
                        store.late_dropped = 1;
                    }
                },
                "exp lost 1 point(s) (1 late, 0 series at capacity)",
            ),
            (
                "drift-within-bounds",
                |run| run.detect = Some(detection(0.76)),
                "max drifted fraction 0.760 (bound 0.750) in exp",
            ),
            (
                "no-unexplained-tail-errors",
                |run| {
                    if let Some(list) = &mut run.inversions {
                        list[1].explained = false;
                    }
                },
                "2/20 inversions unexplained (10.0%, tolerance 5.0%)",
            ),
        ];
        for (name, breakage, expected) in broken {
            let mut run = healthy_run("exp");
            breakage(&mut run);
            let report = run_report(&[run], Vec::new(), Vec::new()).expect("joins");
            let v = report
                .verdicts
                .iter()
                .find(|v| v.name == name)
                .expect("verdict");
            assert!(!v.passed, "{v:?}");
            assert!(v.detail.contains(expected), "{v:?}");
            assert!(!report.healthy);
            let others_pass = report
                .verdicts
                .iter()
                .filter(|o| o.name != name)
                .all(|o| o.passed);
            assert!(
                others_pass,
                "only {name} should fail: {:?}",
                report.verdicts
            );
        }
    }

    #[test]
    fn a_failed_experiment_forces_an_unhealthy_report() {
        let report =
            run_report(&[healthy_run("exp")], Vec::new(), vec!["fig9".to_owned()]).expect("joins");
        assert!(report.verdicts.iter().all(|v| v.passed));
        assert!(!report.healthy);
    }

    #[test]
    fn a_manifest_without_its_own_summary_is_malformed() {
        let mut run = healthy_run("exp");
        run.summary = None;
        let err = run_report(&[run], Vec::new(), Vec::new()).expect_err("malformed");
        assert_eq!(err, "manifest `exp` has no summary section");
        let mut run = healthy_run("exp");
        if let Some(summary) = &mut run.summary {
            summary.experiment = "other".to_owned();
        }
        let err = run_report(&[run], Vec::new(), Vec::new()).expect_err("malformed");
        assert_eq!(err, "manifest `exp` carries the summary of `other`");
    }

    #[test]
    fn no_runs_yield_skipped_verdicts_and_the_caller_rows() {
        let wall_clock = vec![WallClock {
            experiment: "fig4".to_owned(),
            seconds: 1.5,
            peak_rss_bytes: None,
        }];
        let report = run_report(&[], wall_clock.clone(), Vec::new()).expect("joins");
        assert!(report.healthy);
        assert!(report
            .verdicts
            .iter()
            .all(|v| v.detail.starts_with("skipped")));
        assert_eq!(report.wall_clock, wall_clock);
        assert_eq!(report.attributed_fraction_min, None);
    }

    #[test]
    fn run_report_rolls_up_and_round_trips_through_its_file() {
        let mut b = healthy_run("b");
        // An empty snapshot attributes everything it saw: nothing.
        b.mem = Some(crp_telemetry::MemSnapshot {
            domains: Vec::new(),
        });
        let runs = [healthy_run("a"), b];
        let report = run_report(&runs, Vec::new(), vec!["c".to_owned()]).expect("joins");
        assert_eq!(report.combined.counter("core.tracker.calls"), Some(8));
        assert_eq!(report.combined.experiment, "combined");
        assert_eq!(report.changes_detected, 2, "one raised change, twice");
        assert_eq!(report.attributed_fraction_min, Some(1.0));
        let rollup = &report.experiments[1];
        assert_eq!(rollup.experiment, "b");
        assert_eq!(rollup.late_dropped, Some(0));
        assert_eq!(
            rollup
                .provenance
                .as_ref()
                .map(|p| (p.inversions, p.unexplained_inversions)),
            Some((20, 1))
        );

        let dir = std::env::temp_dir().join("crp-eval-run-report-test");
        let _ = fs::remove_dir_all(&dir);
        let path = write_run_report(&dir, &report).expect("written");
        assert_eq!(path, dir.join("run_report.json"));
        let raw = fs::read_to_string(&path).expect("readable");
        let back: RunReport = serde_json::from_str(&raw).expect("a RunReport");
        assert_eq!(back, report);
        assert_eq!(back.verdicts.len(), 3);
        for v in &back.verdicts {
            assert!(!v.detail.is_empty(), "verdict `{}` has no detail", v.name);
        }
        let all_passed = back.verdicts.iter().all(|v| v.passed);
        assert_eq!(
            back.healthy,
            all_passed && back.failed_experiments.is_empty()
        );
        assert!(
            !back.healthy,
            "the failed experiment `c` makes the run unhealthy"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Mints `HostId`s without a full scenario, via a scratch network.
    fn host_id(i: usize) -> crp_netsim::HostId {
        use std::sync::OnceLock;
        static IDS: OnceLock<Vec<crp_netsim::HostId>> = OnceLock::new();
        IDS.get_or_init(|| {
            let mut net = crp_netsim::NetworkBuilder::new(0xFEED)
                .tier1_count(2)
                .transit_per_region(1)
                .stubs_per_region(1)
                .build();
            (0..8)
                .map(|j| net.add_host(crp_netsim::Region::Europe, (1.0, 2.0), format!("t{j}")))
                .collect()
        })[i]
    }

    #[test]
    fn inversions_are_classified_by_structural_explanation() {
        assert_eq!(tail_rank(240), 180);
        assert_eq!(tail_rank(4), 3);
        assert_eq!(tail_rank(1), 2);
        let outcome = |rank: usize, score: f64, has_signal: bool, top5_ms: f64| ClientOutcome {
            client: host_id(0),
            optimal_ms: 10.0,
            optimal_selected: host_id(1),
            meridian_ms: 12.0,
            meridian_rank: 1,
            meridian_selected: host_id(2),
            crp_top1_ms: 80.0,
            crp_top1_rank: rank,
            crp_top1_selected: host_id(3),
            crp_top1_score: score,
            crp_top5_ms: top5_ms,
            crp_has_signal: has_signal,
        };
        // Body of the distribution: no inversion recorded.
        assert!(inversion_for(&outcome(10, 0.9, true, 80.0), 240).is_none());
        // Tail without signal: explained.
        let inv = inversion_for(&outcome(200, 0.0, false, 80.0), 240).expect("tail");
        assert!(inv.explained);
        assert_eq!(inv.reason, "no_signal");
        // Tail with weak signal: explained.
        let inv = inversion_for(&outcome(200, 0.1, true, 80.0), 240).expect("tail");
        assert_eq!(inv.reason, "weak_signal");
        // Tail where Top-5 recovers: explained.
        let inv = inversion_for(&outcome(200, 0.9, true, 12.0), 240).expect("tail");
        assert_eq!(inv.reason, "top5_recovers");
        // Confidently wrong: unexplained.
        let inv = inversion_for(&outcome(200, 0.9, true, 80.0), 240).expect("tail");
        assert!(!inv.explained);
        assert_eq!(inv.selected_rank, 200);
    }
}
