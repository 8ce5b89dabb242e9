//! Audit-output plumbing shared by the experiment binaries, `run_all`,
//! and the standalone `audit_report` binary.
//!
//! The division of labour mirrors `telemetry.rs`: the *judgement* logic
//! (what counts as drift, what counts as healthy) lives in `crp-audit`
//! where it is unit-testable without files; this module owns the file
//! layout. An observed run leaves two kinds of audit artifacts in the
//! `--observe` directory, and this module joins them:
//!
//! * `<experiment>_drift.json` — a [`DriftTimeline`] from the
//!   post-campaign drift scan (written by the auditing binaries through
//!   [`crate::telemetry::write_artifact`]);
//! * `<experiment>_provenance.json` — the drained
//!   [`crp_core::explain::ExplainLog`] (written by the telemetry
//!   session on drop);
//! * `audit_report.json` in the *results* directory — the join of both
//!   with the telemetry summary and bench baselines, plus the three
//!   health verdicts ([`generate_report`]).
//!
//! Everything here runs after the simulation has finished; nothing in
//! this module can perturb experiment outputs.

use crate::closest::ClientOutcome;
use crp_audit::drift::DriftTimeline;
use crp_audit::report::{self, HealthVerdict, PerfOutcome};
use crp_core::explain::{ExplainLog, InversionRecord};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// Bound for the `drift-within-bounds` verdict: no window may see more
/// than this fraction of hosts drift past the L1 threshold. The churn
/// scenario intentionally remaps a slice of the population, so the
/// bound tolerates localized drift and only fails on a population-wide
/// upheaval.
pub const MAX_DRIFTED_FRACTION: f64 = 0.75;

/// Tolerated fraction of rank inversions without a structural
/// explanation for the `no-unexplained-tail-errors` verdict.
pub const TAIL_TOLERANCE: f64 = 0.05;

/// p50 regression tolerance for the `perf-within-baseline` verdict, in
/// percent — matches the `bench_check` default gate.
pub const PERF_TOLERANCE_PCT: f64 = 20.0;

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

/// Records every tail-rank inversion in `outcomes` into the active
/// explain log and returns `(total, unexplained)`. Call only behind
/// [`crp_core::explain::enabled`].
pub fn record_inversions(outcomes: &[ClientOutcome], candidates: usize) -> (u64, u64) {
    let mut total = 0u64;
    let mut unexplained = 0u64;
    for outcome in outcomes {
        let Some(record) = inversion_for(outcome, candidates) else {
            continue;
        };
        total += 1;
        if !record.explained {
            unexplained += 1;
        }
        crp_core::explain::record_inversion(record);
    }
    (total, unexplained)
}

/// Per-experiment provenance roll-up extracted from an
/// `<experiment>_provenance.json` file.
struct ProvenanceSummary {
    experiment: String,
    similarities: u64,
    rankings: u64,
    assignments: u64,
    inversions: u64,
    unexplained_inversions: u64,
    dropped: u64,
}

impl ProvenanceSummary {
    fn from_log(experiment: String, log: &ExplainLog) -> ProvenanceSummary {
        ProvenanceSummary {
            experiment,
            similarities: log.similarities.len() as u64,
            rankings: log.rankings.len() as u64,
            assignments: log.assignments.len() as u64,
            inversions: log.inversions.len() as u64,
            unexplained_inversions: log.inversions.iter().filter(|i| !i.explained).count() as u64,
            dropped: log.dropped(),
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "experiment".to_owned(),
                Value::String(self.experiment.clone()),
            ),
            ("similarities".to_owned(), Value::UInt(self.similarities)),
            ("rankings".to_owned(), Value::UInt(self.rankings)),
            ("assignments".to_owned(), Value::UInt(self.assignments)),
            ("inversions".to_owned(), Value::UInt(self.inversions)),
            (
                "unexplained_inversions".to_owned(),
                Value::UInt(self.unexplained_inversions),
            ),
            ("dropped".to_owned(), Value::UInt(self.dropped)),
        ])
    }
}

/// Reads every `<experiment><suffix>` file in `dir` as sorted
/// `(experiment, raw value, typed value)` triples; the sort keeps the
/// report byte-stable regardless of directory iteration order.
fn artifacts<T: Deserialize>(dir: &Path, suffix: &str) -> Result<Vec<(String, Value, T)>, String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(Vec::new());
    };
    let mut found: Vec<(String, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let experiment = path.file_name()?.to_str()?.strip_suffix(suffix)?;
            Some((experiment.to_owned(), path.clone()))
        })
        .collect();
    found.sort();
    found
        .into_iter()
        .map(|(experiment, path)| {
            let raw = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let value = serde_json::parse(&raw)
                .map_err(|e| format!("{}: malformed: {e}", path.display()))?;
            let typed = T::from_value(&value)
                .map_err(|e| format!("{}: unexpected shape: {e}", path.display()))?;
            Ok((experiment, value, typed))
        })
        .collect()
}

/// Extracts `(name, p50_ns)` pairs from a bench report JSON value
/// (`BenchReport` schema, parsed structurally so crp-eval needs no
/// dependency on crp-bench, which depends on crp-eval).
fn bench_medians(value: &Value) -> Vec<(String, u64)> {
    let Ok(results) = value.field("results") else {
        return Vec::new();
    };
    results
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            let name = match r.field("name").ok()? {
                Value::String(s) => s.clone(),
                _ => return None,
            };
            let p50 = match r.field("p50_ns").ok()? {
                Value::UInt(n) => *n,
                Value::Int(n) => u64::try_from(*n).ok()?,
                _ => return None,
            };
            Some((name, p50))
        })
        .collect()
}

/// Diffs the newest `BENCH_<label>.json` baseline in the current
/// directory against `<out_dir>/bench.json`, when both exist. Returns
/// `None` (verdict: skipped) otherwise.
fn perf_outcome(out_dir: &Path) -> Option<PerfOutcome> {
    let mut baselines: Vec<PathBuf> = fs::read_dir(".")
        .ok()?
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then(|| path.clone())
        })
        .collect();
    baselines.sort();
    let baseline_path = baselines.pop()?;
    let current_path = out_dir.join("bench.json");
    let baseline = serde_json::parse(&fs::read_to_string(baseline_path).ok()?).ok()?;
    let current = serde_json::parse(&fs::read_to_string(current_path).ok()?).ok()?;
    let current_medians = bench_medians(&current);
    let mut checked = 0u64;
    let mut regressions = 0u64;
    for (name, base_p50) in bench_medians(&baseline) {
        let Some((_, cur_p50)) = current_medians.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        checked += 1;
        if base_p50 == 0 {
            continue;
        }
        let limit = base_p50 as f64 * (1.0 + PERF_TOLERANCE_PCT / 100.0);
        if *cur_p50 as f64 > limit {
            regressions += 1;
        }
    }
    (checked > 0).then_some(PerfOutcome {
        checked,
        regressions,
        tolerance_pct: PERF_TOLERANCE_PCT,
    })
}

/// Pulls the `failed_experiments` list out of a parsed
/// `telemetry_summary.json`, tolerating older summaries without the
/// field.
fn failed_experiments(summary: &Value) -> Vec<String> {
    let Ok(list) = summary.field("failed_experiments") else {
        return Vec::new();
    };
    list.as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| match v {
            Value::String(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Joins every audit artifact in `observe_dir` with the telemetry summary
/// and bench baselines under `out_dir` into
/// `<out_dir>/audit_report.json`, and returns the health verdicts that
/// went into it (all three always present, failed checks first kept in
/// fixed order).
///
/// # Errors
///
/// Returns a message on malformed artifact files or an unwritable
/// output directory; *missing* inputs are not errors — each section
/// reports what it found and the corresponding verdict passes as
/// skipped.
pub fn generate_report(observe_dir: &Path, out_dir: &str) -> Result<Vec<HealthVerdict>, String> {
    let drift = artifacts::<DriftTimeline>(observe_dir, "_drift.json")?;
    let timelines: Vec<(String, DriftTimeline)> = drift
        .iter()
        .map(|(e, _, t)| (e.clone(), t.clone()))
        .collect();
    let drift_values: Vec<(String, Value)> = drift.into_iter().map(|(e, v, _)| (e, v)).collect();
    let provenance: Vec<ProvenanceSummary> =
        artifacts::<ExplainLog>(observe_dir, "_provenance.json")?
            .into_iter()
            .map(|(experiment, _, log)| ProvenanceSummary::from_log(experiment, &log))
            .collect();

    let out_path = Path::new(out_dir);
    let telemetry_summary = fs::read_to_string(out_path.join("telemetry_summary.json"))
        .ok()
        .and_then(|raw| serde_json::parse(&raw).ok());
    let failed = telemetry_summary
        .as_ref()
        .map(failed_experiments)
        .unwrap_or_default();

    let total_inversions: u64 = provenance.iter().map(|p| p.inversions).sum();
    let unexplained: u64 = provenance.iter().map(|p| p.unexplained_inversions).sum();

    let verdicts = vec![
        report::drift_within_bounds(&timelines, MAX_DRIFTED_FRACTION),
        report::no_unexplained_tail_errors(unexplained, total_inversions, TAIL_TOLERANCE),
        report::perf_within_baseline(perf_outcome(out_path)),
    ];
    let healthy = verdicts.iter().all(|v| v.passed) && failed.is_empty();

    let drift_events: u64 = timelines.iter().map(|(_, t)| t.drift_event_count()).sum();
    let document = Value::Object(vec![
        (
            "audit_dir".to_owned(),
            Value::String(observe_dir.display().to_string()),
        ),
        ("healthy".to_owned(), Value::Bool(healthy)),
        (
            "verdicts".to_owned(),
            Value::Array(verdicts.iter().map(Serialize::to_value).collect()),
        ),
        ("drift_event_count".to_owned(), Value::UInt(drift_events)),
        (
            "drift".to_owned(),
            Value::Object(drift_values.into_iter().collect()),
        ),
        (
            "provenance".to_owned(),
            Value::Array(provenance.iter().map(ProvenanceSummary::to_value).collect()),
        ),
        (
            "failed_experiments".to_owned(),
            Value::Array(failed.into_iter().map(Value::String).collect()),
        ),
    ]);
    let json = serde_json::to_string(&document).map_err(|e| e.to_string())?;
    fs::create_dir_all(out_path).map_err(|e| e.to_string())?;
    let report_path = out_path.join("audit_report.json");
    fs::write(&report_path, json + "\n").map_err(|e| e.to_string())?;
    println!("  [wrote {}]", report_path.display());
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_audit::drift::{DriftWindow, RemapEvent};

    fn timeline() -> DriftTimeline {
        DriftTimeline {
            interval_ms: 3_600_000,
            l1_threshold: 0.5,
            remap_fraction: 0.2,
            snapshots: 2,
            windows: vec![DriftWindow {
                from_ms: 0,
                to_ms: 3_600_000,
                hosts_compared: 4,
                mean_l1: 0.2,
                max_l1: 0.8,
                mean_cosine_distance: 0.1,
                drifted_hosts: 1,
                drifted_fraction: 0.25,
                strongest_changed: 1,
                strongest_changed_fraction: 0.25,
                cluster_distance: 0.0,
                clusters_from: 2,
                clusters_to: 2,
            }],
            remap_events: vec![RemapEvent {
                at_ms: 3_600_000,
                strongest_changed_fraction: 0.25,
                hosts_affected: 1,
            }],
        }
    }

    #[test]
    fn report_joins_drift_and_provenance() {
        let dir = std::env::temp_dir().join("crp-eval-audit-report-test");
        let _ = fs::remove_dir_all(&dir);
        let audit_dir = dir.join("audit");
        let results = dir.join("results");
        fs::create_dir_all(&audit_dir).expect("mkdir");

        crate::telemetry::write_artifact(&audit_dir, "exp_a", "drift", &timeline());
        let mut log = ExplainLog::default();
        log.inversions.push(crp_core::explain::InversionRecord {
            client: "c1".to_owned(),
            selected: "r2".to_owned(),
            selected_rank: 4,
            optimal: "r0".to_owned(),
            top_score: 0.1,
            explained: true,
            reason: "no shared replicas".to_owned(),
        });
        let json = serde_json::to_string(&log).expect("serialize");
        fs::write(audit_dir.join("exp_a_provenance.json"), json).expect("write");

        let verdicts =
            generate_report(&audit_dir, results.to_str().expect("utf8")).expect("report");
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        let raw = fs::read_to_string(results.join("audit_report.json")).expect("report written");
        let value = serde_json::parse(&raw).expect("valid json");
        assert_eq!(value.field("healthy"), Ok(&Value::Bool(true)));
        let drift = value.field("drift").expect("drift section");
        assert!(drift.field("exp_a").is_ok());
        assert!(
            matches!(
                value.field("drift_event_count"),
                Ok(Value::UInt(n)) if *n >= 1
            ) || matches!(
                value.field("drift_event_count"),
                Ok(Value::Int(n)) if *n >= 1
            )
        );
        let prov = value.field("provenance").expect("provenance section");
        let entries = prov.as_array().expect("array");
        assert_eq!(entries.len(), 1);
        assert!(
            matches!(
                entries[0].field("inversions"),
                Ok(Value::UInt(1) | Value::Int(1))
            ),
            "{entries:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_audit_dir_yields_skipped_but_passing_report() {
        let dir = std::env::temp_dir().join("crp-eval-audit-empty-test");
        let _ = fs::remove_dir_all(&dir);
        let audit_dir = dir.join("audit");
        let results = dir.join("results");
        fs::create_dir_all(&audit_dir).expect("mkdir");
        let verdicts =
            generate_report(&audit_dir, results.to_str().expect("utf8")).expect("report");
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
        assert!(verdicts
            .iter()
            .filter(|v| v.name != "perf-within-baseline")
            .all(|v| v.detail.starts_with("skipped")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_medians_parse_the_report_schema() {
        let raw = r#"{"label":"t","quick":false,"results":[
            {"name":"a/one","p50_ns":120},
            {"name":"b/two","p50_ns":7}
        ]}"#;
        let value = serde_json::parse(raw).expect("valid");
        let medians = bench_medians(&value);
        assert_eq!(
            medians,
            vec![("a/one".to_owned(), 120), ("b/two".to_owned(), 7)]
        );
        assert!(bench_medians(&Value::Null).is_empty());
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

    #[test]
    fn failed_experiments_tolerates_missing_field() {
        let with = serde_json::parse(r#"{"failed_experiments":["fig4","fig9"]}"#).expect("valid");
        assert_eq!(failed_experiments(&with), ["fig4", "fig9"]);
        let without = serde_json::parse(r#"{"experiments":[]}"#).expect("valid");
        assert!(failed_experiments(&without).is_empty());
    }
}
