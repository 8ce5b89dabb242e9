//! Detection-quality metrics for the change-detection experiment.
//!
//! The `change_detection` binary replays a scripted infrastructure-event
//! suite ([`EventLog`] ground truth) and runs the online detector
//! ([`DetectionReport`]). This module joins the two: every detection is
//! matched to the most recent compatible ground-truth event, matched
//! events get a detection latency, unmatched detections become false
//! alarms, and each event gets a ratio-map re-convergence time. The
//! result serializes into `results/change_detection.json`.

use crp_audit::detect::{ChangeClass, DetectionReport};
use crp_cdn::{EventClass, EventLog, EventRecord};
use serde::{Deserialize, Serialize};

/// Matching rules joining detections to ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchConfig {
    /// How long after an event's direct effect ends a detection may
    /// still be credited to it (window-policy tails keep ratio maps
    /// moving well past the event itself).
    pub horizon_ms: u64,
    /// Re-convergence level as a multiple of the scope's pre-event
    /// drift baseline.
    pub quiesce_ratio: f64,
    /// Absolute mean-L1 floor for the re-convergence level (covers
    /// scopes whose baseline had not formed at event onset).
    pub quiesce_floor: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            horizon_ms: 3 * 3_600_000,
            quiesce_ratio: 1.5,
            quiesce_floor: 0.2,
        }
    }
}

/// Does detector class `got` plausibly report ground-truth event class
/// `want`? Every event moves ratio maps, so the remap/drift/reshape
/// signals are always acceptable; `NewReplicas` additionally credits
/// the two classes that introduce genuinely fresh replica keys.
pub fn class_compatible(want: EventClass, got: ChangeClass) -> bool {
    match got {
        ChangeClass::MassRemap | ChangeClass::DriftBurst | ChangeClass::ClusterReshape => true,
        ChangeClass::NewReplicas => matches!(
            want,
            EventClass::RegionalPoolFlip | EventClass::FootprintExpansion
        ),
    }
}

/// Does a detection scope match an event scope? `"global"` on either
/// side matches anything: a big regional event echoes globally and a
/// global event echoes in every region.
pub fn scope_compatible(event_region: &str, detection_scope: &str) -> bool {
    event_region == "global" || detection_scope == "global" || event_region == detection_scope
}

/// Per-event outcome after matching.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventOutcome {
    /// Ground-truth class label.
    pub class: String,
    /// Ground-truth region slug (or `"global"`).
    pub region: String,
    /// Event onset (SimTime ms).
    pub at_ms: u64,
    /// End of the event's direct effect (SimTime ms).
    pub until_ms: u64,
    /// Whether any detection was credited to this event.
    pub detected: bool,
    /// `detected_ms − at_ms` of the earliest credited detection; −1
    /// when undetected.
    pub detection_latency_ms: i64,
    /// Class of the earliest credited detection (empty when
    /// undetected).
    pub detected_class: String,
    /// Scope of the earliest credited detection (empty when
    /// undetected).
    pub detected_scope: String,
    /// Number of detections credited to this event.
    pub detections: u64,
    /// First time after `until_ms` at which the affected scope's mean
    /// L1 drift stayed at or below the quiesce level for two
    /// consecutive windows; −1 if it never re-converged in the scan.
    pub reconvergence_ms: i64,
}

/// One unmatched detection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FalseAlarm {
    /// When it was raised (SimTime ms).
    pub detected_ms: u64,
    /// Detector class label.
    pub class: String,
    /// Detection scope.
    pub scope: String,
    /// Signal magnitude at raise time.
    pub magnitude: f64,
}

/// The full evaluation: per-event outcomes plus aggregate quality.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectionEval {
    /// Scripted ground-truth events evaluated.
    pub events: Vec<EventOutcome>,
    /// Detections that failed to match any event.
    pub false_alarms: Vec<FalseAlarm>,
    /// Total detections the detector raised.
    pub detections_total: u64,
    /// Detections credited to some ground-truth event.
    pub detections_matched: u64,
    /// `detections_matched / detections_total` (1 when nothing raised).
    pub precision: f64,
    /// Detected events / total events (1 when no events scripted).
    pub recall: f64,
    /// Unmatched detections per simulated day of scanned time.
    pub false_alarm_rate_per_day: f64,
    /// Mean detection latency over detected events, in ms (−1 when
    /// nothing was detected).
    pub mean_detection_latency_ms: f64,
    /// Every scripted event was detected.
    pub all_events_detected: bool,
}

/// Joins a detection report against ground truth.
///
/// Each detection is credited to the **most recently started**
/// compatible event whose active span `[at_ms, until_ms + horizon]`
/// contains the detection time and whose class and scope are
/// compatible. An event's latency is taken from its earliest credited
/// detection. Detections crediting no event are false alarms.
pub fn evaluate(log: &EventLog, report: &DetectionReport, cfg: &MatchConfig) -> DetectionEval {
    let mut outcomes: Vec<EventOutcome> = log
        .records
        .iter()
        .map(|r| EventOutcome {
            class: r.class.label().to_owned(),
            region: r.region.clone(),
            at_ms: r.at_ms,
            until_ms: r.until_ms,
            detected: false,
            detection_latency_ms: -1,
            detected_class: String::new(),
            detected_scope: String::new(),
            detections: 0,
            reconvergence_ms: reconvergence(r, report, cfg),
        })
        .collect();

    let mut false_alarms = Vec::new();
    for d in &report.changes {
        // Candidate events: an exact scope match outranks a wildcard
        // one (a localized detection credits the event in its own
        // region even when a global event is more recent), then most
        // recent onset wins; ties break toward the earlier record so
        // credit assignment is deterministic.
        let candidate = log
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                d.detected_ms >= r.at_ms
                    && d.detected_ms <= r.until_ms.saturating_add(cfg.horizon_ms)
                    && class_compatible(r.class, d.class)
                    && scope_compatible(&r.region, &d.scope)
            })
            .max_by_key(|(i, r)| (r.region == d.scope, r.at_ms, std::cmp::Reverse(*i)));
        match candidate {
            Some((i, _)) => {
                let o = &mut outcomes[i];
                o.detections += 1;
                let latency = d.detected_ms.saturating_sub(o.at_ms) as i64;
                if !o.detected || latency < o.detection_latency_ms {
                    o.detected = true;
                    o.detection_latency_ms = latency;
                    o.detected_class = d.class.label().to_owned();
                    o.detected_scope = d.scope.clone();
                }
            }
            None => false_alarms.push(FalseAlarm {
                detected_ms: d.detected_ms,
                class: d.class.label().to_owned(),
                scope: d.scope.clone(),
                magnitude: d.magnitude,
            }),
        }
    }

    let detections_total = report.changes.len() as u64;
    let detections_matched = detections_total - false_alarms.len() as u64;
    let detected_events = outcomes.iter().filter(|o| o.detected).count() as u64;
    let latencies: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.detected)
        .map(|o| o.detection_latency_ms as f64)
        .collect();
    let scanned_ms = report
        .windows
        .last()
        .map_or(0, |w| w.to_ms.saturating_sub(report.windows[0].from_ms));
    let days = scanned_ms as f64 / 86_400_000.0;
    DetectionEval {
        detections_total,
        detections_matched,
        precision: if detections_total == 0 {
            1.0
        } else {
            detections_matched as f64 / detections_total as f64
        },
        recall: if outcomes.is_empty() {
            1.0
        } else {
            detected_events as f64 / outcomes.len() as f64
        },
        false_alarm_rate_per_day: if days > 0.0 {
            false_alarms.len() as f64 / days
        } else {
            0.0
        },
        mean_detection_latency_ms: if latencies.is_empty() {
            -1.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        all_events_detected: outcomes.iter().all(|o| o.detected),
        events: outcomes,
        false_alarms,
    }
}

/// First time after the event's direct effect ended at which the
/// affected scope's mean L1 stayed at or below the quiesce level for
/// two consecutive windows. The level is the scope's drift baseline *at
/// onset* scaled by `quiesce_ratio`, floored at `quiesce_floor`.
fn reconvergence(event: &EventRecord, report: &DetectionReport, cfg: &MatchConfig) -> i64 {
    let scope = if event.region == "global" {
        "global"
    } else {
        &event.region
    };
    let onset_baseline = report
        .windows
        .iter()
        .find(|w| w.to_ms > event.at_ms)
        .and_then(|w| w.group(scope))
        .map_or(0.0, |g| g.baseline_l1);
    let level = (cfg.quiesce_ratio * onset_baseline).max(cfg.quiesce_floor);
    let mut streak = 0u32;
    let mut streak_start = 0u64;
    for w in report.windows.iter().filter(|w| w.to_ms >= event.until_ms) {
        let quiet = w.group(scope).is_none_or(|g| g.mean_l1 <= level);
        if quiet {
            if streak == 0 {
                streak_start = w.from_ms;
            }
            streak += 1;
            if streak == 2 {
                return streak_start as i64;
            }
        } else {
            streak = 0;
        }
    }
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_audit::detect::{DetectWindow, DetectedChange, GroupWindow};

    fn window(from_h: u64, to_h: u64, scope_l1: &[(&str, f64)]) -> DetectWindow {
        DetectWindow {
            from_ms: from_h * 3_600_000,
            to_ms: to_h * 3_600_000,
            cluster_distance: -1.0,
            groups: scope_l1
                .iter()
                .map(|(s, l1)| GroupWindow {
                    scope: (*s).to_owned(),
                    hosts_compared: 10,
                    mean_l1: *l1,
                    baseline_l1: 0.1,
                    ..GroupWindow::default()
                })
                .collect(),
        }
    }

    fn change(h: u64, class: ChangeClass, scope: &str) -> DetectedChange {
        DetectedChange {
            onset_ms: (h - 1) * 3_600_000,
            detected_ms: h * 3_600_000,
            class,
            scope: scope.to_owned(),
            hosts_affected: 5,
            magnitude: 0.5,
            replicas: vec![],
        }
    }

    fn record(class: EventClass, region: &str, at_h: u64, until_h: u64) -> EventRecord {
        EventRecord {
            at_ms: at_h * 3_600_000,
            until_ms: until_h * 3_600_000,
            class,
            region: region.to_owned(),
            replicas: vec![1],
            detail: String::new(),
        }
    }

    fn report(windows: Vec<DetectWindow>, changes: Vec<DetectedChange>) -> DetectionReport {
        DetectionReport {
            interval_ms: 3_600_000,
            snapshots: windows.len() as u64 + 1,
            windows,
            changes,
        }
    }

    #[test]
    fn matched_detection_scores_latency_and_recall() {
        let log = EventLog {
            records: vec![record(EventClass::RegionalPoolFlip, "europe", 4, 4)],
        };
        let windows = (0..10)
            .map(|h| {
                let l1 = if h == 4 { 1.2 } else { 0.05 };
                window(h, h + 1, &[("global", l1 / 2.0), ("europe", l1)])
            })
            .collect();
        let changes = vec![change(5, ChangeClass::MassRemap, "europe")];
        let eval = evaluate(&log, &report(windows, changes), &MatchConfig::default());
        assert!(eval.all_events_detected);
        assert_eq!(eval.detections_matched, 1);
        assert!(eval.false_alarms.is_empty());
        assert_eq!(eval.precision, 1.0);
        assert_eq!(eval.recall, 1.0);
        assert_eq!(eval.events[0].detection_latency_ms, 3_600_000);
        // The burst at hour 4–5 subsides immediately after: the first
        // two quiet windows end at hour 6, so re-convergence is the
        // start of that pair.
        assert_eq!(eval.events[0].reconvergence_ms, 5 * 3_600_000);
    }

    #[test]
    fn unmatched_detection_is_a_false_alarm() {
        let log = EventLog {
            records: vec![record(EventClass::DatacenterOutage, "east-asia", 20, 22)],
        };
        let windows = (0..10)
            .map(|h| window(h, h + 1, &[("global", 0.05)]))
            .collect();
        // Wrong time (no event active) — unmatched.
        let changes = vec![change(5, ChangeClass::MassRemap, "global")];
        let eval = evaluate(&log, &report(windows, changes), &MatchConfig::default());
        assert!(!eval.all_events_detected);
        assert_eq!(eval.false_alarms.len(), 1);
        assert_eq!(eval.precision, 0.0);
        assert_eq!(eval.recall, 0.0);
        assert!(eval.false_alarm_rate_per_day > 0.0);
        assert_eq!(eval.mean_detection_latency_ms, -1.0);
    }

    #[test]
    fn detection_credits_most_recent_compatible_event() {
        // Outage at hour 2, recovery at hour 6: a detection at hour 7
        // belongs to the recovery, not the (still-in-horizon) outage.
        let log = EventLog {
            records: vec![
                record(EventClass::DatacenterOutage, "europe", 2, 6),
                record(EventClass::DatacenterRecovery, "europe", 6, 6),
            ],
        };
        let windows = (0..10)
            .map(|h| window(h, h + 1, &[("europe", 0.05)]))
            .collect();
        let changes = vec![
            change(3, ChangeClass::MassRemap, "europe"),
            change(7, ChangeClass::MassRemap, "europe"),
        ];
        let eval = evaluate(&log, &report(windows, changes), &MatchConfig::default());
        assert!(eval.all_events_detected);
        assert_eq!(eval.events[0].detection_latency_ms, 3_600_000);
        assert_eq!(eval.events[1].detection_latency_ms, 3_600_000);
    }

    #[test]
    fn new_replica_class_only_credits_fresh_key_events() {
        assert!(class_compatible(
            EventClass::FootprintExpansion,
            ChangeClass::NewReplicas
        ));
        assert!(class_compatible(
            EventClass::RegionalPoolFlip,
            ChangeClass::NewReplicas
        ));
        assert!(!class_compatible(
            EventClass::DatacenterOutage,
            ChangeClass::NewReplicas
        ));
        assert!(class_compatible(
            EventClass::LoadBalancerPolicyChange,
            ChangeClass::DriftBurst
        ));
    }

    #[test]
    fn scope_matching_treats_global_as_wildcard() {
        assert!(scope_compatible("global", "europe"));
        assert!(scope_compatible("europe", "global"));
        assert!(scope_compatible("europe", "europe"));
        assert!(!scope_compatible("europe", "east-asia"));
    }

    #[test]
    fn unconverged_scope_reports_sentinel() {
        let log = EventLog {
            records: vec![record(EventClass::FlashCrowd, "europe", 1, 2)],
        };
        // Permanently elevated drift: never re-converges.
        let windows = (0..8)
            .map(|h| window(h, h + 1, &[("europe", 0.9)]))
            .collect();
        let eval = evaluate(&log, &report(windows, vec![]), &MatchConfig::default());
        assert_eq!(eval.events[0].reconvergence_ms, -1);
    }

    #[test]
    fn eval_round_trips_through_json() {
        let log = EventLog {
            records: vec![record(EventClass::RegionalPoolFlip, "europe", 4, 4)],
        };
        let windows = (0..6)
            .map(|h| window(h, h + 1, &[("europe", 0.05)]))
            .collect();
        let changes = vec![change(5, ChangeClass::MassRemap, "europe")];
        let eval = evaluate(&log, &report(windows, changes), &MatchConfig::default());
        let text = serde_json::to_string(&eval).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        let back = DetectionEval::from_value(&value).expect("shape");
        assert_eq!(back, eval);
    }
}
