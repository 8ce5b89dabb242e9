//! A declarative SLO alert engine over the time-series store.
//!
//! Rules are evaluated deterministically against the windowed aggregates
//! of a [`TimeSeriesStore`](crate::timeseries::TimeSeriesStore): the
//! engine replays each rule's tier in ascending window order, applies
//! for-duration debouncing, and records firing/resolved transitions at
//! the **simulated time** of the window that triggered them. The same
//! seeded run therefore produces a byte-identical `alerts.json`.
//!
//! Three rule kinds:
//!
//! - **Threshold** — a window statistic crosses a bound (e.g. p99 ingest
//!   latency above 400 ms).
//! - **Rate of change** — the statistic moves more than `max_delta`
//!   between consecutive windows (e.g. ratio-map drift accelerating).
//! - **Burn rate** — the threshold is breached both in the current
//!   window *and* in the aggregate of the trailing `long_windows`
//!   windows, the classic fast+slow burn-rate pair.

use crate::timeseries::{TimeSeriesStore, Window};
use serde::{Deserialize, Serialize};

/// A window statistic a rule can test.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stat {
    /// Number of samples in the window.
    Count,
    /// Sum of sample values (the windowed rate for counter series).
    Sum,
    /// Mean sample value.
    Mean,
    /// Smallest sample value.
    Min,
    /// Largest sample value.
    Max,
    /// Median estimate.
    P50,
    /// 90th-percentile estimate.
    P90,
    /// 99th-percentile estimate.
    P99,
}

impl Stat {
    fn of(self, w: &Window, bounds: &[f64]) -> Option<f64> {
        match self {
            Stat::Count => Some(w.count as f64),
            Stat::Sum => Some(w.sum),
            Stat::Mean => w.mean(),
            Stat::Min => (w.count > 0).then_some(w.min),
            Stat::Max => (w.count > 0).then_some(w.max),
            Stat::P50 => w.quantile(bounds, 0.50),
            Stat::P90 => w.quantile(bounds, 0.90),
            Stat::P99 => w.quantile(bounds, 0.99),
        }
    }
}

/// Comparison direction for threshold-style rules.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Breach when the statistic is strictly above the bound.
    Above,
    /// Breach when the statistic is strictly below the bound.
    Below,
}

impl Op {
    fn breached(self, stat: f64, value: f64) -> bool {
        match self {
            Op::Above => stat > value,
            Op::Below => stat < value,
        }
    }
}

/// What a rule tests per window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RuleKind {
    /// `stat op value` in each window.
    Threshold {
        /// Statistic to test.
        stat: Stat,
        /// Comparison direction.
        op: Op,
        /// The bound.
        value: f64,
    },
    /// `|stat(w) − stat(prev)| > max_delta` between consecutive windows.
    RateOfChange {
        /// Statistic to difference.
        stat: Stat,
        /// Largest tolerated between-window move.
        max_delta: f64,
    },
    /// `stat op value` in the window **and** in the trailing aggregate
    /// of `long_windows` windows.
    BurnRate {
        /// Statistic to test.
        stat: Stat,
        /// Comparison direction.
        op: Op,
        /// The bound.
        value: f64,
        /// Trailing windows aggregated for the slow burn check.
        long_windows: usize,
    },
}

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Rule name (unique within a rule set).
    pub name: String,
    /// The time-series metric the rule watches.
    pub metric: String,
    /// Which retention tier to evaluate (window width in sim ms).
    pub window_ms: u64,
    /// Consecutive breached windows required before firing (≥ 1).
    pub for_windows: u64,
    /// The test.
    pub kind: RuleKind,
}

/// The default SLO rule set shipped with `--observe`.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        // Ingest latency: the redirect-time best-candidate RTT is the
        // per-observation ingest cost; sustained p99 above 400 ms for
        // two 10-minute windows means clients are being mapped far away.
        AlertRule {
            name: "ingest-latency-p99".to_owned(),
            metric: "cdn.best_candidate_ms".to_owned(),
            window_ms: 600_000,
            for_windows: 2,
            kind: RuleKind::Threshold {
                stat: Stat::P99,
                op: Op::Above,
                value: 400.0,
            },
        },
        // Ratio-map drift rate: the audit layer feeds per-snapshot L1
        // drift; a jump of more than 0.5 between hourly windows is the
        // YouLighter-style "the CDN re-architected under us" signal.
        AlertRule {
            name: "ratio-map-drift-rate".to_owned(),
            metric: "audit.ratio_drift.l1".to_owned(),
            window_ms: 3_600_000,
            for_windows: 1,
            kind: RuleKind::RateOfChange {
                stat: Stat::Mean,
                max_delta: 0.5,
            },
        },
        // Remap bursts: more than 50 strongest-replica remap events in a
        // 10-minute window, sustained against the trailing hour, means
        // mapping churn far above the paper's baseline.
        AlertRule {
            name: "remap-event-burst".to_owned(),
            metric: "cdn.remap.events".to_owned(),
            window_ms: 600_000,
            for_windows: 1,
            kind: RuleKind::BurnRate {
                stat: Stat::Sum,
                op: Op::Above,
                value: 50.0,
                long_windows: 6,
            },
        },
        // Change-detector verdicts: the audit detect scan reports how
        // many localized changes each window raised; any window with a
        // raised change is an infrastructure event worth paging on.
        AlertRule {
            name: "change-detected".to_owned(),
            metric: "detect.changes_raised".to_owned(),
            window_ms: 3_600_000,
            for_windows: 1,
            kind: RuleKind::Threshold {
                stat: Stat::Max,
                op: Op::Above,
                value: 0.0,
            },
        },
        // Mass-remap pressure: the detector's global strongest-changed
        // fraction sustained above 30% across two hourly windows means
        // the CDN is continuously re-mapping the population — ratio
        // maps (and any clustering built on them) are stale on arrival.
        AlertRule {
            name: "detect-remap-pressure".to_owned(),
            metric: "detect.remap_fraction".to_owned(),
            window_ms: 3_600_000,
            for_windows: 2,
            kind: RuleKind::Threshold {
                stat: Stat::Mean,
                op: Op::Above,
                value: 0.3,
            },
        },
    ]
}

/// A firing/resolved state change, stamped with simulated time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertTransition {
    /// Start of the window that triggered the change.
    pub at_ms: u64,
    /// `"firing"` or `"resolved"`.
    pub state: String,
    /// The statistic value that triggered the change.
    pub value: f64,
}

/// One rule's evaluation outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuleOutcome {
    /// The rule that was evaluated.
    pub rule: AlertRule,
    /// Windows the rule saw.
    pub evaluated_windows: u64,
    /// Windows that breached the rule's test.
    pub breached_windows: u64,
    /// State transitions in time order.
    pub transitions: Vec<AlertTransition>,
    /// `"firing"` or `"resolved"` at end of run.
    pub final_state: String,
}

impl RuleOutcome {
    /// Whether the rule ever fired.
    pub fn ever_fired(&self) -> bool {
        self.transitions.iter().any(|t| t.state == "firing")
    }
}

/// The machine-readable alert log (`alerts.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertLog {
    /// Per-rule outcomes, in rule order.
    pub rules: Vec<RuleOutcome>,
}

impl AlertLog {
    /// The outcome for the named rule, if present.
    pub fn rule(&self, name: &str) -> Option<&RuleOutcome> {
        self.rules.iter().find(|r| r.rule.name == name)
    }

    /// Names of rules firing at end of run.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|r| r.final_state == "firing")
            .map(|r| r.rule.name.as_str())
            .collect()
    }
}

impl crate::mem::MemFootprint for AlertLog {
    fn mem_footprint(&self) -> usize {
        crate::mem::vec_footprint(&self.rules)
            + self
                .rules
                .iter()
                .map(|r| {
                    r.rule.name.capacity()
                        + r.rule.metric.capacity()
                        + r.final_state.capacity()
                        + crate::mem::vec_footprint(&r.transitions)
                        + r.transitions
                            .iter()
                            .map(|t| t.state.capacity())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// Evaluates a rule set against a completed store.
#[derive(Clone, Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
}

impl AlertEngine {
    /// Creates an engine over `rules`.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine { rules }
    }

    /// Replays every rule over the store's windows and returns the log.
    pub fn evaluate(&self, store: &TimeSeriesStore) -> AlertLog {
        AlertLog {
            rules: self
                .rules
                .iter()
                .map(|rule| evaluate_rule(rule, store))
                .collect(),
        }
    }
}

fn evaluate_rule(rule: &AlertRule, store: &TimeSeriesStore) -> RuleOutcome {
    let bounds = &store.config().bounds;
    let windows: Vec<&Window> = store
        .series(&rule.metric)
        .map(|s| s.windows(rule.window_ms))
        .unwrap_or_default();

    let mut outcome = RuleOutcome {
        rule: rule.clone(),
        evaluated_windows: 0,
        breached_windows: 0,
        transitions: Vec::new(),
        final_state: "resolved".to_owned(),
    };
    let mut firing = false;
    let mut pending = 0u64;
    let mut prev_stat: Option<f64> = None;

    for (i, w) in windows.iter().enumerate() {
        outcome.evaluated_windows += 1;
        let (breached, value) = match &rule.kind {
            RuleKind::Threshold { stat, op, value } => {
                let s = stat.of(w, bounds);
                (s.is_some_and(|s| op.breached(s, *value)), s.unwrap_or(0.0))
            }
            RuleKind::RateOfChange { stat, max_delta } => {
                let s = stat.of(w, bounds);
                let delta = match (s, prev_stat) {
                    (Some(cur), Some(prev)) => (cur - prev).abs(),
                    _ => 0.0,
                };
                prev_stat = s.or(prev_stat);
                (delta > *max_delta, delta)
            }
            RuleKind::BurnRate {
                stat,
                op,
                value,
                long_windows,
            } => {
                let short = stat.of(w, bounds);
                let fast = short.is_some_and(|s| op.breached(s, *value));
                let slow = if fast {
                    let lo = i.saturating_sub(long_windows.saturating_sub(1));
                    let mut agg = Window {
                        start_ms: w.start_ms,
                        count: 0,
                        sum: 0.0,
                        min: 0.0,
                        max: 0.0,
                        buckets: vec![0; bounds.len() + 1],
                        exemplars: Vec::new(),
                    };
                    for long in &windows[lo..=i] {
                        agg.merge(long);
                    }
                    // Compare the long-window *per-window average* so the
                    // bound keeps its per-window meaning.
                    let span = (i - lo + 1) as f64;
                    stat.of(&agg, bounds)
                        .map(|s| {
                            if matches!(stat, Stat::Sum | Stat::Count) {
                                s / span
                            } else {
                                s
                            }
                        })
                        .is_some_and(|s| op.breached(s, *value))
                } else {
                    false
                };
                (fast && slow, short.unwrap_or(0.0))
            }
        };

        if breached {
            outcome.breached_windows += 1;
            pending += 1;
            if !firing && pending >= rule.for_windows.max(1) {
                firing = true;
                outcome.transitions.push(AlertTransition {
                    at_ms: w.start_ms,
                    state: "firing".to_owned(),
                    value,
                });
            }
        } else {
            pending = 0;
            if firing {
                firing = false;
                outcome.transitions.push(AlertTransition {
                    at_ms: w.start_ms,
                    state: "resolved".to_owned(),
                    value,
                });
            }
        }
    }
    outcome.final_state = if firing { "firing" } else { "resolved" }.to_owned();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{TierSpec, TimeSeriesConfig, TimeSeriesStore};

    fn store() -> TimeSeriesStore {
        TimeSeriesStore::new(TimeSeriesConfig {
            tiers: vec![TierSpec {
                window_ms: 1_000,
                slots: 32,
            }],
            bounds: vec![1.0, 10.0, 100.0, 1_000.0],
            max_series: 8,
            exemplars_per_bucket: 1,
        })
    }

    fn threshold(for_windows: u64, value: f64) -> AlertRule {
        AlertRule {
            name: "r".to_owned(),
            metric: "m".to_owned(),
            window_ms: 1_000,
            for_windows,
            kind: RuleKind::Threshold {
                stat: Stat::Max,
                op: Op::Above,
                value,
            },
        }
    }

    #[test]
    fn threshold_fires_and_resolves_at_sim_time() {
        let mut s = store();
        for t in 0..10u64 {
            let v = if (4..7).contains(&t) { 500.0 } else { 5.0 };
            s.record(t * 1_000, "m", v, 0);
        }
        let log = AlertEngine::new(vec![threshold(1, 100.0)]).evaluate(&s);
        let r = log.rule("r").expect("rule present");
        assert_eq!(r.evaluated_windows, 10);
        assert_eq!(r.breached_windows, 3);
        assert_eq!(r.transitions.len(), 2);
        assert_eq!(r.transitions[0].state, "firing");
        assert_eq!(r.transitions[0].at_ms, 4_000);
        assert_eq!(r.transitions[1].state, "resolved");
        assert_eq!(r.transitions[1].at_ms, 7_000);
        assert_eq!(r.final_state, "resolved");
        assert!(r.ever_fired());
        assert!(log.firing().is_empty());
    }

    #[test]
    fn for_duration_debounces_single_window_spikes() {
        let mut s = store();
        for t in 0..10u64 {
            // Breaches at t=2 (single) and t=6,7 (sustained).
            let v = if t == 2 || t == 6 || t == 7 {
                500.0
            } else {
                5.0
            };
            s.record(t * 1_000, "m", v, 0);
        }
        let log = AlertEngine::new(vec![threshold(2, 100.0)]).evaluate(&s);
        let r = log.rule("r").expect("rule present");
        assert_eq!(r.transitions.len(), 2, "{:?}", r.transitions);
        assert_eq!(
            r.transitions[0].at_ms, 7_000,
            "second sustained window fires"
        );
    }

    #[test]
    fn rule_with_no_data_stays_resolved() {
        let s = store();
        let log = AlertEngine::new(default_rules()).evaluate(&s);
        assert_eq!(log.rules.len(), 5);
        for r in &log.rules {
            assert_eq!(r.final_state, "resolved");
            assert_eq!(r.evaluated_windows, 0);
            assert!(!r.ever_fired());
        }
    }

    #[test]
    fn rate_of_change_detects_jumps_not_levels() {
        let mut s = store();
        // Constant high level: no rate alarm. Then a jump.
        for t in 0..4u64 {
            s.record(t * 1_000, "m", 100.0, 0);
        }
        s.record(4_000, "m", 900.0, 0);
        let rule = AlertRule {
            name: "roc".to_owned(),
            metric: "m".to_owned(),
            window_ms: 1_000,
            for_windows: 1,
            kind: RuleKind::RateOfChange {
                stat: Stat::Mean,
                max_delta: 300.0,
            },
        };
        let log = AlertEngine::new(vec![rule]).evaluate(&s);
        let r = log.rule("roc").expect("rule present");
        assert_eq!(r.breached_windows, 1);
        assert_eq!(r.transitions[0].at_ms, 4_000);
        assert_eq!(r.final_state, "firing", "run ended mid-incident");
        assert_eq!(log.firing(), vec!["roc"]);
    }

    #[test]
    fn burn_rate_requires_sustained_long_window() {
        let rule = AlertRule {
            name: "burn".to_owned(),
            metric: "m".to_owned(),
            window_ms: 1_000,
            for_windows: 1,
            kind: RuleKind::BurnRate {
                stat: Stat::Sum,
                op: Op::Above,
                value: 10.0,
                long_windows: 3,
            },
        };
        // One isolated spike: fast breach but the 3-window average stays
        // at the bound → no fire.
        let mut quiet = store();
        for t in 0..6u64 {
            let v = if t == 3 { 12.0 } else { 9.0 };
            s_record(&mut quiet, t, v);
        }
        let log = AlertEngine::new(vec![rule.clone()]).evaluate(&quiet);
        assert!(!log.rule("burn").expect("rule").ever_fired());

        // Sustained burn: every window breaches → fires.
        let mut hot = store();
        for t in 0..6u64 {
            s_record(&mut hot, t, 20.0);
        }
        let log = AlertEngine::new(vec![rule]).evaluate(&hot);
        assert!(log.rule("burn").expect("rule").ever_fired());
    }

    fn s_record(s: &mut TimeSeriesStore, t: u64, v: f64) {
        s.record(t * 1_000, "m", v, 0);
    }

    #[test]
    fn alert_log_round_trips_and_is_deterministic() {
        let run = || {
            let mut s = store();
            for t in 0..16u64 {
                s.record(t * 1_000, "m", if t % 4 == 0 { 800.0 } else { 3.0 }, 0);
            }
            let log = AlertEngine::new(vec![threshold(1, 100.0)]).evaluate(&s);
            serde_json::to_string(&log).expect("serialize")
        };
        let a = run();
        assert_eq!(a, run());
        let back: AlertLog = serde_json::from_str(&a).expect("parse");
        assert_eq!(back.rules.len(), 1);
    }

    /// Pins the detection latencies in the EXPERIMENTS.md alert table:
    /// a synthetic degradation with a known SimTime onset, evaluated by
    /// the default rule set over a default-config store.
    #[test]
    fn default_rules_detection_latency_from_onset() {
        const MIN: u64 = 60_000;
        const HOUR: u64 = 3_600_000;
        let mut s = TimeSeriesStore::new(TimeSeriesConfig::default());
        // Two simulated hours, one sample per minute; everything
        // degrades at exactly t = 1 h.
        for m in 0..120u64 {
            let t = m * MIN;
            // Ingest latency steps 30 ms → 800 ms (p99 bound is 400).
            s.record(
                t,
                "cdn.best_candidate_ms",
                if m < 60 { 30.0 } else { 800.0 },
                0,
            );
            // Remap events step 3/min → 12/min (30 → 120 per 10-min
            // window; the burst bound is 50 per window).
            for _ in 0..if m < 60 { 3 } else { 12 } {
                s.record(t, "cdn.remap.events", 1.0, 0);
            }
        }
        // Hourly drift snapshots: mean L1 jumps at the 3-hour mark
        // (rate-of-change bound is 0.5 between occupied windows).
        for (h, l1) in [(1u64, 0.05), (2, 0.06), (3, 0.90), (4, 0.92)] {
            s.record(h * HOUR, "audit.ratio_drift.l1", l1, 0);
        }
        let log = AlertEngine::new(default_rules()).evaluate(&s);

        // Threshold with for_windows = 2: the first breached 10-minute
        // window starts at onset; the transition is stamped one window
        // later — 10 min of detection latency.
        let r = log.rule("ingest-latency-p99").expect("rule present");
        assert_eq!(r.transitions[0].state, "firing");
        assert_eq!(r.transitions[0].at_ms - HOUR, 600_000);
        assert_eq!(r.final_state, "firing");

        // Burn rate vs the trailing hour: the first burst window's
        // 6-window average is still diluted by quiet windows, the
        // second crosses it — 10 min of detection latency.
        let r = log.rule("remap-event-burst").expect("rule present");
        assert_eq!(r.transitions[0].state, "firing");
        assert_eq!(r.transitions[0].at_ms - HOUR, 600_000);

        // Rate of change fires on the jump window itself: the
        // transition is stamped at the onset window's start.
        let r = log.rule("ratio-map-drift-rate").expect("rule present");
        assert_eq!(r.transitions[0].state, "firing");
        assert_eq!(r.transitions[0].at_ms, 3 * HOUR);
    }
}
