//! Drift detection over a recorded observation history.
//!
//! The paper's ratio maps are time-varying: the CDN re-ranks replicas
//! every mapping epoch, congestion shifts redirection fractions, and a
//! remapping event can silently invalidate a clustering computed an hour
//! earlier. [`scan`] makes that drift visible: it queries a
//! [`CrpService`] at a ladder of SimTimes (re-interpreting the same
//! recorded history — nothing is re-observed) and diffs consecutive
//! snapshots three ways:
//!
//! * **per-host ratio-map drift** — L1 and cosine distance between a
//!   host's maps in adjacent windows;
//! * **remap events** — the fraction of hosts whose *strongest* replica
//!   mapping changed; past a threshold the window is flagged as a CDN
//!   remapping event;
//! * **cluster churn** — YouLighter-style distance between consecutive
//!   SMF clusterings (1 − Rand index over the common hosts).
//!
//! The scan runs *after* a campaign completes, reads only SimTime-keyed
//! state, and emits `drift.*` telemetry events (when a collector is
//! installed) alongside the returned [`DriftTimeline`].

use crp_core::cluster::{Clustering, SmfConfig};
use crp_core::{CrpService, RatioMap};
use crp_netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Configuration of a drift scan.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftConfig {
    /// First snapshot time.
    pub start: SimTime,
    /// Last snapshot time (inclusive; a final snapshot is taken here
    /// even if the ladder does not land on it exactly).
    pub end: SimTime,
    /// Spacing between snapshots.
    pub interval: SimDuration,
    /// L1 distance above which a host counts as *drifted* in a window
    /// (L1 over ratio maps is in `[0, 2]`).
    pub l1_threshold: f64,
    /// Fraction of hosts whose strongest replica changed above which a
    /// window is flagged as a CDN remap event.
    pub remap_fraction: f64,
    /// Clustering to diff for churn; `None` skips the (quadratic)
    /// clustering pass.
    pub smf: Option<SmfConfig>,
}

impl DriftConfig {
    /// A scan of `[start, end]` at `interval`, with the default
    /// thresholds (L1 > 0.5 counts as drifted, 20% strongest-mapping
    /// changes flag a remap) and cluster churn enabled at the paper's
    /// SMF operating point.
    pub fn new(start: SimTime, end: SimTime, interval: SimDuration) -> Self {
        DriftConfig {
            start,
            end,
            interval,
            l1_threshold: 0.5,
            remap_fraction: 0.2,
            smf: Some(SmfConfig::paper(0.1)),
        }
    }

    fn validate(&self) {
        assert!(self.end > self.start, "drift scan needs end > start");
        assert!(
            self.interval.as_millis() > 0,
            "drift scan needs a positive interval"
        );
        assert!(
            self.l1_threshold >= 0.0 && self.remap_fraction >= 0.0,
            "drift thresholds must be non-negative"
        );
    }
}

/// The diff between two consecutive snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftWindow {
    /// Earlier snapshot time, in SimTime milliseconds.
    pub from_ms: u64,
    /// Later snapshot time, in SimTime milliseconds.
    pub to_ms: u64,
    /// Hosts with a usable ratio map at both snapshot times.
    pub hosts_compared: u64,
    /// Mean per-host L1 distance between the two maps.
    pub mean_l1: f64,
    /// Largest per-host L1 distance.
    pub max_l1: f64,
    /// Mean per-host cosine distance (1 − cosine similarity).
    pub mean_cosine_distance: f64,
    /// Hosts whose L1 distance exceeded the configured threshold.
    pub drifted_hosts: u64,
    /// `drifted_hosts / hosts_compared` (0 when nothing compared).
    pub drifted_fraction: f64,
    /// Hosts whose strongest replica mapping changed.
    pub strongest_changed: u64,
    /// `strongest_changed / hosts_compared` (0 when nothing compared).
    pub strongest_changed_fraction: f64,
    /// YouLighter-style snapshot distance: 1 − Rand index between the
    /// two clusterings over the common hosts. Negative sentinel −1 when
    /// clustering was disabled or had fewer than two common hosts.
    pub cluster_distance: f64,
    /// Multi-member clusters in the earlier snapshot (−1 sentinel
    /// encoded as 0 alongside `cluster_distance < 0`).
    pub clusters_from: u64,
    /// Multi-member clusters in the later snapshot.
    pub clusters_to: u64,
}

/// One detected CDN remapping event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RemapEvent {
    /// Snapshot time at which the remap was detected (window end).
    pub at_ms: u64,
    /// Fraction of compared hosts whose strongest mapping changed.
    pub strongest_changed_fraction: f64,
    /// Number of hosts affected.
    pub hosts_affected: u64,
}

/// The full drift timeline of one run: every window diff plus the
/// detected remap events, with the thresholds echoed for the report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftTimeline {
    /// Snapshot spacing, in SimTime milliseconds.
    pub interval_ms: u64,
    /// The L1 drift threshold in effect.
    pub l1_threshold: f64,
    /// The remap-fraction threshold in effect.
    pub remap_fraction: f64,
    /// Number of snapshots taken.
    pub snapshots: u64,
    /// Consecutive-snapshot diffs, in time order.
    pub windows: Vec<DriftWindow>,
    /// Detected remap events, in time order.
    pub remap_events: Vec<RemapEvent>,
}

impl DriftTimeline {
    /// The largest drifted-host fraction across all windows.
    pub fn max_drifted_fraction(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.drifted_fraction)
            .fold(0.0, f64::max)
    }

    /// The largest cluster-churn distance across all windows (0 when
    /// clustering was disabled).
    pub fn max_cluster_distance(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.cluster_distance)
            .fold(0.0, f64::max)
    }

    /// Total drift signal: windows with at least one drifted host plus
    /// detected remap events — "did *anything* move this run?".
    pub fn drift_event_count(&self) -> u64 {
        let drifted_windows = self.windows.iter().filter(|w| w.drifted_hosts > 0).count();
        drifted_windows as u64 + self.remap_events.len() as u64
    }
}

/// The Rand index between two clusterings over `nodes`: the fraction of
/// node pairs on which the clusterings agree (together in both, or apart
/// in both). 1 means identical partitions.
pub fn rand_index<N: Ord + Clone>(a: &Clustering<N>, b: &Clustering<N>, nodes: &[N]) -> f64 {
    if nodes.len() < 2 {
        return 1.0;
    }
    fn assignments<N: Ord + Clone>(c: &Clustering<N>) -> BTreeMap<&N, usize> {
        let mut out = BTreeMap::new();
        for (i, cluster) in c.clusters().iter().enumerate() {
            for m in cluster.members() {
                out.insert(m, i);
            }
        }
        out
    }
    let ca = assignments(a);
    let cb = assignments(b);
    let mut agree = 0u64;
    let mut total = 0u64;
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            let (ni, nj) = (&nodes[i], &nodes[j]);
            let (Some(ai), Some(aj), Some(bi), Some(bj)) =
                (ca.get(ni), ca.get(nj), cb.get(ni), cb.get(nj))
            else {
                continue;
            };
            total += 1;
            if (ai == aj) == (bi == bj) {
                agree += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        agree as f64 / total as f64
    }
}

/// Scans `service`'s recorded history for drift over `hosts`.
///
/// Snapshots are taken at `cfg.start`, every `cfg.interval`, and at
/// `cfg.end`; consecutive snapshots are diffed into [`DriftWindow`]s.
/// The scan is read-only and SimTime-keyed: it re-interprets history the
/// service already holds, so running it cannot change any experiment
/// output. `drift.*` telemetry events are emitted when a collector is
/// installed.
///
/// # Panics
///
/// Panics if the config is degenerate (`end <= start`, zero interval, or
/// negative thresholds).
pub fn scan<N, K>(service: &CrpService<N, K>, hosts: &[N], cfg: &DriftConfig) -> DriftTimeline
where
    N: Ord + Clone + Debug,
    K: Ord + Clone + Debug,
{
    crp_telemetry::stage!(AUDIT_DRIFT_SCAN);
    cfg.validate();
    let mut times: Vec<SimTime> = cfg.start.iter_until(cfg.end, cfg.interval).collect();
    if times.last() != Some(&cfg.end) {
        times.push(cfg.end);
    }

    struct Snapshot<N: Ord, K: Ord> {
        at: SimTime,
        maps: BTreeMap<N, RatioMap<K>>,
        clustering: Option<Clustering<N>>,
    }

    let snapshots: Vec<Snapshot<N, K>> = times
        .iter()
        .map(|&t| {
            let maps: BTreeMap<N, RatioMap<K>> = hosts
                .iter()
                .filter_map(|h| service.ratio_map(h, t).ok().map(|m| (h.clone(), m)))
                .collect();
            let clustering = cfg.smf.as_ref().map(|smf| service.cluster(smf, t));
            // Capacity gauges, sampled at each snapshot boundary so
            // the report dashboard can chart occupancy growth over the scan.
            if crp_telemetry::timeseries::enabled() {
                use crp_telemetry::MemFootprint;
                crp_telemetry::observe_at(
                    t.as_millis(),
                    "mem.footprint.core.service",
                    service.mem_footprint() as f64,
                );
                if let Some(c) = &clustering {
                    crp_telemetry::observe_at(
                        t.as_millis(),
                        "mem.footprint.core.clustering",
                        c.mem_footprint() as f64,
                    );
                }
            }
            Snapshot {
                at: t,
                maps,
                clustering,
            }
        })
        .collect();

    let mut windows = Vec::with_capacity(snapshots.len().saturating_sub(1));
    let mut remap_events = Vec::new();
    for pair in snapshots.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        let mut l1_sum = 0.0;
        let mut max_l1 = 0.0f64;
        let mut cos_sum = 0.0;
        let mut compared = 0u64;
        let mut drifted = 0u64;
        let mut changed = 0u64;
        let mut common: Vec<N> = Vec::new();
        for (host, m0) in &prev.maps {
            let Some(m1) = next.maps.get(host) else {
                continue;
            };
            compared += 1;
            common.push(host.clone());
            let l1 = m0.l1_distance(m1);
            l1_sum += l1;
            max_l1 = max_l1.max(l1);
            cos_sum += 1.0 - m0.cosine_similarity(m1);
            if l1 > cfg.l1_threshold {
                drifted += 1;
            }
            if m0.strongest().0 != m1.strongest().0 {
                changed += 1;
            }
        }
        let frac = |n: u64| {
            if compared == 0 {
                0.0
            } else {
                n as f64 / compared as f64
            }
        };
        let (cluster_distance, clusters_from, clusters_to) =
            match (&prev.clustering, &next.clustering) {
                (Some(c0), Some(c1)) if common.len() >= 2 => (
                    1.0 - rand_index(c0, c1, &common),
                    c0.multi_clusters().count() as u64,
                    c1.multi_clusters().count() as u64,
                ),
                _ => (-1.0, 0, 0),
            };
        let window = DriftWindow {
            from_ms: prev.at.as_millis(),
            to_ms: next.at.as_millis(),
            hosts_compared: compared,
            mean_l1: if compared == 0 {
                0.0
            } else {
                l1_sum / compared as f64
            },
            max_l1,
            mean_cosine_distance: if compared == 0 {
                0.0
            } else {
                cos_sum / compared as f64
            },
            drifted_hosts: drifted,
            drifted_fraction: frac(drifted),
            strongest_changed: changed,
            strongest_changed_fraction: frac(changed),
            cluster_distance,
            clusters_from,
            clusters_to,
        };
        if crp_telemetry::enabled() {
            crp_telemetry::event(
                window.to_ms,
                "drift.window",
                &[
                    ("hosts", window.hosts_compared.into()),
                    ("mean_l1", window.mean_l1.into()),
                    ("drifted_fraction", window.drifted_fraction.into()),
                    (
                        "strongest_changed_fraction",
                        window.strongest_changed_fraction.into(),
                    ),
                    ("cluster_distance", window.cluster_distance.into()),
                ],
            );
        }
        crp_telemetry::counter_add("audit.drift.windows", 1);
        // Feeds the live time-series store so the default
        // ratio-map-drift-rate alert rule has a series to watch.
        crp_telemetry::observe_at(window.to_ms, "audit.ratio_drift.l1", window.mean_l1);
        if compared > 0 && window.strongest_changed_fraction >= cfg.remap_fraction {
            let event = RemapEvent {
                at_ms: window.to_ms,
                strongest_changed_fraction: window.strongest_changed_fraction,
                hosts_affected: changed,
            };
            if crp_telemetry::enabled() {
                crp_telemetry::event(
                    event.at_ms,
                    "drift.remap",
                    &[
                        ("fraction", event.strongest_changed_fraction.into()),
                        ("hosts_affected", event.hosts_affected.into()),
                    ],
                );
            }
            crp_telemetry::counter_add("audit.drift.remap_events", 1);
            remap_events.push(event);
        }
        windows.push(window);
    }

    DriftTimeline {
        interval_ms: cfg.interval.as_millis(),
        l1_threshold: cfg.l1_threshold,
        remap_fraction: cfg.remap_fraction,
        snapshots: snapshots.len() as u64,
        windows,
        remap_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_core::{SimilarityMetric, WindowPolicy};

    /// A service whose hosts all flip their redirection target between
    /// hour 0–2 (replica "r1") and hour 2–4 (replica "r2"), under a
    /// window policy short enough that the flip shows in the maps.
    fn remapping_service() -> CrpService<&'static str, &'static str> {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        for host in ["a", "b", "c"] {
            for m in 0..24 {
                let t = SimTime::from_mins(m * 10);
                let replica = if m < 12 { "r1" } else { "r2" };
                svc.record(host, t, vec![replica]);
            }
        }
        svc
    }

    /// A service with perfectly stable redirections.
    fn stable_service() -> CrpService<&'static str, &'static str> {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        for host in ["a", "b", "c"] {
            for m in 0..24 {
                svc.record(host, SimTime::from_mins(m * 10), vec!["r1"]);
            }
        }
        svc
    }

    fn cfg() -> DriftConfig {
        DriftConfig::new(
            SimTime::from_hours(1),
            SimTime::from_hours(4),
            SimDuration::from_hours(1),
        )
    }

    #[test]
    fn remap_is_detected() {
        let svc = remapping_service();
        let hosts = ["a", "b", "c"];
        let timeline = scan(&svc, &hosts, &cfg());
        assert_eq!(timeline.snapshots, 4);
        assert_eq!(timeline.windows.len(), 3);
        assert!(
            !timeline.remap_events.is_empty(),
            "the wholesale r1→r2 flip must register: {timeline:?}"
        );
        let e = &timeline.remap_events[0];
        assert_eq!(e.hosts_affected, 3);
        assert!((e.strongest_changed_fraction - 1.0).abs() < 1e-12);
        assert!(timeline.max_drifted_fraction() > 0.0);
        assert!(timeline.drift_event_count() >= 1);
    }

    #[test]
    fn stable_history_has_no_events() {
        let svc = stable_service();
        let hosts = ["a", "b", "c"];
        let timeline = scan(&svc, &hosts, &cfg());
        assert!(timeline.remap_events.is_empty(), "{timeline:?}");
        assert_eq!(timeline.max_drifted_fraction(), 0.0);
        assert_eq!(timeline.drift_event_count(), 0);
        for w in &timeline.windows {
            assert_eq!(w.mean_l1, 0.0);
            assert_eq!(w.strongest_changed, 0);
            // Identical snapshots cluster identically: zero churn.
            assert!(w.cluster_distance.abs() < 1e-12, "{w:?}");
        }
    }

    #[test]
    fn scan_is_read_only_and_deterministic() {
        let svc = remapping_service();
        let hosts = ["a", "b", "c"];
        let before = svc.ratio_map(&"a", SimTime::from_hours(4)).unwrap();
        let t1 = scan(&svc, &hosts, &cfg());
        let t2 = scan(&svc, &hosts, &cfg());
        assert_eq!(t1, t2);
        let after = svc.ratio_map(&"a", SimTime::from_hours(4)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn clustering_pass_can_be_disabled() {
        let svc = remapping_service();
        let hosts = ["a", "b", "c"];
        let mut c = cfg();
        c.smf = None;
        let timeline = scan(&svc, &hosts, &c);
        assert!(timeline.windows.iter().all(|w| w.cluster_distance < 0.0));
    }

    #[test]
    fn rand_index_agrees_with_hand_computation() {
        let a = Clustering::from_groups(vec![vec!["a", "b"], vec!["c"]]);
        let b = Clustering::from_groups(vec![vec!["a"], vec!["b"], vec!["c"]]);
        let nodes = ["a", "b", "c"];
        // Pairs: (a,b) together/apart (disagree), (a,c) apart/apart,
        // (b,c) apart/apart → 2/3 agreement.
        assert!((rand_index(&a, &b, &nodes) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rand_index(&a, &a, &nodes), 1.0);
    }

    #[test]
    fn timeline_serializes_round_trip() {
        let svc = remapping_service();
        let hosts = ["a", "b", "c"];
        let timeline = scan(&svc, &hosts, &cfg());
        let text = serde_json::to_string(&timeline).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        let back = DriftTimeline::from_value(&value).expect("shape");
        assert_eq!(back, timeline);
    }

    #[test]
    #[should_panic(expected = "end > start")]
    fn degenerate_range_rejected() {
        let svc = stable_service();
        let c = DriftConfig::new(
            SimTime::from_hours(2),
            SimTime::from_hours(2),
            SimDuration::from_hours(1),
        );
        let _ = scan(&svc, &["a"], &c);
    }
}
