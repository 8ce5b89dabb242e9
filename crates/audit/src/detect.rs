//! Change detection over ratio-map history: the one answer to "did the
//! CDN move under us?".
//!
//! [`scan`] replays a recorded [`CrpService`] history at a SimTime
//! ladder (read-only, SimTime-keyed — running it cannot perturb
//! experiment output) and diffs each snapshot against a lagged earlier
//! one. Every window records, per scope (region label or `"global"`),
//! the raw movement — mean L1 between the maps, hosts whose map moved
//! by more than [`DRIFT_L1`], hosts whose strongest replica changed,
//! ratio-map support, never-seen replicas — plus the YouLighter-style
//! cluster distance (1 − [`rand_index`]) when clustering is on.
//!
//! A [`ChangeDetector`] consumes those windows as a stream and raises
//! *localized change records* ([`DetectedChange`]) — onset time,
//! affected scope, implicated replicas, and a class from a small
//! taxonomy ([`ChangeClass`]) — with EWMA baselines, warmup, and
//! per-(class, scope) cooldowns for false-alarm control. This is the
//! YouLighter framing: unsupervised detection of CDN infrastructure
//! changes from passively observed redirections alone. The returned
//! [`DetectionReport`] holds both the windows and the changes; the
//! run report's `drift-within-bounds` verdict reads its
//! `drifted_fraction`s.

use crp_core::cluster::{Clustering, SmfConfig};
use crp_core::{CrpService, RatioMap};
use crp_netsim::{SimDuration, SimTime};
use crp_telemetry::MemFootprint;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// L1 distance between a host's two maps (L1 over ratio maps is in
/// `[0, 2]`) above which the host counts as drifted in a window.
pub const DRIFT_L1: f64 = 0.5;

/// The change taxonomy a detection is classified into.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChangeClass {
    /// Many hosts in the scope changed their strongest replica at once —
    /// a remapping wave (pool flip, outage, recovery, flash crowd).
    MassRemap,
    /// The scope's mean ratio-map L1 movement jumped far above its
    /// running baseline without (necessarily) flipping strongest
    /// replicas — redistribution events like load-balancer policy
    /// changes.
    DriftBurst,
    /// Hosts started being served by replicas never seen before in the
    /// whole campaign — footprint growth.
    NewReplicas,
    /// The cluster structure over the population reorganized
    /// (YouLighter's snapshot-distance signal).
    ClusterReshape,
}

impl ChangeClass {
    /// Stable lowercase label used in artifacts and tables.
    pub fn label(self) -> &'static str {
        match self {
            ChangeClass::MassRemap => "mass_remap",
            ChangeClass::DriftBurst => "drift_burst",
            ChangeClass::NewReplicas => "new_replicas",
            ChangeClass::ClusterReshape => "cluster_reshape",
        }
    }
}

/// One raised change.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectedChange {
    /// Window start — the earliest the change can have begun.
    pub onset_ms: u64,
    /// Window end — when the detector raised it.
    pub detected_ms: u64,
    /// Change class.
    pub class: ChangeClass,
    /// `"global"` or a region label supplied with the host list.
    pub scope: String,
    /// Hosts behind the signal (changed hosts for remaps, compared
    /// hosts for drift bursts, adopting hosts for new replicas).
    pub hosts_affected: u64,
    /// The signal value that crossed the threshold.
    pub magnitude: f64,
    /// Implicated replicas (new strongest targets / fresh keys), at
    /// most eight, most-adopted first.
    pub replicas: Vec<String>,
}

/// Per-scope statistics for one window of the stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupWindow {
    /// `"global"` or a region label.
    pub scope: String,
    /// Hosts with maps at both window edges.
    pub hosts_compared: u64,
    /// Mean per-host L1 distance between the edges.
    pub mean_l1: f64,
    /// Hosts whose L1 distance between the edges exceeds [`DRIFT_L1`].
    pub drifted_hosts: u64,
    /// `drifted_hosts / hosts_compared` (0 when empty).
    pub drifted_fraction: f64,
    /// Hosts whose strongest replica changed at all (includes tie
    /// flapping between near-equal replicas).
    pub strongest_changed: u64,
    /// `strongest_changed / hosts_compared` (0 when empty).
    pub strongest_changed_fraction: f64,
    /// Hosts whose strongest replica changed *decisively*: the new
    /// strongest outweighs the old one's current ratio by the config
    /// margin. Rotation flapping between near-ties does not count;
    /// an outage or pool flip (old replica's ratio decaying toward
    /// zero) does.
    pub decisive_changed: u64,
    /// `decisive_changed / hosts_compared` (0 when empty).
    pub decisive_changed_fraction: f64,
    /// Hosts carrying a *substantially adopted* never-seen replica key
    /// (ratio at or above the config adoption weight). Rotation-tail
    /// first sightings with near-zero ratio do not count.
    pub fresh_replica_hosts: u64,
    /// Mean ratio-map support (distinct replica keys per host) at the
    /// window end — the signal for load-balance policy width changes.
    pub mean_support: f64,
    /// Mean ratio-map support at the (lagged) window start. The
    /// support comparison is lagged rather than EWMA-tracked so a
    /// permanent width change self-clears once the lag passes over it.
    pub prev_support: f64,
    /// The EWMA L1 baseline the detector held when evaluating this
    /// window (0 until initialized).
    pub baseline_l1: f64,
    /// Top new-strongest replica keys among decisively changed hosts
    /// (≤ 8).
    pub changed_to: Vec<String>,
    /// Never-before-seen replica keys that appeared (≤ 8).
    pub fresh_keys: Vec<String>,
}

/// One window of the detection stream: the global group plus per-region
/// groups, and the clustering distance across the window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectWindow {
    /// Window start (SimTime ms).
    pub from_ms: u64,
    /// Window end (SimTime ms).
    pub to_ms: u64,
    /// 1 − Rand index between the window-edge clusterings (−1 when
    /// clustering is disabled or under-populated).
    pub cluster_distance: f64,
    /// Group stats: `"global"` first, then region scopes in label
    /// order.
    pub groups: Vec<GroupWindow>,
}

impl DetectWindow {
    /// The stats for `scope`, if present.
    pub fn group(&self, scope: &str) -> Option<&GroupWindow> {
        self.groups.iter().find(|g| g.scope == scope)
    }
}

/// Full output of a detection scan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Window spacing (SimTime ms).
    pub interval_ms: u64,
    /// Number of snapshots taken.
    pub snapshots: u64,
    /// Every window's stream statistics, in time order.
    pub windows: Vec<DetectWindow>,
    /// Every change raised, in time order.
    pub changes: Vec<DetectedChange>,
    /// Memory footprint of each snapshot's clustering in bytes, in
    /// snapshot order; empty when clustering is off.
    pub clustering_bytes: Vec<u64>,
}

impl DetectionReport {
    /// Changes of one class.
    pub fn of_class(&self, class: ChangeClass) -> impl Iterator<Item = &DetectedChange> {
        self.changes.iter().filter(move |c| c.class == class)
    }

    /// The largest `drifted_fraction` of the `"global"` group across
    /// all windows (0 with no windows).
    pub fn max_drifted_fraction(&self) -> f64 {
        self.windows
            .iter()
            .filter_map(|w| w.group("global"))
            .map(|g| g.drifted_fraction)
            .fold(0.0, f64::max)
    }
}

/// Detector thresholds and scan schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectConfig {
    /// First snapshot time.
    pub start: SimTime,
    /// Last snapshot time (inclusive).
    pub end: SimTime,
    /// Snapshot spacing.
    pub interval: SimDuration,
    /// Decisive-changed fraction at which a scope raises
    /// [`ChangeClass::MassRemap`].
    pub remap_fraction: f64,
    /// Ratio margin by which a new strongest replica must outweigh the
    /// old one (in the *current* map) for a host to count as
    /// decisively remapped. Filters rotation flapping between
    /// near-tied replicas.
    pub remap_margin: f64,
    /// Ratio below which the displaced leader must have fallen in the
    /// current map for the switch to count as decisive. Real
    /// infrastructure events pull the old replica out of the answer
    /// set entirely; flapping keeps both leaders in rotation.
    pub remap_collapse: f64,
    /// Minimum compared hosts for a scope to be judged at all.
    pub min_hosts: u64,
    /// Mean-L1 multiple of the EWMA baseline at which a scope raises
    /// [`ChangeClass::DriftBurst`].
    pub drift_ratio: f64,
    /// Absolute mean-L1 floor for a drift burst (suppresses bursts on
    /// near-zero baselines).
    pub drift_floor: f64,
    /// Relative shift of mean ratio-map support across the lagged
    /// comparison at which a scope raises [`ChangeClass::DriftBurst`]
    /// — the redistribution signal for load-balance pool-width
    /// changes, which move little probability mass per window but
    /// change the answer support of every map.
    pub support_ratio: f64,
    /// EWMA weight of the newest window in the baseline.
    pub ewma_alpha: f64,
    /// Windows consumed before any detection may fire (baseline
    /// formation).
    pub warmup_windows: u64,
    /// Windows a `(class, scope)` stays silent after raising.
    pub cooldown_windows: u64,
    /// Hosts substantially adopting never-seen replicas at which
    /// [`ChangeClass::NewReplicas`] fires.
    pub fresh_hosts: u64,
    /// Minimum ratio a never-seen key must reach in a host's map for
    /// that host to count as adopting it. Filters rotation-tail first
    /// sightings.
    pub fresh_weight: f64,
    /// Snapshot lag each window compares across: window `i` pairs
    /// snapshot `i - lag_windows` (clamped to the first) with snapshot
    /// `i`. A step change that the probe window smears over several
    /// intervals accumulates back into one comparison when the lag
    /// spans the smear; `1` compares consecutive snapshots.
    pub lag_windows: u64,
    /// Cluster distance at which [`ChangeClass::ClusterReshape`] fires.
    pub churn_threshold: f64,
    /// Clustering for the churn signal; `None` skips the (quadratic)
    /// clustering pass.
    pub smf: Option<SmfConfig>,
}

impl DetectConfig {
    /// A scan of `[start, end]` at `interval` with the default
    /// thresholds, calibrated on the standard event suite so that every
    /// scripted event is detected with zero false alarms under natural
    /// network dynamics (route epochs, diurnal swing, measurement
    /// noise). Clustering is off by default; enable it to also raise
    /// [`ChangeClass::ClusterReshape`].
    pub fn new(start: SimTime, end: SimTime, interval: SimDuration) -> Self {
        DetectConfig {
            start,
            end,
            interval,
            remap_fraction: 0.25,
            remap_margin: 0.25,
            remap_collapse: 0.1,
            min_hosts: 6,
            drift_ratio: 2.5,
            drift_floor: 0.4,
            support_ratio: 0.25,
            ewma_alpha: 0.3,
            warmup_windows: 9,
            cooldown_windows: 4,
            fresh_hosts: 4,
            fresh_weight: 0.25,
            lag_windows: 4,
            churn_threshold: 0.45,
            smf: None,
        }
    }

    fn validate(&self) {
        assert!(self.end > self.start, "detect scan needs end > start");
        assert!(
            self.interval.as_millis() > 0,
            "detect scan needs a positive interval"
        );
        assert!(
            self.remap_fraction > 0.0 && self.remap_fraction <= 1.0,
            "remap fraction must be in (0, 1]"
        );
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        assert!(
            self.drift_ratio >= 1.0,
            "drift ratio must be at least 1 (a burst is *above* baseline)"
        );
        assert!(
            (0.0..1.0).contains(&self.remap_margin)
                && (0.0..=1.0).contains(&self.remap_collapse)
                && (0.0..1.0).contains(&self.fresh_weight),
            "remap margin, collapse, and fresh weight are ratios in [0, 1]"
        );
        assert!(
            self.drift_floor >= 0.0 && self.churn_threshold >= 0.0 && self.support_ratio >= 0.0,
            "thresholds must be non-negative"
        );
        assert!(self.lag_windows >= 1, "lag must span at least one window");
    }
}

/// The streaming core: push windows, collect raised changes.
///
/// State is per-scope EWMA baselines plus per-(class, scope) cooldowns;
/// everything is deterministic in the input stream.
#[derive(Clone, Debug)]
pub struct ChangeDetector {
    cfg: DetectConfig,
    baselines: BTreeMap<String, f64>,
    cooldowns: BTreeMap<(ChangeClass, String), u64>,
    windows_seen: u64,
}

impl ChangeDetector {
    /// A detector with `cfg`'s thresholds.
    pub fn new(cfg: &DetectConfig) -> Self {
        cfg.validate();
        ChangeDetector {
            cfg: cfg.clone(),
            baselines: BTreeMap::new(),
            cooldowns: BTreeMap::new(),
            windows_seen: 0,
        }
    }

    /// Windows consumed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// The current EWMA L1 baseline for `scope`, if formed.
    pub fn baseline(&self, scope: &str) -> Option<f64> {
        self.baselines.get(scope).copied()
    }

    fn in_cooldown(&self, class: ChangeClass, scope: &str) -> bool {
        self.cooldowns
            .get(&(class, scope.to_owned()))
            .is_some_and(|left| *left > 0)
    }

    fn arm_cooldown(&mut self, class: ChangeClass, scope: &str) {
        self.cooldowns
            .insert((class, scope.to_owned()), self.cfg.cooldown_windows);
    }

    /// Consumes one window of the stream and returns the changes it
    /// raises, deterministically ordered (global first, then scopes in
    /// label order, classes in taxonomy order).
    pub fn push(&mut self, window: &DetectWindow) -> Vec<DetectedChange> {
        self.windows_seen += 1;
        let warm = self.windows_seen > self.cfg.warmup_windows;
        for left in self.cooldowns.values_mut() {
            *left = left.saturating_sub(1);
        }
        let mut raised = Vec::new();

        // A scope-wide signal subsumes its regional echoes: when the
        // global group crosses a threshold, only the global change is
        // raised for that class.
        let global_remap = window
            .group("global")
            .is_some_and(|g| self.remap_condition(g));
        let global_burst = window
            .group("global")
            .is_some_and(|g| self.burst_condition(g));
        // NewReplicas goes the other way: fresh keys are inherently
        // localized (a footprint grows *somewhere*), so a regional
        // detection subsumes the global echo, not vice versa.
        let regional_fresh = window
            .groups
            .iter()
            .any(|g| g.scope != "global" && self.fresh_condition(g));

        for group in &window.groups {
            let is_global = group.scope == "global";
            let remap = self.remap_condition(group);
            let burst = self.burst_condition(group);
            let fresh = self.fresh_condition(group);
            if remap && (is_global || !global_remap) {
                self.raise(
                    &mut raised,
                    warm,
                    window,
                    group,
                    ChangeClass::MassRemap,
                    group.decisive_changed,
                    group.decisive_changed_fraction,
                    group.changed_to.clone(),
                );
            }
            if burst && (is_global || !global_burst) {
                self.raise(
                    &mut raised,
                    warm,
                    window,
                    group,
                    ChangeClass::DriftBurst,
                    group.hosts_compared,
                    group.mean_l1,
                    Vec::new(),
                );
            }
            if fresh && (!is_global || !regional_fresh) {
                self.raise(
                    &mut raised,
                    warm,
                    window,
                    group,
                    ChangeClass::NewReplicas,
                    group.fresh_replica_hosts,
                    group.fresh_replica_hosts as f64,
                    group.fresh_keys.clone(),
                );
            }
            // Baseline update: quiet windows track the scope's natural
            // movement. A window whose anomaly is still *unreported*
            // (condition holds, no cooldown armed yet) freezes the
            // baseline so the event is not absorbed into "normal";
            // once reported, the EWMA resumes and adopts the new
            // regime during the cooldown.
            let remap_pending = remap && !self.in_cooldown(ChangeClass::MassRemap, &group.scope);
            let burst_pending = burst && !self.in_cooldown(ChangeClass::DriftBurst, &group.scope);
            if !remap_pending && !burst_pending {
                let alpha = self.cfg.ewma_alpha;
                let baseline = self
                    .baselines
                    .entry(group.scope.clone())
                    .or_insert(group.mean_l1);
                *baseline = alpha * group.mean_l1 + (1.0 - alpha) * *baseline;
            }
        }

        // A raised global remap or burst is a regime change for every
        // region: cool down and re-baseline all scopes for that class
        // so the regional echoes of the same event do not fire again
        // once the global signal has settled.
        let global_classes: Vec<ChangeClass> = raised
            .iter()
            .filter(|c| {
                c.scope == "global"
                    && matches!(c.class, ChangeClass::MassRemap | ChangeClass::DriftBurst)
            })
            .map(|c| c.class)
            .collect();
        for class in global_classes {
            for group in &window.groups {
                self.arm_cooldown(class, &group.scope);
                self.baselines.insert(group.scope.clone(), group.mean_l1);
            }
        }

        if window.cluster_distance >= self.cfg.churn_threshold
            && window.cluster_distance >= 0.0
            && warm
            && !self.in_cooldown(ChangeClass::ClusterReshape, "global")
        {
            self.arm_cooldown(ChangeClass::ClusterReshape, "global");
            let hosts = window.group("global").map_or(0, |g| g.hosts_compared);
            raised.push(DetectedChange {
                onset_ms: window.from_ms,
                detected_ms: window.to_ms,
                class: ChangeClass::ClusterReshape,
                scope: "global".to_owned(),
                hosts_affected: hosts,
                magnitude: window.cluster_distance,
                replicas: Vec::new(),
            });
        }
        raised
    }

    fn remap_condition(&self, g: &GroupWindow) -> bool {
        g.hosts_compared >= self.cfg.min_hosts
            && g.decisive_changed_fraction >= self.cfg.remap_fraction
    }

    fn burst_condition(&self, g: &GroupWindow) -> bool {
        if g.hosts_compared < self.cfg.min_hosts {
            return false;
        }
        // Level shift: the window's mean L1 movement far exceeds the
        // scope's quiet-time EWMA baseline.
        let level = self.baselines.get(&g.scope).is_some_and(|baseline| {
            g.mean_l1 >= self.cfg.drift_floor && g.mean_l1 >= self.cfg.drift_ratio * baseline
        });
        // Support shift: the mean number of distinct replicas per
        // ratio map jumps across the lagged comparison. A wider (or
        // narrower) load-balancer pool redistributes mass across more
        // (or fewer) keys without necessarily moving the strongest
        // entry, so L1 alone misses it. Pool width is a CDN-wide
        // policy, so the signal is judged on the global scope only —
        // per-region support flaps naturally as hosts near the
        // coverage boundary switch between load-balanced and
        // scattered answer modes.
        let support = g.scope == "global"
            && g.prev_support > 0.0
            && (g.mean_support - g.prev_support).abs() / g.prev_support >= self.cfg.support_ratio;
        level || support
    }

    fn fresh_condition(&self, g: &GroupWindow) -> bool {
        g.fresh_replica_hosts >= self.cfg.fresh_hosts
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "each detector condition passes the class, host count, magnitude and replicas of its change"
    )]
    fn raise(
        &mut self,
        raised: &mut Vec<DetectedChange>,
        warm: bool,
        window: &DetectWindow,
        group: &GroupWindow,
        class: ChangeClass,
        hosts: u64,
        magnitude: f64,
        replicas: Vec<String>,
    ) {
        // The condition held, so the baseline freezes either way; the
        // record is only emitted when warm and out of cooldown.
        if !warm || self.in_cooldown(class, &group.scope) {
            return;
        }
        self.arm_cooldown(class, &group.scope);
        // Re-baseline to the new regime: a permanent step (a narrowed
        // load-balance pool, a flipped replica set) becomes the new
        // normal once reported, instead of re-firing every time the
        // cooldown expires against a forever-frozen baseline.
        self.baselines.insert(group.scope.clone(), group.mean_l1);
        raised.push(DetectedChange {
            onset_ms: window.from_ms,
            detected_ms: window.to_ms,
            class,
            scope: group.scope.clone(),
            hosts_affected: hosts,
            magnitude,
            replicas,
        });
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

/// Replays `service`'s recorded history through a [`ChangeDetector`].
///
/// `hosts` pairs each host with its scope label (typically the region
/// slug); per-window statistics are computed for every scope plus a
/// synthetic `"global"` scope over all hosts. The scan is read-only and
/// SimTime-keyed, and writes nothing to the time series. Its changes
/// are returned in the report; while metrics are collecting it also
/// bumps `audit.detect.windows` once per window and
/// `audit.detect.changes` once per change raised.
///
/// # Panics
///
/// Panics if the config is degenerate (see [`DetectConfig`] field
/// ranges).
pub fn scan<N, K>(
    service: &CrpService<N, K>,
    hosts: &[(N, String)],
    cfg: &DetectConfig,
) -> DetectionReport
where
    N: Ord + Clone + Debug,
    K: Ord + Clone + Debug,
{
    crp_telemetry::stage!(AUDIT_DETECT_SCAN);
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
        .map(|&t| Snapshot {
            at: t,
            maps: hosts
                .iter()
                .filter_map(|(h, _)| service.ratio_map(h, t).ok().map(|m| (h.clone(), m)))
                .collect(),
            clustering: cfg.smf.as_ref().map(|smf| service.cluster(smf, t)),
        })
        .collect();

    // Keys present in the first snapshot are the known world; anything
    // appearing later is "fresh" from its first sighting until the
    // comparison lag has passed over it, so its adoption (which the
    // probe window smears over several intervals) is observable at
    // substantial weight before freshness expires.
    let mut first_seen: BTreeMap<K, usize> = snapshots
        .first()
        .map(|s| {
            s.maps
                .values()
                .flat_map(|m| m.iter().map(|(k, _)| (k.clone(), 0)))
                .collect()
        })
        .unwrap_or_default();

    let scopes: BTreeSet<&String> = hosts.iter().map(|(_, scope)| scope).collect();
    let mut detector = ChangeDetector::new(cfg);
    let mut windows = Vec::with_capacity(snapshots.len().saturating_sub(1));
    let mut changes: Vec<DetectedChange> = Vec::new();

    let lag = cfg.lag_windows.max(1) as usize;
    for i in 1..snapshots.len() {
        // Lagged pairing: the comparison spans up to `lag` intervals so
        // a step the probe window smears across snapshots accumulates
        // back into one window's statistics.
        let (prev, next) = (&snapshots[i.saturating_sub(lag)], &snapshots[i]);
        for k in next.maps.values().flat_map(|m| m.iter().map(|(k, _)| k)) {
            first_seen.entry(k.clone()).or_insert(i);
        }
        let fresh_now: BTreeSet<K> = next
            .maps
            .values()
            .flat_map(|m| m.iter().map(|(k, _)| k.clone()))
            .filter(|k| {
                let first = first_seen[k];
                first > 0 && i - first < lag
            })
            .collect();

        let mut groups = Vec::with_capacity(scopes.len() + 1);
        groups.push(group_stats(
            "global",
            hosts.iter().map(|(h, _)| h),
            &prev.maps,
            &next.maps,
            &fresh_now,
            &detector,
        ));
        for scope in &scopes {
            groups.push(group_stats(
                scope,
                hosts.iter().filter(|(_, s)| &s == scope).map(|(h, _)| h),
                &prev.maps,
                &next.maps,
                &fresh_now,
                &detector,
            ));
        }

        let common: Vec<N> = prev
            .maps
            .keys()
            .filter(|h| next.maps.contains_key(*h))
            .cloned()
            .collect();
        let cluster_distance = match (&prev.clustering, &next.clustering) {
            (Some(c0), Some(c1)) if common.len() >= 2 => 1.0 - rand_index(c0, c1, &common),
            _ => -1.0,
        };

        let window = DetectWindow {
            from_ms: prev.at.as_millis(),
            to_ms: next.at.as_millis(),
            cluster_distance,
            groups,
        };

        let raised = detector.push(&window);
        crp_telemetry::counter_add("audit.detect.windows", 1);
        for _ in &raised {
            crp_telemetry::counter_add("audit.detect.changes", 1);
        }
        changes.extend(raised);
        windows.push(window);
    }

    DetectionReport {
        interval_ms: cfg.interval.as_millis(),
        snapshots: snapshots.len() as u64,
        windows,
        changes,
        clustering_bytes: snapshots
            .iter()
            .filter_map(|s| s.clustering.as_ref())
            .map(|c| c.mem_footprint() as u64)
            .collect(),
    }
}

/// Builds one scope's window statistics. Free function (not a closure)
/// so the snapshot borrows stay simple.
fn group_stats<'a, N, K>(
    scope: &str,
    members: impl Iterator<Item = &'a N>,
    prev_maps: &'a BTreeMap<N, RatioMap<K>>,
    next_maps: &'a BTreeMap<N, RatioMap<K>>,
    fresh_now: &BTreeSet<K>,
    detector: &ChangeDetector,
) -> GroupWindow
where
    N: Ord + Clone + Debug + 'a,
    K: Ord + Clone + Debug,
{
    let margin = detector.cfg.remap_margin;
    let collapse = detector.cfg.remap_collapse;
    let fresh_weight = detector.cfg.fresh_weight;
    let mut compared = 0u64;
    let mut l1_sum = 0.0;
    let mut drifted = 0u64;
    let mut support_sum = 0u64;
    let mut prev_support_sum = 0u64;
    let mut changed = 0u64;
    let mut decisive = 0u64;
    let mut fresh_hosts = 0u64;
    let mut destinations: BTreeMap<&K, u64> = BTreeMap::new();
    for host in members {
        let (Some(m0), Some(m1)) = (prev_maps.get(host), next_maps.get(host)) else {
            continue;
        };
        compared += 1;
        let l1 = m0.l1_distance(m1);
        l1_sum += l1;
        if l1 > DRIFT_L1 {
            drifted += 1;
        }
        support_sum += m1.len() as u64;
        prev_support_sum += m0.len() as u64;
        let old_strongest = m0.strongest().0;
        let new_strongest = m1.strongest().0;
        if old_strongest != new_strongest {
            changed += 1;
            // A switch is decisive only when the new leader outweighs
            // the old leader's *current* ratio by a margin AND the old
            // leader has all but left the answer set. Real events pull
            // the displaced replica's share toward zero; rotation
            // flapping swaps near-equal leaders that both stay in
            // rotation, and fails one of the two tests.
            let old_now = m1.get(old_strongest);
            if m1.get(new_strongest) - old_now >= margin && old_now <= collapse {
                decisive += 1;
                *destinations.entry(new_strongest).or_insert(0) += 1;
            }
        }
        // A never-before-seen key marks the host only once it carries
        // substantial mass; single rotation-tail sightings don't.
        if m1
            .iter()
            .any(|(k, v)| v >= fresh_weight && fresh_now.contains(k))
        {
            fresh_hosts += 1;
        }
    }
    let mut top: Vec<(&K, u64)> = destinations.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let frac = |n: u64| {
        if compared == 0 {
            0.0
        } else {
            n as f64 / compared as f64
        }
    };
    GroupWindow {
        scope: scope.to_owned(),
        hosts_compared: compared,
        mean_l1: if compared == 0 {
            0.0
        } else {
            l1_sum / compared as f64
        },
        drifted_hosts: drifted,
        drifted_fraction: frac(drifted),
        strongest_changed: changed,
        strongest_changed_fraction: frac(changed),
        decisive_changed: decisive,
        decisive_changed_fraction: frac(decisive),
        fresh_replica_hosts: fresh_hosts,
        mean_support: if compared == 0 {
            0.0
        } else {
            support_sum as f64 / compared as f64
        },
        baseline_l1: detector.baseline(scope).unwrap_or(0.0),
        prev_support: if compared == 0 {
            0.0
        } else {
            prev_support_sum as f64 / compared as f64
        },
        changed_to: top.iter().take(8).map(|(k, _)| format!("{k:?}")).collect(),
        fresh_keys: fresh_now.iter().take(8).map(|k| format!("{k:?}")).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_core::{SimilarityMetric, WindowPolicy};

    fn hour(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    fn cfg() -> DetectConfig {
        let mut c = DetectConfig::new(hour(0), hour(12), SimDuration::from_hours(1));
        c.min_hosts = 2;
        c.fresh_hosts = 2;
        // Short fixtures: only 12 windows, so a short warmup; and the
        // 3-of-11 regional fixtures rely on the global fraction staying
        // below threshold so detections localize.
        c.warmup_windows = 3;
        c.remap_fraction = 0.3;
        // Consecutive snapshots: these fixtures flip within one
        // interval, so the tests pin exact onset/detection times.
        c.lag_windows = 1;
        c
    }

    /// Hosts in two scopes; scope "east" flips strongest replica at
    /// hour 8, scope "west" stays put.
    fn service_with_regional_flip() -> (
        CrpService<&'static str, &'static str>,
        Vec<(&'static str, String)>,
    ) {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        let east = ["e1", "e2", "e3"];
        // A quiet majority keeps the global strongest-changed fraction
        // below threshold, so the detection must localize to "east".
        let west = ["w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"];
        for m in 0..72u64 {
            let t = SimTime::from_mins(m * 10);
            let flipped = t >= hour(8);
            for h in east {
                svc.record(h, t, vec![if flipped { "r-new" } else { "r-east" }]);
            }
            for h in west {
                svc.record(h, t, vec!["r-west"]);
            }
        }
        let mut hosts: Vec<(&'static str, String)> = Vec::new();
        hosts.extend(east.map(|h| (h, "east".to_owned())));
        hosts.extend(west.map(|h| (h, "west".to_owned())));
        (svc, hosts)
    }

    #[test]
    fn regional_flip_is_detected_and_localized() {
        let (svc, hosts) = service_with_regional_flip();
        let report = scan(&svc, &hosts, &cfg());
        let remaps: Vec<_> = report.of_class(ChangeClass::MassRemap).collect();
        assert!(!remaps.is_empty(), "{report:?}");
        // Localized to the east scope, at the hour-8→9 window, pointing
        // at the new replica.
        let hit = remaps[0];
        assert_eq!(hit.scope, "east");
        assert_eq!(hit.onset_ms, hour(8).as_millis());
        assert_eq!(hit.detected_ms, hour(9).as_millis());
        assert_eq!(hit.hosts_affected, 3);
        assert!(hit.replicas.iter().any(|r| r.contains("r-new")), "{hit:?}");
        // No detection blames the quiet west scope.
        assert!(report.changes.iter().all(|c| c.scope != "west"));
        // The flip also surfaces fresh keys ("r-new" was never seen).
        let fresh: Vec<_> = report.of_class(ChangeClass::NewReplicas).collect();
        assert!(!fresh.is_empty());
        assert_eq!(fresh[0].scope, "east");
    }

    #[test]
    fn stable_history_raises_nothing() {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        for h in ["a", "b", "c"] {
            for m in 0..72u64 {
                svc.record(h, SimTime::from_mins(m * 10), vec!["r1"]);
            }
        }
        let hosts: Vec<(&str, String)> = ["a", "b", "c"]
            .iter()
            .map(|h| (*h, "east".to_owned()))
            .collect();
        let report = scan(&svc, &hosts, &cfg());
        assert!(report.changes.is_empty(), "{:?}", report.changes);
        assert_eq!(report.windows.len() as u64, report.snapshots - 1);
    }

    /// Three hosts in one scope, probed every 10 minutes for 4 hours
    /// under a window policy short enough that a change shows in the
    /// maps within the hour; `replica(m)` answers probe `m`.
    fn three_hosts(
        replica: fn(u64) -> &'static str,
    ) -> (
        CrpService<&'static str, &'static str>,
        Vec<(&'static str, String)>,
    ) {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        for h in ["a", "b", "c"] {
            for m in 0..24u64 {
                svc.record(h, SimTime::from_mins(m * 10), vec![replica(m)]);
            }
        }
        let hosts = ["a", "b", "c"].map(|h| (h, "east".to_owned())).to_vec();
        (svc, hosts)
    }

    #[test]
    fn drifted_fraction_marks_only_the_flip_window() {
        // Every host flips from "r1" to "r2" at hour 2.
        let (svc, hosts) = three_hosts(|m| if m < 12 { "r1" } else { "r2" });
        let mut c = DetectConfig::new(hour(1), hour(4), SimDuration::from_hours(1));
        c.lag_windows = 1;
        let report = scan(&svc, &hosts, &c);
        let global: Vec<&GroupWindow> = report
            .windows
            .iter()
            .filter_map(|w| w.group("global"))
            .collect();
        let drifted: Vec<f64> = global.iter().map(|g| g.drifted_fraction).collect();
        assert_eq!(drifted, [0.0, 1.0, 0.0], "{report:?}");
        assert_eq!(global[1].drifted_hosts, 3);
        assert_eq!(global[1].strongest_changed, 3);
        assert_eq!(report.max_drifted_fraction(), 1.0);
        // Clustering is off by default: no churn, no footprints.
        assert!(report.windows.iter().all(|w| w.cluster_distance < 0.0));
        assert!(report.clustering_bytes.is_empty());
    }

    #[test]
    fn stable_history_has_no_movement() {
        let (svc, hosts) = three_hosts(|_| "r1");
        let mut c = DetectConfig::new(hour(1), hour(4), SimDuration::from_hours(1));
        c.lag_windows = 1;
        c.smf = Some(SmfConfig::paper(0.1));
        let report = scan(&svc, &hosts, &c);
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.clustering_bytes.len(), 4, "one per snapshot");
        for w in &report.windows {
            for g in &w.groups {
                assert_eq!(g.mean_l1, 0.0, "{g:?}");
                assert_eq!(g.strongest_changed, 0, "{g:?}");
                assert_eq!(g.drifted_fraction, 0.0, "{g:?}");
            }
            // Identical snapshots cluster identically: zero churn.
            assert!(w.cluster_distance.abs() < 1e-12, "{w:?}");
        }
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
    fn warmup_suppresses_initial_transient() {
        // The flip happens inside the warmup window: nothing may fire.
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        for h in ["a", "b", "c"] {
            for m in 0..72u64 {
                let t = SimTime::from_mins(m * 10);
                let replica = if t >= hour(1) { "r2" } else { "r1" };
                svc.record(h, t, vec![replica]);
            }
        }
        let hosts: Vec<(&str, String)> = ["a", "b", "c"]
            .iter()
            .map(|h| (*h, "east".to_owned()))
            .collect();
        let report = scan(&svc, &hosts, &cfg());
        assert!(
            report.of_class(ChangeClass::MassRemap).next().is_none(),
            "{:?}",
            report.changes
        );
    }

    #[test]
    fn cooldown_coalesces_sustained_events() {
        // A flip whose window-policy tail keeps maps moving for several
        // windows raises exactly one MassRemap, not one per window.
        let (svc, hosts) = service_with_regional_flip();
        let mut c = cfg();
        c.cooldown_windows = 4;
        let report = scan(&svc, &hosts, &c);
        assert_eq!(report.of_class(ChangeClass::MassRemap).count(), 1);
    }

    #[test]
    fn detector_stream_matches_batch_scan() {
        // Pushing the report's own windows through a fresh detector
        // reproduces the change list — the batch scan is the stream.
        let (svc, hosts) = service_with_regional_flip();
        let report = scan(&svc, &hosts, &cfg());
        let mut detector = ChangeDetector::new(&cfg());
        let mut replayed = Vec::new();
        for w in &report.windows {
            replayed.extend(detector.push(w));
        }
        assert_eq!(replayed, report.changes);
    }

    #[test]
    fn scan_is_read_only_and_deterministic() {
        let (svc, hosts) = service_with_regional_flip();
        let before = svc.ratio_map(&"e1", hour(12)).unwrap();
        let r1 = scan(&svc, &hosts, &cfg());
        let r2 = scan(&svc, &hosts, &cfg());
        assert_eq!(r1, r2);
        assert_eq!(svc.ratio_map(&"e1", hour(12)).unwrap(), before);
    }

    #[test]
    fn report_round_trips_through_json() {
        let (svc, hosts) = service_with_regional_flip();
        let report = scan(&svc, &hosts, &cfg());
        let text = serde_json::to_string(&report).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        let back = DetectionReport::from_value(&value).expect("shape");
        assert_eq!(back, report);
    }

    #[test]
    fn lagged_comparison_accumulates_smeared_step() {
        // Nine hosts flip in three batches an hour apart: consecutive
        // windows each see only a third of the shift, below a 0.5
        // remap fraction, but a lag spanning the smear accumulates the
        // full step into one comparison.
        let mut svc = CrpService::new(WindowPolicy::LastProbes(4), SimilarityMetric::Cosine);
        let hosts: Vec<(String, String)> = (0..9)
            .map(|i| (format!("h{i}"), "east".to_owned()))
            .collect();
        for m in 0..72u64 {
            let t = SimTime::from_mins(m * 10);
            for (i, (h, _)) in hosts.iter().enumerate() {
                let flip_at = hour(6 + i as u64 / 3);
                svc.record(
                    h.clone(),
                    t,
                    vec![if t >= flip_at { "r-new" } else { "r-old" }],
                );
            }
        }
        let mut consecutive = cfg();
        consecutive.remap_fraction = 0.5;
        let mut lagged = consecutive.clone();
        lagged.lag_windows = 3;
        let miss = scan(&svc, &hosts, &consecutive);
        assert!(
            miss.of_class(ChangeClass::MassRemap).next().is_none(),
            "{:?}",
            miss.changes
        );
        let hit = scan(&svc, &hosts, &lagged);
        let remap = hit
            .of_class(ChangeClass::MassRemap)
            .next()
            .unwrap_or_else(|| panic!("{:?}", hit.changes));
        // Every host flipped, so the global group subsumes the echo;
        // it fires at the first window where the accumulated fraction
        // crosses 0.5 (two of the three batches in view).
        assert_eq!(remap.scope, "global");
        assert!(remap.hosts_affected >= 6, "{remap:?}");
    }

    #[test]
    #[should_panic(expected = "end > start")]
    fn degenerate_range_rejected() {
        let svc: CrpService<&str, &str> =
            CrpService::new(WindowPolicy::All, SimilarityMetric::Cosine);
        let c = DetectConfig::new(hour(2), hour(2), SimDuration::from_hours(1));
        let _ = scan(&svc, &[], &c);
    }
}
