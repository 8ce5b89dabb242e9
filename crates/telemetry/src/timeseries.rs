//! Deterministic, allocation-bounded time-series store.
//!
//! The summary layer ([`crate::TelemetrySummary`]) answers "what happened
//! over the whole run"; this module answers "what was happening at hour
//! 30". Metrics are aggregated into fixed windows keyed on **simulated
//! time** and held in ring buffers — one ring per retention tier — so
//! memory is bounded by configuration, never by campaign length, and the
//! JSON export of a seeded run is byte-identical across executions.
//!
//! Each window carries count/sum/min/max plus a bucketed histogram over
//! the store-wide bounds, and *exemplars*: the most recent sampled
//! [`crate::trace`] ids that landed in each bucket, so a tail-latency
//! spike in a window links directly to the span trees of the offending
//! observations.
//!
//! Like the collector, the store has a process-global, atomically gated
//! instance: [`start`], [`record`]/[`bump`], [`finish`]. When disabled
//! every call is one relaxed atomic load.

use crate::metrics::default_bounds;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// One retention tier: `slots` ring-buffered windows of `window_ms`
/// simulated milliseconds each (retention = `slots × window_ms`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Window width in simulated milliseconds.
    pub window_ms: u64,
    /// Number of windows retained.
    pub slots: usize,
}

/// Configuration of a [`TimeSeriesStore`].
#[derive(Clone, Debug)]
pub struct TimeSeriesConfig {
    /// Retention tiers, coarsest last. Every sample lands in every tier.
    pub tiers: Vec<TierSpec>,
    /// Histogram bucket upper bounds shared by all series.
    pub bounds: Vec<f64>,
    /// Maximum number of distinct series; further names are dropped (and
    /// counted) rather than allocated.
    pub max_series: usize,
    /// Exemplar trace ids retained per bucket per window (latest wins).
    pub exemplars_per_bucket: usize,
}

impl Default for TimeSeriesConfig {
    /// Tiers sized for probe-interval campaigns (the experiments probe
    /// every 10 simulated minutes for up to 36 hours): 1-minute windows
    /// for 2 hours, 10-minute windows for 24 hours, 1-hour windows for
    /// 96 hours.
    fn default() -> Self {
        TimeSeriesConfig {
            tiers: vec![
                TierSpec {
                    window_ms: 60_000,
                    slots: 120,
                },
                TierSpec {
                    window_ms: 600_000,
                    slots: 144,
                },
                TierSpec {
                    window_ms: 3_600_000,
                    slots: 96,
                },
            ],
            bounds: default_bounds(),
            max_series: 128,
            exemplars_per_bucket: 4,
        }
    }
}

/// One aggregated window (or a whole-run rollup when `start_ms` is 0 and
/// `window_ms` covers the run).
#[derive(Clone, Debug)]
struct Window {
    /// Window start, simulated milliseconds.
    start_ms: u64,
    /// Samples aggregated.
    count: u64,
    /// Sum of sample values.
    sum: f64,
    /// Smallest sample (0 when empty).
    min: f64,
    /// Largest sample (0 when empty).
    max: f64,
    /// Per-bucket counts over the store bounds, overflow bucket last.
    buckets: Vec<u64>,
    /// `(bucket index, trace id)` exemplars, latest wins per bucket.
    exemplars: Vec<(usize, u64)>,
}

impl Window {
    fn empty(n_buckets: usize) -> Self {
        Window {
            start_ms: 0,
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; n_buckets],
            exemplars: Vec::new(),
        }
    }

    fn reset(&mut self, start_ms: u64) {
        self.start_ms = start_ms;
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.exemplars.clear();
    }

    fn observe(&mut self, value: f64, bucket: usize, exemplar: u64, max_exemplars: usize) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if let Some(b) = self.buckets.get_mut(bucket) {
            *b += 1;
        }
        if exemplar != 0 && max_exemplars > 0 {
            if let Some(slot) = self.exemplars.iter_mut().find(|(b, _)| *b == bucket) {
                slot.1 = exemplar; // latest wins within a bucket
            } else if self.exemplars.len() < max_exemplars * self.buckets.len() {
                self.exemplars.push((bucket, exemplar));
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Tier {
    window_ms: u64,
    slots: Vec<Window>,
}

impl Tier {
    fn new(spec: TierSpec, n_buckets: usize) -> Self {
        Tier {
            window_ms: spec.window_ms.max(1),
            slots: vec![Window::empty(n_buckets); spec.slots.max(1)],
        }
    }

    /// Returns `false` when the sample is older than the slot currently
    /// occupying its ring position (late arrival past retention).
    fn record(&mut self, time_ms: u64, value: f64, bucket: usize, ex: u64, max_ex: usize) -> bool {
        let start = time_ms - time_ms % self.window_ms;
        let idx = (time_ms / self.window_ms) as usize % self.slots.len();
        let Some(slot) = self.slots.get_mut(idx) else {
            return false;
        };
        if (slot.count == 0 && slot.start_ms == 0) || slot.start_ms < start {
            slot.reset(start);
        } else if slot.start_ms > start {
            return false;
        }
        slot.observe(value, bucket, ex, max_ex);
        true
    }

    /// Occupied windows in ascending start order.
    fn windows(&self) -> Vec<&Window> {
        let mut ws: Vec<&Window> = self.slots.iter().filter(|w| w.count > 0).collect();
        ws.sort_by_key(|w| w.start_ms);
        ws
    }
}

/// One metric's timeline: a whole-run rollup plus per-tier rings.
#[derive(Clone, Debug)]
struct Series {
    total: Window,
    tiers: Vec<Tier>,
}

/// The store: series by name, with bounded cardinality.
#[derive(Debug)]
pub struct TimeSeriesStore {
    config: TimeSeriesConfig,
    series: BTreeMap<String, Series>,
    late_dropped: u64,
    series_dropped: u64,
}

impl TimeSeriesStore {
    /// Creates an empty store.
    pub fn new(config: TimeSeriesConfig) -> Self {
        TimeSeriesStore {
            config,
            series: BTreeMap::new(),
            late_dropped: 0,
            series_dropped: 0,
        }
    }

    /// Records one sample for `name` at simulated time `time_ms`.
    /// `exemplar` is a raw trace id (0 = none). NaN and negative values
    /// are dropped, mirroring the collector's histogram guard.
    pub fn record(&mut self, time_ms: u64, name: &str, value: f64, exemplar: u64) {
        if value.is_nan() || value < 0.0 {
            return;
        }
        let bucket = self.config.bounds.partition_point(|b| *b < value);
        let max_ex = self.config.exemplars_per_bucket;
        let n_buckets = self.config.bounds.len() + 1;
        let series = match self.series.get_mut(name) {
            Some(s) => s,
            None => {
                if self.series.len() >= self.config.max_series {
                    self.series_dropped += 1;
                    return;
                }
                let tiers = self
                    .config
                    .tiers
                    .iter()
                    .map(|spec| Tier::new(*spec, n_buckets))
                    .collect();
                self.series.entry(name.to_owned()).or_insert(Series {
                    total: Window::empty(n_buckets),
                    tiers,
                })
            }
        };
        series.total.observe(value, bucket, exemplar, max_ex);
        for tier in &mut series.tiers {
            if !tier.record(time_ms, value, bucket, exemplar, max_ex) {
                self.late_dropped += 1;
            }
        }
    }

    /// Condenses the store into its serializable export form. Only
    /// occupied windows are exported, ascending by start time, so the
    /// JSON is deterministic for a seeded run.
    pub fn export(&self) -> TimeSeriesExport {
        TimeSeriesExport {
            bounds: self.config.bounds.clone(),
            tiers: self.config.tiers.clone(),
            late_dropped: self.late_dropped,
            series_dropped: self.series_dropped,
            series: self
                .series
                .iter()
                .map(|(name, s)| SeriesExport {
                    name: name.clone(),
                    total: export_window(&s.total),
                    tiers: s
                        .tiers
                        .iter()
                        .map(|t| TierExport {
                            window_ms: t.window_ms,
                            windows: t.windows().into_iter().map(export_window).collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn export_window(w: &Window) -> WindowExport {
    WindowExport {
        start_ms: w.start_ms,
        count: w.count,
        sum: w.sum,
        min: w.min,
        max: w.max,
        buckets: w.buckets.clone(),
        exemplars: w
            .exemplars
            .iter()
            .map(|(bucket, id)| ExemplarExport {
                bucket: *bucket,
                trace: format!("{id:016x}"),
            })
            .collect(),
    }
}

/// Serializable form of the whole store.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeSeriesExport {
    /// Histogram bucket bounds shared by every window.
    pub bounds: Vec<f64>,
    /// The configured retention tiers.
    pub tiers: Vec<TierSpec>,
    /// Samples dropped as too old for their ring slot.
    pub late_dropped: u64,
    /// Samples dropped past the series cap.
    pub series_dropped: u64,
    /// Per-metric timelines, name-sorted.
    pub series: Vec<SeriesExport>,
}

impl TimeSeriesExport {
    /// The exported series for `name`, if present.
    pub fn series(&self, name: &str) -> Option<&SeriesExport> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Serializable form of one series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesExport {
    /// Metric name.
    pub name: String,
    /// Whole-run rollup.
    pub total: WindowExport,
    /// Per-tier occupied windows, ascending by start.
    pub tiers: Vec<TierExport>,
}

/// Serializable form of one retention tier.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TierExport {
    /// Window width in simulated milliseconds.
    pub window_ms: u64,
    /// Occupied windows, ascending by start.
    pub windows: Vec<WindowExport>,
}

/// Serializable form of one window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowExport {
    /// Window start, simulated milliseconds.
    pub start_ms: u64,
    /// Samples aggregated.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Per-bucket counts, overflow last.
    pub buckets: Vec<u64>,
    /// Bucket exemplars (trace ids as 16-digit hex).
    pub exemplars: Vec<ExemplarExport>,
}

impl WindowExport {
    /// The `q`-quantile estimate against `bounds` (upper bound of the
    /// rank bucket, clamped to the observed range), or `None` when the
    /// window is empty or `q` is outside `(0, 1]`.
    pub fn quantile(&self, bounds: &[f64], q: f64) -> Option<f64> {
        let count = self.count;
        if count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let mut idx = self.buckets.len().saturating_sub(1);
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                idx = i;
                break;
            }
        }
        let raw = bounds.get(idx).copied().unwrap_or(self.max);
        Some(raw.clamp(self.min, self.max))
    }
}

/// One exemplar: a bucket index and the trace id that landed in it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExemplarExport {
    /// Bucket index into the shared bounds (last = overflow).
    pub bucket: usize,
    /// Trace id, 16 hex digits.
    pub trace: String,
}

static STORE: Mutex<Option<TimeSeriesStore>> = Mutex::new(None);

fn store_slot() -> MutexGuard<'static, Option<TimeSeriesStore>> {
    STORE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs a process-global store, replacing any previous one.
pub fn start(config: TimeSeriesConfig) {
    let mut slot = store_slot();
    *slot = Some(TimeSeriesStore::new(config));
    crate::stage::arm(crate::stage::TIMESERIES);
}

/// Whether the global store is live. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    crate::stage::armed(crate::stage::TIMESERIES)
}

/// Tears down the global store and returns it, or `None` if not live.
pub fn finish() -> Option<TimeSeriesStore> {
    let mut slot = store_slot();
    crate::stage::disarm(crate::stage::TIMESERIES);
    slot.take()
}

/// Records a sample into the global store, tagging it with the current
/// trace (if one is active and sampled). No-op when disabled.
#[inline]
pub fn record(time_ms: u64, name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let exemplar = crate::trace::current_raw();
    if let Some(s) = store_slot().as_mut() {
        s.record(time_ms, name, value, exemplar);
    }
}

/// Records a counter increment as a sample of value `delta` — per-window
/// `sum` is then the windowed rate. No-op when disabled.
#[inline]
pub fn bump(time_ms: u64, name: &str, delta: u64) {
    record(time_ms, name, delta as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimeSeriesConfig {
        TimeSeriesConfig {
            tiers: vec![
                TierSpec {
                    window_ms: 1_000,
                    slots: 4,
                },
                TierSpec {
                    window_ms: 10_000,
                    slots: 4,
                },
            ],
            bounds: vec![1.0, 10.0, 100.0],
            max_series: 3,
            exemplars_per_bucket: 2,
        }
    }

    fn windows(s: &TimeSeriesStore, name: &str, tier: usize) -> Vec<WindowExport> {
        s.export()
            .series(name)
            .map(|x| x.tiers[tier].windows.clone())
            .unwrap_or_default()
    }

    fn total(s: &TimeSeriesStore, name: &str) -> Option<WindowExport> {
        s.export().series(name).map(|x| x.total.clone())
    }

    #[test]
    fn windows_aggregate_by_sim_time() {
        let mut s = TimeSeriesStore::new(cfg());
        s.record(100, "lat", 0.5, 0);
        s.record(900, "lat", 5.0, 0);
        s.record(1_100, "lat", 50.0, 0);
        let fine = windows(&s, "lat", 0);
        assert_eq!(fine.len(), 2);
        assert_eq!(fine[0].start_ms, 0);
        assert_eq!(fine[0].count, 2);
        assert_eq!(fine[1].start_ms, 1_000);
        assert_eq!(fine[1].count, 1);
        let coarse = windows(&s, "lat", 1);
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].count, 3);
        let total = total(&s, "lat").expect("series exists");
        assert_eq!(total.count, 3);
        assert!((total.sum - 55.5).abs() < 1e-12);
    }

    #[test]
    fn ring_evicts_old_windows_and_drops_late_samples() {
        let mut s = TimeSeriesStore::new(cfg());
        // Fine tier: 4 slots of 1s → retention 4s.
        for t in 0..8u64 {
            s.record(t * 1_000, "x", 1.0, 0);
        }
        let fine = windows(&s, "x", 0);
        assert_eq!(fine.len(), 4, "ring holds only the last 4 windows");
        assert_eq!(fine[0].start_ms, 4_000);
        assert_eq!(fine[3].start_ms, 7_000);
        // A sample far in the past hits an occupied newer slot → dropped
        // from that tier, but the whole-run rollup still counts it.
        s.record(3_000, "x", 1.0, 0);
        assert_eq!(s.export().late_dropped, 1);
        assert_eq!(total(&s, "x").map(|w| w.count), Some(9));
    }

    #[test]
    fn series_cap_is_enforced() {
        let mut s = TimeSeriesStore::new(cfg());
        for name in ["a", "b", "c", "d", "e"] {
            s.record(0, name, 1.0, 0);
        }
        let export = s.export();
        let names: Vec<&str> = export.series.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(export.series_dropped, 2);
    }

    #[test]
    fn invalid_values_are_dropped() {
        let mut s = TimeSeriesStore::new(cfg());
        s.record(0, "x", f64::NAN, 0);
        s.record(0, "x", -1.0, 0);
        assert!(s.export().series("x").is_none());
    }

    #[test]
    fn exemplars_latest_wins_per_bucket() {
        let mut s = TimeSeriesStore::new(cfg());
        s.record(0, "lat", 500.0, 7); // overflow bucket
        s.record(10, "lat", 600.0, 9); // same bucket, later trace
        s.record(20, "lat", 0.5, 3); // bucket 0
        let exemplars: Vec<(usize, String)> = total(&s, "lat")
            .expect("series")
            .exemplars
            .into_iter()
            .map(|e| (e.bucket, e.trace))
            .collect();
        assert_eq!(
            exemplars,
            [(3, format!("{:016x}", 9)), (0, format!("{:016x}", 3))]
        );
    }

    #[test]
    fn quantiles_walk_buckets_and_clamp() {
        let mut s = TimeSeriesStore::new(cfg());
        let bounds = [1.0, 10.0, 100.0];
        for v in [0.5, 5.0, 50.0, 50.0] {
            s.record(0, "lat", v, 0);
        }
        let w = total(&s, "lat").expect("series");
        assert_eq!(w.buckets, [1, 1, 2, 0]);
        assert_eq!(w.quantile(&bounds, 0.25), Some(1.0));
        assert_eq!(w.quantile(&bounds, 0.5), Some(10.0));
        assert_eq!(w.quantile(&bounds, 1.0), Some(50.0)); // clamped to max
        assert_eq!(w.quantile(&bounds, 0.0), None);
        assert_eq!(
            export_window(&Window::empty(4)).quantile(&bounds, 0.5),
            None
        );
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let mut s = TimeSeriesStore::new(cfg());
            for t in 0..20u64 {
                s.record(t * 700, "lat", (t % 5) as f64, t % 3);
                s.record(t * 700, "rate", 1.0, 0);
            }
            serde_json::to_string(&s.export()).expect("serialize")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn export_round_trips() {
        let mut s = TimeSeriesStore::new(cfg());
        s.record(1_500, "lat", 3.0, 42);
        let exported = s.export();
        let text = serde_json::to_string(&exported).expect("serialize");
        let back: TimeSeriesExport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, exported);
        assert_eq!(back.series("lat").map(|x| x.total.count), Some(1));
        assert_eq!(
            back.series("lat")
                .map(|x| x.total.exemplars[0].trace.clone()),
            Some("000000000000002a".to_owned())
        );
    }
}
