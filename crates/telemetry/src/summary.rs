//! The deterministic, serializable digest of one instrumented run.
//!
//! A [`TelemetrySummary`] is produced when a collector is shut down. All
//! collections are sorted by metric name, so two runs of the same seeded
//! experiment serialize to byte-identical JSON.

use crate::metrics::HistogramSummary;
use serde::{Deserialize, Serialize};

/// One named monotonic counter.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Counter name, dotted-path style (`core.similarity.calls`).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One named gauge (last value written wins).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Gauge name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// Aggregated metrics for one experiment run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Experiment name (usually the eval binary name).
    pub experiment: String,
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

impl TelemetrySummary {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram digest by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds `other` into `self`, producing a cross-run roll-up (the
    /// `combined` entry `run_all` writes).
    ///
    /// Semantics per layer:
    /// - counters add, saturating at `u64::MAX` like live counters do;
    /// - gauges keep last-write-wins: `other`'s value replaces ours;
    /// - histogram digests merge approximately — counts add, min/max
    ///   widen, means combine count-weighted, and percentiles take the
    ///   pairwise max (a conservative upper bound: the true combined
    ///   quantile can never exceed the larger of the two digests').
    ///   Empty digests are identity elements and never distort bounds.
    ///
    /// Collections stay name-sorted, so merging preserves the
    /// byte-stable serialization order.
    pub fn merge(&mut self, other: &TelemetrySummary) {
        for c in &other.counters {
            if let Some(mine) = self.counters.iter_mut().find(|m| m.name == c.name) {
                mine.value = mine.value.saturating_add(c.value);
            } else {
                self.counters.push(c.clone());
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        for g in &other.gauges {
            if let Some(mine) = self.gauges.iter_mut().find(|m| m.name == g.name) {
                mine.value = g.value;
            } else {
                self.gauges.push(g.clone());
            }
        }
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        for h in &other.histograms {
            if let Some(mine) = self.histograms.iter_mut().find(|m| m.name == h.name) {
                merge_histogram(mine, h);
            } else {
                self.histograms.push(h.clone());
            }
        }
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// Approximate merge of two digests of the same metric; see
/// [`TelemetrySummary::merge`] for the semantics.
fn merge_histogram(into: &mut HistogramSummary, other: &HistogramSummary) {
    if other.count == 0 {
        return; // an empty digest carries no information
    }
    if into.count == 0 {
        let name = into.name.clone();
        *into = other.clone();
        into.name = name;
        return;
    }
    let total = into.count.saturating_add(other.count);
    into.mean = (into.mean * into.count as f64 + other.mean * other.count as f64) / total as f64;
    into.min = into.min.min(other.min);
    into.max = into.max.max(other.max);
    into.p50 = into.p50.max(other.p50);
    into.p90 = into.p90.max(other.p90);
    into.p99 = into.p99.max(other.p99);
    into.count = total;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySummary {
        TelemetrySummary {
            experiment: "fig9_window_size".to_owned(),
            counters: vec![
                CounterEntry {
                    name: "cdn.authoritative_answer.calls".to_owned(),
                    value: 120,
                },
                CounterEntry {
                    name: "core.similarity.calls".to_owned(),
                    value: 900,
                },
            ],
            gauges: vec![GaugeEntry {
                name: "core.smf.clusters".to_owned(),
                value: 4.0,
            }],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn lookups_find_entries_by_name() {
        let s = sample();
        assert_eq!(s.counter("cdn.authoritative_answer.calls"), Some(120));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("core.smf.clusters"), Some(4.0));
        assert_eq!(s.gauge("missing"), None);
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = sample();
        let text = serde_json::to_string(&s).expect("serialize");
        let back: TelemetrySummary = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, s);
    }

    fn digest(name: &str, count: u64, min: f64, max: f64, mean: f64, p50: f64) -> HistogramSummary {
        HistogramSummary {
            name: name.to_owned(),
            count,
            min,
            max,
            mean,
            p50,
            p90: p50,
            p99: p50,
        }
    }

    #[test]
    fn merge_adds_counters_and_keeps_name_order() {
        let mut a = sample();
        let mut b = sample();
        b.counters.push(CounterEntry {
            name: "aaa.first".to_owned(),
            value: 7,
        });
        b.gauges[0].value = 9.0;
        a.merge(&b);
        assert_eq!(a.counter("cdn.authoritative_answer.calls"), Some(240));
        assert_eq!(a.counter("core.similarity.calls"), Some(1800));
        assert_eq!(a.counter("aaa.first"), Some(7));
        // Gauges are last-write-wins.
        assert_eq!(a.gauge("core.smf.clusters"), Some(9.0));
        let names: Vec<&str> = a.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "merge must keep counters name-sorted");
    }

    #[test]
    fn merge_saturates_counters_at_u64_max() {
        let mut a = sample();
        a.counters[0].value = u64::MAX - 10;
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("cdn.authoritative_answer.calls"), Some(u64::MAX));
    }

    #[test]
    fn merge_histograms_combines_counts_bounds_and_means() {
        let mut a = sample();
        a.histograms.push(digest("lat", 10, 1.0, 9.0, 4.0, 5.0));
        let mut b = sample();
        b.histograms.push(digest("lat", 30, 0.5, 20.0, 8.0, 7.0));
        a.merge(&b);
        let h = a.histogram("lat").expect("merged digest");
        assert_eq!(h.count, 40);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 20.0);
        // Count-weighted mean: (10*4 + 30*8) / 40 = 7.
        assert!((h.mean - 7.0).abs() < 1e-12);
        // Percentiles are conservative pairwise maxima.
        assert_eq!(h.p50, 7.0);
    }

    #[test]
    fn merge_treats_empty_histograms_as_identity() {
        // Empty digests report min/max/mean 0 — blindly merging those
        // would corrupt the populated side's bounds.
        let mut a = sample();
        a.histograms.push(digest("lat", 5, 2.0, 6.0, 4.0, 4.0));
        let mut b = sample();
        b.histograms.push(digest("lat", 0, 0.0, 0.0, 0.0, 0.0));
        a.merge(&b);
        let h = a.histogram("lat").expect("digest kept");
        assert_eq!((h.count, h.min, h.max), (5, 2.0, 6.0));

        // And the mirror image: empty absorbs populated wholesale.
        let mut c = sample();
        c.histograms.push(digest("lat", 0, 0.0, 0.0, 0.0, 0.0));
        let mut d = sample();
        d.histograms.push(digest("lat", 5, 2.0, 6.0, 4.0, 4.0));
        c.merge(&d);
        let h = c.histogram("lat").expect("digest adopted");
        assert_eq!((h.count, h.min, h.max), (5, 2.0, 6.0));
        assert_eq!(h.name, "lat");
    }

    #[test]
    fn merge_single_bucket_percentiles_stay_within_range() {
        // A one-observation digest has min == max == mean == p50; after
        // merging, every percentile must stay within [min, max].
        let mut a = sample();
        a.histograms.push(digest("one", 1, 3.0, 3.0, 3.0, 3.0));
        let mut b = sample();
        b.histograms.push(digest("one", 1, 5.0, 5.0, 5.0, 5.0));
        a.merge(&b);
        let h = a.histogram("one").expect("digest");
        assert_eq!(h.count, 2);
        for q in [h.p50, h.p90, h.p99] {
            assert!(q >= h.min && q <= h.max, "quantile {q} outside bounds");
        }
        assert!((h.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_disjoint_histograms_keeps_both_sorted() {
        let mut a = sample();
        a.histograms.push(digest("zeta", 1, 1.0, 1.0, 1.0, 1.0));
        let mut b = sample();
        b.histograms.push(digest("alpha", 1, 2.0, 2.0, 2.0, 2.0));
        a.merge(&b);
        let names: Vec<&str> = a.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn merged_summary_round_trips_through_json() {
        let mut a = sample();
        a.histograms.push(digest("lat", 3, 1.0, 2.0, 1.5, 1.5));
        let b = sample();
        a.merge(&b);
        let text = serde_json::to_string(&a).expect("serialize");
        let back: TelemetrySummary = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, a);
    }
}
