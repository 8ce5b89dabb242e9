//! Deterministic metrics for the CRP pipeline.
//!
//! The workspace's experiments are seeded simulations: the same seed must
//! produce the same figures, with or without observability. This crate
//! therefore keys every time-stamped sample on **simulated time**
//! (milliseconds, as produced by `SimTime::as_millis`) and never touches
//! the wall clock, so enabling telemetry cannot perturb results and the
//! summaries are byte-identical across runs.
//!
//! The collector aggregates monotonic counters, gauges and fixed-bucket
//! [`Histogram`]s in memory and condenses them into a
//! [`TelemetrySummary`] at shutdown. Recording is cheap and
//! allocation-free after a metric's first touch.
//!
//! Instrumented crates call the free functions below ([`counter_add`],
//! [`observe`], [`counter_add_at`], …), which fan into a process-global
//! collector. When no collector is installed every call is a single
//! relaxed load of the [armed mask](mod@stage) and an early return. This
//! crate writes no files: it hands its summary to the caller, and only
//! the experiment and bench front ends write (`clippy.toml` disallows
//! file writes elsewhere).
//!
//! Pipeline stages are named once, in the [`stage`](mod@stage) registry, and
//! `stage!(CORE_RANK)` feeds that name to every armed observer,
//! including the deliberately separate **wall-clock** [`profile`] and
//! [`mem`] attribution layers, which never touch the metric registers
//! (`clippy.toml` disallows wall-clock reads elsewhere).
//!
//! # Example
//!
//! ```
//! use crp_telemetry as telemetry;
//!
//! telemetry::install();
//!
//! telemetry::counter_add("core.similarity.calls", 1);
//! telemetry::counter_add("core.similarity.calls", 2);
//! telemetry::observe_unit("core.smf.mapping_strength", 0.85);
//!
//! let summary = telemetry::shutdown("example").expect("collector installed");
//! assert_eq!(summary.counter("core.similarity.calls"), Some(3));
//! let strength = summary.histogram("core.smf.mapping_strength").expect("observed");
//! assert_eq!(strength.count, 1);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::iter_over_hash_type
)]

pub mod mem;
pub mod metrics;
pub mod profile;
pub mod stage;
pub mod summary;
pub mod timeseries;
pub mod trace;

pub use mem::{DomainMem, MemSnapshot};
pub use metrics::{
    default_bounds, default_bounds_cached, unit_bounds, unit_bounds_cached, Histogram,
    HistogramSummary,
};
pub use summary::{CounterEntry, GaugeEntry, TelemetrySummary};
pub use timeseries::{TimeSeriesConfig, TimeSeriesExport, TimeSeriesStore};
pub use trace::{TraceConfig, TraceId, TraceLog};

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Aggregates counters, gauges and histograms.
///
/// This is the engine behind the global free functions; tests can also
/// drive a standalone `Collector` directly to stay isolated from the
/// process-global instance.
#[derive(Default)]
pub struct Collector {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = value;
        } else {
            self.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records `value` into the named histogram, creating it with the
    /// given bounds on first touch. Later calls ignore `bounds`.
    ///
    /// NaN and negative values are rejected: they would land in the
    /// lowest bucket (or corrupt min/sum) and silently poison every
    /// percentile derived from the histogram. Rejections are counted
    /// under `telemetry.observe.invalid` so bad instrumentation is
    /// visible rather than absorbed.
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], value: f64) {
        if value.is_nan() || value < 0.0 {
            self.counter_add("telemetry.observe.invalid", 1);
            return;
        }
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.record(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Condenses the collected metrics into a summary for `experiment`.
    pub fn finish(self, experiment: &str) -> TelemetrySummary {
        TelemetrySummary {
            experiment: experiment.to_owned(),
            counters: self
                .counters
                .iter()
                .map(|(name, value)| CounterEntry {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, value)| GaugeEntry {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| h.summarize(name))
                .collect(),
        }
    }
}

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

fn collector_slot() -> MutexGuard<'static, Option<Collector>> {
    COLLECTOR
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs a process-global collector, replacing any previous one
/// (whose pending metrics are discarded). Telemetry calls are no-ops
/// until this runs.
pub fn install() {
    let mut slot = collector_slot();
    *slot = Some(Collector::new());
    stage::arm(stage::METRICS);
}

/// Whether a global collector is installed.
///
/// Call sites pay one relaxed atomic load when telemetry is off; guard
/// any argument construction that allocates or formats behind this.
#[inline]
pub fn enabled() -> bool {
    stage::armed(stage::METRICS)
}

/// Tears down the global collector and returns its summary, or `None`
/// if none was installed.
pub fn shutdown(experiment: &str) -> Option<TelemetrySummary> {
    let collector = {
        let mut slot = collector_slot();
        stage::disarm(stage::METRICS);
        slot.take()
    };
    collector.map(|c| c.finish(experiment))
}

/// Runs `f` on the global collector; one relaxed load and nothing else
/// when none is installed.
#[inline]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    if !enabled() {
        return;
    }
    if let Some(c) = collector_slot().as_mut() {
        f(c);
    }
}

/// Adds `delta` to a global monotonic counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    with_collector(|c| c.counter_add(name, delta));
}

/// Sets a global gauge. No-op when disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    with_collector(|c| c.gauge_set(name, value));
}

/// Records into a global histogram with [`default_bounds`] (powers of
/// two, suited to latencies and counts). No-op when disabled.
#[inline]
pub fn observe(name: &str, value: f64) {
    with_collector(|c| c.observe_with(name, default_bounds_cached(), value));
}

/// Records into a global histogram with [`unit_bounds`] (twenty buckets
/// over `[0, 1]`, suited to scores and strengths). No-op when disabled.
#[inline]
pub fn observe_unit(name: &str, value: f64) {
    with_collector(|c| c.observe_with(name, unit_bounds_cached(), value));
}

/// Like [`observe`], but keyed with the simulated time so the sample
/// also lands in the live [`timeseries`] store (when one is running)
/// with the current trace as its exemplar. No-op when both layers are
/// disabled.
#[inline]
pub fn observe_at(time_ms: u64, name: &str, value: f64) {
    observe(name, value);
    if timeseries::enabled() {
        timeseries::record(time_ms, name, value);
    }
}

/// Like [`counter_add`], but keyed with the simulated time so the
/// increment also lands in the live [`timeseries`] store (per-window
/// `sum` is then the windowed rate). No-op when both layers are
/// disabled.
#[inline]
pub fn counter_add_at(time_ms: u64, name: &str, delta: u64) {
    counter_add(name, delta);
    if timeseries::enabled() {
        timeseries::bump(time_ms, name, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_counters_gauges_histograms() {
        let mut c = Collector::new();
        c.counter_add("a.calls", 2);
        c.counter_add("a.calls", 3);
        c.counter_add("b.calls", 1);
        c.gauge_set("g", 1.0);
        c.gauge_set("g", 2.5);
        c.observe_with("h", &unit_bounds(), 0.2);
        c.observe_with("h", &unit_bounds(), 0.4);
        let s = c.finish("exp");
        assert_eq!(s.experiment, "exp");
        assert_eq!(s.counter("a.calls"), Some(5));
        assert_eq!(s.counter("b.calls"), Some(1));
        assert_eq!(s.gauge("g"), Some(2.5));
        let h = s.histogram("h").expect("histogram present");
        assert_eq!(h.count, 2);
        assert!((h.mean - 0.3).abs() < 1e-12);
    }

    #[test]
    fn nan_and_negative_observations_are_rejected() {
        let mut c = Collector::new();
        c.observe_with("h", &unit_bounds(), f64::NAN);
        c.observe_with("h", &unit_bounds(), -1.0);
        c.observe_with("h", &unit_bounds(), -0.000001);
        c.observe_with("h", &unit_bounds(), 0.5);
        let s = c.finish("exp");
        let h = s.histogram("h").expect("the valid observation landed");
        // Only the valid sample is aggregated: percentiles stay clean.
        assert_eq!(h.count, 1);
        assert!((h.min - 0.5).abs() < 1e-12);
        assert!((h.mean - 0.5).abs() < 1e-12);
        assert!((h.p50 - 0.5).abs() < 1e-12);
        assert_eq!(s.counter("telemetry.observe.invalid"), Some(3));
    }

    #[test]
    fn rejected_observation_does_not_create_a_histogram() {
        let mut c = Collector::new();
        c.observe_with("h", &unit_bounds(), f64::NAN);
        let s = c.finish("exp");
        assert!(s.histogram("h").is_none());
        assert_eq!(s.counter("telemetry.observe.invalid"), Some(1));
    }

    #[test]
    fn infinity_still_lands_in_overflow_bucket() {
        // +inf is not rejected: the histogram routes non-finite values to
        // its overflow bucket, excluded from min/max/mean.
        let mut c = Collector::new();
        c.observe_with("h", &unit_bounds(), f64::INFINITY);
        c.observe_with("h", &unit_bounds(), 0.25);
        let s = c.finish("exp");
        let h = s.histogram("h").expect("histogram present");
        assert_eq!(h.count, 2, "overflow bucket still counted");
        assert!((h.max - 0.25).abs() < 1e-12, "min/max/mean stay finite");
        assert_eq!(s.counter("telemetry.observe.invalid"), None);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Collector::new();
        c.counter_add("x", u64::MAX - 1);
        c.counter_add("x", 5);
        assert_eq!(c.finish("exp").counter("x"), Some(u64::MAX));
    }

    #[test]
    fn summary_collections_are_name_sorted() {
        let mut c = Collector::new();
        c.counter_add("zeta", 1);
        c.counter_add("alpha", 1);
        c.gauge_set("mid", 0.0);
        c.gauge_set("aaa", 0.0);
        let s = c.finish("exp");
        let counter_names: Vec<&str> = s.counters.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(counter_names, ["alpha", "zeta"]);
        let gauge_names: Vec<&str> = s.gauges.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(gauge_names, ["aaa", "mid"]);
    }

    #[test]
    fn identical_runs_produce_identical_summaries() {
        let run = || {
            let mut c = Collector::new();
            for i in 0..100u64 {
                c.counter_add("calls", 1);
                c.observe_with("lat", &default_bounds(), (i % 7) as f64);
            }
            c.finish("det")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let ja = serde_json::to_string(&a).expect("serialize");
        let jb = serde_json::to_string(&b).expect("serialize");
        assert_eq!(ja, jb);
    }
}
