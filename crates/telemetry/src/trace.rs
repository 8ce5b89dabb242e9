//! Per-observation causal tracing with deterministic head sampling.
//!
//! A [`TraceId`] is minted where a redirection is born — the CDN's
//! authoritative answer — and follows the observation through the
//! pipeline: tracker ingest, ratio-map builds, similarity scoring and
//! ranking. The stations don't thread a context parameter through every
//! signature; they attach stages to the process-global *current trace*,
//! which the simulation's single-threaded, deterministic event order
//! makes exact.
//!
//! Sampling is **head-based and deterministic**: whether a trace is kept
//! is a pure function of its id (`mix64(id) % sample_one_in == 0`), never
//! of an RNG, so two runs of the same seed sample the same observations
//! and the exported span trees are byte-identical. Span buffers are
//! bounded (`max_traces`, `max_spans_per_trace`) with dropped counters.
//!
//! Query-time stations (ratio map → similarity → ranking) run long after
//! the observation was recorded. Trackers therefore stamp each
//! observation with the then-current trace id; at query time
//! [`resume`] re-activates those traces and registers them in a
//! *query set*, and [`query_stage`] fans a stage (e.g. `core.rank`)
//! out to every trace that contributed data to the query — which is what
//! lets a tail-latency exemplar link all the way from the CDN redirection
//! event to the ranking it influenced.
//!
//! When disabled, every hook is a single relaxed atomic load — the hot
//! path pays only that sampling-branch check.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A trace identifier. Always non-zero; 0 is the "no trace" sentinel in
/// raw (`u64`) form.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw id (never 0 for a minted trace).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The canonical textual form: 16 hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Tracing configuration.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Keep one trace in `sample_one_in` (1 = keep every trace).
    pub sample_one_in: u64,
    /// Maximum traces retained per run.
    pub max_traces: usize,
    /// Maximum spans per trace (consecutive same-name stages collapse
    /// into one span with a repeat count, so chains stay readable).
    pub max_spans_per_trace: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_one_in: 4,
            max_traces: 512,
            max_spans_per_trace: 64,
        }
    }
}

/// SplitMix64: cheap, deterministic avalanche — the same mixer family
/// the simulation's noise layer uses, reimplemented here because this
/// crate sits below `crp-netsim` in the dependency order.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mints a deterministic [`TraceId`] from the given parts (typically
/// seed, resolver id, simulated time, customer index). Never returns a
/// zero id.
pub fn mint(parts: &[u64]) -> TraceId {
    let mut acc = 0x243F_6A88_85A3_08D3u64; // pi fraction, arbitrary non-zero start
    for &p in parts {
        acc = mix64(acc ^ p);
    }
    TraceId(if acc == 0 { 1 } else { acc })
}

#[derive(Clone, Debug)]
struct SpanRec {
    time_ms: u64,
    name: &'static str,
    count: u64,
}

#[derive(Clone, Debug)]
struct TraceRec {
    id: u64,
    start_ms: u64,
    spans: Vec<SpanRec>,
    dropped_spans: u64,
}

impl TraceRec {
    fn push(&mut self, time_ms: u64, name: &'static str, max_spans: usize) {
        if let Some(last) = self.spans.last_mut() {
            if last.name == name {
                last.count += 1;
                return;
            }
        }
        if self.spans.len() >= max_spans {
            self.dropped_spans += 1;
            return;
        }
        self.spans.push(SpanRec {
            time_ms,
            name,
            count: 1,
        });
    }
}

/// The in-memory trace store behind the global hooks.
#[derive(Debug)]
pub struct TraceStore {
    config: TraceConfig,
    traces: Vec<TraceRec>,
    index: BTreeMap<u64, usize>,
    minted: u64,
    sampled: u64,
    dropped_traces: u64,
    query_set: Vec<usize>,
    query_time_ms: u64,
}

impl TraceStore {
    fn new(config: TraceConfig) -> Self {
        TraceStore {
            config,
            traces: Vec::new(),
            index: BTreeMap::new(),
            minted: 0,
            sampled: 0,
            dropped_traces: 0,
            query_set: Vec::new(),
            query_time_ms: 0,
        }
    }

    /// Condenses the store into its serializable log form.
    pub fn log(&self) -> TraceLog {
        TraceLog {
            sample_one_in: self.config.sample_one_in,
            minted: self.minted,
            sampled: self.sampled,
            dropped_traces: self.dropped_traces,
            traces: self
                .traces
                .iter()
                .map(|t| TraceTree {
                    id: format!("{:016x}", t.id),
                    start_ms: t.start_ms,
                    dropped_spans: t.dropped_spans,
                    spans: t
                        .spans
                        .iter()
                        .map(|s| SpanNode {
                            time_ms: s.time_ms,
                            name: s.name.to_owned(),
                            count: s.count,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Serializable log of every sampled trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLog {
    /// The sampling denominator the run used.
    pub sample_one_in: u64,
    /// Traces minted (sampled or not).
    pub minted: u64,
    /// Traces kept by the head sampler.
    pub sampled: u64,
    /// Sampled traces dropped at the `max_traces` cap.
    pub dropped_traces: u64,
    /// The span trees, in mint order.
    pub traces: Vec<TraceTree>,
}

impl TraceLog {
    /// The trace with the given 16-hex-digit id, if sampled.
    pub fn trace(&self, id_hex: &str) -> Option<&TraceTree> {
        self.traces.iter().find(|t| t.id == id_hex)
    }
}

/// One sampled trace: the causal chain of an observation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceTree {
    /// Trace id, 16 hex digits.
    pub id: String,
    /// When the root event (the CDN redirection) happened.
    pub start_ms: u64,
    /// Stages dropped at the span cap.
    pub dropped_spans: u64,
    /// Stages in causal order; the first is the root.
    pub spans: Vec<SpanNode>,
}

impl TraceTree {
    /// Whether the chain contains a stage with the given name.
    pub fn reaches(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }
}

/// One stage in a trace (consecutive repeats collapsed).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Simulated time the stage (first) fired.
    pub time_ms: u64,
    /// Stage name, e.g. `core.rank`.
    pub name: String,
    /// How many consecutive times the stage fired.
    pub count: u64,
}

static CURRENT: AtomicU64 = AtomicU64::new(0);
static TRACES: Mutex<Option<TraceStore>> = Mutex::new(None);

fn trace_slot() -> MutexGuard<'static, Option<TraceStore>> {
    TRACES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs a process-global trace store, replacing any previous one.
pub fn start(config: TraceConfig) {
    let mut slot = trace_slot();
    *slot = Some(TraceStore::new(config));
    CURRENT.store(0, Ordering::Release);
    crate::stage::arm(crate::stage::TRACE);
}

/// Whether tracing is live. One relaxed atomic load — this is the entire
/// hot-path cost when tracing is off.
#[inline]
pub fn enabled() -> bool {
    crate::stage::armed(crate::stage::TRACE)
}

/// Tears down the global store and returns its log, or `None`.
pub fn finish() -> Option<TraceLog> {
    let store = {
        let mut slot = trace_slot();
        crate::stage::disarm(crate::stage::TRACE);
        CURRENT.store(0, Ordering::Release);
        slot.take()
    };
    store.map(|s| s.log())
}

/// The raw id of the current sampled trace, or 0. Safe to call with
/// tracing disabled (returns 0); used to stamp observations and
/// histogram exemplars.
#[inline]
pub fn current_raw() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// Opens a trace at its minting site (the CDN redirection event). The
/// head sampler decides synchronously: a kept trace becomes *current*
/// (stages attach to it; exemplars reference it), an unsampled one
/// clears the current slot. No-op when disabled.
pub fn begin(id: TraceId, time_ms: u64, root: &'static str) {
    if !enabled() {
        return;
    }
    let mut slot = trace_slot();
    let Some(store) = slot.as_mut() else { return };
    store.minted += 1;
    if !mix64(id.0).is_multiple_of(store.config.sample_one_in.max(1)) {
        CURRENT.store(0, Ordering::Relaxed);
        return;
    }
    store.sampled += 1;
    if store.index.contains_key(&id.0) {
        // Re-minted id (same inputs): keep the existing tree current.
        CURRENT.store(id.0, Ordering::Relaxed);
        return;
    }
    if store.traces.len() >= store.config.max_traces {
        store.dropped_traces += 1;
        CURRENT.store(0, Ordering::Relaxed);
        return;
    }
    let mut spans = Vec::with_capacity(8);
    spans.push(SpanRec {
        time_ms,
        name: root,
        count: 1,
    });
    store.index.insert(id.0, store.traces.len());
    store.traces.push(TraceRec {
        id: id.0,
        start_ms: time_ms,
        spans,
        dropped_spans: 0,
    });
    CURRENT.store(id.0, Ordering::Relaxed);
}

/// Appends a stage to the current trace, if any. No-op when disabled or
/// when no sampled trace is current.
pub fn stage_at(time_ms: u64, name: &'static str) {
    if !enabled() {
        return;
    }
    let raw = CURRENT.load(Ordering::Relaxed);
    if raw == 0 {
        return;
    }
    let mut slot = trace_slot();
    let Some(store) = slot.as_mut() else { return };
    let max = store.config.max_spans_per_trace;
    if let Some(&idx) = store.index.get(&raw) {
        if let Some(t) = store.traces.get_mut(idx) {
            t.push(time_ms, name, max);
        }
    }
}

/// Re-activates the trace stamped on stored data (e.g. an observation
/// feeding a ratio-map build): makes it current, appends `name`, and —
/// inside a [`begin_query`] scope — registers it in the query set so
/// later [`query_stage`] calls reach it. No-op for raw id 0, unknown
/// (unsampled) ids, or when disabled.
pub fn resume(raw: u64, time_ms: u64, name: &'static str) {
    if !enabled() || raw == 0 {
        return;
    }
    let mut slot = trace_slot();
    let Some(store) = slot.as_mut() else { return };
    let Some(&idx) = store.index.get(&raw) else {
        return;
    };
    let max = store.config.max_spans_per_trace;
    if let Some(t) = store.traces.get_mut(idx) {
        t.push(time_ms, name, max);
    }
    if !store.query_set.contains(&idx) {
        store.query_set.push(idx);
    }
    CURRENT.store(raw, Ordering::Relaxed);
}

/// Opens a query scope at simulated time `time_ms`: clears the query
/// set that subsequent [`resume`] calls populate. No-op when disabled.
pub fn begin_query(time_ms: u64) {
    if !enabled() {
        return;
    }
    let mut slot = trace_slot();
    let Some(store) = slot.as_mut() else { return };
    store.query_set.clear();
    store.query_time_ms = time_ms;
}

/// Fans a stage out to every trace in the current query set — the
/// traces whose observations fed the query — at the query's time.
/// No-op when disabled or outside a query scope.
pub fn query_stage(name: &'static str) {
    if !enabled() {
        return;
    }
    let mut slot = trace_slot();
    let Some(store) = slot.as_mut() else { return };
    let max = store.config.max_spans_per_trace;
    let time = store.query_time_ms;
    for i in 0..store.query_set.len() {
        let Some(&idx) = store.query_set.get(i) else {
            break;
        };
        if let Some(t) = store.traces.get_mut(idx) {
            t.push(time, name, max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace store is process-global; like the collector tests, one
    // test function exercises the full lifecycle to avoid cross-test
    // interference.
    #[test]
    fn trace_lifecycle_sampling_and_query_fanout() {
        // Phase 1: disabled — everything is a no-op and current stays 0.
        assert!(!enabled());
        begin(mint(&[1, 2, 3]), 10, "cdn.authoritative_answer");
        stage_at(11, "core.tracker");
        assert_eq!(current_raw(), 0);
        assert!(finish().is_none());

        // Phase 2: keep-all sampling records full chains.
        start(TraceConfig {
            sample_one_in: 1,
            max_traces: 4,
            max_spans_per_trace: 5,
        });
        let a = mint(&[7, 1]);
        let b = mint(&[7, 2]);
        assert_ne!(a, b);
        begin(a, 100, "cdn.authoritative_answer");
        assert_eq!(current_raw(), a.raw());
        stage_at(100, "core.tracker");
        stage_at(100, "core.tracker"); // collapses into count=2
        begin(b, 200, "cdn.authoritative_answer");
        stage_at(200, "core.tracker");

        // Query scope: both observations feed it; ranking reaches both.
        begin_query(300);
        resume(a.raw(), 300, "core.ratio_map");
        resume(b.raw(), 300, "core.ratio_map");
        query_stage("core.similarity");
        query_stage("core.rank");
        resume(0, 300, "core.ratio_map"); // no-op sentinel
        resume(0xDEAD, 300, "core.ratio_map"); // unknown id: no-op
        resume(a.raw(), 310, "core.overflow"); // 6th distinct stage: over the cap

        let log = finish().expect("store was live");
        assert_eq!(log.minted, 2);
        assert_eq!(log.sampled, 2);
        assert_eq!(log.traces.len(), 2);
        let ta = log.trace(&a.to_hex()).expect("trace a sampled");
        assert_eq!(ta.spans[0].name, "cdn.authoritative_answer");
        assert_eq!(ta.spans[1].count, 2, "consecutive stages collapse");
        assert!(ta.reaches("core.ratio_map"));
        assert!(ta.reaches("core.similarity"));
        assert!(ta.reaches("core.rank"));
        assert!(log
            .trace(&b.to_hex())
            .expect("trace b")
            .reaches("core.rank"));
        // Span cap: 5 spans max, the 6th stage was dropped and counted.
        assert_eq!(ta.spans.len(), 5);
        assert_eq!(ta.dropped_spans, 1);

        // Phase 3: sampling is a pure function of the id — with a large
        // denominator most traces are dropped, deterministically.
        start(TraceConfig {
            sample_one_in: 1_000_000,
            max_traces: 8,
            max_spans_per_trace: 8,
        });
        for i in 0..50u64 {
            begin(mint(&[9, i]), i, "cdn.authoritative_answer");
        }
        let log = finish().expect("store was live");
        assert_eq!(log.minted, 50);
        assert_eq!(log.sampled as usize, log.traces.len());
        assert!(log.sampled < 50, "1-in-a-million kept almost nothing");

        // Phase 4: identical runs produce identical serialized logs.
        let run = || {
            start(TraceConfig::default());
            for i in 0..40u64 {
                begin(mint(&[11, i]), i * 10, "cdn.authoritative_answer");
                stage_at(i * 10, "core.tracker");
            }
            begin_query(500);
            for i in 0..40u64 {
                resume(mint(&[11, i]).raw(), 500, "core.ratio_map");
            }
            query_stage("core.rank");
            serde_json::to_string(&finish().expect("live")).expect("serialize")
        };
        let x = run();
        let y = run();
        assert_eq!(x, y);
        assert_eq!(current_raw(), 0, "finish clears the current slot");

        // Phase 5: the trace cap drops (and counts) excess sampled traces.
        start(TraceConfig {
            sample_one_in: 1,
            max_traces: 2,
            max_spans_per_trace: 8,
        });
        for i in 0..5u64 {
            begin(mint(&[13, i]), i, "cdn.authoritative_answer");
        }
        let log = finish().expect("live");
        assert_eq!(log.traces.len(), 2);
        assert_eq!(log.dropped_traces, 3);
    }

    #[test]
    fn mint_is_deterministic_and_nonzero() {
        assert_eq!(mint(&[1, 2, 3]), mint(&[1, 2, 3]));
        assert_ne!(mint(&[1, 2, 3]), mint(&[1, 2, 4]));
        assert_ne!(mint(&[]).raw(), 0);
        assert_eq!(mint(&[5]).to_hex().len(), 16);
    }
}
