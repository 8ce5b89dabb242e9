//! Every observer layer must be a pure observer: arming any of them
//! cannot change experiment output, and identical runs must produce
//! identical artifacts. One test function loops over the armed-layer
//! sets because the layers are process-global — parallel test threads
//! must not share them.

use crp::{Scenario, ScenarioConfig};
use crp_core::{SimilarityMetric, WindowPolicy};
use crp_netsim::{SimDuration, SimTime};
use crp_telemetry::stage::{self, MEM, METRICS, PROFILE, TIMESERIES, TRACE};
use crp_telemetry::{mem, profile, timeseries, trace};
use std::fmt::Write as _;

const LAYERS: [u32; 5] = [METRICS, PROFILE, MEM, TIMESERIES, TRACE];

/// Runs a small fixed-seed campaign and renders everything downstream
/// code consumes — per-host ratio maps and the per-client Top-3
/// rankings — into one comparable string.
fn campaign_fingerprint() -> String {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 7,
        candidate_servers: 8,
        clients: 4,
        cdn_scale: 0.25,
        ..ScenarioConfig::default()
    });
    let now = SimTime::from_hours(2);
    let service = scenario.observe_all(
        SimTime::ZERO,
        now,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(10),
        SimilarityMetric::Cosine,
    );
    let mut out = String::new();
    for &host in scenario.candidates().iter().chain(scenario.clients()) {
        if let Ok(map) = service.ratio_map(&host, now) {
            let _ = writeln!(out, "map {host}: {map:?}");
        }
    }
    for &client in scenario.clients() {
        if let Ok(ranking) = service.closest(&client, scenario.candidates().iter().copied(), now) {
            let _ = writeln!(out, "rank {client}: {:?}", ranking.top_k(3));
        }
    }
    out
}

#[test]
fn telemetry_never_perturbs_results_and_is_itself_deterministic() {
    assert_eq!(stage::mask(), 0, "nothing is armed by default");
    let baseline = campaign_fingerprint();
    assert!(!baseline.is_empty());

    // None, each layer alone, and all together, each run twice: the
    // output must match the unobserved run, every armed layer must fire,
    // and both runs must serialize identical artifacts.
    let all = LAYERS.iter().fold(0, |acc, layer| acc | layer);
    let mut metrics_counters: Option<String> = None;
    for layers in [0].into_iter().chain(LAYERS).chain([all]) {
        let first = observed_run(layers, &baseline);
        assert_eq!(
            first,
            observed_run(layers, &baseline),
            "layers {layers:#08b}: same seed must serialize identical artifacts"
        );
        // No other layer bumps a counter, so the collector's counters
        // are the same whichever layers ride along.
        if let Some((_, counters)) = first.iter().find(|(layer, _)| *layer == METRICS) {
            let reference = metrics_counters.get_or_insert_with(|| counters.clone());
            assert_eq!(
                reference, counters,
                "layers {layers:#08b} changed the counters"
            );
        }
    }
    assert_eq!(campaign_fingerprint(), baseline, "disarmed again");

    // The online change detector reads the recorded service history
    // after the fact, so the purity bar is the same as for every
    // observer above: a campaign whose history is scanned must produce
    // byte-identical experiment output to one that is not.
    let detector_off = event_campaign_fingerprint(false);
    let detector_on = event_campaign_fingerprint(true);
    assert_eq!(
        detector_off.0, detector_on.0,
        "change detection changed experiment output"
    );
    let report = detector_on.1.expect("detector ran");
    assert!(!report.windows.is_empty(), "scan saw no windows");

    // A second detector-on replay serializes the identical detection
    // report — the artifact the change-detect CI smoke diffs.
    let report_b = event_campaign_fingerprint(true).1.expect("detector ran");
    assert_eq!(
        serde_json::to_string(&report).expect("serializable"),
        serde_json::to_string(&report_b).expect("serializable"),
        "same seed must scan to an identical detection report"
    );
}

macro_rules! json {
    ($value:expr) => {
        serde_json::to_string(&$value).expect("serializable")
    };
}

/// Arms `layers`, runs the campaign, checks that its output equals
/// `baseline`, and returns what [`finish`] collected.
fn observed_run(layers: u32, baseline: &str) -> Vec<(u32, String)> {
    if layers & PROFILE != 0 {
        profile::start();
    }
    if layers & MEM != 0 {
        mem::start();
    }
    if layers & TIMESERIES != 0 {
        timeseries::start(timeseries::TimeSeriesConfig::default());
    }
    if layers & TRACE != 0 {
        trace::start(trace::TraceConfig::default());
    }
    if layers & METRICS != 0 {
        crp_telemetry::install();
    }
    let output = campaign_fingerprint();
    let artifacts = finish(layers);
    assert_eq!(
        output, baseline,
        "layers {layers:#08b} changed experiment output"
    );
    artifacts
}

/// Tears every layer down and returns each armed layer's serialized
/// artifacts, checking that its hooks fired and that exactly the armed
/// layers left one. The profile tree is wall-clock data, so only its
/// presence counts.
fn finish(layers: u32) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    if let Some(summary) = crp_telemetry::shutdown("determinism") {
        assert!(
            summary.counter(stage::CORE_TRACKER.calls).unwrap_or(0) > 0,
            "instrumentation did not fire: {summary:?}"
        );
        out.push((METRICS, json!(summary.counters)));
        out.push((METRICS, json!(summary.histograms)));
    }
    if let Some(tree) = profile::finish() {
        assert!(
            tree.child(stage::SCENARIO_OBSERVE.name).is_some(),
            "profile scopes did not fire: {tree:?}"
        );
        assert!(tree.node_count() > 2, "expected nested scopes: {tree:?}");
        out.push((PROFILE, String::new()));
    }
    // This test binary installs no counting allocator, so the counts
    // stay zero; under test are the armed code path riding along with
    // every campaign allocation and deterministic registration.
    if let Some(snapshot) = mem::finish() {
        assert!(
            snapshot.domain(stage::SCENARIO_OBSERVE.name).is_some()
                && snapshot.domain(stage::CORE_TRACKER.name).is_some(),
            "campaign domains not registered: {snapshot:?}"
        );
        out.push((MEM, json!(snapshot)));
    }
    if let Some(store) = timeseries::finish() {
        let export = store.export();
        assert!(
            export.series("cdn.best_candidate_ms").is_some(),
            "ingest latency series missing: {:?}",
            export.series.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
        out.push((TIMESERIES, json!(export)));
    }
    if let Some(traces) = trace::finish() {
        assert!(traces.minted > 0, "no traces minted: {traces:?}");
        out.push((TRACE, json!(traces)));
    }
    let fired = out.iter().fold(0, |acc, (layer, _)| acc | layer);
    assert_eq!(fired, layers, "exactly the armed layers leave artifacts");
    assert_eq!(stage::mask(), 0, "finishing disarms every layer");
    out
}

/// Runs a small fixed-seed campaign over a scripted-event world and
/// returns its fingerprint, plus the change-detection report when
/// `scan` is set. The fingerprint must not depend on whether the
/// detector ran.
fn event_campaign_fingerprint(scan: bool) -> (String, Option<crp_audit::detect::DetectionReport>) {
    use crp_cdn::{EventKind, EventScript};
    use crp_netsim::Region;
    let horizon = SimTime::from_hours(4);
    let script = EventScript::new().with_reserve(Region::Europe, 4).at(
        SimTime::from_hours(2),
        EventKind::RegionalPoolFlip {
            region: Region::Europe,
            fraction: 0.5,
        },
    );
    let scenario = Scenario::build(ScenarioConfig {
        seed: 7,
        candidate_servers: 0,
        clients: 6,
        cdn_scale: 0.25,
        broad_clients: true,
        events: Some(script),
        ..ScenarioConfig::default()
    });
    let service = scenario.observe_hosts(
        scenario.clients(),
        SimTime::ZERO,
        horizon,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(10),
        SimilarityMetric::Cosine,
    );
    let mut out = String::new();
    for &host in scenario.clients() {
        if let Ok(map) = service.ratio_map(&host, horizon) {
            let _ = writeln!(out, "map {host}: {map:?}");
        }
    }
    let report = scan.then(|| {
        let hosts: Vec<_> = scenario
            .clients()
            .iter()
            .map(|&h| (h, scenario.network().host(h).region().slug().to_owned()))
            .collect();
        let cfg = crp_audit::detect::DetectConfig::new(
            SimTime::from_hours(1),
            horizon,
            SimDuration::from_mins(30),
        );
        crp_audit::detect::scan(&service, &hosts, &cfg)
    });
    (out, report)
}
