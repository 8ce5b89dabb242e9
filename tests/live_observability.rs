//! End-to-end exemplar linkage: a seeded campaign run under the full
//! live-observability stack must leave top-latency-bucket exemplars in
//! the time-series store whose trace ids resolve to sampled span trees
//! that reach all the way from the CDN redirection event into the
//! ranking kernel. This is the feature's reason to exist — "why was
//! this ingest slow, and what did it influence" answered from two JSON
//! artifacts — so it gets its own process (the collectors are global).

use crp::{Scenario, ScenarioConfig};
use crp_core::{SimilarityMetric, WindowPolicy};
use crp_netsim::{SimDuration, SimTime};
use crp_telemetry::{stage, timeseries, trace};

#[test]
fn top_bucket_exemplars_resolve_to_traces_reaching_the_ranking_kernel() {
    timeseries::start(timeseries::TimeSeriesConfig::default());
    // Keep every trace so exemplar resolution is guaranteed, not
    // merely likely.
    trace::start(trace::TraceConfig {
        sample_one_in: 1,
        ..trace::TraceConfig::default()
    });

    let scenario = Scenario::build(ScenarioConfig {
        seed: 11,
        candidate_servers: 8,
        clients: 4,
        cdn_scale: 0.25,
        ..ScenarioConfig::default()
    });
    let now = SimTime::from_hours(2);
    // WindowPolicy::All keeps every observation in scope, so each
    // query's ratio-map build resumes every stamped ingest trace.
    let service = scenario.observe_all(
        SimTime::ZERO,
        now,
        SimDuration::from_mins(10),
        WindowPolicy::All,
        SimilarityMetric::Cosine,
    );
    for &client in scenario.clients() {
        service
            .closest(&client, scenario.candidates().iter().copied(), now)
            .expect("client observed all campaign long");
    }

    let store = timeseries::finish().expect("time-series store started");
    let traces = trace::finish().expect("trace collector started");
    assert_eq!(traces.minted, traces.sampled, "1-in-1 sampling keeps all");

    let export = store.export();
    let series = export
        .series("cdn.best_candidate_ms")
        .expect("ingest latency series recorded");
    let exemplars = &series.total.exemplars;
    assert!(!exemplars.is_empty(), "no exemplars captured");

    // The top-latency exemplar is the one an operator would click:
    // highest occupied bucket of the whole-run window.
    let top = exemplars
        .iter()
        .max_by_key(|e| e.bucket)
        .expect("non-empty exemplar set");
    let tree = traces
        .trace(&top.trace)
        .expect("exemplar trace id resolves to a sampled trace");
    assert_eq!(
        tree.spans[0].name,
        stage::CDN_AUTHORITATIVE_ANSWER.name,
        "missing root span: {tree:?}"
    );
    assert!(
        tree.reaches(stage::CORE_TRACKER.name),
        "ingest span missing: {tree:?}"
    );
    assert!(
        tree.reaches(stage::CORE_RANK.name),
        "exemplar trace never reached the ranking kernel: {tree:?}"
    );

    // Every exemplar in every bucket resolves — the store may only
    // hand out trace ids that the trace log can expand.
    for ex in exemplars {
        assert!(
            traces.trace(&ex.trace).is_some(),
            "dangling exemplar {ex:?}"
        );
    }
}
