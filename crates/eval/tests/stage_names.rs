//! Every registered pipeline stage reports under its one name to every
//! observer: with all layers armed, paths that enter each stage leave a
//! profile node, a memory domain and a `<name>.calls` counter under
//! that name, and none of the names the stages used to carry shows up
//! in any artifact. One test, because the layers are process-global.

use crp_audit::detect::{self, DetectConfig};
use crp_audit::drift::{self, DriftConfig};
use crp_eval::{run_closest, run_clustering, ClosestConfig, ClusterExpConfig};
use crp_netsim::{SimDuration, SimTime};
use crp_telemetry::profile::ProfileNode;
use crp_telemetry::{mem, profile, stage, timeseries, trace};

/// Names the stages carried before the registry named each once.
const RETIRED: &[&str] = &[
    "cdn.answer",
    "cdn.queries",
    "cdn.redirect",
    "core.tracker.observations",
    "core.tracker.record",
    "core.ratio_map.builds",
    "core.select",
    "core.ranking",
    "core.ranking.builds",
    "core.ranking.top_score",
    "core.cluster",
    "core.smf.runs",
    "meridian.queries",
    "eval.closest",
    "eval.cluster",
    "audit.detect",
];

fn profile_names<'a>(node: &'a ProfileNode, out: &mut Vec<&'a str>) {
    out.push(&node.name);
    for child in &node.children {
        profile_names(child, out);
    }
}

#[test]
fn every_stage_reports_under_its_one_name() {
    crp_telemetry::install_metrics_only();
    profile::start();
    mem::start();
    timeseries::start(timeseries::TimeSeriesConfig::default());
    trace::start(trace::TraceConfig::default());
    crp_core::explain::start();

    let closest = run_closest(&ClosestConfig {
        inject_faults: false,
        ..ClosestConfig::smoke(3)
    });
    let _ = run_clustering(&ClusterExpConfig::smoke(4));
    let horizon = SimTime::from_hours(6);
    let candidates = closest.scenario.candidates();
    let _ = drift::scan(
        &closest.service,
        candidates,
        &DriftConfig::new(SimTime::ZERO, horizon, SimDuration::from_hours(2)),
    );
    let network = closest.scenario.network();
    let regions: Vec<_> = candidates
        .iter()
        .map(|&h| (h, network.host(h).region().slug().to_owned()))
        .collect();
    let _ = detect::scan(
        &closest.service,
        &regions,
        &DetectConfig::new(SimTime::from_hours(1), horizon, SimDuration::from_mins(30)),
    );

    let summary = crp_telemetry::shutdown("stage_names").expect("collector installed");
    let tree = profile::finish().expect("profiler started");
    let snapshot = mem::finish().expect("attribution armed");
    let series = timeseries::finish().expect("store started").export();
    let traces = trace::finish().expect("tracing started");
    let _ = crp_core::explain::finish();
    assert_eq!(stage::mask(), 0);

    let mut nodes = Vec::new();
    profile_names(&tree, &mut nodes);
    for stage in stage::REGISTRY {
        assert!(
            nodes.contains(&stage.name),
            "no profile node {}",
            stage.name
        );
        let domain = snapshot.domain(stage.name);
        assert!(
            domain.is_some_and(|d| d.allocs > 0),
            "no domain {}",
            stage.name
        );
        assert!(summary.counter(stage.calls) > Some(0), "no {}", stage.calls);
    }

    let mut seen = nodes;
    seen.extend(summary.counters.iter().map(|c| c.name.as_str()));
    seen.extend(summary.gauges.iter().map(|g| g.name.as_str()));
    seen.extend(summary.histograms.iter().map(|h| h.name.as_str()));
    seen.extend(snapshot.domains.iter().map(|d| d.name.as_str()));
    seen.extend(series.series.iter().map(|s| s.name.as_str()));
    seen.extend(
        traces
            .traces
            .iter()
            .flat_map(|t| &t.spans)
            .map(|s| s.name.as_str()),
    );
    for retired in RETIRED {
        assert!(!seen.contains(retired), "retired name {retired} in use");
    }
    assert!(traces
        .traces
        .iter()
        .any(|t| t.reaches(stage::CORE_RANK.name)));
}
