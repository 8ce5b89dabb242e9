//! Change detection: scripted CDN infrastructure events vs the online
//! detector.
//!
//! Builds a scenario with the standard scripted event suite (regional
//! pool flip, datacenter outage + recovery, load-balancer policy
//! change, flash crowd, staggered footprint expansion), observes the
//! client population through the full horizon, runs the
//! `crp_audit::detect` scan over the recorded history, and matches
//! every detection against the ground-truth event log. Emits detection
//! latency, precision/recall, false-alarm rate, and per-event ratio-map
//! re-convergence times to `results/change_detection.json` (plus a CSV
//! table), and the raw detection report into the run manifest under
//! `--observe`.

use crp::{Scenario, ScenarioConfig};
use crp_audit::detect::{DetectConfig, DetectionReport};
use crp_cdn::EventScript;
use crp_core::{SimilarityMetric, WindowPolicy};
use crp_eval::changedetect::{self, MatchConfig};
use crp_eval::output;
use crp_eval::EvalArgs;
use crp_netsim::{HostId, SimDuration, SimTime};
use serde::{Serialize, Value};
use std::fs;
use std::path::Path;

fn main() {
    let args = EvalArgs::parse();
    let mut telemetry = crp_eval::telemetry::session(&args, "change_detection");
    let horizon = SimTime::from_hours(args.hours.unwrap_or(24));
    let script = EventScript::standard_suite(horizon);
    let scripted = script.events().len();
    let scenario = Scenario::build(ScenarioConfig {
        seed: args.seed,
        candidate_servers: 0,
        clients: args.clients.unwrap_or(160),
        cdn_scale: args.scale.unwrap_or(1.0),
        broad_clients: true,
        events: Some(script),
        ..ScenarioConfig::default()
    });
    output::section("change_detection", "scripted events vs online detector");
    output::kv(&[
        ("seed", args.seed.to_string()),
        ("clients", scenario.clients().len().to_string()),
        ("horizon (h)", (horizon.as_millis() / 3_600_000).to_string()),
        ("scripted events", scripted.to_string()),
        (
            "ground-truth records",
            scenario.event_log().len().to_string(),
        ),
    ]);

    let service = scenario.observe_hosts(
        scenario.clients(),
        SimTime::ZERO,
        horizon,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(12),
        SimilarityMetric::Cosine,
    );

    // Scope every client by its region slug; the detector localizes
    // changes to these labels (plus a synthetic "global").
    let hosts: Vec<(HostId, String)> = scenario
        .clients()
        .iter()
        .map(|&h| (h, scenario.network().host(h).region().slug().to_owned()))
        .collect();
    let detect_cfg = DetectConfig::new(SimTime::from_hours(1), horizon, SimDuration::from_mins(30));
    let report = crp_audit::detect::scan(&service, &hosts, &detect_cfg);
    let eval = changedetect::evaluate(scenario.event_log(), &report, &MatchConfig::default());

    println!("\n  per-event outcomes:");
    println!(
        "    {:<28} {:<14} {:>8} {:>10} {:>12} {:>12}",
        "class", "region", "onset(h)", "detected", "latency(min)", "reconv(min)"
    );
    let mut rows = Vec::new();
    for e in &eval.events {
        let latency_min = if e.detection_latency_ms >= 0 {
            (e.detection_latency_ms / 60_000).to_string()
        } else {
            "-".to_owned()
        };
        let reconv_min = if e.reconvergence_ms >= 0 {
            ((e.reconvergence_ms - e.until_ms as i64).max(0) / 60_000).to_string()
        } else {
            "-".to_owned()
        };
        println!(
            "    {:<28} {:<14} {:>8.1} {:>10} {:>12} {:>12}",
            e.class,
            e.region,
            e.at_ms as f64 / 3_600_000.0,
            if e.detected { "yes" } else { "NO" },
            latency_min,
            reconv_min,
        );
        rows.push(format!(
            "{},{},{},{},{},{},{}",
            e.class,
            e.region,
            e.at_ms,
            e.detected,
            e.detection_latency_ms,
            e.detected_class,
            e.reconvergence_ms
        ));
    }

    println!("\n  detection quality:");
    output::kv(&[
        ("detections", eval.detections_total.to_string()),
        ("matched", eval.detections_matched.to_string()),
        ("precision", format!("{:.3}", eval.precision)),
        ("recall", format!("{:.3}", eval.recall)),
        (
            "false alarms / day",
            format!("{:.3}", eval.false_alarm_rate_per_day),
        ),
        (
            "mean latency (min)",
            format!("{:.1}", eval.mean_detection_latency_ms / 60_000.0),
        ),
        ("all events detected", eval.all_events_detected.to_string()),
    ]);
    if !eval.false_alarms.is_empty() {
        println!("\n  false alarms:");
        for fa in &eval.false_alarms {
            println!(
                "    {:.1}h {} @ {} (magnitude {:.3})",
                fa.detected_ms as f64 / 3_600_000.0,
                fa.class,
                fa.scope,
                fa.magnitude
            );
        }
    }

    output::write_csv(
        &args.out_dir,
        "change_detection.csv",
        "class,region,at_ms,detected,latency_ms,detected_class,reconvergence_ms",
        &rows,
    );
    write_json(&args.out_dir, &args, &eval, &report);

    // Observer section: the raw window stream and change list, for
    // post-hoc inspection next to the drift timelines.
    if telemetry.observing() {
        telemetry.set_detect(report);
    }
}

/// Writes the headline artifact the CI smoke gate greps:
/// `results/change_detection.json`.
fn write_json(
    out_dir: &str,
    args: &EvalArgs,
    eval: &changedetect::DetectionEval,
    report: &DetectionReport,
) {
    let document = Value::Object(vec![
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("interval_ms".to_owned(), Value::UInt(report.interval_ms)),
        (
            "windows".to_owned(),
            Value::UInt(report.windows.len() as u64),
        ),
        ("eval".to_owned(), eval.to_value()),
        (
            "all_events_detected".to_owned(),
            Value::Bool(eval.all_events_detected),
        ),
        (
            "false_alarm_count".to_owned(),
            Value::UInt(eval.false_alarms.len() as u64),
        ),
    ]);
    #[expect(
        clippy::disallowed_methods,
        reason = "the experiment binary writes its verdict file"
    )]
    let write = || -> std::io::Result<()> {
        fs::create_dir_all(out_dir)?;
        let json = serde_json::to_string(&document)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(
            Path::new(out_dir).join("change_detection.json"),
            json + "\n",
        )
    };
    match write() {
        Ok(()) => println!("  [wrote {}/change_detection.json]", out_dir),
        Err(err) => eprintln!("[change_detection] cannot write results: {err}"),
    }
}
