//! End-to-end check of `--observe`: runs `fig9_window_size` at a tiny
//! scale and cross-checks the JSONL stream against the summary in the
//! run manifest — every `event.<name>` counter must equal the stream's
//! event count for that name, and the summary's tracker counter must
//! equal the total independently recomputed from the per-host event
//! fields. The `report` binary must then reach the same verdict over
//! the directory, and reject a manifest it cannot judge.

use crp_eval::audit::RunReport;
use crp_eval::telemetry::RunManifest;
use crp_telemetry::stage;
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn str_field(value: &Value, name: &str) -> String {
    match value.field(name).expect("field present") {
        Value::String(s) => s.clone(),
        other => panic!("field `{name}` is not a string: {other:?}"),
    }
}

fn u64_field(value: &Value, name: &str) -> u64 {
    match value.field(name).expect("field present") {
        Value::Int(i) if *i >= 0 => *i as u64,
        Value::UInt(u) => *u,
        other => panic!("field `{name}` is not an unsigned integer: {other:?}"),
    }
}

#[test]
fn fig9_telemetry_stream_matches_summary() {
    let dir = std::env::temp_dir().join(format!("crp-telemetry-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.join("results");
    let clients = 12usize;
    let candidates = 8usize;
    let status = Command::new(env!("CARGO_BIN_EXE_fig9_window_size"))
        .args(["--seed", "5", "--hours", "12", "--scale", "0.25"])
        .args(["--clients", &clients.to_string()])
        .args(["--candidates", &candidates.to_string()])
        .arg("--out")
        .arg(&out_dir)
        .arg("--observe")
        .arg(&dir)
        .status()
        .expect("run fig9_window_size");
    assert!(status.success(), "fig9_window_size failed: {status}");

    // Walk the JSONL stream, counting independently of the summary.
    let jsonl = std::fs::read_to_string(dir.join("fig9_window_size.jsonl"))
        .expect("telemetry JSONL written");
    let mut event_lines = 0u64;
    let mut span_pairs = 0u64;
    let mut per_name: BTreeMap<String, u64> = BTreeMap::new();
    let mut observations_from_events = 0u64;
    let mut hosts_observed = 0u64;
    for line in jsonl.lines() {
        let value = serde_json::parse(line).expect("every JSONL line parses");
        match str_field(&value, "kind").as_str() {
            "event" => {
                event_lines += 1;
                let name = str_field(&value, "name");
                if name == "scenario.host_observed" {
                    hosts_observed += 1;
                    let fields = value.field("fields").expect("event fields");
                    observations_from_events += u64_field(fields, "observations");
                }
                *per_name.entry(name).or_insert(0) += 1;
            }
            "span_end" => span_pairs += 1,
            "span_start" => {}
            other => panic!("unknown record kind `{other}` in line: {line}"),
        }
    }
    assert!(event_lines > 0, "instrumentation emitted no events");

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("observe dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "fig9_window_size.jsonl",
            "fig9_window_size_manifest.json",
            "results"
        ]
    );
    let raw = std::fs::read_to_string(dir.join("fig9_window_size_manifest.json"))
        .expect("run manifest written");
    let manifest: RunManifest = serde_json::from_str(&raw).expect("manifest deserializes");
    let summary = manifest.summary.expect("manifest carries the summary");

    assert_eq!(summary.experiment, "fig9_window_size");
    assert_eq!(summary.events_recorded, event_lines);
    assert_eq!(summary.spans_recorded, span_pairs);
    for (name, n) in &per_name {
        assert_eq!(
            summary.counter(&format!("event.{name}")),
            Some(*n),
            "counter/stream mismatch for event `{name}`"
        );
    }

    // Independent totals: every probed host emits one event whose
    // `observations` field counts its tracker records.
    assert_eq!(hosts_observed, (clients + candidates) as u64);
    assert_eq!(
        summary.counter(stage::CORE_TRACKER.calls),
        Some(observations_from_events),
        "tracker counter disagrees with the per-host event fields"
    );

    // The instrumented subsystems all reported in.
    for counter in [
        stage::CDN_AUTHORITATIVE_ANSWER.calls,
        stage::CORE_RATIO_MAP.calls,
        "netsim.rtt_samples",
    ] {
        assert!(
            summary.counter(counter).unwrap_or(0) > 0,
            "expected counter `{counter}` to be non-zero"
        );
    }
    assert!(
        summary.histogram("core.rank.top_score").is_some(),
        "ranking histogram missing"
    );

    // The report binary walks the same stream against the same summary.
    let out = dir.join("report");
    let status = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg(&dir)
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run report");
    assert!(matches!(status.code(), Some(0 | 1)), "{status}");
    let raw = std::fs::read_to_string(out.join("run_report.json")).expect("run report written");
    let report: RunReport = serde_json::from_str(&raw).expect("a RunReport");
    let stream = report
        .verdicts
        .iter()
        .find(|v| v.name == "stream-matches-summary")
        .expect("stream verdict present");
    assert!(stream.passed, "{stream:?}");
    let records = jsonl.lines().count();
    let expected =
        format!("1 stream(s) match their summaries (fig9_window_size {records} record(s))");
    assert_eq!(stream.detail, expected);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_a_manifest_without_summary() {
    let dir = std::env::temp_dir().join(format!("crp-report-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = r#"{"experiment":"exp","summary":null,"provenance":null,"timeseries":null,
        "alerts":null,"traces":null,"mem":null,"drift":null,"detect":null}"#;
    #[expect(
        clippy::disallowed_methods,
        reason = "the test plants a manifest for the binary to read"
    )]
    std::fs::write(dir.join("exp_manifest.json"), manifest).expect("write");
    let status = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg(&dir)
        .arg("--out")
        .arg(dir.join("out"))
        .status()
        .expect("run report");
    assert_eq!(
        status.code(),
        Some(2),
        "a manifest without summary is malformed"
    );
    assert!(!dir.join("out").exists(), "no report for a malformed run");
    let _ = std::fs::remove_dir_all(&dir);
}
