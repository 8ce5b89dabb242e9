//! End-to-end check of `--observe`: runs `fig9_window_size` at a tiny
//! scale and checks that it leaves one run manifest whose sections
//! agree. A counter bumped with a SimTime stamp reaches the summary and
//! the time series on separate paths, so the summary's count must equal
//! the series' whole-run sum (which also counts late points). The
//! `report` binary must then judge the directory with its three
//! verdicts, and reject a manifest it cannot judge. A fig4 campaign too
//! short for a drift window must still finish and hand its tail
//! inversions to its manifest.

use crp_eval::audit::RunReport;
use crp_eval::telemetry::RunManifest;
use crp_telemetry::stage;
use std::process::Command;

#[test]
fn fig9_observe_leaves_one_manifest_whose_sections_agree() {
    let dir = std::env::temp_dir().join(format!("crp-telemetry-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.join("results");
    let status = Command::new(env!("CARGO_BIN_EXE_fig9_window_size"))
        .args(["--seed", "5", "--hours", "12", "--scale", "0.25"])
        .args(["--clients", "12", "--candidates", "8"])
        .arg("--out")
        .arg(&out_dir)
        .arg("--observe")
        .arg(&dir)
        .status()
        .expect("run fig9_window_size");
    assert!(status.success(), "fig9_window_size failed: {status}");

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("observe dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["fig9_window_size_manifest.json", "results"]);
    let raw = std::fs::read_to_string(dir.join("fig9_window_size_manifest.json"))
        .expect("run manifest written");
    let manifest: RunManifest = serde_json::from_str(&raw).expect("manifest deserializes");
    let summary = manifest
        .summary
        .as_ref()
        .expect("manifest carries the summary");
    let series = manifest
        .timeseries
        .as_ref()
        .expect("manifest carries the time series");
    assert_eq!(summary.experiment, "fig9_window_size");

    for name in [
        stage::CORE_TRACKER.calls,
        stage::CDN_AUTHORITATIVE_ANSWER.calls,
    ] {
        let counted = summary.counter(name).unwrap_or(0);
        assert!(counted > 0, "expected counter `{name}` to be non-zero");
        let total = series
            .series(name)
            .unwrap_or_else(|| panic!("no time series `{name}`"))
            .total
            .sum;
        assert_eq!(
            total, counted as f64,
            "summary and time series disagree on `{name}`"
        );
    }

    // The instrumented subsystems all reported in.
    for counter in [stage::CORE_RATIO_MAP.calls, "netsim.rtt_samples"] {
        assert!(
            summary.counter(counter).unwrap_or(0) > 0,
            "expected counter `{counter}` to be non-zero"
        );
    }
    assert!(
        summary.histogram("core.rank.top_score").is_some(),
        "ranking histogram missing"
    );

    // The report binary judges the directory with its three verdicts
    // and rolls the one summary up unchanged.
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
    let verdicts: Vec<&str> = report.verdicts.iter().map(|v| v.name.as_str()).collect();
    assert_eq!(
        verdicts,
        [
            "drift-within-bounds",
            "no-unexplained-tail-errors",
            "timeseries-lossless"
        ]
    );
    assert_eq!(report.combined.counters, summary.counters);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_a_manifest_without_summary() {
    let dir = std::env::temp_dir().join(format!("crp-report-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = r#"{"experiment":"exp","summary":null,"inversions":null,"timeseries":null,
        "traces":null,"mem":null,"detect":null}"#;
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

#[test]
fn fig4_one_hour_observe_keeps_its_inversions_without_a_drift_window() {
    let dir = std::env::temp_dir().join(format!("crp-fig4-short-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(env!("CARGO_BIN_EXE_fig4_closest_latency"))
        .args(["--seed", "5", "--hours", "1", "--scale", "0.25"])
        .args(["--clients", "8", "--candidates", "6"])
        .arg("--out")
        .arg(dir.join("results"))
        .arg("--observe")
        .arg(&dir)
        .status()
        .expect("run fig4_closest_latency");
    assert_eq!(status.code(), Some(0), "fig4_closest_latency failed");
    let raw = std::fs::read_to_string(dir.join("fig4_closest_latency_manifest.json"))
        .expect("run manifest written");
    let manifest: RunManifest = serde_json::from_str(&raw).expect("manifest deserializes");
    assert!(manifest.inversions.is_some(), "no inversions section");
    assert!(
        manifest.detect.is_none(),
        "a 1 h campaign has no drift window"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
