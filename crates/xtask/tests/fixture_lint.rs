//! End-to-end tests for the lint pass, driven over the fixture tree in
//! `tests/fixtures/` (which the workspace walk itself skips).

use crp_xtask::{lint_root, Severity};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// The complete expected finding set for the fixture tree, as
/// `(path, line, rule)` tuples.
const EXPECTED: &[(&str, usize, &str)] = &[
    ("crates/core/src/clock.rs", 3, "CRP004"),
    ("crates/core/src/clock.rs", 3, "CRP007"),
    ("crates/core/src/clock.rs", 6, "CRP004"),
    ("crates/core/src/clock.rs", 6, "CRP007"),
    ("crates/core/src/ratio.rs", 7, "CRP009"),
    ("crates/core/src/ratio.rs", 28, "CRP014"),
    ("crates/core/src/service.rs", 7, "CRP015"),
    ("crates/demo/src/lib.rs", 4, "CRP001"),
    ("crates/demo/src/lib.rs", 8, "CRP002"),
    ("crates/demo/src/lib.rs", 13, "CRP003"),
    ("crates/demo/src/lib.rs", 17, "CRP005"),
    ("crates/demo/src/sinkio.rs", 5, "CRP006"),
    ("crates/demo/src/sinkio.rs", 10, "CRP006"),
    ("crates/demo/src/stale.rs", 12, "CRP012"),
    ("crates/demo/src/stale.rs", 25, "CRP012"),
    ("crates/demo/src/ticker.rs", 7, "CRP016"),
    ("crates/demo/src/tracehook.rs", 4, "CRP008"),
    ("crates/demo/src/wallclock.rs", 4, "CRP007"),
    ("crates/demo/src/wallclock.rs", 7, "CRP007"),
    ("crates/dns/src/serve.rs", 6, "CRP010"),
    ("crates/netsim/src/order.rs", 10, "CRP011"),
];

#[test]
fn fixture_tree_reports_exactly_the_planted_violations() {
    let diags = lint_root(&fixtures_root(), &[]).expect("fixture tree is readable");
    let got: Vec<(String, usize, &str)> = diags
        .iter()
        .map(|d| (d.file.to_string_lossy().replace('\\', "/"), d.line, d.rule))
        .collect();
    let want: Vec<(String, usize, &str)> = EXPECTED
        .iter()
        .map(|&(f, l, r)| (f.to_owned(), l, r))
        .collect();
    assert_eq!(got, want, "full diagnostics: {diags:#?}");
}

#[test]
fn allow_markers_suppress_fixture_lines() {
    // lib.rs lines 21 and 26 carry `.expect(` calls covered by same-line
    // and preceding-line allow markers; sinkio.rs line 15 carries a
    // marker-covered `File::create`; wallclock.rs line 12 a
    // marker-covered `SystemTime::now`; ratio.rs line 15 a justified
    // hot-path allocation (CRP009); serve.rs lines 18 and 20 justified
    // panic/indexing (CRP010); order.rs line 26 a justified hash
    // iteration (CRP011). The transitive rules are silenced the same
    // way: ratio.rs line 34 carries a justified CRP014 call edge,
    // service.rs line 13 a justified CRP015 edge, ticker.rs line 13 a
    // justified CRP016 edge, and picks.rs line 8 a justified CRP010
    // indexing that still taints CRP015 callers. None may appear.
    let suppressed: &[(&str, &[usize])] = &[
        ("lib.rs", &[21, 26]),
        ("sinkio.rs", &[15]),
        ("wallclock.rs", &[12]),
        ("ratio.rs", &[15, 34]),
        ("serve.rs", &[18, 20]),
        ("order.rs", &[26]),
        ("service.rs", &[13]),
        ("ticker.rs", &[13]),
        ("picks.rs", &[8]),
    ];
    let diags = lint_root(&fixtures_root(), &[]).expect("fixture tree is readable");
    for diag in &diags {
        for &(file, lines) in suppressed {
            assert!(
                !(diag.file.ends_with(file) && lines.contains(&diag.line)),
                "allow marker failed to suppress {diag}"
            );
        }
    }
}

#[test]
fn sanctioned_sites_exempt_change_detection_hooks() {
    // The fixture tree plants a trace-minting hook at the scripted-event
    // site (crates/cdn/src/events.rs), which is on the sanctioned list,
    // so it may not produce a CRP008 finding.
    let diags = lint_root(&fixtures_root(), &[]).expect("fixture tree is readable");
    for diag in &diags {
        assert!(
            !diag.file.ends_with("cdn/src/events.rs"),
            "sanctioned site flagged: {diag}"
        );
    }
}

#[test]
fn severities_match_rule_definitions() {
    let diags = lint_root(&fixtures_root(), &[]).expect("fixture tree is readable");
    for diag in &diags {
        let expected = if diag.rule == "CRP005" {
            Severity::Warning
        } else {
            Severity::Error
        };
        assert_eq!(diag.severity, expected, "severity mismatch: {diag}");
    }
}

#[test]
fn demotion_turns_every_fixture_error_into_a_warning() {
    let demoted: Vec<String> = [
        "CRP001", "CRP002", "CRP003", "CRP004", "CRP006", "CRP007", "CRP008", "CRP009", "CRP010",
        "CRP011", "CRP012", "CRP014", "CRP015", "CRP016",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let diags = lint_root(&fixtures_root(), &demoted).expect("fixture tree is readable");
    assert_eq!(diags.len(), EXPECTED.len());
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn binary_exits_nonzero_on_fixture_tree() {
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("run crp-xtask");
    assert!(
        !output.status.success(),
        "lint must fail on the fixture tree"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for rule in [
        "CRP001", "CRP002", "CRP003", "CRP004", "CRP005", "CRP006", "CRP007", "CRP008", "CRP009",
        "CRP010", "CRP011", "CRP012", "CRP014", "CRP015", "CRP016",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in output:\n{stdout}");
    }
    assert!(!stdout.contains("CRP013"), "{stdout}");
    assert!(stdout.contains("call chain:"), "{stdout}");
    assert!(stdout.contains("20 error(s), 1 warning(s)"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--quiet", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run crp-xtask");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "workspace must lint clean:\n{stdout}"
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn update_baseline_then_ratchet_passes_and_reports_deltas() {
    let baseline =
        std::env::temp_dir().join(format!("crp_fixture_baseline_{}.json", std::process::id()));
    let update = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--root"])
        .arg(fixtures_root())
        .arg("--baseline")
        .arg(&baseline)
        .arg("--update-baseline")
        .output()
        .expect("run crp-xtask");
    assert!(update.status.success(), "--update-baseline must exit green");

    // Re-linting at the recorded allowances passes: every error is
    // absorbed and the delta table shows the buckets at baseline.
    let ratcheted = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--root"])
        .arg(fixtures_root())
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .expect("run crp-xtask");
    let stdout = String::from_utf8_lossy(&ratcheted.stdout);
    let _ = std::fs::remove_file(&baseline);
    assert!(
        ratcheted.status.success(),
        "ratcheted run must pass:\n{stdout}"
    );
    assert!(stdout.contains("at baseline"), "{stdout}");
    assert!(stdout.contains("0 error(s), 1 warning(s)"), "{stdout}");
    assert!(stdout.contains("baselined)"), "{stdout}");
}

#[test]
fn json_report_carries_diagnostics_and_ratchet_rows() {
    let report_path =
        std::env::temp_dir().join(format!("crp_fixture_report_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--quiet", "--no-baseline", "--root"])
        .arg(fixtures_root())
        .arg("--json")
        .arg(&report_path)
        .output()
        .expect("run crp-xtask");
    assert!(!output.status.success());
    let text = std::fs::read_to_string(&report_path).expect("report written");
    let _ = std::fs::remove_file(&report_path);
    let doc = crp_xtask::json::parse(&text).expect("report parses");
    assert_eq!(doc.get("errors").and_then(|v| v.as_u64()), Some(20));
    assert_eq!(doc.get("warnings").and_then(|v| v.as_u64()), Some(1));
    let diags = match doc.get("diagnostics") {
        Some(crp_xtask::json::Value::Arr(items)) => items.len(),
        other => panic!("diagnostics must be an array, got {other:?}"),
    };
    assert_eq!(diags, EXPECTED.len());
    // Strict mode has no ratchet rows.
    assert!(matches!(
        doc.get("ratchet"),
        Some(crp_xtask::json::Value::Arr(rows)) if rows.is_empty()
    ));
}

#[test]
fn reachability_chains_render_across_file_boundaries() {
    let diags = lint_root(&fixtures_root(), &[]).expect("fixture tree is readable");
    let chain_of = |rule: &str| -> &str {
        &diags
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("{rule} must fire on the fixture tree"))
            .chain
    };
    let alloc = chain_of("CRP014");
    assert!(
        alloc.contains("dot (crates/core/src/ratio.rs:27)"),
        "{alloc}"
    );
    assert!(
        alloc.contains("grow (crates/core/src/scratch.rs:6)"),
        "{alloc}"
    );
    assert!(
        alloc.contains("`Vec::new` (crates/core/src/scratch.rs:7)"),
        "{alloc}"
    );
    let panic = chain_of("CRP015");
    assert!(
        panic.contains("closest (crates/core/src/service.rs:6)"),
        "{panic}"
    );
    assert!(
        panic.contains("strongest (crates/core/src/picks.rs:6)"),
        "{panic}"
    );
    assert!(
        panic.contains("`[...]` (crates/core/src/picks.rs:8)"),
        "{panic}"
    );
    let clock = chain_of("CRP016");
    assert!(
        clock.contains("fetch (crates/demo/src/ticker.rs:6)"),
        "{clock}"
    );
    assert!(
        clock.contains("leak (crates/demo/src/wallclock.rs:6)"),
        "{clock}"
    );
    assert!(
        clock.contains("`SystemTime::now` (crates/demo/src/wallclock.rs:7)"),
        "{clock}"
    );
}

#[test]
fn graph_export_writes_nodes_edges_unresolved_and_chains() {
    let graph_path =
        std::env::temp_dir().join(format!("crp_fixture_graph_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--quiet", "--no-baseline", "--root"])
        .arg(fixtures_root())
        .arg("--graph")
        .arg(&graph_path)
        .output()
        .expect("run crp-xtask");
    // The fixture tree still fails the lint, but the graph is written
    // first so CI can upload it from failing runs too.
    assert!(!output.status.success());
    let text = std::fs::read_to_string(&graph_path).expect("graph written");
    let _ = std::fs::remove_file(&graph_path);
    let doc = crp_xtask::json::parse(&text).expect("graph parses");
    let arr_len = |key: &str| match doc.get(key) {
        Some(crp_xtask::json::Value::Arr(items)) => items.len(),
        other => panic!("{key} must be an array, got {other:?}"),
    };
    assert!(arr_len("nodes") > 0);
    assert!(arr_len("edges") > 0);
    // The unresolved bucket is reported, never silently dropped: the
    // fixture tree calls into crates outside itself (thread_rng, trace
    // hooks), which the conservative resolver must surface.
    assert!(arr_len("unresolved") > 0);
    assert_eq!(arr_len("chains"), 3, "one chain per CRP014/015/016 finding");
    let frac = doc
        .get("unresolved_fraction")
        .and_then(|v| v.as_f64())
        .expect("unresolved_fraction present");
    assert!((0.0..=1.0).contains(&frac));
    assert!(text.contains("dot (crates/core/src/ratio.rs:27)"), "{text}");
}

#[test]
fn max_unresolved_gate_fails_only_above_threshold() {
    // The fixture tree has a nonzero unresolved fraction (~0.07), so a
    // zero budget must fail with the gate's message...
    let strict = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--quiet", "--no-baseline", "--root"])
        .arg(fixtures_root())
        .args(["--max-unresolved", "0.0"])
        .output()
        .expect("run crp-xtask");
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("exceeds --max-unresolved"), "{stderr}");

    // ...while a generous budget lets the run proceed to the ordinary
    // lint verdict (no gate message).
    let loose = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--quiet", "--no-baseline", "--root"])
        .arg(fixtures_root())
        .args(["--max-unresolved", "1.0"])
        .output()
        .expect("run crp-xtask");
    assert!(!loose.status.success(), "fixture lint errors still fail");
    let stderr = String::from_utf8_lossy(&loose.stderr);
    assert!(!stderr.contains("exceeds --max-unresolved"), "{stderr}");
}

#[test]
fn binary_rejects_unknown_options() {
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .args(["lint", "--bogus"])
        .output()
        .expect("run crp-xtask");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn rules_listing_skips_the_retired_ids() {
    let output = Command::new(env!("CARGO_BIN_EXE_crp-xtask"))
        .arg("rules")
        .output()
        .expect("run crp-xtask");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("CRP012") && stdout.contains("CRP014"),
        "{stdout}"
    );
    assert!(!stdout.contains("CRP013"), "{stdout}");
}
