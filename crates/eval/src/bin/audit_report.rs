//! Standalone audit-report generator:
//!
//! ```text
//! audit_report [--observe <dir>] [--out <dir>]
//! ```
//!
//! Joins the drift timelines and provenance logs an observed run left
//! in the `--observe` directory with `<out>/telemetry_summary.json` and
//! the bench baselines into `<out>/audit_report.json`, and prints the
//! three run-health verdicts. `run_all --observe` does the same join
//! at the end of a full campaign; this binary re-generates the report
//! from existing artifacts (e.g. after a single re-run experiment, or
//! to re-judge with a fresh bench baseline). Exits 1 when any verdict
//! fails, 2 on malformed artifacts.

use crp_eval::EvalArgs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = EvalArgs::parse();
    let Some(dir) = args.observe.as_deref() else {
        eprintln!("audit_report: --observe <dir> is required (where the run wrote its artifacts)");
        return ExitCode::from(2);
    };
    match crp_eval::audit::generate_report(Path::new(dir), &args.out_dir) {
        Ok(verdicts) => {
            let mut all_passed = true;
            for v in &verdicts {
                let mark = if v.passed { "ok " } else { "FAIL" };
                println!("  {mark} {}: {}", v.name, v.detail);
                all_passed &= v.passed;
            }
            if all_passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("audit_report: {err}");
            ExitCode::from(2)
        }
    }
}
