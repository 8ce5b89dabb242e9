//! Run-health report over an `--observe` directory:
//!
//! ```text
//! report <observe-dir> [--out <dir>]
//! ```
//!
//! Reads every `<experiment>_manifest.json` in the directory, prints
//! each run's live dashboard (time series, causal traces), joins the
//! runs into the three run-health verdicts (drift, tail errors,
//! lossless time series), prints one line per verdict, and writes
//! `<out>/run_report.json` (default `results/`). Exits 0 when
//! healthy, 1 when a verdict failed, and 2 on a usage error or a
//! malformed manifest.

use crp_eval::{audit, output, telemetry};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: report <observe-dir> [--out <dir>]";

fn parse(args: &[String]) -> Result<(PathBuf, PathBuf), String> {
    let mut dir = None;
    let mut out = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    Ok((dir.ok_or("missing <observe-dir>")?, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, out_dir) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("report: {err}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let joined = telemetry::load(&dir).and_then(|manifests| {
        if manifests.is_empty() {
            return Err(format!("{}: no <experiment>_manifest.json", dir.display()));
        }
        let report = audit::run_report(&manifests, Vec::new(), Vec::new())?;
        let path = audit::write_run_report(&out_dir, &report)?;
        Ok((manifests, report, path))
    });
    let (manifests, report, path) = match joined {
        Ok(joined) => joined,
        Err(err) => {
            eprintln!("report: {err}");
            return ExitCode::from(2);
        }
    };
    let printed = output::emit(&mut std::io::stdout().lock(), |out| {
        for manifest in &manifests {
            telemetry::dashboard(out, manifest)?;
            writeln!(out)?;
        }
        for v in &report.verdicts {
            writeln!(out, "  {v}")?;
        }
        writeln!(out, "  [wrote {}]", path.display())
    });
    if let Err(err) = printed {
        eprintln!("report: {err}");
        return ExitCode::from(2);
    }
    if report.healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
