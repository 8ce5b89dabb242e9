//! Text dashboard over an `--observe` run's artifacts:
//!
//! ```text
//! live_report <dir> <experiment>
//! ```
//!
//! Reads `<dir>/<experiment>_timeseries.json`,
//! `<dir>/<experiment>_traces.json`, and
//! `<dir>/<experiment>_alerts.json` and renders the run the way an
//! on-call engineer would want to see it: per-metric aggregates with
//! tail quantiles, the alert rules with their firing history, and the
//! sampled causal traces with full span trees. Exits non-zero if any
//! artifact is missing or malformed.

use crp_telemetry::alert::AlertLog;
use crp_telemetry::timeseries::{TimeSeriesExport, WindowExport};
use crp_telemetry::trace::TraceLog;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir, experiment] = args.as_slice() else {
        eprintln!("usage: live_report <dir> <experiment>");
        return ExitCode::from(2);
    };
    match report(Path::new(dir), experiment) {
        Ok(text) => {
            // A closed stdout (e.g. piped into `head`) is not an error
            // for a report printer — swallow it instead of panicking.
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(text.as_bytes());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("live_report: {err}");
            ExitCode::FAILURE
        }
    }
}

fn load<T: serde::Deserialize>(dir: &Path, name: &str) -> Result<T, String> {
    let path = dir.join(name);
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = serde_json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    T::from_value(&value).map_err(|e| format!("{}: unexpected shape: {e}", path.display()))
}

/// Quantile estimate from a window's bucket histogram, mirroring the
/// store's own rank walk (bucket upper bound, clamped to [min, max]).
fn quantile(w: &WindowExport, bounds: &[f64], q: f64) -> Option<f64> {
    if w.count == 0 {
        return None;
    }
    let rank = ((q * w.count as f64).ceil() as u64).clamp(1, w.count);
    let mut seen = 0u64;
    for (i, n) in w.buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let upper = bounds.get(i).copied().unwrap_or(w.max);
            return Some(upper.clamp(w.min, w.max));
        }
    }
    Some(w.max)
}

fn hours(ms: u64) -> f64 {
    ms as f64 / 3_600_000.0
}

fn report(dir: &Path, experiment: &str) -> Result<String, String> {
    let ts: TimeSeriesExport = load(dir, &format!("{experiment}_timeseries.json"))?;
    let traces: TraceLog = load(dir, &format!("{experiment}_traces.json"))?;
    let alerts: AlertLog = load(dir, &format!("{experiment}_alerts.json"))?;

    let mut out = String::new();
    let mut push = |line: &str| {
        out.push_str(line);
        out.push('\n');
    };

    push(&format!("live report: {experiment}"));
    push("");
    push("== time series ==");
    push(&format!(
        "{:<34} {:>8} {:>9} {:>9} {:>9} {:>9}  windows",
        "metric", "count", "mean", "p50", "p99", "max"
    ));
    for series in &ts.series {
        let t = &series.total;
        let mean = if t.count > 0 {
            t.sum / t.count as f64
        } else {
            0.0
        };
        let p50 = quantile(t, &ts.bounds, 0.50).unwrap_or(0.0);
        let p99 = quantile(t, &ts.bounds, 0.99).unwrap_or(0.0);
        let widths: Vec<String> = series
            .tiers
            .iter()
            .map(|tier| format!("{}@{}s", tier.windows.len(), tier.window_ms / 1000))
            .collect();
        push(&format!(
            "{:<34} {:>8} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {}",
            series.name,
            t.count,
            mean,
            p50,
            p99,
            t.max,
            widths.join(" ")
        ));
    }
    if ts.late_dropped > 0 || ts.series_dropped > 0 {
        push(&format!(
            "dropped: {} late samples, {} past the series cap",
            ts.late_dropped, ts.series_dropped
        ));
    }

    push("");
    push("== alerts ==");
    for outcome in &alerts.rules {
        let fired = outcome
            .transitions
            .iter()
            .filter(|t| t.state == "firing")
            .count();
        push(&format!(
            "{:<24} {:>9}  breached {}/{} windows, fired {} time(s)",
            outcome.rule.name,
            outcome.final_state,
            outcome.breached_windows,
            outcome.evaluated_windows,
            fired
        ));
        for t in &outcome.transitions {
            push(&format!(
                "    {:>8.2}h  {:<8}  value {:.3}",
                hours(t.at_ms),
                t.state,
                t.value
            ));
        }
    }

    push("");
    push("== causal traces ==");
    push(&format!(
        "minted {}, sampled {} (1 in {}), dropped {}",
        traces.minted, traces.sampled, traces.sample_one_in, traces.dropped_traces
    ));
    // Exemplars connect the tail back to the traces: list each top-
    // bucket exemplar of the ingest-latency series that we can expand.
    if let Some(series) = ts.series("cdn.best_candidate_ms") {
        for ex in &series.total.exemplars {
            let reachable = traces.trace(&ex.trace).is_some();
            push(&format!(
                "exemplar bucket {} -> trace {} ({})",
                ex.bucket,
                ex.trace,
                if reachable { "sampled" } else { "unsampled" }
            ));
        }
    }
    // A handful of full span trees is enough to see the causal shape;
    // the rest stay in the JSON for targeted queries.
    const SHOWN: usize = 3;
    for tree in traces.traces.iter().take(SHOWN) {
        push(&format!(
            "trace {} (start {:.2}h, {} span(s){})",
            tree.id,
            hours(tree.start_ms),
            tree.spans.len(),
            if tree.dropped_spans > 0 {
                format!(", {} dropped", tree.dropped_spans)
            } else {
                String::new()
            }
        ));
        for span in &tree.spans {
            let times = if span.count > 1 {
                format!(" x{}", span.count)
            } else {
                String::new()
            };
            push(&format!(
                "    {:>8.2}h  {}{times}",
                hours(span.time_ms),
                span.name
            ));
        }
    }
    if traces.traces.len() > SHOWN {
        push(&format!(
            "... and {} more sampled trace(s) in the JSON",
            traces.traces.len() - SHOWN
        ));
    }
    Ok(out)
}
