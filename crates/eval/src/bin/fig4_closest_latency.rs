//! Figure 4: average latency to the selected server, per client, for
//! Meridian vs CRP Top-1 vs CRP Top-5.
//!
//! Paper shape: CRP Top-5 tracks Meridian over the body of the
//! distribution (≈65% of clients within ~7 ms / ~12%), beats it for
//! over 25% of clients, and both degrade in a poorly-covered tail.

use crp_audit::drift::DriftConfig;
use crp_eval::output::{self, sorted_series};
use crp_eval::{run_closest, ClosestConfig, EvalArgs};
use crp_netsim::{SimDuration, SimTime};

fn main() {
    let args = EvalArgs::parse();
    let telemetry = crp_eval::telemetry::session(&args, "fig4_closest_latency");
    let cfg = ClosestConfig::paper(&args);
    output::section(
        "Fig. 4",
        "closest-node selection: average latency per client",
    );
    output::kv(&[
        ("seed", args.seed.to_string()),
        ("clients", cfg.clients.to_string()),
        ("candidates", cfg.candidates.to_string()),
        (
            "campaign",
            format!("{}h @ {}", cfg.observe_hours, cfg.probe_interval),
        ),
    ]);

    let run = run_closest(&cfg);

    // Audit pass: classify tail-rank inversions into the provenance log
    // and drift-scan the candidates' recorded history. Both read state
    // the experiment already produced — nothing upstream changes.
    if let Some(dir) = telemetry.observe_dir() {
        let (total, unexplained) =
            crp_eval::audit::record_inversions(&run.outcomes, cfg.candidates);
        let mut drift_cfg = DriftConfig::new(
            SimTime::ZERO,
            SimTime::from_hours(cfg.observe_hours),
            SimDuration::from_hours((cfg.observe_hours / 6).max(1)),
        );
        drift_cfg.smf = None; // candidate drift only; churn is ablation_cluster_stability's job
        let timeline = crp_audit::drift::scan(&run.service, run.scenario.candidates(), &drift_cfg);
        println!("\n  audit:");
        output::kv(&[
            (
                "tail inversions",
                format!("{total} ({unexplained} unexplained)"),
            ),
            ("drift windows", timeline.windows.len().to_string()),
            (
                "max drifted fraction",
                format!("{:.3}", timeline.max_drifted_fraction()),
            ),
            ("remap events", timeline.remap_events.len().to_string()),
        ]);
        crp_eval::telemetry::write_artifact(dir, "fig4_closest_latency", "drift", &timeline);
    }

    let meridian: Vec<f64> = run.outcomes.iter().map(|o| o.meridian_ms).collect();
    let top1: Vec<f64> = run.outcomes.iter().map(|o| o.crp_top1_ms).collect();
    let top5: Vec<f64> = run.outcomes.iter().map(|o| o.crp_top5_ms).collect();
    let optimal: Vec<f64> = run.outcomes.iter().map(|o| o.optimal_ms).collect();

    println!("\n  per-client average latency to the selected server (ms):");
    output::kv(&[
        ("optimal", output::summary_line(&optimal)),
        ("meridian", output::summary_line(&meridian)),
        ("crp top-1", output::summary_line(&top1)),
        ("crp top-5", output::summary_line(&top5)),
    ]);

    // Head-to-head: CRP Top-5 vs Meridian, the paper's headline numbers.
    let diffs: Vec<f64> = run
        .outcomes
        .iter()
        .map(|o| o.crp_top5_ms - o.meridian_ms)
        .collect();
    let within_7ms = diffs.iter().filter(|d| d.abs() < 7.0).count() as f64 / diffs.len() as f64;
    let crp_wins = diffs.iter().filter(|d| **d < 0.0).count() as f64 / diffs.len() as f64;
    let meridian_2x = run
        .outcomes
        .iter()
        .filter(|o| o.meridian_ms > 2.0 * o.crp_top5_ms.max(1.0))
        .count() as f64
        / diffs.len() as f64;
    println!(
        "\n  CRP Top-5 vs Meridian (paper: ~65% within 7 ms, >25% better, ~10% meridian 2x worse):"
    );
    output::kv(&[
        ("|diff| < 7 ms", format!("{:.1}%", within_7ms * 100.0)),
        ("CRP better", format!("{:.1}%", crp_wins * 100.0)),
        ("Meridian > 2x CRP", format!("{:.1}%", meridian_2x * 100.0)),
    ]);

    // CSV: each curve sorted independently, like the paper's plot.
    let sm = sorted_series(&meridian);
    let s1 = sorted_series(&top1);
    let s5 = sorted_series(&top5);
    let so = sorted_series(&optimal);
    let rows: Vec<String> = (0..sm.len())
        .map(|i| format!("{},{:.3},{:.3},{:.3},{:.3}", i, sm[i], s1[i], s5[i], so[i]))
        .collect();
    output::write_csv(
        &args.out_dir,
        "fig4_closest_latency.csv",
        "client_index,meridian_ms,crp_top1_ms,crp_top5_ms,optimal_ms",
        &rows,
    );
    output::write_gnuplot(
        &args.out_dir,
        "fig4_closest_latency",
        "Fig. 4: average latency to the selected server",
        "average latency (ms)",
        "fig4_closest_latency.csv",
        &[
            (2, "Meridian"),
            (3, "CRP Top-1"),
            (4, "CRP Top-5"),
            (5, "optimal"),
        ],
    );
}
