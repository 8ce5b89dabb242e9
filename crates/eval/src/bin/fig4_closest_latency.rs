//! Figure 4: average latency to the selected server, per client, for
//! Meridian vs CRP Top-1 vs CRP Top-5.
//!
//! Paper shape: CRP Top-5 tracks Meridian over the body of the
//! distribution (≈65% of clients within ~7 ms / ~12%), beats it for
//! over 25% of clients, and both degrade in a poorly-covered tail.

use crp_audit::detect::DetectConfig;
use crp_eval::output::{self, sorted_series};
use crp_eval::{run_closest, ClosestConfig, EvalArgs};
use crp_netsim::{SimDuration, SimTime};

fn main() {
    let args = EvalArgs::parse();
    let mut telemetry = crp_eval::telemetry::session(&args, "fig4_closest_latency");
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

    // Audit pass: classify tail-rank inversions and scan the candidates'
    // recorded history for drift, comparing consecutive snapshots. Both
    // read state the experiment already produced — nothing upstream
    // changes. The scan starts one interval in: a map built from the
    // first probes has not settled yet, so a window from SimTime::ZERO
    // would judge warm-up, not drift. The interval is a fixed 2 h, well
    // inside the 5 h of probes a 30-probe map holds, so consecutive
    // snapshots share probes at any campaign length. A campaign that
    // ends by the first snapshot leaves nothing to scan.
    if telemetry.observing() {
        let inversions: Vec<_> = run
            .outcomes
            .iter()
            .filter_map(|o| crp_eval::audit::inversion_for(o, cfg.candidates))
            .collect();
        let unexplained = inversions.iter().filter(|i| !i.explained).count();
        let mut rows = vec![(
            "tail inversions",
            format!("{} ({unexplained} unexplained)", inversions.len()),
        )];
        telemetry.set_inversions(inversions);
        let interval = SimDuration::from_hours(2);
        let start = SimTime::ZERO + interval;
        let end = SimTime::from_hours(cfg.observe_hours);
        if end > start {
            let mut detect_cfg = DetectConfig::new(start, end, interval);
            detect_cfg.lag_windows = 1;
            // Candidate drift only: clustering stays off, churn is
            // ablation_cluster_stability's job.
            let hosts = crp_eval::audit::region_scopes(&run.scenario, run.scenario.candidates());
            let report = crp_audit::detect::scan(&run.service, &hosts, &detect_cfg);
            rows.push(("drift windows", report.windows.len().to_string()));
            rows.push((
                "max drifted fraction",
                format!("{:.3}", report.max_drifted_fraction()),
            ));
            telemetry.set_detect(report);
        }
        println!("\n  audit:");
        output::kv(&rows);
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
