//! Ablation: cluster stability under network dynamics.
//!
//! The paper leaves "determination of the optimal threshold" and the
//! temporal behavior of clusters as future work. This ablation measures
//! how much SMF clusterings churn as the network evolves: cluster the
//! same node set at several times across route epochs and report the
//! pairwise agreement (fraction of node pairs whose co-clustering
//! relation is preserved).

use crp::{Scenario, ScenarioConfig};
use crp_audit::detect::{self, DetectConfig};
use crp_core::{Clustering, SimilarityMetric, SmfConfig, WindowPolicy};
use crp_eval::output;
use crp_eval::EvalArgs;
use crp_netsim::{HostId, SimDuration, SimTime};

fn main() {
    let args = EvalArgs::parse();
    let mut telemetry = crp_eval::telemetry::session(&args, "ablation_cluster_stability");
    let scenario = Scenario::build(ScenarioConfig {
        seed: args.seed,
        candidate_servers: 0,
        clients: args.clients.unwrap_or(120),
        cdn_scale: args.scale.unwrap_or(1.0),
        broad_clients: true,
        ..ScenarioConfig::default()
    });
    output::section("ablation", "cluster stability across route epochs");
    output::kv(&[
        ("seed", args.seed.to_string()),
        ("nodes", scenario.clients().len().to_string()),
    ]);

    let horizon = SimTime::from_hours(48);
    let service = scenario.observe_hosts(
        scenario.clients(),
        SimTime::ZERO,
        horizon,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(30),
        SimilarityMetric::Cosine,
    );

    // Snapshot the clustering every 6 hours of the second day.
    let snapshots: Vec<(SimTime, Clustering<HostId>)> = (0..5)
        .map(|i| {
            let t = SimTime::from_hours(24 + i * 6);
            (t, service.cluster(&SmfConfig::paper(0.1), t))
        })
        .collect();

    println!("\n  snapshot summaries:");
    for (t, c) in &snapshots {
        let s = c.summary();
        println!(
            "    {}h: {} clusters, {} nodes clustered",
            t.as_millis() / 3_600_000,
            s.num_clusters,
            s.nodes_clustered
        );
    }

    let nodes = scenario.clients();
    let mut rows = Vec::new();
    println!("\n  pairwise Rand index between consecutive snapshots:");
    let mut indices = Vec::new();
    for w in snapshots.windows(2) {
        let ri = detect::rand_index(&w[0].1, &w[1].1, nodes);
        indices.push(ri);
        println!(
            "    {}h -> {}h: {:.3}",
            w[0].0.as_millis() / 3_600_000,
            w[1].0.as_millis() / 3_600_000,
            ri
        );
        rows.push(format!(
            "{},{},{:.4}",
            w[0].0.as_millis() / 3_600_000,
            w[1].0.as_millis() / 3_600_000,
            ri
        ));
    }
    let mean_ri = output::mean(&indices).unwrap_or(f64::NAN);
    println!("\n  mean consecutive agreement: {mean_ri:.3} (1.0 = perfectly stable)");

    output::write_csv(
        &args.out_dir,
        "ablation_cluster_stability.csv",
        "from_hour,to_hour,rand_index",
        &rows,
    );

    // Audit pass: the drift and churn scan over the same recorded
    // history — this is the run that exercises CDN remap detection, so
    // it compares consecutive snapshots over the whole horizon at
    // route-epoch granularity with the clustering diff enabled. Its
    // windows stay under the detector's warmup, so the record is the
    // drift and churn features alone, not raised changes.
    if telemetry.observing() {
        let mut detect_cfg =
            DetectConfig::new(SimTime::from_hours(2), horizon, SimDuration::from_hours(6));
        detect_cfg.lag_windows = 1;
        detect_cfg.smf = Some(SmfConfig::paper(0.1));
        let hosts = crp_eval::audit::region_scopes(&scenario, scenario.clients());
        let report = detect::scan(&service, &hosts, &detect_cfg);
        let max_cluster_distance = report
            .windows
            .iter()
            .map(|w| w.cluster_distance)
            .fold(0.0, f64::max);
        println!("\n  audit:");
        output::kv(&[
            ("drift windows", report.windows.len().to_string()),
            (
                "max drifted fraction",
                format!("{:.3}", report.max_drifted_fraction()),
            ),
            ("max cluster distance", format!("{max_cluster_distance:.3}")),
        ]);
        telemetry.set_detect(report);
    }
}
