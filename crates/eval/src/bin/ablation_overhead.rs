//! §VI ablation: commensalism — what load does CRP put on the CDN?
//!
//! The paper argues a CRP client at a ~100-minute probing interval
//! "will generate an additional load significantly lower than what is
//! expected from an ordinary web client", and that passive monitoring
//! removes even that. This ablation measures all three deployment modes
//! against the CDN's own query counters.

use crp::{CdnProbe, PassiveMonitor, Scenario, ScenarioConfig};
use crp_core::ObservationSource;
use crp_eval::output;
use crp_eval::EvalArgs;
use crp_netsim::{noise, SimDuration, SimTime};

fn main() {
    let args = EvalArgs::parse();
    let _telemetry = crp_eval::telemetry::session(&args, "ablation_overhead");
    let scenario = Scenario::build(ScenarioConfig {
        seed: args.seed,
        candidate_servers: 0,
        clients: args.clients.unwrap_or(50),
        cdn_scale: args.scale.unwrap_or(0.5),
        ..ScenarioConfig::default()
    });
    output::section(
        "§VI",
        "commensalism: CRP load on the CDN per client per day",
    );
    output::kv(&[("seed", args.seed.to_string())]);

    let day = SimTime::from_hours(24);
    let host = scenario.clients()[0];
    let names = scenario.names().to_vec();

    // Mode 1: active probing at the paper's recommended 100-minute
    // interval.
    let mut probe_100 = CdnProbe::new(scenario.cdn(), host, names.clone());
    for t in SimTime::ZERO.iter_until(day, SimDuration::from_mins(100)) {
        let _ = probe_100.observe(t);
    }
    // Mode 2: active probing at the evaluation's 10-minute interval.
    let mut probe_10 = CdnProbe::new(scenario.cdn(), host, names.clone());
    for t in SimTime::ZERO.iter_until(day, SimDuration::from_mins(10)) {
        let _ = probe_10.observe(t);
    }
    // Mode 3: passive monitoring of a typical browsing day (bursts of
    // page loads; only cache misses reach the CDN).
    let mut passive = PassiveMonitor::new(scenario.cdn(), host, names);
    let mut browsing_lookups = 0u64;
    for burst in 0..20u64 {
        let start = SimTime::from_mins(30 + noise::mix(&[args.seed, burst]) % 1_380);
        passive.browse_session(start, SimDuration::from_mins(5), 8);
        browsing_lookups += 8;
    }
    // An ordinary web client, for the paper's comparison point: every
    // page load of a CDN-accelerated site re-resolves after the 20 s TTL
    // lapses — i.e. roughly one CDN query per page load.
    let web_client_queries = browsing_lookups;

    println!();
    output::kv(&[
        (
            "active probing, 100-min interval",
            format!("{} CDN queries/day", probe_100.queries_issued()),
        ),
        (
            "active probing, 10-min interval",
            format!("{} CDN queries/day", probe_10.queries_issued()),
        ),
        (
            "passive monitoring",
            format!(
                "{} added queries/day ({} observations harvested)",
                passive.added_queries(),
                passive.observations()
            ),
        ),
        (
            "ordinary web client (browsing)",
            format!("~{web_client_queries} CDN queries/day"),
        ),
    ]);
    println!(
        "\n  a 100-min CRP client costs {:.1}x an ordinary web user; per-node load is O(1) in system size",
        probe_100.queries_issued() as f64 / web_client_queries.max(1) as f64
    );

    // Where the answers came from: the load follows the fleet's
    // capacity, not any single replica.
    println!("\n  answers served per region:");
    for (region, count) in scenario.cdn().answers_by_region() {
        if count > 0 {
            println!("    {region:<14} {count}");
        }
    }

    output::write_csv(
        &args.out_dir,
        "ablation_overhead.csv",
        "mode,cdn_queries_per_day",
        &[
            format!("active_100min,{}", probe_100.queries_issued()),
            format!("active_10min,{}", probe_10.queries_issued()),
            format!("passive,{}", passive.added_queries()),
            format!("web_client,{web_client_queries}"),
        ],
    );
}
