//! Prints the synthetic world behind the experiments — AS counts, host
//! placement, RTT quantiles — and optionally exports the full structure
//! as JSON for external analysis:
//!
//! ```text
//! cargo run --release -p crp-eval --bin describe_world -- --seed 42
//! ```

use crp::{Scenario, ScenarioConfig};
use crp_eval::output;
use crp_eval::EvalArgs;
use crp_netsim::SimTime;

fn main() {
    let args = EvalArgs::parse();
    let _telemetry = crp_eval::telemetry::session(&args, "describe_world");
    let scenario = Scenario::build(ScenarioConfig {
        seed: args.seed,
        candidate_servers: args.candidates.unwrap_or(240),
        clients: args.clients.unwrap_or(1_000),
        cdn_scale: args.scale.unwrap_or(1.0),
        ..ScenarioConfig::default()
    });
    output::section("world", "the synthetic Internet behind the experiments");
    output::kv(&[("seed", args.seed.to_string())]);

    let net = scenario.network();
    let summary = net.summarize(5_000, SimTime::from_hours(1));
    println!("\n{summary}");
    println!(
        "\nCDN: {} replicas across {} customer names",
        scenario.cdn().replicas().len(),
        scenario.cdn().customers().len()
    );

    // One worked example of an explainable RTT.
    let a = scenario.clients()[0];
    let b = scenario.clients()[1];
    println!(
        "\nexample pair {a} <-> {b}: {}",
        net.explain_rtt(a, b, SimTime::from_hours(1))
    );

    // Full JSON export.
    let description = net.describe();
    let json = serde_json::to_string(&description).expect("world serializes");
    let dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(dir).expect("create results directory");
    let path = dir.join(format!("world_seed{}.json", args.seed));
    #[expect(
        clippy::disallowed_methods,
        reason = "the experiment binary writes the world description"
    )]
    std::fs::write(&path, json).expect("write world description");
    println!(
        "\n[wrote {} — {} ASes, {} links, {} hosts]",
        path.display(),
        description.ases.len(),
        description.link_count(),
        description.hosts.len()
    );
}
