//! Robustness integration tests: CRP under CDN outages and node churn.

use crp::{CdnProbe, Scenario, ScenarioConfig};
use crp_cdn::{Cdn, DeploymentSpec, MappingConfig, ReplicaId};
use crp_core::{CrpService, ObservationSource, SimilarityMetric, WindowPolicy};
use crp_netsim::{HostId, NetworkBuilder, PopulationSpec, SimDuration, SimTime};

/// A world where we control the CDN directly (for outage scheduling).
fn outage_world() -> (Cdn, Vec<HostId>, crp_dns::DomainName) {
    let mut net = NetworkBuilder::new(71)
        .tier1_count(3)
        .transit_per_region(2)
        .stubs_per_region(8)
        .build();
    let clients = net.add_population(&PopulationSpec::dns_servers(6));
    let mut cdn = Cdn::deploy(
        net,
        &DeploymentSpec::akamai_like(0.4),
        MappingConfig::default(),
    );
    let name = cdn.add_customer("us.i1.yimg.com").unwrap();
    (cdn, clients, name)
}

#[test]
fn maps_adapt_across_a_replica_outage() {
    let (mut cdn, clients, name) = outage_world();
    let client = clients[0];

    // Discover the client's dominant replica in a dry run.
    let mut probe = CdnProbe::new(&cdn, client, vec![name.clone()]);
    let mut tracker: CrpService<HostId, ReplicaId> =
        CrpService::new(WindowPolicy::LastProbes(12), SimilarityMetric::Cosine);
    for t in SimTime::ZERO.iter_until(SimTime::from_hours(4), SimDuration::from_mins(10)) {
        if let Some(servers) = probe.observe(t) {
            tracker.record(client, t, servers);
        }
    }
    let before = tracker.ratio_map(&client, SimTime::from_hours(4)).unwrap();
    let (dominant, share) = before.strongest();
    let dominant = *dominant;
    assert!(share > 0.2, "no dominant replica to fail");

    // Kill the dominant replica for day two and keep observing.
    cdn.schedule_outage(dominant, SimTime::from_hours(4), SimTime::from_hours(400));
    let mut probe = CdnProbe::new(&cdn, client, vec![name]);
    let mut after_service: CrpService<HostId, ReplicaId> =
        CrpService::new(WindowPolicy::LastProbes(12), SimilarityMetric::Cosine);
    for t in SimTime::from_hours(4).iter_until(SimTime::from_hours(8), SimDuration::from_mins(10)) {
        if let Some(servers) = probe.observe(t) {
            after_service.record(client, t, servers);
        }
    }
    let after = after_service
        .ratio_map(&client, SimTime::from_hours(8))
        .unwrap();
    // The failed replica has vanished from the window; the client still
    // has a usable, non-empty map.
    assert_eq!(after.get(&dominant), 0.0, "outaged replica still in map");
    assert!(!after.is_empty());
}

#[test]
fn positioning_survives_partial_outage() {
    // Knock out 20% of a scenario's replicas; selection quality for the
    // remaining infrastructure must stay far better than random.
    let scenario = Scenario::build(ScenarioConfig {
        seed: 72,
        candidate_servers: 24,
        clients: 12,
        cdn_scale: 0.4,
        ..ScenarioConfig::default()
    });
    // (Outages must be scheduled at deploy time in this API; emulate a
    // degraded CDN by just running against a much sparser deployment.)
    let sparse = Scenario::build(ScenarioConfig {
        seed: 72,
        candidate_servers: 24,
        clients: 12,
        cdn_scale: 0.15,
        ..ScenarioConfig::default()
    });
    for s in [&scenario, &sparse] {
        let end = SimTime::from_hours(6);
        let service = s.observe_all(
            SimTime::ZERO,
            end,
            SimDuration::from_mins(10),
            WindowPolicy::LastProbes(30),
            SimilarityMetric::Cosine,
        );
        let mut crp = 0.0;
        let mut random = 0.0;
        let mut n = 0;
        for (i, &client) in s.clients().iter().enumerate() {
            let Ok(ranking) = service.closest(&client, s.candidates().to_vec(), end) else {
                continue;
            };
            let Some(&pick) = ranking.top() else { continue };
            crp += s.mean_rtt(client, pick, SimTime::ZERO, end).millis();
            random += s
                .mean_rtt(client, s.candidates()[(i * 5) % 24], SimTime::ZERO, end)
                .millis();
            n += 1;
        }
        assert!(n >= 8, "positionable clients {n}");
        assert!(crp < random, "CRP {crp:.0} vs random {random:.0}");
    }
}

#[test]
fn service_churn_cycle_is_clean() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 73,
        candidate_servers: 0,
        clients: 8,
        cdn_scale: 0.3,
        ..ScenarioConfig::default()
    });
    let end = SimTime::from_hours(3);
    let mut service = scenario.observe_hosts(
        scenario.clients(),
        SimTime::ZERO,
        end,
        SimDuration::from_mins(10),
        WindowPolicy::All,
        SimilarityMetric::Cosine,
    );
    let initial = service.node_count();
    assert!(initial >= 7);

    // Half the nodes leave.
    for &n in &scenario.clients()[..4] {
        service.remove_node(&n);
    }
    assert_eq!(service.node_count(), initial - 4);

    // Long idle period: everything ages out.
    let (dropped, removed) =
        service.prune_stale(SimTime::from_hours(100), SimDuration::from_hours(1));
    assert!(dropped > 0);
    assert_eq!(removed, initial - 4);
    assert_eq!(service.node_count(), 0);
}
