//! Failure-mode and edge-case integration tests: the system must degrade
//! gracefully, never panic, when parts of the world misbehave.

use crp::{CdnProbe, Scenario, ScenarioConfig};
use crp_cdn::{Cdn, DeploymentSpec, MappingConfig};
use crp_core::{ObservationSource, SimilarityMetric, SmfConfig, WindowPolicy};
use crp_dns::DomainName;
use crp_netsim::{HostProfile, NetworkBuilder, PopulationSpec, Region, SimDuration, SimTime};

#[test]
fn client_with_no_observations_is_reported_not_paniced() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 1,
        candidate_servers: 4,
        clients: 2,
        cdn_scale: 0.2,
        ..ScenarioConfig::default()
    });
    // Nobody observed anything: the service is empty.
    let service: crp_core::CrpService<crp_netsim::HostId, crp_cdn::ReplicaId> =
        crp_core::CrpService::new(WindowPolicy::All, SimilarityMetric::Cosine);
    let client = scenario.clients()[0];
    assert!(service
        .closest(&client, scenario.candidates().to_vec(), SimTime::ZERO)
        .is_err());
    let clustering = service.cluster(&SmfConfig::paper(0.1), SimTime::ZERO);
    assert_eq!(clustering.total_nodes(), 0);
}

#[test]
fn probe_against_unknown_names_yields_no_observations() {
    let mut net = NetworkBuilder::new(2)
        .tier1_count(3)
        .transit_per_region(1)
        .stubs_per_region(3)
        .build();
    let host = net.add_population(&PopulationSpec::dns_servers(1))[0];
    let cdn = Cdn::deploy(
        net,
        &DeploymentSpec::akamai_like(0.2),
        MappingConfig::default(),
    );
    // Valid name, but the CDN does not serve it.
    let name: DomainName = "www.not-a-customer.example".parse().unwrap();
    let mut probe = CdnProbe::new(&cdn, host, vec![name]);
    for i in 0..5 {
        assert_eq!(probe.observe(SimTime::from_mins(i * 10)), None);
    }
    assert_eq!(probe.queries_issued(), 5);
}

#[test]
fn region_without_any_replica_still_gets_answers() {
    // The CDN has zero presence in Africa; African clients must still be
    // answered (with scattered/fallback servers), not dropped.
    let mut net = NetworkBuilder::new(3)
        .tier1_count(3)
        .transit_per_region(2)
        .stubs_per_region(6)
        .build();
    let clients = net.add_population(&PopulationSpec::single_region(
        HostProfile::DnsServer,
        4,
        Region::Africa,
    ));
    let spec = DeploymentSpec::custom(vec![(Region::NorthAmerica, 30)], 6);
    let mut cdn = Cdn::deploy(net, &spec, MappingConfig::default());
    let name = cdn.add_customer("us.i1.yimg.com").unwrap();
    for &client in &clients {
        let mut probe = CdnProbe::new(&cdn, client, vec![name.clone()]);
        let mut answered = 0;
        for i in 0..12u64 {
            if probe.observe(SimTime::from_mins(i * 10)).is_some() {
                answered += 1;
            }
        }
        assert_eq!(answered, 12, "client {client} lost answers");
    }
    let stats = cdn.stats();
    assert!(
        stats.fallback_answers + stats.scattered_answers > 0,
        "coverage machinery never engaged: {stats:?}"
    );
}

#[test]
fn filtered_probe_can_go_completely_dark() {
    // With the §VI filter on and only CDN-owned fallbacks reachable, a
    // probe may legitimately produce nothing; downstream must cope.
    let mut net = NetworkBuilder::new(4)
        .tier1_count(3)
        .transit_per_region(1)
        .stubs_per_region(3)
        .build();
    let client = net.add_population(&PopulationSpec::single_region(
        HostProfile::DnsServer,
        1,
        Region::Africa,
    ))[0];
    // One distant edge replica and many fallbacks.
    let spec = DeploymentSpec::custom(vec![(Region::NorthAmerica, 1)], 8);
    let mut cdn = Cdn::deploy(
        net,
        &spec,
        MappingConfig {
            fallback_probability: 1.0,
            coverage_radius_ms: 1.0, // everyone is poorly covered
            ..MappingConfig::default()
        },
    );
    // Full share: the single edge replica must be eligible.
    let name = cdn.add_customer_with_share("us.i1.yimg.com", 1.0).unwrap();
    let mut probe = CdnProbe::new(&cdn, client, vec![name]).filter_cdn_owned(true);
    let mut saw_any = false;
    for i in 0..10u64 {
        if probe.observe(SimTime::from_mins(i * 10)).is_some() {
            saw_any = true;
        }
    }
    assert!(!saw_any, "filter should drop all fallback-only answers");
}

#[test]
fn single_candidate_selection_is_trivially_stable() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 5,
        candidate_servers: 1,
        clients: 3,
        cdn_scale: 0.2,
        ..ScenarioConfig::default()
    });
    let end = SimTime::from_hours(3);
    let service = scenario.observe_all(
        SimTime::ZERO,
        end,
        SimDuration::from_mins(10),
        WindowPolicy::All,
        SimilarityMetric::Cosine,
    );
    for &client in scenario.clients() {
        if let Ok(ranking) = service.closest(&client, scenario.candidates().to_vec(), end) {
            assert_eq!(ranking.len(), 1);
            assert_eq!(ranking.top(), Some(&scenario.candidates()[0]));
        }
    }
}

#[test]
fn window_larger_than_history_and_empty_window_behave() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 6,
        candidate_servers: 0,
        clients: 2,
        cdn_scale: 0.2,
        ..ScenarioConfig::default()
    });
    let end = SimTime::from_hours(1);
    let service = scenario.observe_hosts(
        scenario.clients(),
        SimTime::ZERO,
        end,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(10_000), // way more than the 6 probes taken
        SimilarityMetric::Cosine,
    );
    let client = scenario.clients()[0];
    assert!(service.ratio_map(&client, end).is_ok());

    // A max-age window entirely in the past selects nothing.
    let stale = service.with_window(WindowPolicy::MaxAge(SimDuration::from_secs(1)));
    assert!(stale.ratio_map(&client, SimTime::from_hours(50)).is_err());
}
