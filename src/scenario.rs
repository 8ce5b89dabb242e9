//! Reproducible experiment scenarios.
//!
//! A [`Scenario`] assembles everything the paper's evaluation needs —
//! the synthetic Internet, the CDN with its customer names, a
//! PlanetLab-like candidate-server population and a King-like client
//! population — and runs observation campaigns over it. Every eval
//! binary, example and integration test goes through this type, so the
//! construction order (clients before CDN deployment, which freezes the
//! host set) lives in exactly one place.

use crate::probe::CdnProbe;
use crp_cdn::{Cdn, DeploymentSpec, EventLog, EventScript, MappingConfig, ReplicaId};
use crp_core::{CrpService, ObservationSource, SimilarityMetric, WindowPolicy};
use crp_dns::DomainName;
use crp_netsim::{
    HostId, KingConfig, KingEstimator, LatencyConfig, NetworkBuilder, PopulationSpec, Rtt,
    SimDuration, SimTime,
};

/// Parameters of a scenario. The defaults reproduce the paper's scale:
/// 240 Meridian-capable candidate servers, 1,000 DNS-server clients, the
/// full Akamai-like CDN footprint, and the Yahoo / Fox News pair of
/// customer names.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed; every random choice derives from it.
    pub seed: u64,
    /// Number of candidate servers (PlanetLab-like placement).
    pub candidate_servers: usize,
    /// Number of client hosts (King-data-set-like placement).
    pub clients: usize,
    /// CDN footprint scale (1.0 ≈ 240 replicas).
    pub cdn_scale: f64,
    /// Customer names to probe.
    pub customer_names: Vec<String>,
    /// CDN mapping behavior.
    pub mapping: MappingConfig,
    /// Explicit deployment override; `None` uses
    /// [`DeploymentSpec::akamai_like`] at `cdn_scale`.
    pub deployment: Option<DeploymentSpec>,
    /// Draw clients from the broadly-distributed cohort (the paper's
    /// clustering data set) instead of the King-like profile.
    pub broad_clients: bool,
    /// Enable the §VI CDN-owned-address filter on every probe.
    pub filter_cdn_owned: bool,
    /// Scripted infrastructure events applied to the CDN at build time
    /// (reserves staged before customers register, timeline applied
    /// after). The resulting ground-truth [`EventLog`] is kept on the
    /// scenario for detection evaluation.
    pub events: Option<EventScript>,
    /// Latency-model override; `None` uses [`LatencyConfig::default`].
    /// Tests that need a static metric space (e.g. exact remap ground
    /// truth) pass [`LatencyConfig::static_network`].
    pub latency: Option<LatencyConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            candidate_servers: 240,
            clients: 1_000,
            cdn_scale: 1.0,
            customer_names: vec!["us.i1.yimg.com".to_owned(), "www.foxnews.com".to_owned()],
            mapping: MappingConfig::default(),
            deployment: None,
            broad_clients: false,
            filter_cdn_owned: false,
            events: None,
            latency: None,
        }
    }
}

/// A fully assembled experiment world.
pub struct Scenario {
    cdn: Cdn,
    candidates: Vec<HostId>,
    clients: Vec<HostId>,
    names: Vec<DomainName>,
    filter_cdn_owned: bool,
    event_log: EventLog,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("candidates", &self.candidates.len())
            .field("clients", &self.clients.len())
            .field("names", &self.names)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Builds the scenario: topology, populations, CDN, customers.
    ///
    /// # Panics
    ///
    /// Panics if the config is degenerate (no customer names, invalid
    /// mapping config, non-positive CDN scale).
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        crp_telemetry::stage!(SCENARIO_BUILD);
        assert!(!cfg.customer_names.is_empty(), "need at least one CDN name");
        let mut builder = NetworkBuilder::new(cfg.seed);
        if let Some(latency) = cfg.latency.clone() {
            builder = builder.latency(latency);
        }
        let mut net = builder.build();
        let candidates = net.add_population(&PopulationSpec::planetlab(cfg.candidate_servers));
        let client_spec = if cfg.broad_clients {
            PopulationSpec::broad_dns_servers(cfg.clients)
        } else {
            PopulationSpec::dns_servers(cfg.clients)
        };
        let clients = net.add_population(&client_spec);
        let deployment = cfg
            .deployment
            .unwrap_or_else(|| DeploymentSpec::akamai_like(cfg.cdn_scale));
        let mut cdn = Cdn::deploy(net, &deployment, cfg.mapping);
        // Dormant reserves must exist before customers register (the
        // customer's eligible set and shortlists freeze at that point),
        // while the timeline itself only mutates SimTime-keyed state
        // and so can be applied once the fleet is fully wired.
        if let Some(script) = &cfg.events {
            script.stage(&mut cdn);
        }
        #[expect(
            clippy::expect_used,
            reason = "customer names come from the validated config"
        )]
        let names = cfg
            .customer_names
            .iter()
            .map(|n| cdn.add_customer(n).expect("customer names are valid"))
            .collect();
        let event_log = cfg
            .events
            .as_ref()
            .map(|script| script.apply(&mut cdn))
            .unwrap_or_default();
        Scenario {
            cdn,
            candidates,
            clients,
            names,
            filter_cdn_owned: cfg.filter_cdn_owned,
            event_log,
        }
    }

    /// The underlying network (for ground-truth RTT measurements).
    pub fn network(&self) -> &crp_netsim::Network {
        self.cdn.network()
    }

    /// The simulated CDN.
    pub fn cdn(&self) -> &Cdn {
        &self.cdn
    }

    /// Ground truth for the scripted infrastructure events applied at
    /// build time (empty when the config carried no script). Detection
    /// evaluation matches the audit layer's `DetectedChange` records
    /// against this log.
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Candidate-server hosts (the selection targets in Figs. 4–5).
    pub fn candidates(&self) -> &[HostId] {
        &self.candidates
    }

    /// Client hosts (the DNS servers issuing positioning queries).
    pub fn clients(&self) -> &[HostId] {
        &self.clients
    }

    /// The CDN customer names probed by every host.
    pub fn names(&self) -> &[DomainName] {
        &self.names
    }

    /// A King estimator over this scenario's network — the paper's
    /// ground-truth measurement channel.
    pub fn king(&self, cfg: KingConfig) -> KingEstimator<'_> {
        KingEstimator::new(self.network(), cfg)
    }

    /// Runs the probing campaign for `hosts`: one observation per
    /// `interval` in `[start, end)` for each host, recorded into a
    /// [`CrpService`] configured with `window` and `metric`.
    pub fn observe_hosts(
        &self,
        hosts: &[HostId],
        start: SimTime,
        end: SimTime,
        interval: SimDuration,
        window: WindowPolicy,
        metric: SimilarityMetric,
    ) -> CrpService<HostId, ReplicaId> {
        crp_telemetry::stage!(SCENARIO_OBSERVE);
        let mut service = CrpService::new(window, metric);
        let campaign = crp_telemetry::span(
            start.as_millis(),
            crp_telemetry::stage::SCENARIO_OBSERVE.name,
        );
        for &host in hosts {
            let mut probe = CdnProbe::new(&self.cdn, host, self.names.to_vec())
                .filter_cdn_owned(self.filter_cdn_owned);
            let mut recorded = 0u64;
            for t in start.iter_until(end, interval) {
                if let Some(servers) = probe.observe(t) {
                    service.record(host, t, servers);
                    recorded += 1;
                }
            }
            if crp_telemetry::enabled() {
                crp_telemetry::event(
                    end.as_millis(),
                    "scenario.host_observed",
                    &[
                        ("host", host.index().into()),
                        ("observations", recorded.into()),
                    ],
                );
            }
        }
        campaign.end(end.as_millis());
        if crp_telemetry::timeseries::enabled() {
            use crp_telemetry::MemFootprint;
            crp_telemetry::observe_at(
                end.as_millis(),
                "mem.footprint.core.service",
                service.mem_footprint() as f64,
            );
            crp_telemetry::observe_at(
                end.as_millis(),
                "mem.footprint.cdn.tables",
                self.cdn.mem_footprint() as f64,
            );
            // Occupancy of the bounded remap-event observer, so the
            // report dashboard charts how close the campaign came to the
            // capacity at which remap ground truth starts dropping.
            crp_telemetry::observe_at(
                end.as_millis(),
                "mem.footprint.cdn.remap_observer",
                self.cdn.remap_observer_footprint() as f64,
            );
        }
        service
    }

    /// [`observe_hosts`] over candidates and clients together — the
    /// full campaign behind the closest-node experiments.
    ///
    /// [`observe_hosts`]: Scenario::observe_hosts
    pub fn observe_all(
        &self,
        start: SimTime,
        end: SimTime,
        interval: SimDuration,
        window: WindowPolicy,
        metric: SimilarityMetric,
    ) -> CrpService<HostId, ReplicaId> {
        let hosts: Vec<HostId> = self
            .candidates
            .iter()
            .chain(&self.clients)
            .copied()
            .collect();
        self.observe_hosts(&hosts, start, end, interval, window, metric)
    }

    /// Ground-truth mean RTT between two hosts over a window — the
    /// quantity the paper measured directly between PlanetLab nodes and
    /// DNS servers to score recommendations.
    pub fn mean_rtt(&self, a: HostId, b: HostId, start: SimTime, end: SimTime) -> Rtt {
        self.network().mean_rtt(a, b, start, end, 8)
    }

    /// The candidates ordered by ground-truth mean RTT to `client`
    /// (closest first) — the "complete, RTT-based ordering of servers"
    /// recommendations are ranked against.
    pub fn rtt_ordered_candidates(
        &self,
        client: HostId,
        start: SimTime,
        end: SimTime,
    ) -> Vec<(HostId, Rtt)> {
        let mut out: Vec<(HostId, Rtt)> = self
            .candidates
            .iter()
            .map(|&c| (c, self.mean_rtt(client, c, start, end)))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The rank of `selected` in the client's RTT-based candidate
    /// ordering (0 = optimal), or `None` if `selected` is not a
    /// candidate. This is the metric of Figs. 8–9.
    pub fn rank_of(
        &self,
        client: HostId,
        selected: HostId,
        start: SimTime,
        end: SimTime,
    ) -> Option<usize> {
        self.rtt_ordered_candidates(client, start, end)
            .iter()
            .position(|(c, _)| *c == selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::build(ScenarioConfig {
            seed: 11,
            candidate_servers: 10,
            clients: 5,
            cdn_scale: 0.25,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn build_wires_everything() {
        let s = tiny();
        assert_eq!(s.candidates().len(), 10);
        assert_eq!(s.clients().len(), 5);
        assert_eq!(s.names().len(), 2);
        assert!(s.cdn().replicas().len() > 10);
    }

    #[test]
    fn observation_campaign_populates_service() {
        let s = tiny();
        let service = s.observe_all(
            SimTime::ZERO,
            SimTime::from_hours(2),
            SimDuration::from_mins(10),
            WindowPolicy::All,
            SimilarityMetric::Cosine,
        );
        // Nearly every host should have observations (poor-coverage
        // clients may occasionally miss).
        assert!(service.node_count() >= 13, "{}", service.node_count());
        let now = SimTime::from_hours(2);
        let map = service.ratio_map(&s.candidates()[0], now).unwrap();
        assert!(!map.is_empty());
        assert!(map.len() < 30, "map too scattered: {}", map.len());
    }

    #[test]
    fn ranking_and_rank_of_agree() {
        let s = tiny();
        let start = SimTime::ZERO;
        let end = SimTime::from_hours(1);
        let order = s.rtt_ordered_candidates(s.clients()[0], start, end);
        assert_eq!(order.len(), 10);
        assert!(order.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(s.rank_of(s.clients()[0], order[0].0, start, end), Some(0));
        assert_eq!(s.rank_of(s.clients()[0], order[9].0, start, end), Some(9));
        assert_eq!(s.rank_of(s.clients()[0], s.clients()[1], start, end), None);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = tiny();
        let b = tiny();
        let sa = a.observe_hosts(
            &a.clients()[..2],
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_mins(10),
            WindowPolicy::All,
            SimilarityMetric::Cosine,
        );
        let sb = b.observe_hosts(
            &b.clients()[..2],
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_mins(10),
            WindowPolicy::All,
            SimilarityMetric::Cosine,
        );
        let now = SimTime::from_hours(1);
        assert_eq!(
            sa.ratio_map(&a.clients()[0], now).ok(),
            sb.ratio_map(&b.clients()[0], now).ok()
        );
    }

    #[test]
    fn scripted_events_apply_at_build_and_keep_ground_truth() {
        use crp_cdn::{EventClass, EventKind, EventScript};
        use crp_netsim::Region;
        let script = EventScript::new().with_reserve(Region::NorthAmerica, 4).at(
            SimTime::from_hours(2),
            EventKind::RegionalPoolFlip {
                region: Region::NorthAmerica,
                fraction: 0.5,
            },
        );
        let s = Scenario::build(ScenarioConfig {
            seed: 11,
            candidate_servers: 10,
            clients: 5,
            cdn_scale: 0.25,
            events: Some(script),
            ..ScenarioConfig::default()
        });
        assert_eq!(s.event_log().len(), 1);
        let record = &s.event_log().records[0];
        assert_eq!(record.class, EventClass::RegionalPoolFlip);
        assert_eq!(record.at_ms, SimTime::from_hours(2).as_millis());
        assert!(!record.replicas.is_empty());
        // The world still observes normally with the script in place.
        let service = s.observe_hosts(
            &s.clients()[..2],
            SimTime::ZERO,
            SimTime::from_hours(1),
            SimDuration::from_mins(10),
            WindowPolicy::All,
            SimilarityMetric::Cosine,
        );
        assert!(service.node_count() >= 1);
        // No script → empty log.
        assert!(tiny().event_log().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one CDN name")]
    fn empty_names_rejected() {
        let _ = Scenario::build(ScenarioConfig {
            customer_names: vec![],
            clients: 1,
            candidate_servers: 1,
            ..ScenarioConfig::default()
        });
    }
}
