//! CDN name selection (§VI).
//!
//! The paper hand-picked its two CDN names from historical data, but
//! sketches how a deployment should choose them automatically:
//!
//! > "One way to do this is to ping the replica servers returned for
//! > each CDN name during the bootstrapping phase and use only those
//! > names corresponding to low-latency servers. […] If one requires an
//! > adaptive solution that does not perform any active probing, one can
//! > eliminate those CDN names that return replica servers that do not
//! > provide positioning information" — e.g. names answering with
//! > CDN-owned (far-away fallback) addresses.
//!
//! [`NameEvaluator`] implements both policies: an *active* bootstrap
//! (one small burst of pings to returned replicas) and a *passive*
//! filter (reject names whose answers include CDN-owned addresses or
//! that barely rotate, since a constant answer carries no frequency
//! information).

use crp_cdn::{Cdn, ReplicaId};
use crp_dns::{DomainName, RecursiveResolver};
use crp_netsim::{HostId, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Verdict for one candidate CDN name at one host.
#[derive(Clone, Debug, PartialEq)]
pub struct NameAssessment {
    /// The name that was probed.
    pub name: DomainName,
    /// Probes that returned at least one replica.
    pub answered: u32,
    /// Probes whose answers included a CDN-owned address.
    pub cdn_owned_answers: u32,
    /// Distinct replicas observed across the bootstrap burst.
    pub distinct_replicas: usize,
    /// Mean RTT (ms) from this host to the returned replicas — only
    /// measured by the active policy, `None` under the passive one.
    pub mean_replica_rtt_ms: Option<f64>,
}

impl NameAssessment {
    /// The passive §VI acceptance rule: the name answered, never with
    /// CDN-owned fallbacks, and with enough rotation to build a ratio
    /// map worth comparing.
    pub fn passes_passive(&self) -> bool {
        self.answered > 0 && self.cdn_owned_answers == 0 && self.distinct_replicas >= 2
    }

    /// The active acceptance rule: passive checks plus a latency bound
    /// on the returned replicas.
    ///
    /// # Panics
    ///
    /// Panics if this assessment was produced passively (no RTTs were
    /// measured); callers choose one policy up front.
    pub fn passes_active(&self, max_mean_rtt_ms: f64) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract: the active policy measured replica RTTs"
        )]
        let rtt = self
            .mean_replica_rtt_ms
            .expect("active policy measured replica RTTs");
        self.passes_passive() && rtt <= max_mean_rtt_ms
    }
}

/// Evaluates candidate CDN names for one host during bootstrap.
#[derive(Debug)]
pub struct NameEvaluator<'a> {
    cdn: &'a Cdn,
    host: HostId,
    probes: u32,
    interval: SimDuration,
}

impl<'a> NameEvaluator<'a> {
    /// Creates an evaluator issuing `probes` lookups per name, spaced by
    /// `interval` (the paper's bootstrap is ~10 probes at 10 minutes).
    ///
    /// # Panics
    ///
    /// Panics if `probes` is zero.
    pub fn new(cdn: &'a Cdn, host: HostId, probes: u32, interval: SimDuration) -> Self {
        assert!(probes > 0, "bootstrap needs at least one probe");
        NameEvaluator {
            cdn,
            host,
            probes,
            interval,
        }
    }

    /// Assesses one name starting at `start`. With `active` set, each
    /// distinct replica is also "pinged" once (costing RTT measurements);
    /// otherwise the assessment is purely passive.
    pub fn assess(&self, name: &DomainName, start: SimTime, active: bool) -> NameAssessment {
        let mut resolver = RecursiveResolver::new(self.host);
        let mut answered = 0u32;
        let mut cdn_owned_answers = 0u32;
        let mut seen: BTreeSet<ReplicaId> = BTreeSet::new();
        let mut t = start;
        for _ in 0..self.probes {
            if let Ok(resp) = resolver.resolve_uncached(name, self.cdn, t) {
                answered += 1;
                let ips = resp.a_addresses();
                if ips.iter().any(|ip| self.cdn.ip_is_cdn_owned(*ip)) {
                    cdn_owned_answers += 1;
                }
                seen.extend(ips.into_iter().filter_map(ReplicaId::from_ip));
            }
            t += self.interval;
        }
        let mean_replica_rtt_ms = if active && !seen.is_empty() {
            let net = self.cdn.network();
            let total: f64 = seen
                .iter()
                .map(|r| {
                    net.rtt(self.host, self.cdn.replicas()[r.index()].host(), t)
                        .millis()
                })
                .sum();
            Some(total / seen.len() as f64)
        } else {
            None
        };
        NameAssessment {
            name: name.clone(),
            answered,
            cdn_owned_answers,
            distinct_replicas: seen.len(),
            mean_replica_rtt_ms,
        }
    }

    /// Assesses all `names` and returns those passing the chosen policy,
    /// best first (fewest CDN-owned answers, then most rotation, then —
    /// actively — lowest replica RTT).
    pub fn select(
        &self,
        names: &[DomainName],
        start: SimTime,
        active: Option<f64>,
    ) -> Vec<NameAssessment> {
        let mut passing: Vec<NameAssessment> = names
            .iter()
            .map(|n| self.assess(n, start, active.is_some()))
            .filter(|a| match active {
                Some(bound) => a.passes_active(bound),
                None => a.passes_passive(),
            })
            .collect();
        passing.sort_by(|a, b| {
            a.cdn_owned_answers
                .cmp(&b.cdn_owned_answers)
                .then_with(|| b.distinct_replicas.cmp(&a.distinct_replicas))
                .then_with(|| {
                    let ra = a.mean_replica_rtt_ms.unwrap_or(0.0);
                    let rb = b.mean_replica_rtt_ms.unwrap_or(0.0);
                    ra.total_cmp(&rb)
                })
        });
        passing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_cdn::{DeploymentSpec, MappingConfig};
    use crp_netsim::{HostProfile, NetworkBuilder, PopulationSpec, Region};

    fn world() -> (Cdn, HostId, HostId, Vec<DomainName>) {
        let mut net = NetworkBuilder::new(31)
            .tier1_count(3)
            .transit_per_region(2)
            .stubs_per_region(8)
            .build();
        let near = net.add_population(&PopulationSpec::single_region(
            HostProfile::DnsServer,
            1,
            Region::NorthAmerica,
        ))[0];
        let far = net.add_population(&PopulationSpec::single_region(
            HostProfile::DnsServer,
            1,
            Region::Africa,
        ))[0];
        // Dense in NA only, so the far host draws fallbacks.
        let spec = DeploymentSpec::custom(vec![(Region::NorthAmerica, 40)], 8);
        let mut cdn = Cdn::deploy(
            net,
            &spec,
            MappingConfig {
                fallback_probability: 0.9,
                ..MappingConfig::default()
            },
        );
        let names = vec![
            cdn.add_customer("us.i1.yimg.com").unwrap(),
            cdn.add_customer("www.foxnews.com").unwrap(),
        ];
        (cdn, near, far, names)
    }

    #[test]
    fn well_covered_host_accepts_names_passively() {
        let (cdn, near, _, names) = world();
        let eval = NameEvaluator::new(&cdn, near, 10, SimDuration::from_mins(10));
        let picked = eval.select(&names, SimTime::ZERO, None);
        assert_eq!(
            picked.len(),
            2,
            "both names should pass for a well-covered host"
        );
        for a in &picked {
            assert!(a.passes_passive());
            assert!(
                a.mean_replica_rtt_ms.is_none(),
                "passive mode must not ping"
            );
        }
    }

    #[test]
    fn poorly_covered_host_rejects_fallback_names() {
        let (cdn, _, far, names) = world();
        let eval = NameEvaluator::new(&cdn, far, 10, SimDuration::from_mins(10));
        let picked = eval.select(&names, SimTime::ZERO, None);
        assert!(
            picked.len() < 2,
            "a host fed CDN-owned fallbacks should reject at least one name"
        );
    }

    #[test]
    fn active_policy_enforces_latency_bound() {
        let (cdn, near, _, names) = world();
        let eval = NameEvaluator::new(&cdn, near, 10, SimDuration::from_mins(10));
        let lenient = eval.select(&names, SimTime::ZERO, Some(500.0));
        let strict = eval.select(&names, SimTime::ZERO, Some(0.01));
        assert!(!lenient.is_empty());
        assert!(lenient[0].mean_replica_rtt_ms.is_some());
        assert!(strict.is_empty(), "no replica is within 0.01 ms");
    }

    #[test]
    fn assessment_counts_are_consistent() {
        let (cdn, near, _, names) = world();
        let eval = NameEvaluator::new(&cdn, near, 6, SimDuration::from_mins(10));
        let a = eval.assess(&names[0], SimTime::ZERO, false);
        assert!(a.answered <= 6);
        assert!(a.cdn_owned_answers <= a.answered);
        assert!(a.distinct_replicas <= a.answered as usize * 2);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let (cdn, near, _, _) = world();
        let _ = NameEvaluator::new(&cdn, near, 0, SimDuration::from_mins(1));
    }

    #[test]
    #[should_panic(expected = "active policy measured")]
    fn passive_assessment_cannot_answer_active_question() {
        let (cdn, near, _, names) = world();
        let eval = NameEvaluator::new(&cdn, near, 3, SimDuration::from_mins(10));
        let a = eval.assess(&names[0], SimTime::ZERO, false);
        let _ = a.passes_active(100.0);
    }
}
