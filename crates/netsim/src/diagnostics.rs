//! Diagnostics: summaries and path reconstruction for synthetic worlds.
//!
//! The experiment binaries print model summaries so a reader can judge
//! what world produced the numbers, and AS-level path reconstruction
//! makes individual RTTs explainable ("why is this pair 180 ms apart?").

use crate::geo::Region;
use crate::rtt::Rtt;
use crate::time::SimTime;
use crate::topology::{AsId, AsTier, HostId, Network};
use std::collections::VecDeque;
use std::fmt;

/// Per-region composition of a network.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Stub + transit ASes in the region.
    pub ases: usize,
    /// Hosts attached in the region.
    pub hosts: usize,
}

/// A structural summary of the synthetic world.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldSummary {
    /// Total autonomous systems.
    pub as_count: usize,
    /// Total hosts.
    pub host_count: usize,
    /// Composition per region, in [`Region::ALL`] order.
    pub regions: Vec<(Region, RegionSummary)>,
    /// Sampled RTT quantiles (p10, p50, p90) across random host pairs,
    /// in milliseconds.
    pub rtt_quantiles_ms: (f64, f64, f64),
}

impl fmt::Display for WorldSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ASes, {} hosts", self.as_count, self.host_count)?;
        for (region, s) in &self.regions {
            writeln!(f, "  {region}: {} ASes, {} hosts", s.ases, s.hosts)?;
        }
        let (p10, p50, p90) = self.rtt_quantiles_ms;
        write!(
            f,
            "  pairwise RTT p10/p50/p90: {p10:.0}/{p50:.0}/{p90:.0} ms"
        )
    }
}

impl Network {
    /// Summarizes the world's structure, sampling up to `samples` host
    /// pairs for the RTT quantiles at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the network has fewer than two hosts.
    pub fn summarize(&self, samples: usize, t: SimTime) -> WorldSummary {
        assert!(
            self.host_count() >= 2,
            "need at least two hosts to sample RTTs"
        );
        let mut regions: Vec<(Region, RegionSummary)> = Region::ALL
            .iter()
            .map(|r| (*r, RegionSummary::default()))
            .collect();
        for a in self.ases() {
            regions[a.region().index() as usize].1.ases += 1;
        }
        for h in self.hosts() {
            regions[h.region().index() as usize].1.hosts += 1;
        }
        let n = self.host_count();
        let mut rtts: Vec<f64> = Vec::with_capacity(samples);
        for i in 0..samples {
            let a = self.hosts()
                [(crate::noise::mix(&[self.seed(), 0xD1A6, i as u64]) % n as u64) as usize]
                .id();
            let b = self.hosts()
                [(crate::noise::mix(&[self.seed(), 0xD1A7, i as u64]) % n as u64) as usize]
                .id();
            if a == b {
                continue;
            }
            rtts.push(self.rtt(a, b, t).millis());
        }
        rtts.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if rtts.is_empty() {
                0.0
            } else {
                rtts[((rtts.len() - 1) as f64 * p).round() as usize]
            }
        };
        WorldSummary {
            as_count: self.ases().len(),
            host_count: n,
            regions,
            rtt_quantiles_ms: (q(0.1), q(0.5), q(0.9)),
        }
    }

    /// The shortest AS-level path between two ASes (inclusive of both
    /// endpoints), reconstructed by BFS.
    ///
    /// # Panics
    ///
    /// Panics if either id does not belong to this network.
    pub fn as_path(&self, from: AsId, to: AsId) -> Vec<AsId> {
        if from == to {
            return vec![from];
        }
        let n = self.ases().len();
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut queue = VecDeque::from([from.index() as u32]);
        parent[from.index()] = Some(from.index() as u32);
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in self.as_neighbors(self.ases()[u as usize].id()) {
                if parent[v as usize].is_none() {
                    parent[v as usize] = Some(u);
                    if v as usize == to.index() {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        let mut path = vec![to];
        let mut cur = to.index() as u32;
        #[expect(
            clippy::expect_used,
            reason = "BFS parents cover every AS: the topology is connected by construction"
        )]
        while cur != from.index() as u32 {
            cur = parent[cur as usize].expect("graph is connected");
            path.push(self.ases()[cur as usize].id());
        }
        path.reverse();
        path
    }

    /// A human-readable explanation of one host pair's RTT at `t`:
    /// the AS path, distance, and per-component contributions.
    pub fn explain_rtt(&self, a: HostId, b: HostId, t: SimTime) -> RttExplanation {
        let ha = self.host(a);
        let hb = self.host(b);
        let path = self.as_path(ha.asn(), hb.asn());
        RttExplanation {
            total: self.rtt(a, b, t),
            baseline: self.baseline_rtt(a, b),
            distance_km: ha.location().great_circle_km(hb.location()),
            as_path: path,
            access_ms: ha.access_ms() + hb.access_ms(),
        }
    }
}

/// Decomposition of one pair's RTT.
#[derive(Clone, Debug, PartialEq)]
pub struct RttExplanation {
    /// The RTT at the queried instant.
    pub total: Rtt,
    /// The static floor (propagation + hops + access).
    pub baseline: Rtt,
    /// Great-circle distance between the hosts.
    pub distance_km: f64,
    /// AS-level path, endpoints inclusive.
    pub as_path: Vec<AsId>,
    /// Combined last-mile contribution.
    pub access_ms: f64,
}

impl fmt::Display for RttExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path: Vec<String> = self.as_path.iter().map(AsId::to_string).collect();
        write!(
            f,
            "{} ({}km, baseline {}, access {:.1}ms, path {})",
            self.total,
            self.distance_km.round(),
            self.baseline,
            self.access_ms,
            path.join(" -> ")
        )
    }
}

/// Tier of an AS along a path, for display/debug.
pub fn tier_label(tier: AsTier) -> &'static str {
    match tier {
        AsTier::Tier1 => "tier1",
        AsTier::Transit => "transit",
        AsTier::Stub => "stub",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;
    use crate::topology::NetworkBuilder;

    fn world() -> Network {
        let mut net = NetworkBuilder::new(51)
            .tier1_count(3)
            .transit_per_region(2)
            .stubs_per_region(4)
            .build();
        net.add_population(&PopulationSpec::dns_servers(20));
        net
    }

    #[test]
    fn summary_accounts_for_everything() {
        let net = world();
        let s = net.summarize(200, SimTime::ZERO);
        assert_eq!(s.as_count, net.ases().len());
        assert_eq!(s.host_count, 20);
        let region_hosts: usize = s.regions.iter().map(|(_, r)| r.hosts).sum();
        assert_eq!(region_hosts, 20);
        let (p10, p50, p90) = s.rtt_quantiles_ms;
        assert!(p10 <= p50 && p50 <= p90);
        assert!(p90 < 1_000.0);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn as_path_endpoints_and_adjacency() {
        let net = world();
        let a = net.ases()[5].id();
        let b = net.ases().last().expect("ases exist").id();
        let path = net.as_path(a, b);
        assert_eq!(*path.first().expect("non-empty"), a);
        assert_eq!(*path.last().expect("non-empty"), b);
        // Path length matches the hop-count table.
        assert_eq!(path.len() as u32 - 1, net.as_hops(a, b));
        // Consecutive entries are graph neighbors.
        for w in path.windows(2) {
            assert!(net.as_neighbors(w[0]).contains(&(w[1].index() as u32)));
        }
    }

    #[test]
    fn as_path_to_self_is_singleton() {
        let net = world();
        let a = net.ases()[0].id();
        assert_eq!(net.as_path(a, a), vec![a]);
    }

    #[test]
    fn explanation_is_consistent() {
        let net = world();
        let a = net.hosts()[0].id();
        let b = net.hosts()[7].id();
        let e = net.explain_rtt(a, b, SimTime::from_mins(30));
        assert_eq!(e.total, net.rtt(a, b, SimTime::from_mins(30)));
        assert!(e.total >= e.baseline * 0.9);
        assert!(!e.to_string().is_empty());
        assert_eq!(
            e.as_path.len() as u32 - 1,
            net.as_hops(net.host(a).asn(), net.host(b).asn())
        );
    }
}
