//! Host populations matching the paper's experimental cohorts.
//!
//! The evaluation used three host populations: PlanetLab nodes (candidate
//! servers — academically hosted, concentrated in North America, Europe
//! and East Asia), DNS servers from the King data set (clients — spread
//! worldwide), and Akamai replica servers (deployed by the CDN crate).
//! [`PopulationSpec`] encodes the first two as regional weight profiles.

use crate::geo::Region;
use crate::topology::{HostId, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The flavor of host being attached; controls last-mile latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostProfile {
    /// Academic/research node on a high-quality uplink.
    PlanetLab,
    /// A recursive DNS server, typically inside an ISP.
    DnsServer,
    /// An unremarkable end host (used by examples).
    Generic,
}

impl HostProfile {
    /// The last-mile latency range for the profile, in milliseconds.
    pub fn access_range_ms(self) -> (f64, f64) {
        match self {
            HostProfile::PlanetLab => (0.3, 2.0),
            HostProfile::DnsServer => (0.5, 5.0),
            HostProfile::Generic => (1.0, 18.0),
        }
    }

    /// The label prefix used for hosts of this profile.
    pub fn label_prefix(self) -> &'static str {
        match self {
            HostProfile::PlanetLab => "pl",
            HostProfile::DnsServer => "dns",
            HostProfile::Generic => "host",
        }
    }
}

/// A recipe for attaching `count` hosts with a regional weight profile.
///
/// # Example
///
/// ```
/// use crp_netsim::{NetworkBuilder, PopulationSpec};
///
/// let mut net = NetworkBuilder::new(1).build();
/// let servers = net.add_population(&PopulationSpec::planetlab(24));
/// assert_eq!(servers.len(), 24);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationSpec {
    profile: HostProfile,
    count: usize,
    weights: Vec<(Region, f64)>,
}

impl PopulationSpec {
    /// A PlanetLab-like cohort: heavy in North America and Europe, a
    /// meaningful East-Asia presence, thin elsewhere.
    pub fn planetlab(count: usize) -> Self {
        PopulationSpec {
            profile: HostProfile::PlanetLab,
            count,
            weights: vec![
                (Region::NorthAmerica, 0.44),
                (Region::Europe, 0.30),
                (Region::EastAsia, 0.15),
                (Region::Oceania, 0.04),
                (Region::SouthAmerica, 0.03),
                (Region::SouthAsia, 0.02),
                (Region::MiddleEast, 0.01),
                (Region::Africa, 0.01),
            ],
        }
    }

    /// A King-data-set-like cohort of DNS servers spread worldwide.
    pub fn dns_servers(count: usize) -> Self {
        PopulationSpec {
            profile: HostProfile::DnsServer,
            count,
            weights: vec![
                (Region::NorthAmerica, 0.30),
                (Region::Europe, 0.25),
                (Region::EastAsia, 0.15),
                (Region::SouthAsia, 0.08),
                (Region::SouthAmerica, 0.08),
                (Region::Oceania, 0.05),
                (Region::MiddleEast, 0.05),
                (Region::Africa, 0.04),
            ],
        }
    }

    /// A deliberately broadly-distributed DNS-server cohort — the paper's
    /// clustering data set was hand-picked for broad distribution, with a
    /// much larger share of hosts in sparsely-served regions than the raw
    /// King data set.
    pub fn broad_dns_servers(count: usize) -> Self {
        PopulationSpec {
            profile: HostProfile::DnsServer,
            count,
            weights: vec![
                (Region::NorthAmerica, 0.18),
                (Region::Europe, 0.16),
                (Region::EastAsia, 0.13),
                (Region::SouthAsia, 0.12),
                (Region::SouthAmerica, 0.12),
                (Region::Oceania, 0.10),
                (Region::MiddleEast, 0.10),
                (Region::Africa, 0.09),
            ],
        }
    }

    /// A custom cohort.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative weight, or if
    /// all weights are zero.
    pub fn custom(profile: HostProfile, count: usize, weights: Vec<(Region, f64)>) -> Self {
        assert!(!weights.is_empty(), "need at least one region weight");
        assert!(
            weights.iter().all(|(_, w)| *w >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            weights.iter().map(|(_, w)| w).sum::<f64>() > 0.0,
            "weights must not all be zero"
        );
        PopulationSpec {
            profile,
            count,
            weights,
        }
    }

    /// A cohort confined to a single region.
    pub fn single_region(profile: HostProfile, count: usize, region: Region) -> Self {
        PopulationSpec::custom(profile, count, vec![(region, 1.0)])
    }

    /// The host profile of the cohort.
    pub fn profile(&self) -> HostProfile {
        self.profile
    }

    /// The number of hosts to attach.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The regional weights.
    pub fn weights(&self) -> &[(Region, f64)] {
        &self.weights
    }

    fn sample_region<R: Rng + ?Sized>(&self, rng: &mut R) -> Region {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut draw = rng.random::<f64>() * total;
        for (region, w) in &self.weights {
            if draw < *w {
                return *region;
            }
            draw -= w;
        }
        #[expect(
            clippy::expect_used,
            reason = "weights are validated non-empty at construction"
        )]
        self.weights.last().expect("weights non-empty").0
    }
}

impl Network {
    /// Attaches a population of hosts per `spec` and returns their ids in
    /// attachment order. Placement is deterministic given the network
    /// seed, the spec, and the number of hosts already attached.
    pub fn add_population(&mut self, spec: &PopulationSpec) -> Vec<HostId> {
        let mut rng = StdRng::seed_from_u64(crate::noise::mix(&[
            self.seed(),
            0x90_90,
            self.host_count() as u64,
            spec.count as u64,
        ]));
        let mut out = Vec::with_capacity(spec.count);
        for i in 0..spec.count {
            let region = spec.sample_region(&mut rng);
            let label = format!("{}-{}", spec.profile.label_prefix(), self.host_count());
            let _ = i;
            out.push(self.add_host(region, spec.profile.access_range_ms(), label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NetworkBuilder;
    use std::collections::BTreeMap;

    fn net() -> Network {
        NetworkBuilder::new(21)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(5)
            .build()
    }

    #[test]
    fn population_count_and_labels() {
        let mut net = net();
        let ids = net.add_population(&PopulationSpec::dns_servers(30));
        assert_eq!(ids.len(), 30);
        assert!(net.host(ids[0]).label().starts_with("dns-"));
    }

    #[test]
    fn planetlab_skews_to_north_america_and_europe() {
        let mut net = net();
        let ids = net.add_population(&PopulationSpec::planetlab(400));
        let mut counts: BTreeMap<Region, usize> = BTreeMap::new();
        for id in ids {
            *counts.entry(net.host(id).region()).or_default() += 1;
        }
        let na_eu = counts.get(&Region::NorthAmerica).copied().unwrap_or(0)
            + counts.get(&Region::Europe).copied().unwrap_or(0);
        assert!(na_eu > 240, "NA+EU share {na_eu}/400 too small");
    }

    #[test]
    fn dns_servers_cover_most_regions() {
        let mut net = net();
        let ids = net.add_population(&PopulationSpec::dns_servers(400));
        let mut regions: Vec<Region> = ids.iter().map(|id| net.host(*id).region()).collect();
        regions.sort();
        regions.dedup();
        assert!(regions.len() >= 7, "only {} regions covered", regions.len());
    }

    #[test]
    fn single_region_stays_put() {
        let mut net = net();
        let ids = net.add_population(&PopulationSpec::single_region(
            HostProfile::Generic,
            20,
            Region::SouthAmerica,
        ));
        assert!(ids
            .iter()
            .all(|id| net.host(*id).region() == Region::SouthAmerica));
    }

    #[test]
    fn placement_is_deterministic() {
        let mut a = net();
        let mut b = net();
        let ia = a.add_population(&PopulationSpec::planetlab(50));
        let ib = b.add_population(&PopulationSpec::planetlab(50));
        for (x, y) in ia.iter().zip(&ib) {
            assert_eq!(a.host(*x).location(), b.host(*y).location());
            assert_eq!(a.host(*x).asn(), b.host(*y).asn());
        }
    }

    #[test]
    fn sequential_populations_do_not_collide() {
        let mut net = net();
        let first = net.add_population(&PopulationSpec::planetlab(10));
        let second = net.add_population(&PopulationSpec::dns_servers(10));
        assert_eq!(first.len() + second.len(), net.host_count());
        assert_ne!(first[9], second[0]);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn custom_rejects_empty_weights() {
        let _ = PopulationSpec::custom(HostProfile::Generic, 5, vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn custom_rejects_negative_weights() {
        let _ = PopulationSpec::custom(HostProfile::Generic, 5, vec![(Region::Europe, -1.0)]);
    }

    #[test]
    fn access_ranges_respect_profile() {
        let mut net = net();
        let ids = net.add_population(&PopulationSpec::planetlab(40));
        let (lo, hi) = HostProfile::PlanetLab.access_range_ms();
        for id in ids {
            let a = net.host(id).access_ms();
            assert!(a >= lo && a <= hi, "access {a} outside [{lo}, {hi}]");
        }
    }
}
