//! Autonomous-system topology and host attachment.
//!
//! The synthetic Internet is a three-tier AS graph: a clique of tier-1
//! backbones, regional transit ASes multi-homed to the backbone, and stub
//! ASes hanging off regional transit. Hosts attach to stub (occasionally
//! transit) ASes at geographic locations near the AS's point of presence.
//!
//! AS-level path lengths (BFS hop counts) inflate latency beyond pure
//! propagation delay, which is what gives the model realistic structure:
//! hosts in the same region but different ASes are close-but-not-identical,
//! and some geographically close pairs are network-distant.

use crate::geo::{GeoPoint, Region};
use crate::latency::LatencyConfig;
use crate::noise;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of an autonomous system in the synthetic topology.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsId(u32);

impl AsId {
    /// The dense index of this AS (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A synthetic "AS number" for display, offset to look like real ASNs.
    pub fn asn(self) -> u32 {
        1_000 + self.0
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.asn())
    }
}

/// The role of an AS in the three-tier hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsTier {
    /// Global backbone; tier-1 ASes form a full mesh.
    Tier1,
    /// Regional transit, multi-homed to the backbone.
    Transit,
    /// Edge network hosting end hosts.
    Stub,
}

/// An autonomous system: a point of presence with a tier, a region and a
/// congestion scale that modulates its time-varying load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AutonomousSystem {
    id: AsId,
    tier: AsTier,
    region: Region,
    pop: GeoPoint,
    congestion_scale: f64,
    reach_km: f64,
}

impl AutonomousSystem {
    /// Identifier of the AS.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// Hierarchy tier.
    pub fn tier(&self) -> AsTier {
        self.tier
    }

    /// World region of the point of presence.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Location of the point of presence.
    pub fn pop(&self) -> GeoPoint {
        self.pop
    }

    /// Multiplier on the time-varying congestion process (1.0 = typical).
    pub fn congestion_scale(&self) -> f64 {
        self.congestion_scale
    }

    /// Geographic footprint radius: hosts of this AS scatter up to this
    /// far from the point of presence. Metro ISPs are compact; national
    /// and continental carriers span much more — which is exactly why
    /// the paper finds ASN-based clustering misses nearby hosts and
    /// groups distant ones.
    pub fn reach_km(&self) -> f64 {
        self.reach_km
    }
}

/// Identifier of a host attached to the topology.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(u32);

impl HostId {
    /// The dense index of this host (0-based, in attachment order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable 64-bit key for noise derivation.
    pub fn key(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// An end host: a machine attached to an AS at a location, with a
/// last-mile latency contribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Host {
    id: HostId,
    asn: AsId,
    region: Region,
    location: GeoPoint,
    access_ms: f64,
    label: String,
}

impl Host {
    /// Identifier of the host.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The AS the host attaches to.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// World region of the host.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Geographic location.
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// Round-trip last-mile latency contribution in milliseconds.
    pub fn access_ms(&self) -> f64 {
        self.access_ms
    }

    /// Human-readable label (e.g. `"dns-17"`), for experiment output.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Parameters controlling topology generation.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    seed: u64,
    tier1_count: usize,
    transit_per_region: usize,
    stubs_per_region: usize,
    latency: LatencyConfig,
}

impl NetworkBuilder {
    /// Starts a builder with the given master seed and default sizes
    /// (12 tier-1, 5 transit and 112 stub ASes per region).
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            seed,
            tier1_count: 12,
            transit_per_region: 5,
            stubs_per_region: 112,
            latency: LatencyConfig::default(),
        }
    }

    /// Number of tier-1 backbone ASes.
    pub fn tier1_count(mut self, n: usize) -> Self {
        self.tier1_count = n;
        self
    }

    /// Number of transit ASes per region.
    pub fn transit_per_region(mut self, n: usize) -> Self {
        self.transit_per_region = n;
        self
    }

    /// Number of stub ASes per region.
    pub fn stubs_per_region(mut self, n: usize) -> Self {
        self.stubs_per_region = n;
        self
    }

    /// Overrides the latency model parameters.
    pub fn latency(mut self, cfg: LatencyConfig) -> Self {
        self.latency = cfg;
        self
    }

    /// Generates the AS graph and returns a network with no hosts yet.
    ///
    /// # Panics
    ///
    /// Panics if `tier1_count`, `transit_per_region` or `stubs_per_region`
    /// is zero — the three-tier structure requires all of them.
    pub fn build(self) -> Network {
        assert!(self.tier1_count > 0, "need at least one tier-1 AS");
        assert!(self.transit_per_region > 0, "need transit ASes");
        assert!(self.stubs_per_region > 0, "need stub ASes");

        let mut rng = StdRng::seed_from_u64(noise::mix(&[self.seed, 0xA51]));
        let mut ases = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();

        // Internet infrastructure concentrates in metros: sample the
        // region's cities once, then snap AS PoPs (and later hosts) to
        // them. Co-location is what gives clustering experiments their
        // tight metro-scale clusters.
        let mut metros: Vec<Vec<GeoPoint>> = vec![Vec::new(); Region::ALL.len()];
        for region in Region::ALL {
            for _ in 0..22 {
                metros[region.index() as usize].push(region.sample_point(&mut rng));
            }
        }
        let sample_pop = |region: Region, rng: &mut StdRng| {
            let list = &metros[region.index() as usize];
            list[rng.random_range(0..list.len())].jitter_km(50.0, rng)
        };

        // Tier-1 backbones, concentrated in the well-connected regions.
        let tier1_regions = [
            Region::NorthAmerica,
            Region::Europe,
            Region::EastAsia,
            Region::NorthAmerica,
            Region::Europe,
        ];
        for i in 0..self.tier1_count {
            let region = tier1_regions[i % tier1_regions.len()];
            ases.push(AutonomousSystem {
                id: AsId(ases.len() as u32),
                tier: AsTier::Tier1,
                region,
                pop: sample_pop(region, &mut rng),
                congestion_scale: rng.random_range(0.4..0.8),
                reach_km: 2_000.0,
            });
        }
        // Full mesh among tier-1.
        for i in 0..self.tier1_count as u32 {
            for j in (i + 1)..self.tier1_count as u32 {
                edges.push((i, j));
            }
        }

        // Regional transit, multi-homed to tier-1, peered within region.
        let mut transit_by_region: Vec<Vec<u32>> = vec![Vec::new(); Region::ALL.len()];
        for region in Region::ALL {
            for _ in 0..self.transit_per_region {
                let id = ases.len() as u32;
                ases.push(AutonomousSystem {
                    id: AsId(id),
                    tier: AsTier::Transit,
                    region,
                    pop: sample_pop(region, &mut rng),
                    congestion_scale: rng.random_range(0.5..1.0),
                    reach_km: 1_200.0,
                });
                // Two uplinks to distinct tier-1 ASes.
                let mut uplinks: Vec<u32> = (0..self.tier1_count as u32).collect();
                for _ in 0..2.min(self.tier1_count) {
                    let k = rng.random_range(0..uplinks.len());
                    edges.push((uplinks.swap_remove(k), id));
                }
                transit_by_region[region.index() as usize].push(id);
            }
        }
        // Intra-region transit peering ring.
        for list in &transit_by_region {
            for w in list.windows(2) {
                edges.push((w[0], w[1]));
            }
        }

        // Stub ASes off regional transit (1–2 uplinks).
        for region in Region::ALL {
            let transits = &transit_by_region[region.index() as usize];
            for _ in 0..self.stubs_per_region {
                let id = ases.len() as u32;
                // Stub footprints: mostly metro ISPs, some national
                // carriers, a few continental ones.
                let reach_km = match rng.random_range(0..10) {
                    0..=2 => rng.random_range(60.0..180.0),
                    3..=7 => rng.random_range(400.0..1_000.0),
                    _ => rng.random_range(1_200.0..2_200.0),
                };
                ases.push(AutonomousSystem {
                    id: AsId(id),
                    tier: AsTier::Stub,
                    region,
                    pop: sample_pop(region, &mut rng),
                    congestion_scale: rng.random_range(0.5..1.2),
                    reach_km,
                });
                #[expect(
                    clippy::expect_used,
                    reason = "the transit tier is non-empty for any valid spec"
                )]
                let primary = *transits.choose(&mut rng).expect("transit ASes exist");
                edges.push((primary, id));
                #[expect(
                    clippy::expect_used,
                    reason = "both draws are guarded by transits.len() > 1"
                )]
                if rng.random_bool(0.35) && transits.len() > 1 {
                    let mut secondary = *transits.choose(&mut rng).expect("nonempty");
                    while secondary == primary {
                        secondary = *transits.choose(&mut rng).expect("nonempty");
                    }
                    edges.push((secondary, id));
                }
            }
        }

        let n = ases.len();
        let mut adj = vec![Vec::new(); n];
        for (a, b) in edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }

        let hop_counts = all_pairs_hops(&adj);

        Network {
            seed: self.seed,
            ases,
            adj,
            hop_counts,
            hosts: Vec::new(),
            metros,
            latency: self.latency,
            host_rng: StdRng::seed_from_u64(noise::mix(&[self.seed, 0x0457])),
        }
    }
}

/// BFS hop counts between every pair of ASes.
fn all_pairs_hops(adj: &[Vec<u32>]) -> Vec<Vec<u8>> {
    let n = adj.len();
    let mut out = vec![vec![u8::MAX; n]; n];
    for start in 0..n {
        let dist = &mut out[start];
        dist[start] = 0;
        let mut queue = VecDeque::from([start as u32]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in &adj[u as usize] {
                if dist[v as usize] == u8::MAX {
                    dist[v as usize] = du.saturating_add(1);
                    queue.push_back(v);
                }
            }
        }
    }
    out
}

/// The synthetic Internet: an immutable AS graph plus an append-only set
/// of hosts, with a pure-function latency model over them.
///
/// Hosts are added after construction (see
/// [`Network::add_population`]); the latency between any two hosts at any
/// [`crate::SimTime`] is a deterministic function of the master seed, so
/// the network never needs to be "run".
#[derive(Clone, Debug)]
pub struct Network {
    seed: u64,
    ases: Vec<AutonomousSystem>,
    adj: Vec<Vec<u32>>,
    hop_counts: Vec<Vec<u8>>,
    hosts: Vec<Host>,
    metros: Vec<Vec<GeoPoint>>,
    latency: LatencyConfig,
    host_rng: StdRng,
}

impl Network {
    /// The master seed the network was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All autonomous systems.
    pub fn ases(&self) -> &[AutonomousSystem] {
        &self.ases
    }

    /// The AS with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn as_of(&self, id: AsId) -> &AutonomousSystem {
        &self.ases[id.index()]
    }

    /// All hosts, in attachment order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The host with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// Number of hosts attached so far.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The latency model parameters in effect.
    pub fn latency_config(&self) -> &LatencyConfig {
        &self.latency
    }

    /// AS-level hop count between two ASes (0 for the same AS).
    ///
    /// # Panics
    ///
    /// Panics if the ASes are disconnected, which the generator never
    /// produces.
    pub fn as_hops(&self, a: AsId, b: AsId) -> u32 {
        let h = self.hop_counts[a.index()][b.index()];
        assert!(h != u8::MAX, "AS graph is connected by construction");
        h as u32
    }

    /// Direct neighbors of an AS in the graph.
    pub fn as_neighbors(&self, id: AsId) -> &[u32] {
        &self.adj[id.index()]
    }

    /// The metro locations of a region (infrastructure and most hosts
    /// concentrate at these points).
    pub fn metros_of(&self, region: Region) -> &[GeoPoint] {
        &self.metros[region.index() as usize]
    }

    /// Attaches a single host in `region` with the given last-mile
    /// latency range, preferring stub ASes (9:1 over transit).
    ///
    /// # Panics
    ///
    /// Panics if the region has no eligible AS (never true for generated
    /// topologies) or if the access range is invalid.
    pub fn add_host(
        &mut self,
        region: Region,
        access_range_ms: (f64, f64),
        label: String,
    ) -> HostId {
        self.add_host_with_spread(region, access_range_ms, label, None)
    }

    /// Attaches a host like [`Network::add_host`], but with an explicit
    /// scatter radius around the chosen AS's point of presence instead of
    /// the AS's own footprint. Infrastructure that racks at PoPs (CDN
    /// replicas) passes a small radius here.
    ///
    /// # Panics
    ///
    /// See [`Network::add_host`].
    pub fn add_host_with_spread(
        &mut self,
        region: Region,
        access_range_ms: (f64, f64),
        label: String,
        spread_km: Option<f64>,
    ) -> HostId {
        assert!(
            access_range_ms.0 >= 0.0 && access_range_ms.1 >= access_range_ms.0,
            "invalid access range"
        );
        let prefer_stub = self.host_rng.random_bool(0.9);
        let candidates: Vec<AsId> = self
            .ases
            .iter()
            .filter(|a| {
                a.region == region
                    && match a.tier {
                        AsTier::Stub => prefer_stub,
                        AsTier::Transit => !prefer_stub,
                        AsTier::Tier1 => false,
                    }
            })
            .map(|a| a.id)
            .collect();
        let pool: Vec<AsId> = if candidates.is_empty() {
            // Fall back to any non-tier1 AS of the region.
            self.ases
                .iter()
                .filter(|a| a.region == region && a.tier != AsTier::Tier1)
                .map(|a| a.id)
                .collect()
        } else {
            candidates
        };
        #[expect(clippy::expect_used, reason = "every region receives at least one AS")]
        let asn = *pool.choose(&mut self.host_rng).expect("region has ASes");
        let reach = spread_km.unwrap_or(self.ases[asn.index()].reach_km);
        // Most hosts live in cities: pick a metro within the AS's reach
        // of its PoP (falling back to the nearest metro) and jitter
        // locally. A minority sit outside metros — suburban and rural
        // hosts whose redirections straddle neighboring metros, giving
        // the similarity metric its mid-range gradation.
        let pop = self.ases[asn.index()].pop;
        let metro_snap = spread_km.is_some() || self.host_rng.random_bool(0.7);
        let location = if metro_snap {
            let region_metros = &self.metros[region.index() as usize];
            let in_reach: Vec<GeoPoint> = region_metros
                .iter()
                .copied()
                .filter(|m| pop.great_circle_km(*m) <= reach)
                .collect();
            #[expect(clippy::expect_used, reason = "every region has at least one metro")]
            let metro = if in_reach.is_empty() {
                *region_metros
                    .iter()
                    .min_by(|a, b| {
                        pop.great_circle_km(**a)
                            .total_cmp(&pop.great_circle_km(**b))
                    })
                    .expect("regions have metros")
            } else {
                in_reach[self.host_rng.random_range(0..in_reach.len())]
            };
            metro.jitter_km(35.0, &mut self.host_rng)
        } else {
            pop.jitter_km(reach, &mut self.host_rng)
        };
        let access_ms = if access_range_ms.0 == access_range_ms.1 {
            access_range_ms.0
        } else {
            self.host_rng
                .random_range(access_range_ms.0..access_range_ms.1)
        };
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            id,
            asn,
            region,
            location,
            access_ms,
            label,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> Network {
        NetworkBuilder::new(1)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(4)
            .build()
    }

    #[test]
    fn build_produces_expected_as_count() {
        let net = small_net();
        assert_eq!(net.ases().len(), 4 + 8 * 2 + 8 * 4);
    }

    #[test]
    fn as_graph_is_connected() {
        let net = small_net();
        let n = net.ases().len();
        for i in 0..n {
            for j in 0..n {
                let h = net.as_hops(net.ases()[i].id(), net.ases()[j].id());
                assert!(h < 12, "hop count {h} suspiciously large");
            }
        }
    }

    #[test]
    fn hop_counts_symmetric_and_zero_on_diagonal() {
        let net = small_net();
        for a in net.ases() {
            assert_eq!(net.as_hops(a.id(), a.id()), 0);
            for b in net.ases() {
                assert_eq!(net.as_hops(a.id(), b.id()), net.as_hops(b.id(), a.id()));
            }
        }
    }

    #[test]
    fn tier1_forms_clique() {
        let net = small_net();
        let tier1: Vec<AsId> = net
            .ases()
            .iter()
            .filter(|a| a.tier() == AsTier::Tier1)
            .map(|a| a.id())
            .collect();
        for &a in &tier1 {
            for &b in &tier1 {
                if a != b {
                    assert_eq!(net.as_hops(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn stubs_never_host_backbone_hosts() {
        let mut net = small_net();
        for i in 0..50 {
            let h = net.add_host(Region::Europe, (1.0, 5.0), format!("h{i}"));
            let tier = net.as_of(net.host(h).asn()).tier();
            assert_ne!(tier, AsTier::Tier1);
            assert_eq!(net.host(h).region(), Region::Europe);
        }
    }

    #[test]
    fn host_ids_are_dense() {
        let mut net = small_net();
        let a = net.add_host(Region::NorthAmerica, (1.0, 2.0), "a".into());
        let b = net.add_host(Region::Europe, (1.0, 2.0), "b".into());
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(net.host_count(), 2);
    }

    #[test]
    fn same_seed_same_topology() {
        let a = small_net();
        let b = small_net();
        for (x, y) in a.ases().iter().zip(b.ases()) {
            assert_eq!(x.pop(), y.pop());
            assert_eq!(x.region(), y.region());
        }
    }

    #[test]
    fn different_seed_different_topology() {
        let a = small_net();
        let b = NetworkBuilder::new(2)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(4)
            .build();
        let same = a
            .ases()
            .iter()
            .zip(b.ases())
            .all(|(x, y)| x.pop() == y.pop());
        assert!(!same);
    }

    #[test]
    fn fixed_access_range_is_exact() {
        let mut net = small_net();
        let h = net.add_host(Region::Oceania, (3.0, 3.0), "x".into());
        assert_eq!(net.host(h).access_ms(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid access range")]
    fn rejects_reversed_access_range() {
        let mut net = small_net();
        let _ = net.add_host(Region::Oceania, (5.0, 1.0), "x".into());
    }

    #[test]
    fn asid_display() {
        let net = small_net();
        assert_eq!(net.ases()[0].id().to_string(), "AS1000");
    }
}
