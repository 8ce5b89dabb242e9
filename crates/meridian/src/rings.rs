//! Concentric latency rings.
//!
//! A Meridian node organizes the peers it knows into exponentially
//! growing latency rings: ring `i` holds peers whose RTT lies in
//! `[α·s^(i-1), α·s^i)`, with ring 0 covering `[0, α)` and the outermost
//! ring unbounded. Each ring keeps at most `k` members; when a ring
//! overflows, Meridian retains the subset that maximizes the hypervolume
//! of the polytope the members span. Computing that exactly requires the
//! full inter-member coordinate embedding, so — as is standard in
//! Meridian re-implementations — we substitute the greedy max–min
//! diversity heuristic over inter-member RTTs, which optimizes the same
//! objective (geographically spread ring members).

use crp_netsim::{HostId, Rtt};
use serde::{Deserialize, Serialize};

/// Ring geometry and capacity parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RingGeometry {
    /// Inner radius of ring 1 in milliseconds (`α`).
    pub alpha_ms: f64,
    /// Exponential growth factor between rings (`s`).
    pub base: f64,
    /// Number of bounded rings; everything beyond falls in the final
    /// unbounded ring.
    pub ring_count: usize,
    /// Maximum members retained per ring (`k`).
    pub capacity: usize,
}

impl Default for RingGeometry {
    fn default() -> Self {
        RingGeometry {
            alpha_ms: 1.0,
            base: 2.0,
            ring_count: 9,
            capacity: 8,
        }
    }
}

impl RingGeometry {
    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is degenerate (non-positive α, base ≤ 1,
    /// zero rings or capacity).
    pub fn validate(&self) {
        assert!(self.alpha_ms > 0.0, "alpha must be positive");
        assert!(self.base > 1.0, "ring base must exceed 1");
        assert!(self.ring_count > 0, "need at least one ring");
        assert!(self.capacity > 0, "rings must hold at least one member");
    }

    /// The ring index for a peer at the given RTT.
    pub fn ring_of(&self, rtt: Rtt) -> usize {
        let ms = rtt.millis();
        if ms < self.alpha_ms {
            return 0;
        }
        let idx = (ms / self.alpha_ms).log(self.base).floor() as usize + 1;
        idx.min(self.ring_count)
    }

    /// Total number of rings including the unbounded outermost one.
    pub fn total_rings(&self) -> usize {
        self.ring_count + 1
    }
}

/// One node's ring membership: peers bucketed by latency ring, each with
/// the RTT measured when they were inserted.
#[derive(Clone, Debug, Default)]
pub struct RingSet {
    rings: Vec<Vec<(HostId, Rtt)>>,
}

impl RingSet {
    /// Creates an empty ring set for the given geometry.
    pub fn new(geometry: &RingGeometry) -> Self {
        RingSet {
            rings: vec![Vec::new(); geometry.total_rings()],
        }
    }

    /// Inserts (or refreshes) a peer at the given measured RTT. If the
    /// target ring is full, the new member set is thinned back to
    /// capacity with the max–min diversity rule using `inter_rtt` for
    /// member-to-member distances.
    ///
    /// Returns `true` if the peer is a ring member afterwards.
    pub fn insert<F>(
        &mut self,
        geometry: &RingGeometry,
        peer: HostId,
        rtt: Rtt,
        mut inter_rtt: F,
    ) -> bool
    where
        F: FnMut(HostId, HostId) -> Rtt,
    {
        let ring_idx = geometry.ring_of(rtt);
        // Drop any stale copy of this peer (it may have drifted rings).
        for ring in &mut self.rings {
            ring.retain(|(p, _)| *p != peer);
        }
        let ring = &mut self.rings[ring_idx];
        ring.push((peer, rtt));
        if ring.len() <= geometry.capacity {
            return true;
        }
        let kept = diversity_subset(ring, geometry.capacity, &mut inter_rtt);
        *ring = kept;
        self.rings[ring_idx].iter().any(|(p, _)| *p == peer)
    }

    /// All peers across all rings.
    pub fn all_members(&self) -> impl Iterator<Item = (HostId, Rtt)> + '_ {
        self.rings.iter().flatten().copied()
    }

    /// Members of the ring containing `rtt` plus the two adjacent rings —
    /// the candidate set Meridian probes during a query for a target at
    /// that latency.
    pub fn near_ring_members(&self, geometry: &RingGeometry, rtt: Rtt) -> Vec<(HostId, Rtt)> {
        let idx = geometry.ring_of(rtt);
        let lo = idx.saturating_sub(1);
        let hi = (idx + 1).min(self.rings.len() - 1);
        self.rings[lo..=hi].iter().flatten().copied().collect()
    }

    /// Number of peers currently tracked.
    pub fn len(&self) -> usize {
        self.rings.iter().map(Vec::len).sum()
    }

    /// Whether no peers are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of members in the ring with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range for the geometry this set was
    /// created with.
    pub fn ring_len(&self, ring: usize) -> usize {
        self.rings[ring].len()
    }
}

/// Greedy max–min diversity: keep `k` members spread as far apart as
/// possible (seeded with the pair realizing the maximum distance).
fn diversity_subset<F>(members: &[(HostId, Rtt)], k: usize, inter_rtt: &mut F) -> Vec<(HostId, Rtt)>
where
    F: FnMut(HostId, HostId) -> Rtt,
{
    if members.len() <= k {
        return members.to_vec();
    }
    // Seed with the farthest pair.
    let mut best_pair = (0, 1);
    let mut best_d = Rtt::ZERO;
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            let d = inter_rtt(members[i].0, members[j].0);
            if d > best_d {
                best_d = d;
                best_pair = (i, j);
            }
        }
    }
    let mut chosen = vec![best_pair.0, best_pair.1];
    while chosen.len() < k {
        // Pick the member maximizing its minimum distance to the chosen
        // set.
        let mut best_idx = None;
        let mut best_min = Rtt::ZERO;
        for (i, (host, _)) in members.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "chosen starts with one seed member, never empty"
            )]
            let min_d = chosen
                .iter()
                .map(|&c| inter_rtt(*host, members[c].0))
                .min()
                .expect("chosen is non-empty");
            if best_idx.is_none() || min_d > best_min {
                best_min = min_d;
                best_idx = Some(i);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop runs only while unchosen members remain"
        )]
        chosen.push(best_idx.expect("members remain"));
    }
    chosen.sort_unstable();
    chosen.into_iter().map(|i| members[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(i: u32) -> HostId {
        // HostId has no public constructor; mint ids from a scratch
        // network shared by all ring tests.
        super::tests_support::host_id(i)
    }

    #[test]
    fn ring_of_respects_exponential_boundaries() {
        let g = RingGeometry::default(); // α=1ms, s=2
        assert_eq!(g.ring_of(Rtt::from_millis(0.5)), 0);
        assert_eq!(g.ring_of(Rtt::from_millis(1.0)), 1);
        assert_eq!(g.ring_of(Rtt::from_millis(1.9)), 1);
        assert_eq!(g.ring_of(Rtt::from_millis(2.0)), 2);
        assert_eq!(g.ring_of(Rtt::from_millis(3.9)), 2);
        assert_eq!(g.ring_of(Rtt::from_millis(4.0)), 3);
        // Beyond the last bounded ring everything lands in the outer ring.
        assert_eq!(g.ring_of(Rtt::from_millis(1e6)), g.ring_count);
    }

    #[test]
    fn insert_and_move_between_rings() {
        let g = RingGeometry::default();
        let mut rs = RingSet::new(&g);
        let flat = |_a: HostId, _b: HostId| Rtt::from_millis(10.0);
        assert!(rs.insert(&g, host(1), Rtt::from_millis(1.5), flat));
        assert_eq!(rs.ring_len(1), 1);
        // Re-inserting at a different latency moves the peer.
        assert!(rs.insert(&g, host(1), Rtt::from_millis(5.0), flat));
        assert_eq!(rs.ring_len(1), 0);
        assert_eq!(rs.ring_len(3), 1);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn overflow_keeps_capacity_and_diversity() {
        let g = RingGeometry {
            capacity: 3,
            ..RingGeometry::default()
        };
        let mut rs = RingSet::new(&g);
        // All peers in the same ring (rtt 100ms → same ring index).
        // Inter-member distance: |a-b| * 10ms, so extremes are diverse.
        let inter = |a: HostId, b: HostId| {
            let d = (a.index() as f64 - b.index() as f64).abs() * 10.0;
            Rtt::from_millis(d.max(0.1))
        };
        for i in 0..6 {
            rs.insert(&g, host(i), Rtt::from_millis(100.0), inter);
        }
        let ring = g.ring_of(Rtt::from_millis(100.0));
        assert_eq!(rs.ring_len(ring), 3);
        let members: Vec<u32> = rs.all_members().map(|(h, _)| h.index() as u32).collect();
        // The farthest pair (0, 5) must have been kept.
        assert!(members.contains(&0));
        assert!(members.contains(&5));
    }

    #[test]
    fn near_ring_members_spans_adjacent_rings() {
        let g = RingGeometry::default();
        let mut rs = RingSet::new(&g);
        let flat = |_a: HostId, _b: HostId| Rtt::from_millis(1.0);
        rs.insert(&g, host(1), Rtt::from_millis(10.0), flat); // ring 4
        rs.insert(&g, host(2), Rtt::from_millis(20.0), flat); // ring 5
        rs.insert(&g, host(3), Rtt::from_millis(100.0), flat); // ring 7
        let near = rs.near_ring_members(&g, Rtt::from_millis(16.0)); // ring 5
        let ids: Vec<u32> = near.iter().map(|(h, _)| h.index() as u32).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
        assert!(!ids.contains(&3));
    }

    #[test]
    #[should_panic(expected = "ring base")]
    fn degenerate_geometry_rejected() {
        RingGeometry {
            base: 1.0,
            ..RingGeometry::default()
        }
        .validate();
    }
}

/// Test-only helper to mint `HostId`s without a network.
#[cfg(test)]
pub(crate) mod tests_support {
    use crp_netsim::{HostId, NetworkBuilder, Region};
    use std::sync::OnceLock;

    /// Returns the `i`-th host id of a lazily-built scratch network.
    pub(crate) fn host_id(i: u32) -> HostId {
        static IDS: OnceLock<Vec<HostId>> = OnceLock::new();
        IDS.get_or_init(|| {
            let mut net = NetworkBuilder::new(0xFEED)
                .tier1_count(2)
                .transit_per_region(1)
                .stubs_per_region(1)
                .build();
            (0..64)
                .map(|j| net.add_host(Region::Europe, (1.0, 2.0), format!("t{j}")))
                .collect()
        })[i as usize]
    }
}
