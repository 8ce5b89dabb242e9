//! The Meridian overlay: gossip-based membership and β-reduction
//! closest-node queries.

use crate::faults::{FaultBehavior, FaultPlan};
use crate::rings::{RingGeometry, RingSet};
use crp_netsim::{noise, HostId, Network, Rtt, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Meridian protocol parameters (SIGCOMM'05 defaults).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeridianConfig {
    /// Ring geometry and capacities.
    pub rings: RingGeometry,
    /// Query-forwarding acceptance threshold β: the query forwards to a
    /// peer only if the peer's RTT to the target is below `β ×` the
    /// current node's.
    pub beta: f64,
    /// Gossip rounds run while building the overlay.
    pub gossip_rounds: usize,
    /// Peers pushed per gossip exchange.
    pub gossip_fanout: usize,
    /// Bootstrap contacts each joining node starts with.
    pub bootstrap_contacts: usize,
    /// Seed for the randomized protocol steps.
    pub seed: u64,
}

impl Default for MeridianConfig {
    fn default() -> Self {
        MeridianConfig {
            rings: RingGeometry::default(),
            beta: 0.5,
            gossip_rounds: 8,
            gossip_fanout: 4,
            bootstrap_contacts: 3,
            seed: 0,
        }
    }
}

impl MeridianConfig {
    fn validate(&self) {
        self.rings.validate();
        assert!(
            self.beta > 0.0 && self.beta < 1.0,
            "beta must lie strictly between 0 and 1"
        );
        assert!(self.bootstrap_contacts > 0, "need bootstrap contacts");
    }
}

/// Outcome of a closest-node query.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The node Meridian recommends as closest to the target.
    pub selected: HostId,
    /// The recommending node's measured RTT from `selected` to the
    /// target at query time.
    pub selected_rtt: Rtt,
    /// Overlay hops the query traversed.
    pub hops: u32,
    /// Direct measurements issued while answering.
    pub probes: u64,
}

struct MeridianNode {
    host: HostId,
    rings: RingSet,
}

/// A built Meridian overlay over a set of member hosts.
///
/// Building runs the join + gossip phase (issuing direct measurements to
/// populate rings); queries then run the standard β-reduction search.
/// All randomness is derived from the config seed, so overlays and
/// queries are deterministic.
pub struct MeridianOverlay {
    cfg: MeridianConfig,
    nodes: Vec<MeridianNode>,
    index_of: HashMap<HostId, usize>,
    faults: FaultPlan,
    probes: AtomicU64,
}

impl std::fmt::Debug for MeridianOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeridianOverlay")
            .field("members", &self.nodes.len())
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}

const TAG_BOOTSTRAP: u64 = 0x41;
const TAG_GOSSIP: u64 = 0x42;

impl MeridianOverlay {
    /// Builds the overlay over `members`, running the gossip phase at
    /// simulation time zero. Hosts marked never-joined in `faults` stay
    /// out of the membership (they answer queries with themselves, as in
    /// the paper's deployment).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates, or if the
    /// config is invalid.
    pub fn build(
        net: &Network,
        members: &[HostId],
        cfg: MeridianConfig,
        faults: FaultPlan,
    ) -> MeridianOverlay {
        crp_telemetry::stage!(MERIDIAN_BUILD);
        cfg.validate();
        assert!(!members.is_empty(), "overlay needs members");
        let joined: Vec<HostId> = {
            let skip: Vec<HostId> = faults.never_joined().collect();
            members
                .iter()
                .copied()
                .filter(|m| !skip.contains(m))
                .collect()
        };
        let mut index_of = HashMap::new();
        let mut nodes: Vec<MeridianNode> = Vec::with_capacity(joined.len());
        for &host in &joined {
            assert!(
                index_of.insert(host, nodes.len()).is_none(),
                "duplicate overlay member {host}"
            );
            nodes.push(MeridianNode {
                host,
                rings: RingSet::new(&cfg.rings),
            });
        }

        let mut overlay = MeridianOverlay {
            cfg,
            nodes,
            index_of,
            faults,
            probes: AtomicU64::new(0),
        };
        overlay.run_join_and_gossip(net, &joined);
        overlay
    }

    fn run_join_and_gossip(&mut self, net: &Network, joined: &[HostId]) {
        let t0 = SimTime::ZERO;
        let n = joined.len();
        let seed = self.cfg.seed;

        // Planned knowledge: node index -> peers it learns about.
        let mut knowledge: Vec<Vec<HostId>> = vec![Vec::new(); n];
        for (i, _) in joined.iter().enumerate() {
            for c in 0..self.cfg.bootstrap_contacts {
                let j =
                    (noise::mix(&[seed, TAG_BOOTSTRAP, i as u64, c as u64]) % n as u64) as usize;
                if j != i {
                    knowledge[i].push(joined[j]);
                }
            }
        }
        for round in 0..self.cfg.gossip_rounds {
            let snapshot = knowledge.clone();
            for i in 0..n {
                if snapshot[i].is_empty() {
                    continue;
                }
                // Push a few known peers to one random known peer
                // (anti-entropy push).
                let pick = (noise::mix(&[seed, TAG_GOSSIP, round as u64, i as u64])
                    % snapshot[i].len() as u64) as usize;
                let target = snapshot[i][pick];
                if let Some(&ti) = self.index_of.get(&target) {
                    for f in 0..self.cfg.gossip_fanout {
                        let src = &snapshot[i];
                        let k = (noise::mix(&[seed, TAG_GOSSIP, round as u64, i as u64, f as u64])
                            % src.len() as u64) as usize;
                        let peer = src[k];
                        if peer != joined[ti] && !knowledge[ti].contains(&peer) {
                            knowledge[ti].push(peer);
                        }
                    }
                    if !knowledge[ti].contains(&joined[i]) {
                        knowledge[ti].push(joined[i]);
                    }
                }
            }
        }

        // Measure every learned peer and slot it into rings. This is
        // where Meridian's direct-measurement cost lives.
        for i in 0..n {
            let me = joined[i];
            let mut ringset = RingSet::new(&self.cfg.rings);
            for &peer in &knowledge[i] {
                if peer == me {
                    continue;
                }
                let rtt = net.rtt(me, peer, t0);
                self.probes.fetch_add(1, Ordering::Relaxed);
                let probes = &self.probes;
                ringset.insert(&self.cfg.rings, peer, rtt, |a, b| {
                    probes.fetch_add(1, Ordering::Relaxed);
                    net.rtt(a, b, t0)
                });
            }
            self.nodes[i].rings = ringset;
        }
    }

    /// Number of members that actually joined the overlay.
    pub fn member_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total direct measurements issued so far (build + queries) — the
    /// probing cost CRP avoids.
    pub fn probes_issued(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Ring occupancy of a member, for diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not an overlay member.
    pub fn ring_size_of(&self, host: HostId) -> usize {
        let i = self.index_of[&host];
        self.nodes[i].rings.len()
    }

    /// Answers a closest-node query: which overlay member is nearest to
    /// `target`, starting from `entry`, at time `t`?
    ///
    /// Fault behaviors fire exactly as the paper observed: a
    /// bootstrapping or never-joined entry recommends itself; a
    /// site-isolated node answers with itself or its twin.
    pub fn closest_node_query(
        &self,
        net: &Network,
        entry: HostId,
        target: HostId,
        t: SimTime,
    ) -> QueryResult {
        crp_telemetry::stage!(MERIDIAN_CLOSEST_QUERY);
        let mut probes_before = self.probes.load(Ordering::Relaxed);
        let mut hops = 0u32;

        // Entry-node faults.
        if let Some(behavior) = self.faults.behavior_at(entry, t) {
            crp_telemetry::counter_add("meridian.faulted_entries", 1);
            if crp_telemetry::enabled() {
                let kind = match behavior {
                    FaultBehavior::SelfRecommend => "self_recommend",
                    FaultBehavior::SiteIsolated { .. } => "site_isolated",
                };
                crp_telemetry::event(
                    t.as_millis(),
                    "meridian.entry_fault",
                    &[("entry", entry.index().into()), ("kind", kind.into())],
                );
            }
            let selected = match behavior {
                FaultBehavior::SelfRecommend => entry,
                FaultBehavior::SiteIsolated { twin } => {
                    // The pair measures only each other.
                    let d_self = self.measure(net, entry, target, t);
                    let d_twin = self.measure(net, twin, target, t);
                    if d_twin < d_self {
                        twin
                    } else {
                        entry
                    }
                }
            };
            let rtt = self.measure(net, selected, target, t);
            let result = QueryResult {
                selected,
                selected_rtt: rtt,
                hops: 0,
                probes: self.probes.load(Ordering::Relaxed) - probes_before,
            };
            note_query(&result);
            return result;
        }

        // If the entry never joined (healthy but absent), fall back to
        // self-recommendation like the deployment did.
        let Some(&start_idx) = self.index_of.get(&entry) else {
            let rtt = self.measure(net, entry, target, t);
            let result = QueryResult {
                selected: entry,
                selected_rtt: rtt,
                hops: 0,
                probes: self.probes.load(Ordering::Relaxed) - probes_before,
            };
            note_query(&result);
            return result;
        };
        probes_before = self.probes.load(Ordering::Relaxed);

        let mut current = start_idx;
        let mut current_rtt = self.measure(net, self.nodes[current].host, target, t);
        let mut best = (self.nodes[current].host, current_rtt);

        loop {
            let node = &self.nodes[current];
            let candidates = node.rings.near_ring_members(&self.cfg.rings, current_rtt);
            let mut best_peer: Option<(HostId, Rtt)> = None;
            for (peer, _) in candidates {
                // Faulty peers don't respond to measurement requests
                // usefully; skip site-isolated/bootstrapping peers.
                if self.faults.behavior_at(peer, t).is_some() {
                    continue;
                }
                let d = self.measure(net, peer, target, t);
                if d < best.1 {
                    best = (peer, d);
                }
                if best_peer.is_none_or(|(_, best_d)| d < best_d) {
                    best_peer = Some((peer, d));
                }
            }
            match best_peer {
                Some((peer, d)) if d.millis() <= self.cfg.beta * current_rtt.millis() => {
                    // β-reduction satisfied: forward the query.
                    let Some(&peer_idx) = self.index_of.get(&peer) else {
                        break;
                    };
                    current = peer_idx;
                    current_rtt = d;
                    hops += 1;
                    if hops > 32 {
                        break; // defensive bound; β < 1 guarantees progress
                    }
                }
                _ => break,
            }
        }

        let result = QueryResult {
            selected: best.0,
            selected_rtt: best.1,
            hops,
            probes: self.probes.load(Ordering::Relaxed) - probes_before,
        };
        note_query(&result);
        result
    }

    /// Answers a multi-constraint query (the second spatial query of the
    /// Meridian paper): find an overlay member whose RTT to *every*
    /// target `i` is at most `constraints[i].1` — e.g. a game-server
    /// host within 50 ms of every player in a match.
    ///
    /// The search greedily forwards toward the node minimizing the total
    /// constraint violation, and returns the first member satisfying all
    /// constraints, or `None` if the search bottoms out.
    ///
    /// # Panics
    ///
    /// Panics if `constraints` is empty.
    pub fn multi_constraint_query(
        &self,
        net: &Network,
        entry: HostId,
        constraints: &[(HostId, Rtt)],
        t: SimTime,
    ) -> Option<HostId> {
        assert!(!constraints.is_empty(), "need at least one constraint");
        let violation = |node: HostId| -> f64 {
            constraints
                .iter()
                .map(|(target, bound)| {
                    (self.measure(net, node, *target, t).millis() - bound.millis()).max(0.0)
                })
                .sum()
        };
        // Faulty or absent entries cannot run the search.
        if self.faults.behavior_at(entry, t).is_some() || !self.index_of.contains_key(&entry) {
            return (violation(entry) == 0.0).then_some(entry);
        }
        let mut current = self.index_of[&entry];
        let mut current_violation = violation(entry);
        for _hop in 0..32 {
            if current_violation == 0.0 {
                return Some(self.nodes[current].host);
            }
            // Probe ring members near the first unmet target's latency.
            let anchor_rtt = self.measure(net, self.nodes[current].host, constraints[0].0, t);
            let candidates = self.nodes[current]
                .rings
                .near_ring_members(&self.cfg.rings, anchor_rtt);
            let mut best: Option<(f64, usize)> = None;
            for (peer, _) in candidates {
                if self.faults.behavior_at(peer, t).is_some() {
                    continue;
                }
                let Some(&idx) = self.index_of.get(&peer) else {
                    continue;
                };
                let v = violation(peer);
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, idx));
                }
            }
            match best {
                Some((v, idx)) if v < current_violation => {
                    current = idx;
                    current_violation = v;
                }
                _ => break,
            }
        }
        (current_violation == 0.0).then_some(self.nodes[current].host)
    }

    fn measure(&self, net: &Network, a: HostId, b: HostId, t: SimTime) -> Rtt {
        self.probes.fetch_add(1, Ordering::Relaxed);
        net.rtt(a, b, t)
    }
}

/// Records per-query telemetry (hop count and probe cost).
fn note_query(result: &QueryResult) {
    crp_telemetry::counter_add("meridian.query_probes", result.probes);
    crp_telemetry::observe("meridian.query_hops", f64::from(result.hops));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netsim::{NetworkBuilder, PopulationSpec};

    fn setup(n_members: usize, n_clients: usize, seed: u64) -> (Network, Vec<HostId>, Vec<HostId>) {
        let mut net = NetworkBuilder::new(seed)
            .tier1_count(4)
            .transit_per_region(2)
            .stubs_per_region(6)
            .build();
        let members = net.add_population(&PopulationSpec::planetlab(n_members));
        let clients = net.add_population(&PopulationSpec::dns_servers(n_clients));
        (net, members, clients)
    }

    #[test]
    fn overlay_builds_and_populates_rings() {
        let (net, members, _) = setup(30, 0, 1);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        assert_eq!(overlay.member_count(), 30);
        assert!(overlay.probes_issued() > 0);
        let populated = members
            .iter()
            .filter(|m| overlay.ring_size_of(**m) > 0)
            .count();
        assert!(populated > 25, "only {populated}/30 members know peers");
    }

    #[test]
    fn queries_return_members_and_beat_random_choice() {
        let (net, members, clients) = setup(40, 10, 2);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        let t = SimTime::from_mins(30);
        let mut selected_sum = 0.0;
        let mut random_sum = 0.0;
        for (i, &client) in clients.iter().enumerate() {
            let entry = members[i % members.len()];
            let result = overlay.closest_node_query(&net, entry, client, t);
            assert!(members.contains(&result.selected));
            selected_sum += net.rtt(result.selected, client, t).millis();
            random_sum += net
                .rtt(members[(i * 7) % members.len()], client, t)
                .millis();
        }
        assert!(
            selected_sum < random_sum,
            "meridian {selected_sum:.0}ms not better than random {random_sum:.0}ms"
        );
    }

    #[test]
    fn query_is_deterministic() {
        let (net, members, clients) = setup(25, 3, 3);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        let a = overlay.closest_node_query(&net, members[0], clients[0], SimTime::ZERO);
        let b = overlay.closest_node_query(&net, members[0], clients[0], SimTime::ZERO);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn bootstrapping_entry_recommends_itself() {
        let (net, members, clients) = setup(20, 1, 4);
        let plan =
            FaultPlan::none().with_bootstrap_self_recommend(members[0], SimTime::from_hours(10));
        let overlay = MeridianOverlay::build(&net, &members, MeridianConfig::default(), plan);
        let during =
            overlay.closest_node_query(&net, members[0], clients[0], SimTime::from_hours(1));
        assert_eq!(during.selected, members[0]);
        assert_eq!(during.hops, 0);
        let after =
            overlay.closest_node_query(&net, members[0], clients[0], SimTime::from_hours(11));
        // After bootstrap the node answers real queries (may still pick
        // itself legitimately, but usually not).
        assert!(members.contains(&after.selected));
    }

    #[test]
    fn never_joined_entry_recommends_itself() {
        let (net, members, clients) = setup(20, 1, 5);
        let plan = FaultPlan::none().with_never_joined(members[3]);
        let overlay = MeridianOverlay::build(&net, &members, MeridianConfig::default(), plan);
        assert_eq!(overlay.member_count(), 19);
        let r = overlay.closest_node_query(&net, members[3], clients[0], SimTime::ZERO);
        assert_eq!(r.selected, members[3]);
    }

    #[test]
    fn site_isolated_entry_answers_with_pair() {
        let (net, members, clients) = setup(20, 1, 6);
        let plan = FaultPlan::none().with_site_isolated_pair(members[1], members[2]);
        let overlay = MeridianOverlay::build(&net, &members, MeridianConfig::default(), plan);
        let r = overlay.closest_node_query(&net, members[1], clients[0], SimTime::ZERO);
        assert!(r.selected == members[1] || r.selected == members[2]);
    }

    #[test]
    fn probe_accounting_increases_per_query() {
        let (net, members, clients) = setup(20, 1, 7);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        let before = overlay.probes_issued();
        let r = overlay.closest_node_query(&net, members[0], clients[0], SimTime::ZERO);
        assert!(overlay.probes_issued() > before);
        assert!(r.probes > 0);
    }

    #[test]
    fn multi_constraint_query_finds_satisfying_member() {
        let (net, members, clients) = setup(40, 3, 10);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        let t = SimTime::from_mins(10);
        // A loose constraint set every member's metro should satisfy for
        // at least one member: within 400 ms of every client.
        let constraints: Vec<(HostId, crp_netsim::Rtt)> = clients
            .iter()
            .map(|&c| (c, crp_netsim::Rtt::from_millis(400.0)))
            .collect();
        let found = overlay.multi_constraint_query(&net, members[0], &constraints, t);
        let node = found.expect("loose constraints are satisfiable");
        for (target, bound) in &constraints {
            assert!(net.rtt(node, *target, t) <= *bound);
        }
        // Impossible constraints fail cleanly.
        let impossible: Vec<(HostId, crp_netsim::Rtt)> = clients
            .iter()
            .map(|&c| (c, crp_netsim::Rtt::from_millis(0.01)))
            .collect();
        assert_eq!(
            overlay.multi_constraint_query(&net, members[0], &impossible, t),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one constraint")]
    fn multi_constraint_requires_constraints() {
        let (net, members, _) = setup(8, 0, 11);
        let overlay =
            MeridianOverlay::build(&net, &members, MeridianConfig::default(), FaultPlan::none());
        let _ = overlay.multi_constraint_query(&net, members[0], &[], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "overlay needs members")]
    fn empty_overlay_rejected() {
        let (net, _, _) = setup(1, 0, 8);
        let _ = MeridianOverlay::build(&net, &[], MeridianConfig::default(), FaultPlan::none());
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_rejected() {
        let (net, members, _) = setup(5, 0, 9);
        let cfg = MeridianConfig {
            beta: 1.5,
            ..MeridianConfig::default()
        };
        let _ = MeridianOverlay::build(&net, &members, cfg, FaultPlan::none());
    }
}
