//! Strongest-Mappings-First (SMF) clustering (§V-B).
//!
//! SMF groups nodes whose redirection behavior is similar:
//!
//! 1. **Centers, strongest mappings first.** Nodes are processed in
//!    decreasing order of their strongest replica mapping, so the nodes
//!    most decisively attached to a replica server seed the clusters.
//!    Each node computes its cosine similarity to every existing cluster
//!    center and joins the argmax cluster *iff* the similarity exceeds
//!    the threshold `t`; otherwise it is assigned to its own cluster and
//!    becomes a center that later (weaker-mapped) nodes may join.
//! 2. **Second pass (optional).** Singleton clusters are revisited in
//!    random order; each unmerged singleton becomes a candidate center
//!    and absorbs other singletons above the threshold. Under the
//!    strongest-mappings strategy this pass is a no-op (those pairs were
//!    already tested), but with [`CenterStrategy::Random`] — where only
//!    the pre-drawn centers attract members in pass 1 — it is what
//!    rescues unclustered nodes, matching the paper's description.
//!
//! The paper uses `t = 0.1` for its headline results and reports the
//! sensitivity sweep `t ∈ {0.01, 0.1, 0.5}` in Table I.

use crate::ratio::RatioMap;
use crate::similarity::SimilarityMetric;
use crp_netsim::noise;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How the initial cluster centers are chosen.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CenterStrategy {
    /// The paper's rule: per replica server, the node mapping to it most
    /// strongly.
    StrongestMappings,
    /// `count` centers chosen uniformly at random (seeded) — the
    /// baseline the ablation compares against.
    Random {
        /// Number of centers to draw.
        count: usize,
    },
}

/// Configuration of the SMF clustering algorithm.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SmfConfig {
    /// Minimum cosine similarity `t` for a node to join a cluster.
    pub threshold: f64,
    /// Center selection rule.
    pub center_strategy: CenterStrategy,
    /// Whether to run the singleton-merging second pass.
    pub second_pass: bool,
    /// Similarity metric (the paper uses cosine).
    pub metric: SimilarityMetric,
    /// Seed for the randomized steps (second-pass order, random
    /// centers).
    pub seed: u64,
}

impl SmfConfig {
    /// The paper's configuration at a given threshold: strongest-mapping
    /// centers, second pass enabled, cosine similarity.
    pub fn paper(threshold: f64) -> Self {
        SmfConfig {
            threshold,
            center_strategy: CenterStrategy::StrongestMappings,
            second_pass: true,
            metric: SimilarityMetric::Cosine,
            seed: 0,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.threshold),
            "threshold must be in [0, 1]"
        );
    }
}

/// One cluster: a designated center plus all members (center included,
/// listed first).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster<N> {
    center: N,
    members: Vec<N>,
}

impl<N: Clone + Eq> Cluster<N> {
    fn singleton(node: N) -> Self {
        Cluster {
            center: node.clone(),
            members: vec![node],
        }
    }

    /// The cluster center.
    pub fn center(&self) -> &N {
        &self.center
    }

    /// All members, center first.
    pub fn members(&self) -> &[N] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the cluster has at least two members — the paper counts
    /// only such clusters as "clustered".
    pub fn is_multi(&self) -> bool {
        self.members.len() >= 2
    }
}

/// Headline statistics in the shape of the paper's Table I.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Nodes in clusters of size ≥ 2.
    pub nodes_clustered: usize,
    /// Total nodes given to the algorithm.
    pub total_nodes: usize,
    /// Clusters of size ≥ 2.
    pub num_clusters: usize,
    /// Mean size of clusters of size ≥ 2.
    pub mean_size: f64,
    /// Median size of clusters of size ≥ 2.
    pub median_size: f64,
    /// Largest cluster size.
    pub max_size: usize,
}

impl ClusterSummary {
    /// Fraction of nodes clustered, in `[0, 1]`.
    pub fn fraction_clustered(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            self.nodes_clustered as f64 / self.total_nodes as f64
        }
    }
}

/// A partition of nodes into clusters (singletons included).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering<N> {
    clusters: Vec<Cluster<N>>,
}

impl<N: Ord + Clone> Clustering<N> {
    /// Builds a clustering from explicit member groups (used by baseline
    /// algorithms such as ASN clustering). The first member of each
    /// group is its center.
    ///
    /// # Panics
    ///
    /// Panics if any group is empty or a node appears in two groups.
    pub fn from_groups<I, G>(groups: I) -> Self
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = N>,
    {
        let mut seen = BTreeSet::new();
        let mut clusters = Vec::new();
        for group in groups {
            let members: Vec<N> = group.into_iter().collect();
            assert!(!members.is_empty(), "cluster groups must be non-empty");
            for m in &members {
                assert!(seen.insert(m.clone()), "node appears in two clusters");
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "the assert above rejects empty groups"
            )]
            clusters.push(Cluster {
                center: members[0].clone(),
                members,
            });
        }
        Clustering { clusters }
    }

    /// All clusters, singletons included.
    pub fn clusters(&self) -> &[Cluster<N>] {
        &self.clusters
    }

    /// Clusters with at least two members.
    pub fn multi_clusters(&self) -> impl Iterator<Item = &Cluster<N>> {
        self.clusters.iter().filter(|c| c.is_multi())
    }

    /// Number of singleton clusters (unclustered nodes).
    pub fn singleton_count(&self) -> usize {
        self.clusters.iter().filter(|c| !c.is_multi()).count()
    }

    /// Total number of nodes across all clusters.
    pub fn total_nodes(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// Index of the cluster containing `node`, if any.
    pub fn cluster_of(&self, node: &N) -> Option<usize> {
        self.clusters.iter().position(|c| c.members.contains(node))
    }

    /// Nodes sharing a cluster with `node` (excluding `node` itself) —
    /// the "find my cluster peers" query from §IV-B.
    pub fn peers_of(&self, node: &N) -> Vec<&N> {
        match self.cluster_of(node) {
            #[expect(
                clippy::indexing_slicing,
                reason = "cluster_of returns an index into self.clusters"
            )]
            Some(i) => self.clusters[i]
                .members
                .iter()
                .filter(|m| *m != node)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Up to `n` nodes drawn from *distinct* clusters — the
    /// fault-independence query from §IV-B (nodes in different clusters
    /// are in different parts of the network with high probability).
    /// Larger clusters are preferred as sources.
    pub fn representatives(&self, n: usize) -> Vec<&N> {
        let mut order: Vec<&Cluster<N>> = self.clusters.iter().collect();
        order.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.center.cmp(&b.center)));
        order.into_iter().take(n).map(|c| &c.center).collect()
    }

    /// Table-I-style summary statistics.
    pub fn summary(&self) -> ClusterSummary {
        let mut sizes: Vec<usize> = self.multi_clusters().map(Cluster::len).collect();
        sizes.sort_unstable();
        let nodes_clustered = sizes.iter().sum();
        let num_clusters = sizes.len();
        let mean_size = if num_clusters == 0 {
            0.0
        } else {
            nodes_clustered as f64 / num_clusters as f64
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "each arm indexes below n == sizes.len() >= 1"
        )]
        let median_size = match num_clusters {
            0 => 0.0,
            n if n % 2 == 1 => sizes[n / 2] as f64,
            n => (sizes[n / 2 - 1] + sizes[n / 2]) as f64 / 2.0,
        };
        let max_size = self.clusters.iter().map(Cluster::len).max().unwrap_or(0);
        ClusterSummary {
            nodes_clustered,
            total_nodes: self.total_nodes(),
            num_clusters,
            mean_size,
            median_size,
            max_size,
        }
    }

    /// Runs the SMF algorithm over `nodes` (id, ratio map) pairs.
    ///
    /// Output is a partition: every input node appears in exactly one
    /// cluster. Input order does not affect which clusters exist, only
    /// tie-breaking among equal similarities (which is further pinned by
    /// node id).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `[0, 1]` or a node id appears
    /// twice.
    pub fn smf<K: Ord + Clone>(nodes: &[(N, RatioMap<K>)], cfg: &SmfConfig) -> Clustering<N> {
        crp_telemetry::stage!(CORE_SMF);
        cfg.validate();
        let ids: BTreeSet<&N> = nodes.iter().map(|(n, _)| n).collect();
        assert_eq!(ids.len(), nodes.len(), "duplicate node ids");

        if nodes.is_empty() {
            return Clustering {
                clusters: Vec::new(),
            };
        }

        if crp_telemetry::enabled() {
            for (_, map) in nodes {
                crp_telemetry::observe_unit("core.smf.mapping_strength", map.strongest().1);
            }
        }
        let mut joins = 0u64;
        let mut merges = 0u64;

        let maps: BTreeMap<&N, &RatioMap<K>> = nodes.iter().map(|(n, m)| (n, m)).collect();
        let mut clusters: Vec<Cluster<N>> = Vec::new();
        // Indices into `clusters` whose centers attract pass-1 joiners.
        let mut active_centers: Vec<usize> = Vec::new();

        match cfg.center_strategy {
            CenterStrategy::StrongestMappings => {
                // Strongest mappings first: the processing order itself
                // determines the centers.
                let mut order: Vec<&(N, RatioMap<K>)> = nodes.iter().collect();
                order.sort_by(|(na, ma), (nb, mb)| {
                    mb.strongest()
                        .1
                        .total_cmp(&ma.strongest().1)
                        .then_with(|| na.cmp(nb))
                });
                for (node, map) in order {
                    let joined = try_join(map, node, &mut clusters, &active_centers, &maps, cfg);
                    if joined {
                        joins += 1;
                    } else {
                        active_centers.push(clusters.len());
                        clusters.push(Cluster::singleton(node.clone()));
                    }
                }
            }
            CenterStrategy::Random { count } => {
                // Pre-drawn centers; everyone else either joins one or
                // becomes a passive singleton (rescued by pass 2).
                let center_ids = random_centers(nodes, count, cfg.seed);
                for (n, _) in nodes.iter().filter(|(n, _)| center_ids.contains(n)) {
                    active_centers.push(clusters.len());
                    clusters.push(Cluster::singleton(n.clone()));
                }
                for (node, map) in nodes {
                    if center_ids.contains(node) {
                        continue;
                    }
                    let joined = try_join(map, node, &mut clusters, &active_centers, &maps, cfg);
                    if joined {
                        joins += 1;
                    } else {
                        clusters.push(Cluster::singleton(node.clone()));
                    }
                }
            }
        }

        // Pass 2: merge singleton clusters (lonely centers included) in
        // seeded random order.
        if cfg.second_pass {
            let mut lone: Vec<usize> = clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_multi())
                .map(|(i, _)| i)
                .collect();
            seeded_shuffle(&mut lone, cfg.seed);
            let mut absorbed: BTreeSet<usize> = BTreeSet::new();
            for (pos, &ci) in lone.iter().enumerate() {
                if absorbed.contains(&ci) {
                    continue;
                }
                #[expect(clippy::indexing_slicing, reason = "lone indexes clusters")]
                let center_node = clusters[ci].center.clone();
                #[expect(clippy::indexing_slicing, reason = "pos indexes lone")]
                for &cj in &lone[pos + 1..] {
                    if absorbed.contains(&cj) {
                        continue;
                    }
                    #[expect(clippy::indexing_slicing, reason = "lone indexes clusters")]
                    let other = clusters[cj].center.clone();
                    #[expect(clippy::indexing_slicing, reason = "every center is a key of maps")]
                    let s = cfg.metric.compare(maps[&center_node], maps[&other]);
                    if s > cfg.threshold {
                        #[expect(clippy::indexing_slicing, reason = "lone indexes clusters")]
                        clusters[ci].members.push(other);
                        absorbed.insert(cj);
                        merges += 1;
                    }
                }
            }
            let mut kept = Vec::with_capacity(clusters.len() - absorbed.len());
            for (i, c) in clusters.into_iter().enumerate() {
                if !absorbed.contains(&i) {
                    kept.push(c);
                }
            }
            clusters = kept;
        }

        crate::debug_invariant!(
            crate::invariant::check_disjoint_partition(
                clusters.iter().map(|c| c.members.iter()),
                nodes.len()
            ),
            "Clustering::smf ({} nodes, threshold {})",
            nodes.len(),
            cfg.threshold
        );
        crp_telemetry::counter_add("core.smf.joins", joins);
        crp_telemetry::counter_add("core.smf.merges", merges);
        crp_telemetry::gauge_set("core.smf.clusters", clusters.len() as f64);
        Clustering { clusters }
    }
}

/// Attempts to join `node` to the active cluster whose center is most
/// similar, returning whether it joined.
fn try_join<N, K>(
    map: &RatioMap<K>,
    node: &N,
    clusters: &mut [Cluster<N>],
    active_centers: &[usize],
    maps: &BTreeMap<&N, &RatioMap<K>>,
    cfg: &SmfConfig,
) -> bool
where
    N: Ord + Clone,
    K: Ord + Clone,
{
    let mut best: Option<(f64, usize)> = None;
    for &ci in active_centers {
        #[expect(
            clippy::indexing_slicing,
            reason = "active_centers indexes clusters, and every center is a key of maps"
        )]
        let s = cfg.metric.compare(map, maps[&clusters[ci].center]);
        if best.is_none_or(|(bs, _)| s > bs) {
            best = Some((s, ci));
        }
    }
    match best {
        Some((s, ci)) if s > cfg.threshold => {
            #[expect(clippy::indexing_slicing, reason = "ci came from active_centers")]
            clusters[ci].members.push(node.clone());
            true
        }
        _ => false,
    }
}

fn random_centers<N: Ord + Clone, K>(
    nodes: &[(N, RatioMap<K>)],
    count: usize,
    seed: u64,
) -> BTreeSet<N>
where
    K: Ord + Clone,
{
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    seeded_shuffle(&mut order, seed ^ 0xC3);
    #[expect(
        clippy::indexing_slicing,
        reason = "order is a permutation of 0..nodes.len()"
    )]
    order
        .into_iter()
        .take(count)
        .map(|i| nodes[i].0.clone())
        .collect()
}

/// Deterministic Fisher–Yates shuffle driven by the noise primitives.
fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (noise::mix(&[seed, i as u64]) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    /// Two well-separated groups: {A,B,C} behind replica v, {D,E,F}
    /// behind replica x — the scenario in the paper's Fig. 3.
    fn two_group_nodes() -> Vec<(&'static str, RatioMap<&'static str>)> {
        vec![
            ("A", map(&[("v", 0.8), ("t", 0.2)])),
            ("B", map(&[("v", 0.7), ("z", 0.3)])),
            ("C", map(&[("v", 0.9), ("t", 0.1)])),
            ("D", map(&[("x", 0.6), ("w", 0.4)])),
            ("E", map(&[("x", 0.8), ("y", 0.2)])),
            ("F", map(&[("x", 0.7), ("w", 0.3)])),
        ]
    }

    #[test]
    fn figure3_scenario_forms_two_clusters() {
        let nodes = two_group_nodes();
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        let multi: Vec<_> = clustering.multi_clusters().collect();
        assert_eq!(multi.len(), 2, "{clustering:?}");
        let mut groups: Vec<Vec<&str>> = multi
            .iter()
            .map(|c| {
                let mut m: Vec<&str> = c.members().to_vec();
                m.sort_unstable();
                m
            })
            .collect();
        groups.sort();
        assert_eq!(groups, vec![vec!["A", "B", "C"], vec!["D", "E", "F"]]);
    }

    #[test]
    fn output_is_a_partition() {
        let nodes = two_group_nodes();
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        assert_eq!(clustering.total_nodes(), nodes.len());
        let mut all: Vec<&str> = clustering
            .clusters()
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), nodes.len());
    }

    #[test]
    fn high_threshold_fragments_clusters() {
        let nodes = two_group_nodes();
        let loose = Clustering::smf(&nodes, &SmfConfig::paper(0.1)).summary();
        let strict = Clustering::smf(&nodes, &SmfConfig::paper(0.999)).summary();
        assert!(strict.nodes_clustered <= loose.nodes_clustered);
    }

    #[test]
    fn zero_threshold_groups_any_overlap() {
        let nodes = vec![
            ("A", map(&[("v", 1.0)])),
            ("B", map(&[("v", 0.01), ("w", 0.99)])),
            ("C", map(&[("q", 1.0)])),
        ];
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.0));
        assert_eq!(clustering.cluster_of(&"A"), clustering.cluster_of(&"B"));
        assert_ne!(clustering.cluster_of(&"A"), clustering.cluster_of(&"C"));
    }

    #[test]
    fn disjoint_nodes_stay_singletons() {
        let nodes = vec![
            ("A", map(&[("u", 1.0)])),
            ("B", map(&[("v", 1.0)])),
            ("C", map(&[("w", 1.0)])),
        ];
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        assert_eq!(clustering.singleton_count(), 3);
        assert_eq!(clustering.summary().num_clusters, 0);
        assert!(clustering.peers_of(&"A").is_empty());
    }

    #[test]
    fn second_pass_rescues_passive_singletons() {
        // With zero pre-drawn random centers, pass 1 leaves everything a
        // passive singleton; only the second pass can merge them.
        let nodes = vec![
            ("A", map(&[("u", 0.9), ("shared", 0.1)])),
            ("B", map(&[("v", 0.9), ("shared", 0.1)])),
        ];
        let mut cfg = SmfConfig {
            center_strategy: CenterStrategy::Random { count: 0 },
            ..SmfConfig::paper(0.005)
        };
        cfg.second_pass = false;
        let without = Clustering::smf(&nodes, &cfg);
        assert_eq!(without.singleton_count(), 2);
        cfg.second_pass = true;
        let with = Clustering::smf(&nodes, &cfg);
        assert_eq!(with.summary().num_clusters, 1);
        assert_eq!(with.summary().nodes_clustered, 2);
    }

    #[test]
    fn strongest_node_seeds_the_cluster() {
        // C has the strongest single mapping, so it is processed first
        // and becomes the center A and B join.
        let nodes = vec![
            ("A", map(&[("v", 0.8), ("t", 0.2)])),
            ("B", map(&[("v", 0.7), ("z", 0.3)])),
            ("C", map(&[("v", 0.9), ("t", 0.1)])),
        ];
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        let cluster = clustering
            .multi_clusters()
            .next()
            .expect("one cluster forms");
        assert_eq!(cluster.center(), &"C");
        assert_eq!(cluster.len(), 3);
    }

    #[test]
    fn random_centers_still_partition() {
        let nodes = two_group_nodes();
        let cfg = SmfConfig {
            center_strategy: CenterStrategy::Random { count: 2 },
            ..SmfConfig::paper(0.1)
        };
        let clustering = Clustering::smf(&nodes, &cfg);
        assert_eq!(clustering.total_nodes(), nodes.len());
    }

    #[test]
    fn smf_is_deterministic() {
        let nodes = two_group_nodes();
        let a = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        let b = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_gives_empty_clustering() {
        let nodes: Vec<(&str, RatioMap<&str>)> = Vec::new();
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        assert_eq!(clustering.total_nodes(), 0);
        assert_eq!(clustering.summary().num_clusters, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate node ids")]
    fn duplicate_ids_rejected() {
        let nodes = vec![("A", map(&[("u", 1.0)])), ("A", map(&[("v", 1.0)]))];
        let _ = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let nodes = two_group_nodes();
        let _ = Clustering::smf(&nodes, &SmfConfig::paper(1.5));
    }

    #[test]
    fn summary_statistics_match_by_hand() {
        let nodes = two_group_nodes();
        let s = Clustering::smf(&nodes, &SmfConfig::paper(0.1)).summary();
        assert_eq!(s.nodes_clustered, 6);
        assert_eq!(s.total_nodes, 6);
        assert_eq!(s.num_clusters, 2);
        assert!((s.mean_size - 3.0).abs() < 1e-12);
        assert!((s.median_size - 3.0).abs() < 1e-12);
        assert_eq!(s.max_size, 3);
        assert!((s.fraction_clustered() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_groups_builds_partition() {
        let clustering = Clustering::from_groups(vec![vec!["a", "b"], vec!["c"]]);
        assert_eq!(clustering.total_nodes(), 3);
        assert_eq!(clustering.clusters()[0].center(), &"a");
        assert_eq!(clustering.peers_of(&"b"), vec![&"a"]);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn from_groups_rejects_overlap() {
        let _ = Clustering::from_groups(vec![vec!["a", "b"], vec!["b"]]);
    }

    #[test]
    fn representatives_come_from_distinct_clusters() {
        let nodes = two_group_nodes();
        let clustering = Clustering::smf(&nodes, &SmfConfig::paper(0.1));
        let reps = clustering.representatives(2);
        assert_eq!(reps.len(), 2);
        assert_ne!(
            clustering.cluster_of(reps[0]),
            clustering.cluster_of(reps[1])
        );
    }
}
