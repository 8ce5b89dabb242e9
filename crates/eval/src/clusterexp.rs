//! The clustering experiment kernel (§V-B, Table I, Figs. 6–7).
//!
//! 177 broadly distributed DNS servers observe CDN redirections; SMF
//! clusters them at several thresholds; ASN clustering provides the
//! baseline; King-style measurements provide the ground-truth distances
//! for the quality analysis.

use crp::{Scenario, ScenarioConfig};
use crp_baselines::asn_clustering;
use crp_cdn::ReplicaId;
use crp_core::{Clustering, CrpService, QualityReport, SimilarityMetric, SmfConfig, WindowPolicy};
use crp_netsim::{HostId, KingConfig, SimDuration, SimTime};
use std::collections::HashMap;

use crate::cli::EvalArgs;

/// Configuration of a clustering experiment run.
#[derive(Clone, Debug)]
pub struct ClusterExpConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of DNS-server nodes to cluster (paper: 177).
    pub nodes: usize,
    /// CDN footprint scale.
    pub cdn_scale: f64,
    /// Observation-campaign length.
    pub observe_hours: u64,
    /// SMF thresholds to sweep (paper: 0.01, 0.1, 0.5).
    pub thresholds: Vec<f64>,
    /// King measurement attempts per pair for ground truth.
    pub king_attempts: usize,
    /// Apply the §VI CDN-owned-address filter to every probe.
    pub filter_cdn_owned: bool,
}

impl ClusterExpConfig {
    /// The paper-scale configuration, with overrides from common flags.
    pub fn paper(args: &EvalArgs) -> Self {
        ClusterExpConfig {
            seed: args.seed,
            nodes: args.clients.unwrap_or(177),
            cdn_scale: args.scale.unwrap_or(1.0),
            observe_hours: args.hours.unwrap_or(36),
            thresholds: vec![0.01, 0.1, 0.5],
            king_attempts: 3,
            filter_cdn_owned: false,
        }
    }

    /// A fast configuration for tests and smoke runs.
    pub fn smoke(seed: u64) -> Self {
        ClusterExpConfig {
            seed,
            nodes: 30,
            cdn_scale: 0.3,
            observe_hours: 6,
            thresholds: vec![0.1],
            king_attempts: 2,
            filter_cdn_owned: false,
        }
    }
}

/// Everything the clustering figures need.
pub struct ClusterExpData {
    /// The scenario (network, CDN, populations).
    pub scenario: Scenario,
    /// The observation service after the campaign.
    pub service: CrpService<HostId, ReplicaId>,
    /// CRP clusterings, one per threshold, in threshold order.
    pub crp: Vec<(f64, Clustering<HostId>)>,
    /// The ASN-clustering baseline.
    pub asn: Clustering<HostId>,
    /// Symmetric King-measured ground-truth distances in ms, keyed by
    /// ordered host pair.
    pub king_ms: HashMap<(HostId, HostId), f64>,
}

impl ClusterExpData {
    /// The ground-truth distance between two nodes in ms.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the experiment's node set.
    pub fn dist_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract: the King matrix holds every pair of the node set"
        )]
        *self.king_ms.get(&key).expect("pair measured")
    }

    /// Quality report for a clustering under the King ground truth.
    pub fn quality(&self, clustering: &Clustering<HostId>) -> QualityReport {
        QualityReport::evaluate(clustering, |a, b| self.dist_ms(*a, *b))
    }
}

/// Runs the clustering experiment.
pub fn run_clustering(cfg: &ClusterExpConfig) -> ClusterExpData {
    crp_telemetry::stage!(EVAL_RUN_CLUSTERING);
    let scenario = Scenario::build(ScenarioConfig {
        seed: cfg.seed,
        candidate_servers: 0,
        clients: cfg.nodes,
        cdn_scale: cfg.cdn_scale,
        broad_clients: true,
        filter_cdn_owned: cfg.filter_cdn_owned,
        ..ScenarioConfig::default()
    });
    let start = SimTime::ZERO;
    let end = SimTime::from_hours(cfg.observe_hours);
    let service = scenario.observe_hosts(
        scenario.clients(),
        start,
        end,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(30),
        SimilarityMetric::Cosine,
    );

    let crp = cfg
        .thresholds
        .iter()
        .map(|&t| {
            let mut smf = SmfConfig::paper(t);
            smf.seed = cfg.seed;
            (t, service.cluster(&smf, end))
        })
        .collect();

    let asn = asn_clustering(scenario.network(), scenario.clients());

    // Ground truth: King measurements between every node pair, median of
    // `king_attempts` spread over the campaign's final hours.
    let king = scenario.king(KingConfig::default());
    let truth_start = SimTime::from_hours(cfg.observe_hours.saturating_sub(3).max(1) - 1);
    let mut king_ms = HashMap::new();
    let nodes = scenario.clients();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            let est = king
                .median_estimate(a, b, truth_start, end, cfg.king_attempts)
                // A fully failed King pair falls back to the direct model
                // (the paper filtered unresponsive servers up front).
                .unwrap_or_else(|| scenario.network().rtt(a, b, end));
            let key = if a <= b { (a, b) } else { (b, a) };
            king_ms.insert(key, est.millis());
        }
    }

    ClusterExpData {
        scenario,
        service,
        crp,
        asn,
        king_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_complete() {
        let data = run_clustering(&ClusterExpConfig::smoke(1));
        assert_eq!(data.asn.total_nodes(), 30);
        let (_, crp) = &data.crp[0];
        // CRP clusters every node that produced observations.
        assert!(crp.total_nodes() >= 25, "{}", crp.total_nodes());
        // Ground-truth matrix covers all pairs.
        assert_eq!(data.king_ms.len(), 30 * 29 / 2);
    }

    #[test]
    fn dist_is_symmetric_and_zero_on_diagonal() {
        let data = run_clustering(&ClusterExpConfig::smoke(2));
        let nodes = data.scenario.clients().to_vec();
        assert_eq!(data.dist_ms(nodes[0], nodes[0]), 0.0);
        assert_eq!(
            data.dist_ms(nodes[0], nodes[1]),
            data.dist_ms(nodes[1], nodes[0])
        );
    }

    #[test]
    fn quality_report_is_consistent() {
        let data = run_clustering(&ClusterExpConfig::smoke(3));
        let (_, crp) = &data.crp[0];
        let report = data.quality(crp);
        for r in report.records() {
            assert!(r.intra_ms >= 0.0);
            assert!(
                r.diameter_ms >= r.intra_ms * 0.99,
                "diameter {:.1} below intra {:.1}",
                r.diameter_ms,
                r.intra_ms
            );
        }
    }

    #[test]
    fn crp_clusters_more_nodes_than_asn() {
        // The paper's headline clustering claim, checked at smoke scale:
        // CRP groups nodes across AS boundaries.
        let data = run_clustering(&ClusterExpConfig::smoke(4));
        let (_, crp) = &data.crp[0];
        assert!(
            crp.summary().nodes_clustered >= data.asn.summary().nodes_clustered,
            "CRP {} < ASN {}",
            crp.summary().nodes_clustered,
            data.asn.summary().nodes_clustered
        );
    }
}
