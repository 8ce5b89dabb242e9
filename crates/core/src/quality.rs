//! Cluster-quality metrics (§V-B, Fig. 6–7).
//!
//! Quality is judged against a ground-truth distance oracle (in the
//! paper, King-measured RTTs): a cluster is *good* when its members are
//! closer to their own center than that center is to other clusters'
//! centers — the shaded region of Fig. 6.

use crate::cluster::{Cluster, Clustering};
use serde::{Deserialize, Serialize};

/// Distance statistics for one multi-member cluster.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterQuality {
    /// Index of the cluster in the clustering.
    pub cluster_index: usize,
    /// Number of members.
    pub size: usize,
    /// Mean distance (ms) from non-center members to the center — the
    /// paper's *intracluster distance*.
    pub intra_ms: f64,
    /// Maximum pairwise distance among members (ms) — the *diameter*
    /// used for Fig. 7's buckets.
    pub diameter_ms: f64,
    /// Mean distance (ms) from this cluster's center to every other
    /// cluster's center — the paper's *intercluster distance*.
    pub inter_ms: f64,
}

impl ClusterQuality {
    /// The Fig. 6 criterion: members are closer to their own center than
    /// the center is to other clusters.
    pub fn is_good(&self) -> bool {
        self.inter_ms > self.intra_ms
    }
}

/// Quality metrics for every multi-member cluster of a clustering.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    records: Vec<ClusterQuality>,
}

impl QualityReport {
    /// Evaluates `clustering` against a symmetric distance oracle
    /// `dist_ms` (millisecond RTTs). Singleton clusters are skipped —
    /// they have no intracluster distance. When the clustering has a
    /// single multi-member cluster, its `inter_ms` is infinite (there is
    /// no other center), which makes it trivially good.
    pub fn evaluate<N, F>(clustering: &Clustering<N>, mut dist_ms: F) -> QualityReport
    where
        N: Ord + Clone,
        F: FnMut(&N, &N) -> f64,
    {
        // Centers of every cluster (singletons count as potential
        // intercluster endpoints: an unclustered node is still a cluster
        // per the algorithm's output).
        let centers: Vec<&N> = clustering.clusters().iter().map(Cluster::center).collect();
        let mut records = Vec::new();
        for (i, cluster) in clustering.clusters().iter().enumerate() {
            if !cluster.is_multi() {
                continue;
            }
            let center = cluster.center();
            let members = cluster.members();
            let intra: f64 = members
                .iter()
                .filter(|m| *m != center)
                .map(|m| dist_ms(m, center))
                .sum::<f64>()
                / (members.len() - 1) as f64;
            let mut diameter: f64 = 0.0;
            #[expect(
                clippy::indexing_slicing,
                reason = "a_idx < members.len(), so the tail slice starts in bounds"
            )]
            for (a_idx, a) in members.iter().enumerate() {
                for b in &members[a_idx + 1..] {
                    diameter = diameter.max(dist_ms(a, b));
                }
            }
            let others: Vec<f64> = centers
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| dist_ms(center, c))
                .collect();
            let inter = if others.is_empty() {
                f64::INFINITY
            } else {
                others.iter().sum::<f64>() / others.len() as f64
            };
            records.push(ClusterQuality {
                cluster_index: i,
                size: members.len(),
                intra_ms: intra,
                diameter_ms: diameter,
                inter_ms: inter,
            });
        }
        QualityReport { records }
    }

    /// Per-cluster records, in cluster order.
    pub fn records(&self) -> &[ClusterQuality] {
        &self.records
    }

    /// Records restricted to clusters with diameter below `max_ms` — the
    /// paper limits its analysis to diameters under 75 ms.
    pub fn with_max_diameter(&self, max_ms: f64) -> impl Iterator<Item = &ClusterQuality> {
        self.records.iter().filter(move |r| r.diameter_ms < max_ms)
    }

    /// Number of good clusters whose diameter lies in `[lo_ms, hi_ms)` —
    /// the Fig. 7 bucket counts.
    pub fn good_in_diameter_bucket(&self, lo_ms: f64, hi_ms: f64) -> usize {
        self.records
            .iter()
            .filter(|r| r.is_good() && r.diameter_ms >= lo_ms && r.diameter_ms < hi_ms)
            .count()
    }

    /// Fraction of evaluated clusters that are good, or `None` if there
    /// were no multi-member clusters.
    pub fn good_fraction(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let good = self.records.iter().filter(|r| r.is_good()).count();
        Some(good as f64 / self.records.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance oracle over a 1-D line: nodes are integers, distance is
    /// the absolute difference ×10 ms.
    fn line_dist(a: &i32, b: &i32) -> f64 {
        (a - b).abs() as f64 * 10.0
    }

    #[test]
    fn tight_separated_clusters_are_good() {
        // {0,1,2} and {100,101,102}: tiny intra, huge inter.
        let clustering = Clustering::from_groups(vec![vec![0, 1, 2], vec![100, 101, 102]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        assert_eq!(report.records().len(), 2);
        for r in report.records() {
            assert!(r.is_good(), "{r:?}");
            assert_eq!(r.size, 3);
            assert!(r.intra_ms <= 20.0);
            assert!(r.inter_ms >= 900.0);
            assert_eq!(r.diameter_ms, 20.0);
        }
        assert_eq!(report.good_fraction(), Some(1.0));
    }

    #[test]
    fn overlapping_clusters_are_bad() {
        // Interleaved members: intra exceeds inter.
        let clustering = Clustering::from_groups(vec![vec![0, 100], vec![1, 101]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        for r in report.records() {
            assert!(!r.is_good(), "{r:?}");
        }
        assert_eq!(report.good_fraction(), Some(0.0));
    }

    #[test]
    fn singletons_are_skipped_but_count_as_inter_targets() {
        let clustering = Clustering::from_groups(vec![vec![0, 1], vec![5]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        assert_eq!(report.records().len(), 1);
        // Inter distance is to the singleton's center at 5.
        assert_eq!(report.records()[0].inter_ms, 50.0);
    }

    #[test]
    fn lone_multi_cluster_has_infinite_inter() {
        let clustering = Clustering::from_groups(vec![vec![0, 1, 2]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        assert!(report.records()[0].inter_ms.is_infinite());
        assert!(report.records()[0].is_good());
    }

    #[test]
    fn diameter_buckets_count_good_clusters() {
        let clustering = Clustering::from_groups(vec![vec![0, 1], vec![100, 104], vec![200, 201]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        // Diameters: 10, 40, 10 ms; all good (centers far apart).
        assert_eq!(report.good_in_diameter_bucket(0.0, 25.0), 2);
        assert_eq!(report.good_in_diameter_bucket(25.0, 75.0), 1);
        assert_eq!(report.with_max_diameter(75.0).count(), 3);
        assert_eq!(report.with_max_diameter(20.0).count(), 2);
    }

    #[test]
    fn empty_report_for_all_singletons() {
        let clustering = Clustering::from_groups(vec![vec![1], vec![2]]);
        let report = QualityReport::evaluate(&clustering, line_dist);
        assert!(report.records().is_empty());
        assert_eq!(report.good_fraction(), None);
    }
}
