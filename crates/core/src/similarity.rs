//! Similarity metrics over ratio maps.
//!
//! The paper uses cosine similarity exclusively; the alternatives here
//! exist for the ablation benches, which ask whether the *weighting*
//! (cosine) or merely the *overlap* (Jaccard) carries the signal.

use crate::ratio::RatioMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The similarity metric used to compare two redirection ratio maps.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimilarityMetric {
    /// Cosine of the angle between the ratio vectors (the paper's
    /// metric).
    Cosine,
    /// Jaccard index of the replica *sets*, ignoring ratios.
    Jaccard,
    /// Sum of per-replica minimum ratios (histogram intersection).
    WeightedOverlap,
}

impl SimilarityMetric {
    /// All metrics, for sweeping in ablations.
    pub const ALL: [SimilarityMetric; 3] = [
        SimilarityMetric::Cosine,
        SimilarityMetric::Jaccard,
        SimilarityMetric::WeightedOverlap,
    ];

    /// Computes the similarity between two maps, in `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use crp_core::{RatioMap, SimilarityMetric};
    ///
    /// let a = RatioMap::from_weights([("x", 0.2), ("y", 0.8)])?;
    /// let b = RatioMap::from_weights([("x", 0.6), ("y", 0.4)])?;
    /// let cos = SimilarityMetric::Cosine.compare(&a, &b);
    /// let jac = SimilarityMetric::Jaccard.compare(&a, &b);
    /// assert!((cos - 0.740).abs() < 1e-3);
    /// assert_eq!(jac, 1.0); // same replica sets
    /// # Ok::<(), crp_core::RatioMapError>(())
    /// ```
    pub fn compare<K: Ord + Clone>(self, a: &RatioMap<K>, b: &RatioMap<K>) -> f64 {
        crp_telemetry::counter_add("core.similarity.calls", 1);
        crp_telemetry::trace::query_stage("core.similarity");
        let score = match self {
            SimilarityMetric::Cosine => a.cosine_similarity(b),
            SimilarityMetric::Jaccard => jaccard(a, b),
            SimilarityMetric::WeightedOverlap => weighted_overlap(a, b),
        };
        crate::debug_invariant!(
            crate::invariant::check_unit_interval(score),
            "SimilarityMetric::{self:?}::compare"
        );
        score
    }
}

impl fmt::Display for SimilarityMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SimilarityMetric::Cosine => "cosine",
            SimilarityMetric::Jaccard => "jaccard",
            SimilarityMetric::WeightedOverlap => "weighted-overlap",
        };
        f.write_str(name)
    }
}

fn jaccard<K: Ord + Clone>(a: &RatioMap<K>, b: &RatioMap<K>) -> f64 {
    let sa: BTreeSet<&K> = a.keys().collect();
    let sb: BTreeSet<&K> = b.keys().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    // Union is non-zero: ratio maps are never empty.
    inter / union
}

fn weighted_overlap<K: Ord + Clone>(a: &RatioMap<K>, b: &RatioMap<K>) -> f64 {
    // The sum of per-key minima is mathematically ≤ 1 but can creep a
    // few ulps above it in floating point; clamp like cosine does.
    a.iter()
        .map(|(k, va)| va.min(b.get(k)))
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    #[test]
    fn all_metrics_are_one_on_identical_maps() {
        let m = map(&[("x", 0.4), ("y", 0.6)]);
        for metric in SimilarityMetric::ALL {
            assert!(
                (metric.compare(&m, &m) - 1.0).abs() < 1e-12,
                "{metric} failed"
            );
        }
    }

    #[test]
    fn all_metrics_are_zero_on_disjoint_maps() {
        let a = map(&[("x", 1.0)]);
        let b = map(&[("y", 1.0)]);
        for metric in SimilarityMetric::ALL {
            assert_eq!(metric.compare(&a, &b), 0.0, "{metric} failed");
        }
    }

    #[test]
    fn all_metrics_symmetric() {
        let a = map(&[("x", 0.3), ("y", 0.7)]);
        let b = map(&[("y", 0.2), ("z", 0.8)]);
        for metric in SimilarityMetric::ALL {
            assert!(
                (metric.compare(&a, &b) - metric.compare(&b, &a)).abs() < 1e-12,
                "{metric} asymmetric"
            );
        }
    }

    #[test]
    fn jaccard_counts_sets_not_weights() {
        let a = map(&[("x", 0.99), ("y", 0.01)]);
        let b = map(&[("x", 0.01), ("y", 0.99)]);
        assert_eq!(SimilarityMetric::Jaccard.compare(&a, &b), 1.0);
        // Cosine sees the weight disagreement.
        assert!(SimilarityMetric::Cosine.compare(&a, &b) < 0.1);
    }

    #[test]
    fn weighted_overlap_is_histogram_intersection() {
        let a = map(&[("x", 0.5), ("y", 0.5)]);
        let b = map(&[("x", 0.25), ("z", 0.75)]);
        assert!((SimilarityMetric::WeightedOverlap.compare(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_jaccard() {
        let a = map(&[("x", 0.5), ("y", 0.5)]);
        let b = map(&[("y", 0.5), ("z", 0.5)]);
        assert!((SimilarityMetric::Jaccard.compare(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(SimilarityMetric::Cosine.to_string(), "cosine");
        assert_eq!(SimilarityMetric::Jaccard.to_string(), "jaccard");
        assert_eq!(
            SimilarityMetric::WeightedOverlap.to_string(),
            "weighted-overlap"
        );
    }
}
