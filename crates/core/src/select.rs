//! Closest-node selection (§IV-A).
//!
//! Given a client's ratio map and the maps of candidate servers, rank the
//! candidates by similarity: the highest-similarity candidate is CRP's
//! estimate of the closest server. The paper evaluates both the Top-1
//! pick and the average of the Top-5 picks (Figs. 4–5).

use crate::ratio::RatioMap;
use crate::similarity::SimilarityMetric;
use serde::{Deserialize, Serialize};

/// A similarity-ordered ranking of candidate nodes relative to a client.
///
/// Entries are sorted by descending similarity; ties break toward the
/// smaller node id so rankings are deterministic.
///
/// # Example
///
/// ```
/// use crp_core::{RatioMap, Ranking, SimilarityMetric};
///
/// let client = RatioMap::from_weights([("x", 0.2), ("y", 0.8)])?;
/// let b = RatioMap::from_weights([("x", 0.6), ("y", 0.4)])?;
/// let c = RatioMap::from_weights([("x", 0.1), ("y", 0.9)])?;
/// let ranking = Ranking::rank(&client, [("B", &b), ("C", &c)], SimilarityMetric::Cosine);
/// assert_eq!(ranking.top(), Some(&"C")); // the paper's worked example
/// # Ok::<(), crp_core::RatioMapError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ranking<N> {
    entries: Vec<(N, f64)>,
}

impl<N: Ord> Ranking<N> {
    /// Ranks `candidates` by their similarity to `client` under `metric`.
    ///
    /// Candidates whose maps share no replica with the client score 0;
    /// they stay in the ranking (at the bottom) because the paper's
    /// semantics for zero overlap is "not near", which is still an
    /// ordering signal.
    pub fn rank<'a, K, I>(client: &RatioMap<K>, candidates: I, metric: SimilarityMetric) -> Self
    where
        K: Ord + Clone + 'a,
        I: IntoIterator<Item = (N, &'a RatioMap<K>)>,
    {
        crp_telemetry::stage!(CORE_RANK);
        let mut entries: Vec<(N, f64)> = candidates
            .into_iter()
            .map(|(n, map)| {
                let s = metric.compare(client, map);
                (n, s)
            })
            .collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        crp_telemetry::trace::query_stage(crp_telemetry::stage::CORE_RANK.name);
        if let Some((_, top)) = entries.first() {
            crp_telemetry::observe_unit("core.rank.top_score", *top);
        }
        crate::debug_invariant!(
            crate::invariant::check_ranking_scores(entries.iter().map(|(_, s)| s)),
            "Ranking::rank ({} candidates)",
            entries.len()
        );
        Ranking { entries }
    }

    /// The best candidate (Top-1), or `None` if the ranking is empty.
    pub fn top(&self) -> Option<&N> {
        self.entries.first().map(|(n, _)| n)
    }

    /// The best `k` candidates, best first.
    pub fn top_k(&self, k: usize) -> Vec<&N> {
        self.entries.iter().take(k).map(|(n, _)| n).collect()
    }

    /// All `(node, similarity)` entries, best first.
    pub fn entries(&self) -> &[(N, f64)] {
        &self.entries
    }

    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The similarity score of a specific candidate, if ranked.
    pub fn score_of(&self, node: &N) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == node)
            .map(|(_, s)| *s)
    }

    /// Whether the client shares any replica with at least one
    /// candidate. When false, CRP genuinely has no information and a
    /// deployment would fall back to another positioning source.
    pub fn has_signal(&self) -> bool {
        self.entries.iter().any(|(_, s)| *s > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    #[test]
    fn paper_example_selects_c() {
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("x", 0.6), ("y", 0.4)]);
        let c = map(&[("x", 0.1), ("y", 0.9)]);
        let r = Ranking::rank(&a, [("B", &b), ("C", &c)], SimilarityMetric::Cosine);
        assert_eq!(r.top(), Some(&"C"));
        assert_eq!(r.top_k(2), vec![&"C", &"B"]);
        assert!((r.score_of(&"C").unwrap() - 0.991).abs() < 1e-3);
    }

    #[test]
    fn zero_overlap_candidates_sink_to_bottom() {
        let client = map(&[("x", 1.0)]);
        let near = map(&[("x", 0.5), ("y", 0.5)]);
        let far = map(&[("z", 1.0)]);
        let r = Ranking::rank(
            &client,
            [("far", &far), ("near", &near)],
            SimilarityMetric::Cosine,
        );
        assert_eq!(r.top(), Some(&"near"));
        assert_eq!(r.score_of(&"far"), Some(0.0));
        assert!(r.has_signal());
    }

    #[test]
    fn no_signal_when_everything_disjoint() {
        let client = map(&[("x", 1.0)]);
        let far = map(&[("z", 1.0)]);
        let r = Ranking::rank(&client, [("far", &far)], SimilarityMetric::Cosine);
        assert!(!r.has_signal());
        assert_eq!(r.top(), Some(&"far"));
    }

    #[test]
    fn ties_break_by_node_id() {
        let client = map(&[("x", 1.0)]);
        let same = map(&[("x", 1.0)]);
        let r = Ranking::rank(
            &client,
            [("zeta", &same), ("alpha", &same)],
            SimilarityMetric::Cosine,
        );
        assert_eq!(r.top(), Some(&"alpha"));
    }

    #[test]
    fn empty_candidate_set() {
        let client = map(&[("x", 1.0)]);
        let r: Ranking<&str> = Ranking::rank(
            &client,
            std::iter::empty::<(&str, &RatioMap<&str>)>(),
            SimilarityMetric::Cosine,
        );
        assert!(r.is_empty());
        assert_eq!(r.top(), None);
        assert!(r.top_k(3).is_empty());
    }

    #[test]
    fn top_k_clamps_to_len() {
        let client = map(&[("x", 1.0)]);
        let c1 = map(&[("x", 0.7), ("y", 0.3)]);
        let r = Ranking::rank(&client, [("only", &c1)], SimilarityMetric::Cosine);
        assert_eq!(r.top_k(5).len(), 1);
        assert_eq!(r.len(), 1);
    }
}
