//! A stand-alone CRP service façade.
//!
//! The paper sketches (§III-B) a CRP-based service that applications
//! query for relative positions: each participating node feeds its
//! redirection observations in, and the service answers closest-node and
//! clustering queries from the accumulated ratio maps. [`CrpService`] is
//! that service.

use crate::cluster::{Clustering, SmfConfig};
use crate::ratio::{RatioMap, RatioMapError};
use crate::select::Ranking;
use crate::similarity::SimilarityMetric;
use crate::tracker::{RedirectionTracker, WindowPolicy};
use crp_netsim::SimTime;
use std::collections::BTreeMap;

/// A multi-node CRP positioning service.
///
/// `N` identifies participating nodes, `K` identifies replica servers.
///
/// # Example
///
/// ```
/// use crp_core::{CrpService, SimilarityMetric, WindowPolicy};
/// use crp_netsim::SimTime;
///
/// let mut svc: CrpService<&str, &str> = CrpService::new(
///     WindowPolicy::LastProbes(10),
///     SimilarityMetric::Cosine,
/// );
/// svc.record("client", SimTime::ZERO, vec!["r1", "r2"]);
/// svc.record("server-a", SimTime::ZERO, vec!["r1", "r2"]);
/// svc.record("server-b", SimTime::ZERO, vec!["r9", "r9"]);
///
/// let ranking = svc.closest(&"client", ["server-a", "server-b"], SimTime::ZERO)?;
/// assert_eq!(ranking.top(), Some(&"server-a"));
/// # Ok::<(), crp_core::RatioMapError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CrpService<N: Ord, K> {
    trackers: BTreeMap<N, RedirectionTracker<K>>,
    window: WindowPolicy,
    metric: SimilarityMetric,
}

impl<N, K> CrpService<N, K>
where
    N: Ord + Clone + std::fmt::Debug,
    K: Ord + Clone + std::fmt::Debug,
{
    /// Creates a service with the given window policy and metric. The
    /// paper's recommended operating point is a 10-probe window with
    /// cosine similarity.
    pub fn new(window: WindowPolicy, metric: SimilarityMetric) -> Self {
        CrpService {
            trackers: BTreeMap::new(),
            window,
            metric,
        }
    }

    /// The window policy in effect.
    pub fn window(&self) -> WindowPolicy {
        self.window
    }

    /// Returns the service with a different window policy, keeping all
    /// recorded observations — cheap re-interpretation of the same
    /// history, used by the window-size sweep (Fig. 9).
    pub fn with_window(mut self, window: WindowPolicy) -> Self {
        self.window = window;
        self
    }

    /// Returns the service with a different similarity metric, keeping
    /// all recorded observations — used by the metric ablation.
    pub fn with_metric(mut self, metric: SimilarityMetric) -> Self {
        self.metric = metric;
        self
    }

    /// The similarity metric in effect.
    pub fn metric(&self) -> SimilarityMetric {
        self.metric
    }

    /// Number of nodes with at least one recorded observation.
    pub fn node_count(&self) -> usize {
        self.trackers.len()
    }

    /// Raw tracker access for the snapshot machinery.
    pub(crate) fn trackers_for_snapshot(
        &self,
    ) -> impl Iterator<Item = (&N, &RedirectionTracker<K>)> {
        self.trackers.iter()
    }

    /// Records one redirection observation for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or `time` precedes the node's last
    /// observation.
    pub fn record(&mut self, node: N, time: SimTime, servers: Vec<K>) {
        self.trackers
            .entry(node)
            .or_insert_with(RedirectionTracker::new)
            .record(time, servers);
    }

    /// The node's ratio map under the service's window policy at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if the node is unknown or its
    /// window selects no observations.
    pub fn ratio_map(&self, node: &N, now: SimTime) -> Result<RatioMap<K>, RatioMapError> {
        match self.trackers.get(node) {
            Some(t) => t.ratio_map(self.window, now),
            None => Err(RatioMapError::Empty),
        }
    }

    /// The similarity between two nodes at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if either node has no usable
    /// observations.
    pub fn similarity(&self, a: &N, b: &N, now: SimTime) -> Result<f64, RatioMapError> {
        crp_telemetry::trace::begin_query(now.as_millis());
        let ma = self.ratio_map(a, now)?;
        let mb = self.ratio_map(b, now)?;
        Ok(self.metric.compare(&ma, &mb))
    }

    /// Ranks `candidates` by proximity to `client` (§IV-A). Candidates
    /// without usable observations are silently skipped — they cannot be
    /// positioned at all.
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if the *client* has no usable
    /// observations.
    pub fn closest<I>(
        &self,
        client: &N,
        candidates: I,
        now: SimTime,
    ) -> Result<Ranking<N>, RatioMapError>
    where
        I: IntoIterator<Item = N>,
    {
        crp_telemetry::trace::begin_query(now.as_millis());
        let client_map = self.ratio_map(client, now)?;
        let maps: Vec<(N, RatioMap<K>)> = candidates
            .into_iter()
            .filter_map(|n| self.ratio_map(&n, now).ok().map(|m| (n, m)))
            .collect();
        Ok(Ranking::rank(
            &client_map,
            maps.iter().map(|(n, m)| (n.clone(), m)),
            self.metric,
        ))
    }

    /// Removes a departed node's state entirely (churn handling).
    /// Returns whether the node was known.
    pub fn remove_node(&mut self, node: &N) -> bool {
        self.trackers.remove(node).is_some()
    }

    /// Drops observations older than `max_age` before `now` from every
    /// tracker, and removes nodes left with no observations at all.
    /// Returns `(observations_dropped, nodes_removed)` — the bookkeeping
    /// a long-running service performs to bound memory under churn.
    pub fn prune_stale(
        &mut self,
        now: SimTime,
        max_age: crp_netsim::SimDuration,
    ) -> (usize, usize) {
        let cutoff = SimTime::from_millis(now.as_millis().saturating_sub(max_age.as_millis()));
        let mut dropped = 0;
        for tracker in self.trackers.values_mut() {
            dropped += tracker.prune_before(cutoff);
        }
        let before = self.trackers.len();
        self.trackers.retain(|_, t| !t.is_empty());
        (dropped, before - self.trackers.len())
    }

    /// The §III-B primitive: which of `a`, `b` is closer to
    /// `reference` at `now`?
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if any of the three nodes has no
    /// usable observations.
    pub fn relative(
        &self,
        a: &N,
        b: &N,
        reference: &N,
        now: SimTime,
    ) -> Result<crate::relative::RelativeOrder, RatioMapError> {
        crp_telemetry::trace::begin_query(now.as_millis());
        let ma = self.ratio_map(a, now)?;
        let mb = self.ratio_map(b, now)?;
        let mr = self.ratio_map(reference, now)?;
        Ok(crate::relative::relative_position(
            &ma,
            &mb,
            &mr,
            self.metric,
        ))
    }

    /// Clusters every node with usable observations using SMF (§IV-B).
    /// Nodes without usable observations are omitted from the result.
    pub fn cluster(&self, cfg: &SmfConfig, now: SimTime) -> Clustering<N> {
        crp_telemetry::trace::begin_query(now.as_millis());
        let nodes: Vec<(N, RatioMap<K>)> = self
            .trackers
            .iter()
            .filter_map(|(n, t)| t.ratio_map(self.window, now).ok().map(|m| (n.clone(), m)))
            .collect();
        Clustering::smf(&nodes, cfg)
    }
}

impl<N: Ord, K> crp_telemetry::MemFootprint for CrpService<N, K> {
    fn mem_footprint(&self) -> usize {
        crp_telemetry::mem::ordered_map_footprint(
            self.trackers.len(),
            std::mem::size_of::<N>() + std::mem::size_of::<RedirectionTracker<K>>(),
        ) + self
            .trackers
            .values()
            .map(crp_telemetry::MemFootprint::mem_footprint)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SmfConfig;

    fn service() -> CrpService<&'static str, &'static str> {
        CrpService::new(WindowPolicy::All, SimilarityMetric::Cosine)
    }

    #[test]
    fn closest_matches_manual_ranking() {
        let mut svc = service();
        // The §IV-A example: A(0.2/0.8), B(0.6/0.4), C(0.1/0.9) over x, y.
        for _ in 0..1 {
            svc.record("A", SimTime::ZERO, vec!["x"]);
        }
        for _ in 0..4 {
            svc.record("A", SimTime::ZERO, vec!["y"]);
        }
        for _ in 0..3 {
            svc.record("B", SimTime::ZERO, vec!["x"]);
        }
        for _ in 0..2 {
            svc.record("B", SimTime::ZERO, vec!["y"]);
        }
        for _ in 0..1 {
            svc.record("C", SimTime::ZERO, vec!["x"]);
        }
        for _ in 0..9 {
            svc.record("C", SimTime::ZERO, vec!["y"]);
        }
        let ranking = svc.closest(&"A", ["B", "C"], SimTime::ZERO).unwrap();
        assert_eq!(ranking.top(), Some(&"C"));
    }

    #[test]
    fn unknown_client_is_an_error() {
        let svc = service();
        assert!(svc.closest(&"ghost", ["a"], SimTime::ZERO).is_err());
        assert_eq!(
            svc.ratio_map(&"ghost", SimTime::ZERO).unwrap_err(),
            RatioMapError::Empty
        );
    }

    #[test]
    fn unknown_candidates_are_skipped() {
        let mut svc = service();
        svc.record("client", SimTime::ZERO, vec!["r"]);
        svc.record("known", SimTime::ZERO, vec!["r"]);
        let ranking = svc
            .closest(&"client", ["known", "ghost"], SimTime::ZERO)
            .unwrap();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking.top(), Some(&"known"));
    }

    #[test]
    fn similarity_is_symmetric_through_service() {
        let mut svc = service();
        svc.record("a", SimTime::ZERO, vec!["r1", "r2"]);
        svc.record("b", SimTime::ZERO, vec!["r2", "r3"]);
        let ab = svc.similarity(&"a", &"b", SimTime::ZERO).unwrap();
        let ba = svc.similarity(&"b", &"a", SimTime::ZERO).unwrap();
        assert_eq!(ab, ba);
        assert!(ab > 0.0 && ab < 1.0);
    }

    #[test]
    fn cluster_covers_all_observed_nodes() {
        let mut svc = service();
        for n in ["a", "b", "c"] {
            svc.record(n, SimTime::ZERO, vec!["shared"]);
        }
        svc.record("d", SimTime::ZERO, vec!["elsewhere"]);
        let clustering = svc.cluster(&SmfConfig::paper(0.1), SimTime::ZERO);
        assert_eq!(clustering.total_nodes(), 4);
        assert_eq!(clustering.summary().nodes_clustered, 3);
    }

    #[test]
    fn window_policy_is_honored() {
        let mut svc: CrpService<&str, &str> =
            CrpService::new(WindowPolicy::LastProbes(1), SimilarityMetric::Cosine);
        svc.record("n", SimTime::ZERO, vec!["old"]);
        svc.record("n", SimTime::from_mins(10), vec!["new"]);
        let m = svc.ratio_map(&"n", SimTime::from_mins(10)).unwrap();
        assert_eq!(m.get(&"old"), 0.0);
        assert!((m.get(&"new") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn churn_pruning_drops_stale_state() {
        let mut svc = service();
        svc.record("old", SimTime::ZERO, vec!["r1"]);
        svc.record("mixed", SimTime::ZERO, vec!["r1"]);
        svc.record("mixed", SimTime::from_hours(10), vec!["r2"]);
        svc.record("fresh", SimTime::from_hours(10), vec!["r3"]);
        let (dropped, removed) = svc.prune_stale(
            SimTime::from_hours(11),
            crp_netsim::SimDuration::from_hours(2),
        );
        assert_eq!(dropped, 2, "two stale observations");
        assert_eq!(removed, 1, "`old` had nothing left");
        assert_eq!(svc.node_count(), 2);
        assert!(svc.ratio_map(&"mixed", SimTime::from_hours(11)).is_ok());
        assert!(svc.remove_node(&"fresh"));
        assert!(!svc.remove_node(&"fresh"));
        assert_eq!(svc.node_count(), 1);
    }

    #[test]
    fn relative_query_through_service() {
        let mut svc = service();
        svc.record("A", SimTime::ZERO, vec!["x", "y", "y", "y", "y"]);
        svc.record("B", SimTime::ZERO, vec!["x", "x", "x", "y", "y"]);
        svc.record("C", SimTime::ZERO, vec!["x", "y", "y", "y", "y"]);
        // C's map matches A's exactly; B's does not.
        let order = svc.relative(&"C", &"B", &"A", SimTime::ZERO).unwrap();
        assert!(matches!(
            order,
            crate::relative::RelativeOrder::CloserA { .. }
        ));
        assert!(svc.relative(&"C", &"B", &"ghost", SimTime::ZERO).is_err());
    }

    #[test]
    fn node_count_tracks_distinct_nodes() {
        let mut svc = service();
        assert_eq!(svc.node_count(), 0);
        svc.record("a", SimTime::ZERO, vec!["r"]);
        svc.record("a", SimTime::ZERO, vec!["r"]);
        svc.record("b", SimTime::ZERO, vec!["r"]);
        assert_eq!(svc.node_count(), 2);
    }
}
