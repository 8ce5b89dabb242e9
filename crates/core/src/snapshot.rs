//! Service state snapshots.
//!
//! A deployed CRP service accumulates observation history worth hours of
//! bootstrap time; restarting from nothing would cost every node its
//! ~100-minute warm-up (§VI). [`ServiceSnapshot`] captures a
//! [`CrpService`]'s full observation state as plain serializable data so
//! it can be persisted across restarts or shipped between service
//! replicas.

use crate::observation::Observation;
use crate::service::CrpService;
use crate::similarity::SimilarityMetric;
use crate::tracker::{RedirectionTracker, WindowPolicy};
use serde::{Deserialize, Serialize};

/// A serializable image of a [`CrpService`]'s observation state.
///
/// # Example
///
/// ```
/// use crp_core::{CrpService, ServiceSnapshot, SimilarityMetric, WindowPolicy};
/// use crp_netsim::SimTime;
///
/// let mut svc: CrpService<String, String> =
///     CrpService::new(WindowPolicy::LastProbes(10), SimilarityMetric::Cosine);
/// svc.record("a".into(), SimTime::ZERO, vec!["r1".into()]);
///
/// let json = serde_json::to_string(&ServiceSnapshot::capture(&svc))?;
/// let restored: ServiceSnapshot<String, String> = serde_json::from_str(&json)?;
/// let svc2 = restored.restore();
/// assert_eq!(svc2.node_count(), 1);
/// # Ok::<(), serde_json::Error>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot<N: Ord, K> {
    window: WindowPolicy,
    metric: SimilarityMetric,
    nodes: Vec<(N, Vec<Observation<K>>)>,
}

impl<N: Ord + Clone, K: Ord + Clone> ServiceSnapshot<N, K> {
    /// Captures the full state of a service.
    pub fn capture(service: &CrpService<N, K>) -> Self {
        ServiceSnapshot {
            window: service.window(),
            metric: service.metric(),
            nodes: service
                .iter_trackers()
                .map(|(n, t)| (n.clone(), t.observations().cloned().collect()))
                .collect(),
        }
    }

    /// Rebuilds the service from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is internally inconsistent (out-of-order
    /// observation times for a node) — which cannot happen for snapshots
    /// produced by [`ServiceSnapshot::capture`], only for hand-edited
    /// data.
    pub fn restore(self) -> CrpService<N, K> {
        let mut service = CrpService::new(self.window, self.metric);
        for (node, observations) in self.nodes {
            for obs in observations {
                service.record(node.clone(), obs.time, obs.servers);
            }
        }
        service
    }

    /// Number of nodes captured.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total observations captured across all nodes.
    pub fn observation_count(&self) -> usize {
        self.nodes.iter().map(|(_, o)| o.len()).sum()
    }
}

/// Accessors used by the snapshot machinery.
impl<N: Ord + Clone, K: Ord + Clone> CrpService<N, K> {
    /// Iterates over `(node, tracker)` pairs — read-only access to the
    /// raw observation state, primarily for snapshotting.
    pub fn iter_trackers(&self) -> impl Iterator<Item = (&N, &RedirectionTracker<K>)> {
        self.trackers_for_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netsim::SimTime;

    fn populated() -> CrpService<&'static str, &'static str> {
        let mut svc = CrpService::new(WindowPolicy::LastProbes(5), SimilarityMetric::Cosine);
        svc.record("a", SimTime::ZERO, vec!["r1", "r2"]);
        svc.record("a", SimTime::from_mins(10), vec!["r1"]);
        svc.record("b", SimTime::from_mins(5), vec!["r3"]);
        svc
    }

    #[test]
    fn capture_restore_round_trips() {
        let svc = populated();
        let snapshot = ServiceSnapshot::capture(&svc);
        assert_eq!(snapshot.node_count(), 2);
        assert_eq!(snapshot.observation_count(), 3);
        let restored = snapshot.restore();
        let now = SimTime::from_mins(10);
        assert_eq!(restored.node_count(), svc.node_count());
        assert_eq!(restored.window(), svc.window());
        assert_eq!(
            restored.ratio_map(&"a", now).unwrap(),
            svc.ratio_map(&"a", now).unwrap()
        );
        assert_eq!(
            restored.similarity(&"a", &"b", now).ok(),
            svc.similarity(&"a", &"b", now).ok()
        );
    }

    #[test]
    fn json_round_trip() {
        // Owned keys: deserialization cannot borrow from the JSON text.
        let mut svc: CrpService<String, String> =
            CrpService::new(WindowPolicy::LastProbes(5), SimilarityMetric::Cosine);
        svc.record("a".into(), SimTime::ZERO, vec!["r1".into(), "r2".into()]);
        svc.record("a".into(), SimTime::from_mins(10), vec!["r1".into()]);
        svc.record("b".into(), SimTime::from_mins(5), vec!["r3".into()]);
        let json = serde_json::to_string(&ServiceSnapshot::capture(&svc)).unwrap();
        let back: ServiceSnapshot<String, String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ServiceSnapshot::capture(&svc));
    }

    #[test]
    fn empty_service_snapshots_cleanly() {
        let svc: CrpService<&str, &str> =
            CrpService::new(WindowPolicy::All, SimilarityMetric::Cosine);
        let snapshot = ServiceSnapshot::capture(&svc);
        assert_eq!(snapshot.node_count(), 0);
        assert_eq!(snapshot.observation_count(), 0);
        let restored = snapshot.restore();
        assert_eq!(restored.node_count(), 0);
    }
}
