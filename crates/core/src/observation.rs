//! Redirection observations and their sources.

use crp_netsim::SimTime;
use serde::{Deserialize, Serialize};

/// One redirection sample: the replica servers a CDN lookup returned at a
/// given time (Akamai-style answers typically carry two A records).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation<K> {
    /// When the lookup was made.
    pub time: SimTime,
    /// The replica servers in the answer, in answer order.
    pub servers: Vec<K>,
    /// Raw causal-trace id stamped at record time (0 = untraced). Lets a
    /// later query attribute its ratio-map and ranking stages back to the
    /// redirection events that fed them.
    pub trace: u64,
}

impl<K> Observation<K> {
    /// Creates an observation, stamping it with the ambient trace
    /// context (0 when tracing is disabled or the event was unsampled).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty — a failed lookup is represented by
    /// *absence* of an observation, not by an empty one.
    pub fn new(time: SimTime, servers: Vec<K>) -> Self {
        assert!(!servers.is_empty(), "observations must carry servers");
        Observation {
            time,
            servers,
            trace: crp_telemetry::trace::current_raw(),
        }
    }
}

/// A stream of redirection observations for one node.
///
/// The production source is a recursive DNS lookup against the CDN (the
/// `crp` façade crate provides that glue).
pub trait ObservationSource<K> {
    /// Performs one probe at time `t`, returning the replica servers the
    /// CDN redirected this node to, or `None` if the probe failed.
    fn observe(&mut self, t: SimTime) -> Option<Vec<K>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must carry servers")]
    fn empty_observation_rejected() {
        let _ = Observation::<u32>::new(SimTime::ZERO, vec![]);
    }

    #[test]
    fn observation_preserves_order() {
        let o = Observation::new(SimTime::from_secs(5), vec!["b", "a"]);
        assert_eq!(o.servers, vec!["b", "a"]);
        assert_eq!(o.time, SimTime::from_secs(5));
    }
}
