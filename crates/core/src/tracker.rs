//! Per-node redirection history and the window policies of Figs. 8–9.

use crate::observation::Observation;
use crate::ratio::{RatioMap, RatioMapError};
use crp_netsim::{SimDuration, SimTime};
use crp_telemetry::stage;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which slice of a node's observation history feeds its ratio map.
///
/// The paper studies this dimension in Fig. 9: a 10-probe window is
/// usually enough, 30 adds a little, and "all probes" *hurts* a third of
/// hosts because stale history misrepresents current network conditions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Use the entire history.
    All,
    /// Use only the most recent `n` probes.
    LastProbes(usize),
    /// Use only probes within `max_age` of the query time.
    MaxAge(SimDuration),
}

impl WindowPolicy {
    /// Human-readable label for experiment output.
    pub fn label(self) -> String {
        match self {
            WindowPolicy::All => "all probes".to_owned(),
            WindowPolicy::LastProbes(n) => format!("{n} probes"),
            WindowPolicy::MaxAge(d) => format!("max age {d}"),
        }
    }
}

/// A node's rolling redirection history.
///
/// Records must be appended in non-decreasing time order (the natural
/// order of a probing loop); ratio maps can then be derived under any
/// [`WindowPolicy`] without re-probing.
///
/// # Example
///
/// ```
/// use crp_core::{RedirectionTracker, WindowPolicy};
/// use crp_netsim::SimTime;
///
/// let mut tracker = RedirectionTracker::new();
/// tracker.record(SimTime::from_mins(0), vec!["r1", "r2"]);
/// tracker.record(SimTime::from_mins(10), vec!["r1", "r1"]);
/// let map = tracker.ratio_map(WindowPolicy::All, SimTime::from_mins(10))?;
/// assert!((map.get(&"r1") - 0.75).abs() < 1e-12);
/// # Ok::<(), crp_core::RatioMapError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RedirectionTracker<K> {
    observations: VecDeque<Observation<K>>,
    capacity: Option<usize>,
}

impl<K: Ord + Clone> RedirectionTracker<K> {
    /// Creates a tracker with unbounded history.
    pub fn new() -> Self {
        RedirectionTracker {
            observations: VecDeque::new(),
            capacity: None,
        }
    }

    /// Creates a tracker that retains at most `capacity` observations,
    /// discarding the oldest — the memory bound a deployed CRP client
    /// would use.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        RedirectionTracker {
            observations: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
        }
    }

    /// Appends one observation.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or `time` precedes the previous
    /// observation.
    pub fn record(&mut self, time: SimTime, servers: Vec<K>) {
        crp_telemetry::stage!(CORE_TRACKER, time.as_millis());
        if let Some(last) = self.observations.back() {
            assert!(
                time >= last.time,
                "observations must be recorded in time order"
            );
        }
        self.observations.push_back(Observation::new(time, servers));
        crp_telemetry::trace::stage_at(time.as_millis(), stage::CORE_TRACKER.name);
        if let Some(cap) = self.capacity {
            while self.observations.len() > cap {
                self.observations.pop_front();
                crp_telemetry::counter_add_at(time.as_millis(), "core.tracker.evictions", 1);
            }
        }
    }

    /// Appends one observation from a borrowed server list.
    ///
    /// Unlike [`record`](Self::record), this does not take ownership of
    /// a freshly allocated `Vec`: on a bounded tracker at capacity, the
    /// evicted observation's buffer is recycled to hold the new sample,
    /// so steady-state ingest allocates nothing. This is the intended
    /// path for long probing campaigns; `tests/hot_path_allocs.rs` pins
    /// 1,000 calls at capacity at zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or `time` precedes the previous
    /// observation.
    pub fn record_slice(&mut self, time: SimTime, servers: &[K]) {
        crp_telemetry::stage!(CORE_TRACKER, time.as_millis());
        assert!(!servers.is_empty(), "observations must carry servers");
        if let Some(last) = self.observations.back() {
            assert!(
                time >= last.time,
                "observations must be recorded in time order"
            );
        }
        let at_capacity = self
            .capacity
            .is_some_and(|cap| self.observations.len() >= cap);
        if at_capacity {
            if let Some(mut recycled) = self.observations.pop_front() {
                crp_telemetry::counter_add_at(time.as_millis(), "core.tracker.evictions", 1);
                recycled.time = time;
                recycled.trace = crp_telemetry::trace::current_raw();
                recycled.servers.clear();
                recycled.servers.extend_from_slice(servers);
                self.observations.push_back(recycled);
                crp_telemetry::trace::stage_at(time.as_millis(), stage::CORE_TRACKER.name);
                return;
            }
        }
        // First fill (or unbounded tracker): the buffer must be owned.
        let owned = servers.to_vec();
        self.observations.push_back(Observation::new(time, owned));
        crp_telemetry::trace::stage_at(time.as_millis(), stage::CORE_TRACKER.name);
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The stored observations, oldest first.
    pub fn observations(&self) -> impl Iterator<Item = &Observation<K>> {
        self.observations.iter()
    }

    /// Time of the most recent observation, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.observations.back().map(|o| o.time)
    }

    /// Drops observations older than `cutoff` and returns how many were
    /// removed.
    pub fn prune_before(&mut self, cutoff: SimTime) -> usize {
        let before = self.observations.len();
        while self.observations.front().is_some_and(|o| o.time < cutoff) {
            self.observations.pop_front();
        }
        let removed = before - self.observations.len();
        crp_telemetry::counter_add("core.tracker.pruned", removed as u64);
        removed
    }

    /// Builds the node's ratio map from the observations selected by
    /// `window`, evaluated at time `now`.
    ///
    /// Observations after `now` are never used, so a tracker holding a
    /// full campaign's history can be queried retrospectively at any
    /// instant ("what did this node know at hour 30?") — the experiment
    /// harness relies on this to evaluate one campaign at several
    /// points in time.
    ///
    /// Every server in a selected observation counts as one redirection
    /// event; ratios are event counts normalized to 1.
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if the window selects no
    /// observations — e.g. a node that has not finished bootstrapping.
    pub fn ratio_map(
        &self,
        window: WindowPolicy,
        now: SimTime,
    ) -> Result<RatioMap<K>, RatioMapError> {
        crp_telemetry::stage!(CORE_RATIO_MAP);
        // Only history known at `now` participates. Every window policy
        // reduces to a (skip, min_time) pair over that prefix, so one
        // concrete iterator chain serves all three — no boxed trait
        // objects on the query path.
        let known = self.observations.partition_point(|o| o.time <= now);
        let (skip, min_time) = match window {
            WindowPolicy::All => (0, SimTime::ZERO),
            WindowPolicy::LastProbes(n) => (known.saturating_sub(n), SimTime::ZERO),
            WindowPolicy::MaxAge(max_age) => (
                0,
                SimTime::from_millis(now.as_millis().saturating_sub(max_age.as_millis())),
            ),
        };
        if crp_telemetry::trace::enabled() {
            // Attribute the build to every traced observation feeding it,
            // so a query's span tree reaches back to redirection events.
            for o in self
                .observations
                .iter()
                .take(known)
                .skip(skip)
                .filter(|o| o.time >= min_time)
            {
                crp_telemetry::trace::resume(o.trace, now.as_millis(), stage::CORE_RATIO_MAP.name);
            }
        }
        let selected = self
            .observations
            .iter()
            .take(known)
            .skip(skip)
            .filter(move |o| o.time >= min_time);
        RatioMap::from_counts(selected.flat_map(|o| o.servers.iter().cloned().map(|s| (s, 1u64))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_with(n: usize) -> RedirectionTracker<u32> {
        let mut t = RedirectionTracker::new();
        for i in 0..n {
            t.record(SimTime::from_mins(10 * i as u64), vec![i as u32 % 3]);
        }
        t
    }

    #[test]
    fn all_window_uses_everything() {
        let t = tracker_with(9);
        let m = t
            .ratio_map(WindowPolicy::All, SimTime::from_mins(80))
            .unwrap();
        // Servers 0,1,2 appear 3 times each.
        for k in 0..3u32 {
            assert!((m.get(&k) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn last_probes_window_truncates() {
        let t = tracker_with(9);
        // Last 2 probes saw servers 1 (i=7) and 2 (i=8).
        let m = t
            .ratio_map(WindowPolicy::LastProbes(2), SimTime::from_mins(80))
            .unwrap();
        assert_eq!(m.get(&0), 0.0);
        assert!((m.get(&1) - 0.5).abs() < 1e-12);
        assert!((m.get(&2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn last_probes_larger_than_history_is_all() {
        let t = tracker_with(4);
        let all = t
            .ratio_map(WindowPolicy::All, SimTime::from_mins(40))
            .unwrap();
        let big = t
            .ratio_map(WindowPolicy::LastProbes(100), SimTime::from_mins(40))
            .unwrap();
        assert_eq!(all, big);
    }

    #[test]
    fn max_age_window_filters_by_time() {
        let t = tracker_with(9); // times 0..80 min
        let m = t
            .ratio_map(
                WindowPolicy::MaxAge(SimDuration::from_mins(25)),
                SimTime::from_mins(80),
            )
            .unwrap();
        // Probes at 60, 70, 80 min → servers 0, 1, 2.
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn empty_window_is_error() {
        let t = tracker_with(3); // times 0, 10, 20 min
        let res = t.ratio_map(
            WindowPolicy::MaxAge(SimDuration::from_mins(5)),
            SimTime::from_hours(10),
        );
        assert_eq!(res.unwrap_err(), RatioMapError::Empty);
        let empty: RedirectionTracker<u32> = RedirectionTracker::new();
        assert_eq!(
            empty
                .ratio_map(WindowPolicy::All, SimTime::ZERO)
                .unwrap_err(),
            RatioMapError::Empty
        );
    }

    #[test]
    fn capacity_bounds_history() {
        let mut t = RedirectionTracker::with_capacity(3);
        for i in 0..10u64 {
            t.record(SimTime::from_mins(i), vec![i as u32]);
        }
        assert_eq!(t.len(), 3);
        let m = t
            .ratio_map(WindowPolicy::All, SimTime::from_mins(9))
            .unwrap();
        assert_eq!(m.get(&0), 0.0);
        assert!(m.get(&9) > 0.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut t = RedirectionTracker::new();
        t.record(SimTime::from_mins(10), vec![1u32]);
        t.record(SimTime::from_mins(5), vec![2u32]);
    }

    #[test]
    fn record_slice_matches_record() {
        let mut by_vec = RedirectionTracker::with_capacity(3);
        let mut by_slice = RedirectionTracker::with_capacity(3);
        for i in 0..8u32 {
            let servers = vec![i % 4, (i + 1) % 4];
            by_vec.record(SimTime::from_mins(u64::from(i)), servers.clone());
            by_slice.record_slice(SimTime::from_mins(u64::from(i)), &servers);
        }
        assert_eq!(by_vec.len(), by_slice.len());
        let now = SimTime::from_mins(10);
        let a = by_vec.ratio_map(WindowPolicy::All, now).unwrap();
        let b = by_slice.ratio_map(WindowPolicy::All, now).unwrap();
        for s in 0..4u32 {
            assert!((a.get(&s) - b.get(&s)).abs() < 1e-12);
        }
    }

    #[test]
    fn record_slice_recycles_at_capacity() {
        let mut t = RedirectionTracker::with_capacity(2);
        t.record_slice(SimTime::ZERO, &[1u32]);
        t.record_slice(SimTime::from_mins(1), &[2]);
        // Third observation evicts the first and reuses its buffer.
        t.record_slice(SimTime::from_mins(2), &[3, 4, 5]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.last_time(), Some(SimTime::from_mins(2)));
        let m = t
            .ratio_map(WindowPolicy::All, SimTime::from_mins(2))
            .unwrap();
        assert_eq!(m.get(&1), 0.0);
        assert!((m.get(&3) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_slice_panics() {
        let mut t = RedirectionTracker::new();
        t.record_slice(SimTime::from_mins(10), &[1u32]);
        t.record_slice(SimTime::from_mins(5), &[2u32]);
    }

    #[test]
    #[should_panic(expected = "carry servers")]
    fn empty_record_slice_panics() {
        let mut t = RedirectionTracker::<u32>::new();
        t.record_slice(SimTime::ZERO, &[]);
    }

    #[test]
    fn prune_before_drops_old() {
        let mut t = tracker_with(5); // 0..40 min
        let removed = t.prune_before(SimTime::from_mins(25));
        assert_eq!(removed, 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.last_time(), Some(SimTime::from_mins(40)));
    }

    #[test]
    fn multi_server_observations_count_each_event() {
        let mut t = RedirectionTracker::new();
        t.record(SimTime::ZERO, vec![1u32, 2]);
        t.record(SimTime::from_mins(10), vec![1, 1]);
        let m = t
            .ratio_map(WindowPolicy::All, SimTime::from_mins(10))
            .unwrap();
        assert!((m.get(&1) - 0.75).abs() < 1e-12);
        assert!((m.get(&2) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = RedirectionTracker::<u32>::with_capacity(0);
    }

    #[test]
    fn future_observations_are_invisible() {
        let t = tracker_with(9); // probes at 0, 10, ..., 80 minutes
                                 // Evaluated at minute 35, only the first four probes exist.
        let now = SimTime::from_mins(35);
        let all = t.ratio_map(WindowPolicy::All, now).unwrap();
        // Probes 0..=3 saw servers 0,1,2,0.
        assert!((all.get(&0) - 0.5).abs() < 1e-12);
        let last2 = t.ratio_map(WindowPolicy::LastProbes(2), now).unwrap();
        // Last two probes at-or-before minute 35 saw servers 2 (i=2) and
        // 0 (i=3).
        assert_eq!(last2.get(&1), 0.0);
        assert!((last2.get(&0) - 0.5).abs() < 1e-12);
        // Before any probe: no information.
        assert!(
            t.ratio_map(WindowPolicy::All, SimTime::ZERO).is_ok(),
            "probe at t=0 is known at t=0"
        );
    }

    #[test]
    fn window_labels() {
        assert_eq!(WindowPolicy::All.label(), "all probes");
        assert_eq!(WindowPolicy::LastProbes(10).label(), "10 probes");
    }
}
