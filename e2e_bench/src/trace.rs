//! Per-layer numbers of the traced run, read from wall-clock profile
//! scopes (`crp_telemetry::profile`).
//!
//! The program opens a scope at several layer boundaries already:
//! `scenario.observe` (a whole `observe_hosts` campaign),
//! `cdn.authoritative_answer`, `core.ratio_map`, `core.rank` and
//! `core.smf`. The benchmark opens scopes of its own only around the
//! public calls it makes that carry none: `probe.observe`
//! (`CdnProbe::observe`), `core.record`, `core.closest` and
//! `core.cluster`. With no session running, every scope is one relaxed
//! atomic load, so untraced operations run the same code.
//!
//! Each traced unit of work — the set-up, or one operation — runs in a
//! profiling session of its own. When the unit ends, its scope tree
//! folds into per-scope aggregates, and for a deterministic 1-in-100
//! sample of units the whole tree is kept for the trace file.

use crp_telemetry::profile::{self, ProfileNode};
use std::collections::BTreeMap;

/// Aggregates of one scope name over every traced unit.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Completed scopes.
    pub calls: u64,
    /// Total scope time.
    pub busy_ns: u64,
    /// Scope time not covered by child scopes.
    pub self_ns: u64,
}

/// Units between two sampled scope trees.
const SAMPLE_EVERY: u64 = 100;

/// Scope aggregates and sampled trees over the traced units.
#[derive(Debug, Default)]
pub struct Trace {
    layers: BTreeMap<String, LayerStats>,
    top_level_ns: u64,
    units: u64,
    sampled: Vec<ProfileNode>,
}

impl Trace {
    /// Starts a unit: a fresh profiling session.
    pub fn begin(&self) {
        profile::start();
    }

    /// Ends the unit [`begin`](Trace::begin) started and folds its scopes
    /// into the aggregates.
    ///
    /// # Panics
    ///
    /// Panics if no session is running.
    pub fn end(&mut self) {
        let tree = profile::finish().expect("a unit ends the session it began");
        self.top_level_ns += tree.children.iter().map(|c| c.total_ns).sum::<u64>();
        for child in &tree.children {
            self.fold(child);
        }
        if self.units.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(tree);
        }
        self.units += 1;
    }

    fn fold(&mut self, node: &ProfileNode) {
        let stats = self.layers.entry(node.name.clone()).or_default();
        stats.calls += node.calls;
        stats.busy_ns += node.total_ns;
        stats.self_ns += node.self_ns;
        for child in &node.children {
            self.fold(child);
        }
    }

    /// Aggregates of the scopes named `name`, wherever they were opened.
    pub fn layer(&self, name: &str) -> LayerStats {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Every scope name seen, with its aggregates, name-sorted.
    pub fn layers(&self) -> &BTreeMap<String, LayerStats> {
        &self.layers
    }

    /// Total time of scopes no other scope encloses, over every unit.
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_ns
    }

    /// The sampled scope trees, in unit order.
    pub fn sampled(&self) -> &[ProfileNode] {
        &self.sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global; these are its only users in this
    /// test binary, and one test drives all of them.
    #[test]
    fn units_fold_into_aggregates_and_one_in_a_hundred_is_kept() {
        let mut t = Trace::default();
        for _ in 0..250 {
            t.begin();
            {
                crp_telemetry::profile_scope!("outer");
                crp_telemetry::profile_scope!("inner");
            }
            {
                crp_telemetry::profile_scope!("inner");
            }
            t.end();
        }
        let (outer, inner) = (t.layer("outer"), t.layer("inner"));
        assert_eq!((outer.calls, inner.calls), (250, 500));
        assert!(outer.self_ns <= outer.busy_ns);
        assert_eq!(t.layer("absent"), LayerStats::default());
        assert_eq!(t.sampled().len(), 3, "units 0, 100 and 200");
        let tree = &t.sampled()[0];
        assert_eq!(
            tree.child("outer")
                .and_then(|o| o.child("inner"))
                .map(|n| n.calls),
            Some(1)
        );
        // The second `inner` opened at the top, the first under `outer`.
        let top: u64 = t.sampled().iter().map(|s| s.children.len() as u64).sum();
        assert_eq!(top, 6);
        assert!(t.top_level_ns() >= outer.busy_ns);
    }
}
