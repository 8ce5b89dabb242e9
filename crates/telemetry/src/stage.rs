//! Pipeline stages, each named once, and the one armed mask every
//! observer layer gates on.
//!
//! CRP is a fixed chain of stages — CDN redirection, tracker ingest,
//! ratio map, ranking/SMF (§III-B, §IV) — driven by a few harness
//! stages. Each is a `static` [`Stage`] in the registry below, carrying
//! its one name and its memory-domain slot. That name is the stage's
//! profile node, allocation domain, `<name>.calls` counter and, where
//! the site emits one, causal-trace span.
//!
//! Which observer layers are armed is one mask with a bit per layer;
//! every layer's `enabled()` is a relaxed load of it.
//! [`stage!`](crate::stage!) loads it once and, for each of profile,
//! mem and metrics that is armed, opens the profile node and the
//! memory domain and bumps `<name>.calls` for the rest of the block.
//! With none armed, that load and one branch are the whole cost. The
//! guard lives in [`profile`](crate::profile), the one module allowed
//! to read the wall clock. Value-carrying hooks (trace stages,
//! histograms) stay explicit at their sites.
//!
//! ```
//! use crp_telemetry::{profile, stage};
//!
//! profile::start();
//! {
//!     crp_telemetry::stage!(CORE_RANK);
//! }
//! let tree = profile::finish().expect("profiler was started");
//! assert_eq!(tree.children[0].name, stage::CORE_RANK.name);
//! ```

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// The metrics collector (counters, gauges, histograms).
pub const METRICS: u32 = 1 << 0;
/// The wall-clock profiler.
pub const PROFILE: u32 = 1 << 1;
/// Allocation attribution by memory domain.
pub const MEM: u32 = 1 << 2;
/// The SimTime time-series store.
pub const TIMESERIES: u32 = 1 << 3;
/// Causal tracing.
pub const TRACE: u32 = 1 << 4;
/// The layers a [`stage!`](crate::stage!) guard feeds.
pub(crate) const GUARDED: u32 = PROFILE | MEM | METRICS | TIMESERIES;

static MASK: AtomicU32 = AtomicU32::new(0);

/// The armed layers, one relaxed load.
#[inline]
pub fn mask() -> u32 {
    MASK.load(Ordering::Relaxed)
}

/// Whether any of `layers` is armed.
#[inline]
pub fn armed(layers: u32) -> bool {
    mask() & layers != 0
}

/// Arms `layers`, leaving the others as they are.
pub fn arm(layers: u32) {
    MASK.fetch_or(layers, Ordering::Release);
}

/// Disarms `layers` and returns whether any of them was armed.
pub fn disarm(layers: u32) -> bool {
    MASK.fetch_and(!layers, Ordering::AcqRel) & layers != 0
}

/// One pipeline stage.
pub struct Stage {
    /// The stage's one name.
    pub name: &'static str,
    /// `<name>.calls`, bumped on every armed entry.
    pub calls: &'static str,
    /// Registered memory-domain slot, `usize::MAX` until first use.
    pub(crate) mem_slot: AtomicUsize,
}

macro_rules! registry {
    ($($id:ident = $name:literal, $site:literal;)*) => {
        $(
            #[doc = concat!("`", $name, "`: ", $site, ".")]
            pub static $id: Stage = Stage {
                name: $name,
                calls: concat!($name, ".calls"),
                mem_slot: AtomicUsize::new(usize::MAX),
            };
        )*
        /// Every stage, in pipeline order.
        pub static REGISTRY: &[&Stage] = &[$(&$id),*];
    };
}

registry! {
    SCENARIO_BUILD = "scenario.build", "`Scenario::build`";
    SCENARIO_OBSERVE = "scenario.observe", "`Scenario::observe_hosts`";
    CDN_AUTHORITATIVE_ANSWER = "cdn.authoritative_answer", "`Cdn::authoritative_answer`";
    CORE_TRACKER = "core.tracker", "`RedirectionTracker::record` and `record_slice`";
    CORE_RATIO_MAP = "core.ratio_map", "`RedirectionTracker::ratio_map`";
    CORE_RANK = "core.rank", "`Ranking::rank`";
    CORE_SMF = "core.smf", "`Clustering::smf`";
    MERIDIAN_BUILD = "meridian.build", "`MeridianOverlay::build`";
    MERIDIAN_CLOSEST_QUERY = "meridian.closest_query", "`MeridianOverlay::closest_node_query`";
    EVAL_RUN_CLOSEST = "eval.run_closest", "`crp_eval::closest::run_closest`";
    EVAL_RUN_CLUSTERING = "eval.run_clustering", "`crp_eval::clusterexp::run_clustering`";
    AUDIT_DETECT_SCAN = "audit.detect_scan", "`crp_audit::detect::scan`";
}

/// Enters a registered stage for the rest of the enclosing block (see
/// the [module docs](mod@crate::stage)). `stage!(CORE_TRACKER, now_ms)`
/// bumps the counter through [`counter_add_at`](crate::counter_add_at)
/// so it also lands in the SimTime time series; pass a time only where
/// the stage runs in simulated-time order.
#[macro_export]
macro_rules! stage {
    ($stage:ident) => {
        let _crp_stage_guard = $crate::profile::StageGuard::enter(&$crate::stage::$stage, None);
    };
    ($stage:ident, $now_ms:expr) => {
        let _crp_stage_guard =
            $crate::profile::StageGuard::enter(&$crate::stage::$stage, Some($now_ms));
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_names_are_unique_and_counters_derive_from_them() {
        let mut names: Vec<&str> = super::REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), super::REGISTRY.len());
        for stage in super::REGISTRY {
            assert_eq!(stage.calls, format!("{}.calls", stage.name));
        }
    }
}
