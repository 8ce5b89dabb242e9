//! Wall-clock profiling — the *other* half of observability, kept
//! strictly apart from the deterministic SimTime metrics.
//!
//! Everything else in this crate is keyed on simulated time so that
//! enabling telemetry cannot perturb a seeded experiment. That contract
//! deliberately leaves a blind spot: nothing attributes *real* time to
//! the hot paths. This module fills the gap with hierarchical
//! wall-clock scopes:
//!
//! - [`profile_scope!`] opens a named scope tied to the enclosing
//!   block; nested scopes form a call tree ("flamegraph-style").
//! - Each tree node aggregates call count, total wall-clock time and
//!   self time (total minus children). Allocations are attributed per
//!   stage by [`mem`](crate::mem), not here.
//! - [`finish`] condenses the tree into a serializable [`ProfileNode`]
//!   for `<experiment>_profile.json`.
//!
//! The profiler never writes into the metric registers or the time
//! series, so the telemetry determinism contract (and the on/off
//! determinism test) is untouched: profile output is wall-clock data by
//! definition and is excluded from any byte-comparison. Like the
//! collector, the whole machinery hides behind one relaxed load of the
//! [armed mask](mod@crate::stage) when disabled ([`scope`] returns an inert
//! guard).
//!
//! This file is the **only** simulation-crate code that reads the wall
//! clock (its `Instant::now` calls carry `#[expect]`s against the
//! `disallowed-methods` in `clippy.toml`; the bench harness has the
//! other), which is why the [`stage!`](crate::stage!) guard, [`StageGuard`],
//! lives here: its profile node is the wall-clock half.
//!
//! # Example
//!
//! ```
//! use crp_telemetry::{profile, profile_scope};
//!
//! profile::start();
//! {
//!     profile_scope!("outer");
//!     {
//!         profile_scope!("inner");
//!     }
//! }
//! let tree = profile::finish().expect("profiler was started");
//! assert_eq!(tree.children[0].name, "outer");
//! assert_eq!(tree.children[0].children[0].name, "inner");
//! ```

use crate::mem::DomainGuard;
use crate::stage::{self, Stage};
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------
// Aggregation tree
// ---------------------------------------------------------------------

/// One aggregated node while the profiler is live.
struct NodeData {
    name: &'static str,
    calls: u64,
    total_ns: u64,
    /// Children by scope name — a `BTreeMap` so the serialized tree
    /// lists children in a stable (name-sorted) order.
    children: BTreeMap<&'static str, usize>,
}

impl NodeData {
    fn new(name: &'static str) -> NodeData {
        NodeData {
            name,
            calls: 0,
            total_ns: 0,
            children: BTreeMap::new(),
        }
    }
}

/// The aggregation engine behind the global [`scope`] guards.
///
/// Scopes aggregate by *path*: the same scope name under two different
/// parents produces two tree nodes, so self/total time attribute to the
/// actual call structure. The engine is usually driven through the
/// process-global [`start`]/[`scope`]/[`finish`] functions, but tests
/// can drive a standalone `Profiler` directly (with synthetic
/// durations) to stay deterministic and isolated.
pub struct Profiler {
    /// Arena of nodes; index 0 is the root.
    nodes: Vec<NodeData>,
    /// Indices of the currently open scopes, innermost last.
    stack: Vec<usize>,
    started: Instant,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates an empty profiler whose root span starts now.
    pub fn new() -> Profiler {
        Profiler {
            nodes: vec![NodeData::new("root")],
            stack: Vec::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "the wall-clock profiler; its readings never reach SimTime output"
            )]
            started: Instant::now(),
        }
    }

    /// Opens a scope named `name` under the innermost open scope (or
    /// the root) and returns its node index for the matching [`exit`].
    ///
    /// [`exit`]: Profiler::exit
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied().unwrap_or(0);
        let node = match self.nodes[parent].children.get(name) {
            Some(&idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(NodeData::new(name));
                self.nodes[parent].children.insert(name, idx);
                idx
            }
        };
        self.stack.push(node);
        node
    }

    /// Closes the scope opened as `node`, charging it `elapsed_ns` of
    /// wall-clock time. Unbalanced exits (a guard outliving inner
    /// guards) close the inner scopes silently — the profiler is
    /// best-effort bookkeeping, never a source of panics.
    pub fn exit(&mut self, node: usize, elapsed_ns: u64) {
        if let Some(open) = self.stack.iter().rposition(|&n| n == node) {
            self.stack.truncate(open);
        }
        if let Some(data) = self.nodes.get_mut(node) {
            data.calls = data.calls.saturating_add(1);
            data.total_ns = data.total_ns.saturating_add(elapsed_ns);
        }
    }

    /// Condenses the aggregation into a serializable tree; the root
    /// covers the profiler's whole lifetime so far.
    pub fn tree(&self) -> ProfileNode {
        let total = duration_ns(self.started.elapsed());
        self.tree_with_root_total(total)
    }

    /// [`tree`], but with an explicit root duration — the deterministic
    /// form used by tests.
    ///
    /// [`tree`]: Profiler::tree
    pub fn tree_with_root_total(&self, root_total_ns: u64) -> ProfileNode {
        let mut root = self.build(0);
        root.calls = 1;
        root.total_ns = root_total_ns;
        let child_ns: u64 = root
            .children
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.total_ns));
        root.self_ns = root_total_ns.saturating_sub(child_ns);
        root
    }

    fn build(&self, idx: usize) -> ProfileNode {
        let data = &self.nodes[idx];
        let children: Vec<ProfileNode> = data
            .children
            .values()
            .map(|&child| self.build(child))
            .collect();
        let child_ns: u64 = children
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.total_ns));
        ProfileNode {
            name: data.name.to_owned(),
            calls: data.calls,
            total_ns: data.total_ns,
            self_ns: data.total_ns.saturating_sub(child_ns),
            children,
        }
    }
}

/// One node of the serialized profile tree (flamegraph-style: every
/// node carries its own time plus its children).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Scope name as passed to [`profile_scope!`] (`"root"` at the top).
    pub name: String,
    /// Completed activations of this scope.
    pub calls: u64,
    /// Wall-clock nanoseconds across all activations, children included.
    pub total_ns: u64,
    /// `total_ns` minus the children's `total_ns` (saturating).
    pub self_ns: u64,
    /// Child scopes, name-sorted.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Total nodes in this subtree, itself included.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(ProfileNode::node_count)
            .sum::<usize>()
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Process-global profiler
// ---------------------------------------------------------------------

/// Bumped by every [`start`]; guards from an earlier session compare
/// their stored epoch and become no-ops instead of corrupting the tree.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static PROFILER: Mutex<Option<Profiler>> = Mutex::new(None);

fn profiler_slot() -> MutexGuard<'static, Option<Profiler>> {
    PROFILER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs a fresh process-global profiler, replacing (and discarding)
/// any previous one. [`scope`] guards are no-ops until this runs.
pub fn start() {
    let mut slot = profiler_slot();
    EPOCH.fetch_add(1, Ordering::Relaxed);
    *slot = Some(Profiler::new());
    stage::arm(stage::PROFILE);
}

/// Whether a global profiler is installed. One relaxed atomic load —
/// this is the entire disabled-path cost of [`profile_scope!`].
#[inline]
pub fn profiling() -> bool {
    stage::armed(stage::PROFILE)
}

/// Tears down the global profiler and returns its aggregated tree, or
/// `None` if none was installed. Scopes still open keep their guards;
/// those guards detect the epoch change and do nothing on drop.
pub fn finish() -> Option<ProfileNode> {
    let profiler = {
        let mut slot = profiler_slot();
        stage::disarm(stage::PROFILE);
        slot.take()
    };
    profiler.map(|p| p.tree())
}

/// Opens a wall-clock scope; prefer the [`profile_scope!`] macro.
///
/// When profiling is off this is one atomic load and an inert guard.
#[must_use = "bind the guard to a variable so the scope spans the block"]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !profiling() {
        return ScopeGuard::inert();
    }
    open_scope(name)
}

fn open_scope(name: &'static str) -> ScopeGuard {
    let mut slot = profiler_slot();
    let Some(profiler) = slot.as_mut() else {
        return ScopeGuard::inert();
    };
    let node = profiler.enter(name);
    ScopeGuard {
        node,
        epoch: EPOCH.load(Ordering::Relaxed),
        #[expect(
            clippy::disallowed_methods,
            reason = "the wall-clock profiler; its readings never reach SimTime output"
        )]
        start: Some(Instant::now()),
    }
}

/// An open profile scope; closes (and charges its node) on drop.
pub struct ScopeGuard {
    node: usize,
    epoch: u64,
    /// `None` marks the inert (profiling-disabled) guard.
    start: Option<Instant>,
}

impl ScopeGuard {
    fn inert() -> ScopeGuard {
        ScopeGuard {
            node: 0,
            epoch: 0,
            start: None,
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        // Stop the clock before taking the lock so contention is not
        // billed to the scope.
        let Some(start) = self.start else { return };
        let elapsed_ns = duration_ns(start.elapsed());
        if !profiling() {
            return;
        }
        let mut slot = profiler_slot();
        if EPOCH.load(Ordering::Relaxed) != self.epoch {
            return; // the profiler was restarted under this guard
        }
        if let Some(profiler) = slot.as_mut() {
            profiler.exit(self.node, elapsed_ns);
        }
    }
}

/// Opens a named wall-clock profile scope covering the rest of the
/// enclosing block.
///
/// ```
/// # fn expensive() {}
/// fn hot_path() {
///     crp_telemetry::profile_scope!("core.hot_path");
///     expensive();
/// } // scope closes here
/// ```
#[macro_export]
macro_rules! profile_scope {
    ($name:literal) => {
        let _crp_profile_guard = $crate::profile::scope($name);
    };
}

/// The guard [`stage!`](crate::stage!) binds: the stage's memory domain
/// and profile node, closed in that order when the block ends.
#[must_use = "bind the guard to a variable so the stage spans the block"]
pub struct StageGuard {
    _armed: Option<(DomainGuard, ScopeGuard)>,
}

impl StageGuard {
    /// Enters `stage`; prefer [`stage!`](crate::stage!). `now_ms` routes
    /// the `<name>.calls` bump through
    /// [`counter_add_at`](crate::counter_add_at). With none of the
    /// guarded layers armed this is one relaxed load and one branch.
    #[inline]
    pub fn enter(stage: &'static Stage, now_ms: Option<u64>) -> StageGuard {
        let mask = stage::mask();
        StageGuard {
            _armed: if mask & stage::GUARDED == 0 {
                None
            } else {
                open_stage(stage, mask, now_ms)
            },
        }
    }
}

fn open_stage(
    stage: &'static Stage,
    mask: u32,
    now_ms: Option<u64>,
) -> Option<(DomainGuard, ScopeGuard)> {
    let guards = (mask & (stage::PROFILE | stage::MEM) != 0).then(|| {
        let scope = if mask & stage::PROFILE != 0 {
            open_scope(stage.name)
        } else {
            ScopeGuard::inert()
        };
        let mem = if mask & stage::MEM != 0 {
            DomainGuard::push(&stage.mem_slot, stage.name)
        } else {
            DomainGuard::inert()
        };
        (mem, scope)
    });
    match now_ms {
        Some(time_ms) => crate::counter_add_at(time_ms, stage.calls, 1),
        None => crate::counter_add(stage.calls, 1),
    }
    guards
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations on top of [`System`].
///
/// Binaries opt in (it cannot be installed at runtime):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: crp_telemetry::profile::CountingAllocator =
///     crp_telemetry::profile::CountingAllocator;
/// ```
///
/// With it installed, [`allocation_count`] reads the process's total
/// heap allocations (reallocations included; deallocations are not
/// subtracted) and [`mem`](crate::mem) attributes each allocation to
/// the innermost open stage; without it both read as zero.
pub struct CountingAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the only
// addition is relaxed atomic counter bumps, which cannot alter layout
// or aliasing guarantees.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
            crate::mem::note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
            crate::mem::note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        crate::mem::note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
            crate::mem::note_realloc(layout.size(), new_size);
        }
        out
    }
}

/// Total heap allocations so far (0 unless [`CountingAllocator`] is the
/// global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Shared monotonic clock + peak RSS
// ---------------------------------------------------------------------

/// A monotonic wall-clock stopwatch — the single clock source
/// `run_all` shares with the profiler, so the coarse per-experiment
/// durations and the per-scope profile tree are measured on the same
/// basis.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[expect(
                clippy::disallowed_methods,
                reason = "the wall-clock profiler; its readings never reach SimTime output"
            )]
            started: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`start`](Stopwatch::start).
    pub fn elapsed_ns(&self) -> u64 {
        duration_ns(self.started.elapsed())
    }

    /// Seconds elapsed since [`start`](Stopwatch::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Peak resident-set size of this process in bytes, when the platform
/// exposes it (`/proc/self/status` on Linux); `None` elsewhere.
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss_bytes_for_status_path("/proc/self/status")
}

/// Peak RSS of another live process by PID, best-effort (`None` once
/// the process has been reaped, and on non-Linux platforms).
pub fn peak_rss_bytes_for(pid: u32) -> Option<u64> {
    peak_rss_bytes_for_status_path(&format!("/proc/{pid}/status"))
}

fn peak_rss_bytes_for_status_path(path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    parse_vm_hwm_bytes(&status)
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` document; the
/// kernel reports kibibytes.
fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib.saturating_mul(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a standalone profiler with synthetic durations — fully
    /// deterministic, no reliance on real elapsed time.
    #[test]
    fn tree_aggregates_calls_totals_and_self_time() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            let outer = p.enter("outer");
            let inner = p.enter("inner");
            p.exit(inner, 10);
            p.exit(outer, 25);
        }
        let tree = p.tree_with_root_total(100);
        assert_eq!(tree.name, "root");
        assert_eq!(tree.calls, 1);
        assert_eq!(tree.total_ns, 100);
        assert_eq!(tree.self_ns, 100 - 75);
        let outer = tree.child("outer").expect("outer recorded");
        assert_eq!(outer.calls, 3);
        assert_eq!(outer.total_ns, 75);
        assert_eq!(outer.self_ns, 75 - 30);
        let inner = outer.child("inner").expect("inner nested under outer");
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.total_ns, 30);
        assert_eq!(inner.self_ns, 30);
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn same_name_under_different_parents_gets_distinct_nodes() {
        let mut p = Profiler::new();
        let a = p.enter("a");
        let shared = p.enter("shared");
        p.exit(shared, 5);
        p.exit(a, 10);
        let b = p.enter("b");
        let shared2 = p.enter("shared");
        p.exit(shared2, 7);
        p.exit(b, 9);
        assert_ne!(shared, shared2, "path-sensitive aggregation");
        let tree = p.tree_with_root_total(19);
        let under_a = tree.child("a").and_then(|n| n.child("shared"));
        let under_b = tree.child("b").and_then(|n| n.child("shared"));
        assert_eq!(under_a.map(|n| n.total_ns), Some(5));
        assert_eq!(under_b.map(|n| n.total_ns), Some(7));
    }

    #[test]
    fn repeated_scopes_reuse_their_node() {
        let mut p = Profiler::new();
        for i in 0..5u64 {
            let n = p.enter("hot");
            p.exit(n, i);
        }
        let tree = p.tree_with_root_total(10);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].calls, 5);
        assert_eq!(tree.children[0].total_ns, 1 + 2 + 3 + 4);
    }

    #[test]
    fn unbalanced_exit_closes_inner_scopes() {
        let mut p = Profiler::new();
        let outer = p.enter("outer");
        let _inner = p.enter("inner"); // never explicitly exited
        p.exit(outer, 50);
        // The stack is empty again: a new scope lands under the root.
        let next = p.enter("next");
        p.exit(next, 1);
        let tree = p.tree_with_root_total(51);
        assert!(tree.child("next").is_some(), "stack recovered: {tree:?}");
        assert_eq!(tree.child("outer").map(|n| n.calls), Some(1));
        // `inner` exists but recorded no completed call.
        let inner = tree.child("outer").and_then(|n| n.child("inner"));
        assert_eq!(inner.map(|n| n.calls), Some(0));
    }

    #[test]
    fn children_serialize_name_sorted_and_round_trip() {
        let mut p = Profiler::new();
        for name in ["zeta", "alpha", "mid"] {
            // Enter in non-sorted order.
            let n = p.enter(match name {
                "zeta" => "zeta",
                "alpha" => "alpha",
                _ => "mid",
            });
            p.exit(n, 1);
        }
        let tree = p.tree_with_root_total(3);
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        let json = serde_json::to_string(&tree).expect("serialize tree");
        let back: ProfileNode = serde_json::from_str(&json).expect("parse tree");
        assert_eq!(back, tree);
    }

    #[test]
    fn saturation_instead_of_overflow() {
        let mut p = Profiler::new();
        let n = p.enter("x");
        p.exit(n, u64::MAX - 1);
        let m = p.enter("x");
        p.exit(m, 5);
        let tree = p.tree_with_root_total(1);
        let x = tree.child("x").expect("node");
        assert_eq!(x.total_ns, u64::MAX);
        // Root self time saturates at zero rather than wrapping.
        assert_eq!(tree.self_ns, 0);
    }

    #[test]
    fn parse_vm_hwm_reads_kernel_format() {
        let status = "Name:\tbench_all\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(20480 * 1024));
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_bytes("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
    }

    /// One test drives the whole global lifecycle: the profiler is
    /// process-global, so parallel test threads must not share it.
    #[test]
    fn global_lifecycle() {
        assert!(!profiling());
        {
            // Disabled: guards are inert and finish() has nothing.
            let _g = scope("ignored");
        }
        assert!(finish().is_none());

        start();
        assert!(profiling());
        {
            let _outer = scope("outer");
            let _inner = scope("inner");
        }
        let stale = scope("stale"); // left open across a restart
        start(); // restart bumps the epoch
        drop(stale); // must not corrupt the new profiler
        {
            crate::profile_scope!("fresh");
        }
        let tree = finish().expect("profiler installed");
        assert!(!profiling());
        assert!(tree.child("fresh").is_some(), "tree: {tree:?}");
        assert!(
            tree.child("outer").is_none(),
            "pre-restart scopes must not leak into the new tree"
        );
        assert!(finish().is_none(), "finish is one-shot");
    }
}
