//! Memory observability: allocation attribution by subsystem —
//! wall-clock-side, like [`profile`](crate::profile).
//!
//! The [`CountingAllocator`](crate::profile::CountingAllocator) reports
//! process-wide allocation pressure; this module says *who* allocated.
//! Every registered pipeline [stage](mod@crate::stage) is a **memory
//! domain**: while `stage!(CORE_TRACKER)` is the innermost open stage,
//! every allocation, deallocation, and reallocation the thread performs
//! is charged to `core.tracker` — live bytes, peak live bytes, total
//! bytes, operation counts, and a power-of-two size-class histogram.
//! `--observe` runs write the snapshot into the manifest's `mem`
//! section, and `tests/hot_path_allocs.rs` pins each stage's
//! allocation count exactly over one small world.
//!
//! Boundary rules (the same contract as the profiler):
//!
//! - Attribution is **wall-clock-side observability**: nothing here
//!   reads or writes SimTime state or the metric registers, so arming
//!   it cannot perturb a seeded experiment
//!   (`tests/telemetry_determinism.rs` proves it).
//! - The allocator hooks must be **allocation-free and lock-free**: the
//!   domain registry is a fixed-size table of atomics, the per-thread
//!   domain stack is a const-initialized `thread_local!` of `Cell`s
//!   (no lazy init, no destructor), and every counter is a relaxed
//!   atomic. The only lock in the module guards cold-path domain
//!   *registration* and is never taken from an allocator hook.
//! - Domains open only at registered stages, so attribution boundaries
//!   are the reviewed entries of one file (`stage.rs`) instead of
//!   accreting call sites.
//!
//! Live bytes are **signed**: a deallocation is charged to the domain
//! that is innermost *when it happens*, so a domain that frees buffers
//! another domain allocated can legitimately go negative. Peak tracking
//! applies per-domain over that signed live count.
//!
//! # Example
//!
//! ```
//! use crp_telemetry::{mem, stage};
//!
//! mem::start();
//! {
//!     crp_telemetry::stage!(CORE_TRACKER);
//!     let _v = vec![0u8; 4096];
//! }
//! let snapshot = mem::finish().expect("mem tracking was started");
//! // Counts are nonzero only when the binary installs the
//! // CountingAllocator; the domain itself is always registered.
//! assert!(snapshot.domain(stage::CORE_TRACKER.name).is_some());
//! ```

use crate::stage;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of distinct attribution domains (slot 0 is the
/// implicit `(unattributed)` bucket). Registration past the limit
/// falls back to slot 0 rather than failing.
pub const MAX_DOMAINS: usize = 64;

/// Maximum nesting depth of the per-thread domain stack; deeper
/// nesting keeps counting depth but charges to the innermost tracked
/// domain.
const STACK_DEPTH: usize = 32;

/// Number of power-of-two size classes: class `i` covers allocation
/// sizes in `(2^(i+2), 2^(i+3)]` (class 0 is `<= 8` bytes), with the
/// last class absorbing everything larger.
pub const SIZE_CLASSES: usize = 16;

/// Name reported for allocations made outside any open domain.
pub const UNATTRIBUTED: &str = "(unattributed)";

// ---------------------------------------------------------------------
// Per-domain statistics (fixed-size table of atomics)
// ---------------------------------------------------------------------

struct DomainStats {
    /// Signed live bytes: allocations add, deallocations subtract, and
    /// both charge the *current* innermost domain, so cross-domain
    /// frees can drive this negative.
    live: AtomicI64,
    /// High-water mark of `live`.
    peak: AtomicI64,
    /// Total bytes ever allocated (monotonic pressure).
    total: AtomicU64,
    allocs: AtomicU64,
    deallocs: AtomicU64,
    reallocs: AtomicU64,
    classes: [AtomicU64; SIZE_CLASSES],
}

impl DomainStats {
    const fn new() -> DomainStats {
        DomainStats {
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            total: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            classes: [const { AtomicU64::new(0) }; SIZE_CLASSES],
        }
    }

    fn reset(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.reallocs.store(0, Ordering::Relaxed);
        for c in &self.classes {
            c.store(0, Ordering::Relaxed);
        }
    }
}

static STATS: [DomainStats; MAX_DOMAINS] = [const { DomainStats::new() }; MAX_DOMAINS];

/// Registered domain names, index `i` naming stats slot `i + 1`.
/// Cold path only: taken at registration and snapshot time, never from
/// an allocator hook.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

// ---------------------------------------------------------------------
// Per-thread domain stack
// ---------------------------------------------------------------------

struct DomainStack {
    depth: Cell<usize>,
    slots: [Cell<u16>; STACK_DEPTH],
}

thread_local! {
    // const-initialized and Drop-free, so access from inside the
    // global allocator can neither allocate nor re-enter TLS teardown.
    static TLS: DomainStack = const {
        DomainStack {
            depth: Cell::new(0),
            slots: [const { Cell::new(0) }; STACK_DEPTH],
        }
    };
}

/// The stats slot charged for the current thread right now.
#[inline]
fn current_slot() -> usize {
    TLS.try_with(|tls| {
        let depth = tls.depth.get();
        if depth == 0 {
            0
        } else {
            usize::from(tls.slots[depth.min(STACK_DEPTH) - 1].get())
        }
    })
    .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Allocator hooks (called by CountingAllocator)
// ---------------------------------------------------------------------

/// Charges one allocation of `size` bytes to the innermost domain.
#[inline]
pub(crate) fn note_alloc(size: usize) {
    if !enabled() {
        return;
    }
    let s = &STATS[current_slot()];
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.total.fetch_add(size as u64, Ordering::Relaxed);
    s.classes[size_class(size)].fetch_add(1, Ordering::Relaxed);
    let live = s.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    s.peak.fetch_max(live, Ordering::Relaxed);
}

/// Charges one deallocation of `size` bytes to the innermost domain.
#[inline]
pub(crate) fn note_dealloc(size: usize) {
    if !enabled() {
        return;
    }
    let s = &STATS[current_slot()];
    s.deallocs.fetch_add(1, Ordering::Relaxed);
    s.live.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Charges one reallocation from `old` to `new` bytes to the innermost
/// domain: total grows by the grown delta only, live moves by the
/// signed difference.
#[inline]
pub(crate) fn note_realloc(old: usize, new: usize) {
    if !enabled() {
        return;
    }
    let s = &STATS[current_slot()];
    s.reallocs.fetch_add(1, Ordering::Relaxed);
    s.total
        .fetch_add(new.saturating_sub(old) as u64, Ordering::Relaxed);
    let delta = new as i64 - old as i64;
    let live = s.live.fetch_add(delta, Ordering::Relaxed) + delta;
    s.peak.fetch_max(live, Ordering::Relaxed);
}

/// The size class for an allocation of `size` bytes.
#[inline]
fn size_class(size: usize) -> usize {
    let ceil_log2 = (usize::BITS - size.saturating_sub(1).leading_zeros()) as usize;
    ceil_log2.saturating_sub(3).min(SIZE_CLASSES - 1)
}

// ---------------------------------------------------------------------
// Domain registration and guards
// ---------------------------------------------------------------------

/// Registers `name` (idempotent) and returns its stats slot; slot 0
/// when the table is full.
fn register(name: &'static str) -> usize {
    let mut names = NAMES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(pos) = names.iter().position(|n| *n == name) {
        return pos + 1;
    }
    if names.len() + 1 >= MAX_DOMAINS {
        return 0;
    }
    names.push(name);
    names.len()
}

/// An open attribution domain; pops the thread's domain stack on drop.
/// Opened by [`stage!`](crate::stage!) — not meant to be constructed by
/// hand.
pub(crate) struct DomainGuard {
    pushed: bool,
}

impl DomainGuard {
    /// A guard that opened nothing.
    pub(crate) fn inert() -> DomainGuard {
        DomainGuard { pushed: false }
    }

    /// Enters the domain named `name`, caching its registered slot in
    /// `cache` (initialized to `usize::MAX`). The caller has checked
    /// that attribution is armed.
    pub(crate) fn push(cache: &AtomicUsize, name: &'static str) -> DomainGuard {
        let mut slot = cache.load(Ordering::Relaxed);
        if slot == usize::MAX {
            slot = register(name);
            cache.store(slot, Ordering::Relaxed);
        }
        let pushed = TLS
            .try_with(|tls| {
                let depth = tls.depth.get();
                if depth < STACK_DEPTH {
                    tls.slots[depth].set(slot as u16);
                }
                tls.depth.set(depth + 1);
                true
            })
            .unwrap_or(false);
        DomainGuard { pushed }
    }
}

impl Drop for DomainGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let _ = TLS.try_with(|tls| {
            let depth = tls.depth.get();
            tls.depth.set(depth.saturating_sub(1));
        });
    }
}

// ---------------------------------------------------------------------
// Lifecycle and snapshots
// ---------------------------------------------------------------------

/// Arms allocation attribution, zeroing every domain's counters.
/// Registered domain names persist across sessions (they are static
/// call-site properties, not run state).
pub fn start() {
    for s in &STATS {
        s.reset();
    }
    stage::arm(stage::MEM);
}

/// Whether attribution is armed. One relaxed load — the entire
/// disabled-path cost of every allocator hook.
#[inline]
pub fn enabled() -> bool {
    stage::armed(stage::MEM)
}

/// Zeroes every domain's counters without changing the armed state,
/// so one armed session can count several workloads apart.
pub fn reset() {
    for s in &STATS {
        s.reset();
    }
}

/// Disarms attribution and returns the final snapshot, or `None` if
/// tracking was not armed.
pub fn finish() -> Option<MemSnapshot> {
    if !stage::disarm(stage::MEM) {
        return None;
    }
    Some(snapshot())
}

/// The current per-domain statistics, name-sorted for deterministic
/// serialization. Callable while armed (e.g. between benchmark rows).
pub fn snapshot() -> MemSnapshot {
    let names = NAMES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    let mut domains = Vec::with_capacity(names.len() + 1);
    for (slot, name) in std::iter::once(UNATTRIBUTED)
        .chain(names.iter().copied())
        .enumerate()
    {
        let s = &STATS[slot];
        domains.push(DomainMem {
            name: name.to_owned(),
            live_bytes: s.live.load(Ordering::Relaxed),
            peak_bytes: s.peak.load(Ordering::Relaxed),
            total_bytes: s.total.load(Ordering::Relaxed),
            allocs: s.allocs.load(Ordering::Relaxed),
            deallocs: s.deallocs.load(Ordering::Relaxed),
            reallocs: s.reallocs.load(Ordering::Relaxed),
            size_classes: s
                .classes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        });
    }
    domains.sort_by(|a, b| a.name.cmp(&b.name));
    MemSnapshot { domains }
}

/// Per-domain allocation statistics for one tracked interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DomainMem {
    /// Domain name (a [stage](mod@crate::stage) name), or
    /// [`UNATTRIBUTED`] for slot 0.
    pub name: String,
    /// Signed live bytes at snapshot time (negative when the domain
    /// freed buffers allocated elsewhere).
    pub live_bytes: i64,
    /// High-water mark of live bytes.
    pub peak_bytes: i64,
    /// Total bytes allocated (monotonic pressure).
    pub total_bytes: u64,
    /// Allocation count.
    pub allocs: u64,
    /// Deallocation count.
    pub deallocs: u64,
    /// Reallocation count.
    pub reallocs: u64,
    /// Allocation counts per power-of-two size class (class 0 covers
    /// sizes up to 8 bytes, each next class doubles, last absorbs the
    /// rest).
    pub size_classes: Vec<u64>,
}

/// A full attribution snapshot: every registered domain plus the
/// unattributed bucket, name-sorted.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemSnapshot {
    /// Per-domain statistics, sorted by name.
    pub domains: Vec<DomainMem>,
}

impl MemSnapshot {
    /// Looks up a domain by name.
    pub fn domain(&self, name: &str) -> Option<&DomainMem> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Total allocations across every domain, unattributed included.
    pub fn total_allocs(&self) -> u64 {
        self.domains.iter().map(|d| d.allocs).sum()
    }

    /// Total bytes allocated across every domain.
    pub fn total_bytes(&self) -> u64 {
        self.domains.iter().map(|d| d.total_bytes).sum()
    }

    /// Fraction of allocations charged to named domains (1.0 when
    /// nothing is unattributed; 1.0 for an empty snapshot).
    pub fn attributed_fraction(&self) -> f64 {
        let total = self.total_allocs();
        if total == 0 {
            return 1.0;
        }
        let unattributed = self.domain(UNATTRIBUTED).map_or(0, |d| d.allocs);
        1.0 - unattributed as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens a test domain the way an armed stage guard does.
    fn domain(name: &'static str) -> DomainGuard {
        if !enabled() {
            return DomainGuard::inert();
        }
        DomainGuard::push(&AtomicUsize::new(usize::MAX), name)
    }

    /// Serializes the process-global state, so phases must run in one
    /// test function (same pattern as the profiler's global test).
    #[test]
    fn lifecycle_and_attribution() {
        assert!(!enabled());
        assert!(finish().is_none(), "finish without start yields nothing");

        // Disarmed: hooks and guards are inert.
        note_alloc(1024);
        {
            let _domain = domain("test.disarmed");
            note_alloc(2048);
        }
        start();
        assert!(enabled());
        let snap = snapshot();
        assert_eq!(
            snap.domain(UNATTRIBUTED).map(|d| d.allocs),
            Some(0),
            "disarmed traffic must not leak into the armed session"
        );

        // Armed, outside any domain: charged to the unattributed slot.
        note_alloc(100);
        // Armed, inside nested domains: charged innermost.
        {
            let _domain = domain("test.outer");
            note_alloc(1000);
            {
                let _domain = domain("test.inner");
                note_alloc(50);
                note_alloc(70);
            }
            note_alloc(2000);
            note_dealloc(500);
        }
        note_dealloc(100);

        let snap = finish().expect("armed session finishes with a snapshot");
        assert!(!enabled());
        assert!(finish().is_none(), "finish is one-shot");

        let un = snap.domain(UNATTRIBUTED).expect("slot 0 always present");
        assert_eq!(un.allocs, 1);
        assert_eq!(un.total_bytes, 100);
        assert_eq!(un.deallocs, 1);
        assert_eq!(un.live_bytes, 0, "100 alloc'd then 100 freed outside");

        let outer = snap.domain("test.outer").expect("registered");
        assert_eq!(outer.allocs, 2);
        assert_eq!(outer.total_bytes, 3000);
        assert_eq!(outer.live_bytes, 2500);
        assert_eq!(outer.peak_bytes, 3000, "peak before the 500-byte free");

        let inner = snap.domain("test.inner").expect("registered");
        assert_eq!(inner.allocs, 2);
        assert_eq!(inner.total_bytes, 120);
        assert_eq!(inner.peak_bytes, 120);

        // Snapshots are name-sorted and round-trip through JSON.
        let names: Vec<&str> = snap.domains.iter().map(|d| d.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MemSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);

        // Attribution fraction: 1 of 5 allocs was unattributed.
        assert!((snap.attributed_fraction() - 0.8).abs() < 1e-12);

        // Realloc accounting: growth adds pressure, shrink only moves
        // live; peak is the high-water over interleaved scopes.
        start();
        {
            let _domain = domain("test.realloc");
            note_alloc(64); // live 64, peak 64
            note_realloc(64, 256); // live 256, peak 256, total 64+192
            note_realloc(256, 128); // live 128, peak unchanged, total same
            note_dealloc(128); // live 0
        }
        let snap = finish().expect("armed");
        let d = snap.domain("test.realloc").expect("registered");
        assert_eq!(d.allocs, 1);
        assert_eq!(d.reallocs, 2);
        assert_eq!(d.total_bytes, 64 + 192);
        assert_eq!(d.peak_bytes, 256);
        assert_eq!(d.live_bytes, 0);

        // Interleaved scopes: a domain freeing a sibling's buffer goes
        // negative while the sibling keeps its peak — the documented
        // signed-live semantics.
        start();
        {
            let _domain = domain("test.a");
            note_alloc(512);
        }
        {
            let _domain = domain("test.b");
            note_dealloc(512);
        }
        let snap = finish().expect("armed");
        assert_eq!(snap.domain("test.a").map(|d| d.peak_bytes), Some(512));
        assert_eq!(snap.domain("test.b").map(|d| d.live_bytes), Some(-512));

        // reset() zeroes counters while staying armed.
        start();
        note_alloc(10);
        reset();
        assert!(enabled());
        let snap = finish().expect("armed");
        assert_eq!(snap.domain(UNATTRIBUTED).map(|d| d.allocs), Some(0));
    }

    #[test]
    fn size_classes_are_powers_of_two() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(8), 0);
        assert_eq!(size_class(9), 1);
        assert_eq!(size_class(16), 1);
        assert_eq!(size_class(17), 2);
        assert_eq!(size_class(1024), 7);
        assert_eq!(size_class(usize::MAX), SIZE_CLASSES - 1);
    }

    #[test]
    fn deep_stack_overflow_keeps_counting_depth() {
        // Depth counting past STACK_DEPTH must stay balanced: guards
        // beyond the limit charge to the innermost tracked domain and
        // unwind cleanly.
        fn nest(depth: usize) {
            if depth == 0 {
                return;
            }
            let _domain = domain("test.deep");
            nest(depth - 1);
        }
        nest(STACK_DEPTH + 8);
        let _ = TLS.try_with(|tls| assert_eq!(tls.depth.get(), 0, "stack must unwind to empty"));
    }
}
