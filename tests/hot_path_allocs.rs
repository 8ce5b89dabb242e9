//! Exact heap-allocation counts of the hot paths in steady state.
//!
//! The counting allocator is process-wide, so this file holds a single
//! test: no other test thread allocates while a count is taken. A count
//! that grows means a hot path started allocating; one that shrinks
//! should be pinned lower here.

use std::hint::black_box;

use crp_cdn::{Cdn, DeploymentSpec, MappingConfig};
use crp_core::{explain, Ranking, RatioMap, RedirectionTracker, SimilarityMetric};
use crp_dns::AuthoritativeServer;
use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
use crp_telemetry::profile::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations made while `f` runs; its result is dropped after
/// the count is taken.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = allocation_count();
    let out = black_box(f());
    let counted = allocation_count() - before;
    drop(out);
    counted
}

/// A ratio map over `len` consecutive replica keys starting at `first`.
fn map(first: u32, len: u32) -> RatioMap<u32> {
    RatioMap::from_counts((first..first + len).map(|k| (k, u64::from(k % 7 + 1))))
        .expect("positive counts")
}

#[test]
fn hot_paths_allocate_only_what_they_return() {
    let a = map(0, 12);
    let b = map(6, 12);
    let (a, b) = (black_box(&a), black_box(&b));

    // Ratio-map arithmetic and the metrics built on it.
    assert_eq!(allocs(|| a.get(&3)), 0, "RatioMap::get");
    assert_eq!(allocs(|| a.dot(b)), 0, "RatioMap::dot");
    assert_eq!(allocs(|| a.cosine_similarity(b)), 0, "cosine_similarity");
    assert_eq!(allocs(|| a.l1_distance(b)), 0, "l1_distance");
    assert_eq!(allocs(|| a.overlaps(b)), 0, "overlaps");
    assert_eq!(allocs(|| a.strongest().1), 0, "strongest");
    assert_eq!(allocs(|| a.l2_norm()), 0, "l2_norm");
    for metric in [SimilarityMetric::Cosine, SimilarityMetric::WeightedOverlap] {
        assert_eq!(allocs(|| metric.compare(a, b)), 0, "{metric} compare");
    }
    // Jaccard collects both key sets.
    assert_eq!(
        allocs(|| SimilarityMetric::Jaccard.compare(a, b)),
        8,
        "Jaccard compare"
    );

    // Ranking 240 candidates allocates the ranking itself; reading it
    // allocates nothing, and top_k allocates the Vec it returns.
    let candidates: Vec<(u32, RatioMap<u32>)> = (0..240).map(|i| (i, map(i, 6))).collect();
    let rank = || {
        Ranking::rank(
            a,
            candidates.iter().map(|(n, m)| (*n, m)),
            SimilarityMetric::Cosine,
        )
    };
    assert_eq!(allocs(rank), 1, "Ranking::rank");
    let ranking = rank();
    assert_eq!(allocs(|| ranking.top().copied()), 0, "Ranking::top");
    assert_eq!(allocs(|| ranking.score_of(&17)), 0, "Ranking::score_of");
    assert_eq!(allocs(|| ranking.top_k(5)), 1, "Ranking::top_k");

    // Disarmed explain hooks return before building a record.
    assert!(!explain::enabled());
    let entries = ranking.entries();
    assert_eq!(
        allocs(|| explain::record_similarity(SimilarityMetric::Cosine, a, b, 0.5)),
        0,
        "record_similarity"
    );
    assert_eq!(
        allocs(|| explain::record_ranking(entries)),
        0,
        "record_ranking"
    );
    assert_eq!(
        allocs(|| explain::record_assignment(&1u32, Some(&2u32), 0.5, 0.1, true)),
        0,
        "record_assignment"
    );

    // A full 30-slot tracker recycles the evicted observation's buffer.
    let mut tracker = RedirectionTracker::with_capacity(30);
    let servers = [7u32, 9];
    for m in 0..30 {
        tracker.record_slice(SimTime::from_mins(m * 10), &servers);
    }
    let ingest = allocs(|| {
        for m in 30..1_030 {
            tracker.record_slice(SimTime::from_mins(m * 10), black_box(&servers));
        }
    });
    assert_eq!(ingest, 0, "1,000 record_slice calls at capacity");
    assert_eq!(
        allocs(|| tracker.prune_before(SimTime::from_mins(10_200))),
        0,
        "prune_before"
    );

    // A warm CDN answer allocates only the response's record list. Debug
    // builds add the softmax invariant check's scratch vectors.
    let mut net = NetworkBuilder::new(5).build();
    let client = net.add_population(&PopulationSpec::dns_servers(1))[0];
    let mut cdn = Cdn::deploy(
        net,
        &DeploymentSpec::akamai_like(1.0),
        MappingConfig::default(),
    );
    let name = cdn
        .add_customer("us.i1.yimg.com")
        .expect("valid customer name");
    let _ = cdn.authoritative_answer(&name, client, SimTime::ZERO);
    let answer = allocs(|| cdn.authoritative_answer(&name, client, SimTime::from_mins(1)));
    let expected = if cfg!(debug_assertions) { 3 } else { 1 };
    assert_eq!(answer, expected, "warm Cdn::authoritative_answer");
}
