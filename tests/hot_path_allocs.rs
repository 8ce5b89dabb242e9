//! Exact heap-allocation counts: the hot paths in steady state, and
//! every pipeline stage over one small world.
//!
//! The counting allocator is process-wide, so this file is a
//! `harness = false` test (see the root `Cargo.toml`): `main` is the
//! only thread, and nothing else allocates while a count is taken. A
//! count that grows means a path started allocating; one that shrinks
//! should be pinned lower here. Either way the failing assertion names
//! the path or the stage.

use std::hint::black_box;

use crp::{Scenario, ScenarioConfig};
use crp_cdn::{Cdn, DeploymentSpec, MappingConfig};
use crp_core::{Ranking, RatioMap, RedirectionTracker, SimilarityMetric, SmfConfig, WindowPolicy};
use crp_dns::AuthoritativeServer;
use crp_meridian::{FaultPlan, MeridianConfig, MeridianOverlay};
use crp_netsim::{NetworkBuilder, PopulationSpec, SimDuration, SimTime};
use crp_telemetry::profile::{allocation_count, CountingAllocator};
use crp_telemetry::stage::{self, Stage};
use crp_telemetry::{mem, MemSnapshot};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs the checks in order. A failing pin panics with its name; each
/// passing check prints libtest's result line, so test reporters still
/// list it by name.
fn main() {
    println!("\nrunning 2 tests");
    hot_paths_allocate_only_what_they_return();
    println!("test hot_paths_allocate_only_what_they_return ... ok");
    stages_allocate_their_pinned_counts();
    println!("test stages_allocate_their_pinned_counts ... ok");
    println!("\ntest result: ok. 2 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out\n");
}

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

/// Asserts that exactly `expected` allocations were charged to `stage`.
fn pin(snapshot: &MemSnapshot, stage: &Stage, expected: u64) {
    let counted = snapshot.domain(stage.name).map_or(0, |d| d.allocs);
    assert_eq!(counted, expected, "{}", stage.name);
}

/// What each pipeline stage allocates, charged by `crp_telemetry::mem`
/// to the innermost open stage. Only counts are pinned: peak bytes
/// follow the workload's size rather than the stage's code. Debug
/// builds add invariant checks' scratch vectors to the CDN answer and
/// to SMF.
fn stages_allocate_their_pinned_counts() {
    let debug = cfg!(debug_assertions);

    // A fresh 30-slot tracker fed 1,000 probes: each of the first 30
    // observations allocates its server list, the rest recycle one.
    mem::start();
    let mut tracker = RedirectionTracker::with_capacity(30);
    for i in 0..1_000u64 {
        tracker.record_slice(SimTime::from_mins(i), &[(i % 9) as u32]);
    }
    pin(&mem::snapshot(), &stage::CORE_TRACKER, 30);

    // A small world: a 6-hour campaign over 8 candidates and 4 clients,
    // one closest query per client, one clustering, and a Meridian
    // overlay over the candidates with one query per client.
    mem::reset();
    let scenario = Scenario::build(ScenarioConfig {
        seed: 13,
        candidate_servers: 8,
        clients: 4,
        cdn_scale: 0.4,
        ..ScenarioConfig::default()
    });
    let end = SimTime::from_hours(6);
    let service = scenario.observe_all(
        SimTime::ZERO,
        end,
        SimDuration::from_mins(10),
        WindowPolicy::LastProbes(30),
        SimilarityMetric::Cosine,
    );
    let candidates = scenario.candidates();
    for client in scenario.clients() {
        black_box(service.closest(client, candidates.iter().copied(), end)).expect("observed");
    }
    black_box(service.cluster(&SmfConfig::paper(0.1), end));
    let overlay = MeridianOverlay::build(
        scenario.network(),
        candidates,
        MeridianConfig::default(),
        FaultPlan::none(),
    );
    for (i, &client) in scenario.clients().iter().enumerate() {
        let entry = candidates[i % candidates.len()];
        black_box(overlay.closest_node_query(scenario.network(), entry, client, end));
    }
    let world = mem::finish().expect("armed above");

    pin(&world, &stage::SCENARIO_BUILD, 3_904);
    pin(&world, &stage::SCENARIO_OBSERVE, 2_187);
    pin(
        &world,
        &stage::CDN_AUTHORITATIVE_ANSWER,
        if debug { 2_645 } else { 917 },
    );
    pin(&world, &stage::CORE_TRACKER, 12);
    pin(&world, &stage::CORE_RATIO_MAP, 64);
    pin(&world, &stage::CORE_RANK, 4);
    pin(&world, &stage::CORE_SMF, if debug { 24 } else { 21 });
    pin(&world, &stage::MERIDIAN_BUILD, 126);
    pin(&world, &stage::MERIDIAN_CLOSEST_QUERY, 5);
}
