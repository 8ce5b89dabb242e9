//! Fixtures and the measurement harness for the CRP benchmarks.
//!
//! The benches measure the cost of every moving part of the
//! reproduction: similarity math, tracker updates, SMF clustering, the
//! CDN mapping hot path, Meridian queries, and the per-figure experiment
//! kernels at reduced scale. The Criterion benches under `benches/`
//! consume the fixtures here; the `bench_all`/`bench_check` binaries
//! additionally use [`harness`] for fixed-plan runs with machine-readable
//! reports and regression gating.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod harness;

use crp::{Scenario, ScenarioConfig};
use crp_cdn::ReplicaId;
use crp_core::{CrpService, RatioMap, SimilarityMetric, WindowPolicy};
use crp_netsim::{noise, HostId, SimDuration, SimTime};
use std::collections::HashSet;

/// A deterministic ratio map with exactly `entries` distinct replicas
/// drawn from a key space of `universe`, seeded by `seed`.
///
/// Keys are hashed into the universe and deduplicated by deterministic
/// linear probing (the next free key, wrapping), so the map's
/// cardinality is always `entries` — hash collisions must not silently
/// shrink benchmark inputs.
///
/// # Panics
///
/// Panics when `universe < entries` (the cardinality would be
/// unsatisfiable).
pub fn synthetic_map(seed: u64, entries: usize, universe: u64) -> RatioMap<u32> {
    assert!(
        universe >= entries as u64,
        "universe ({universe}) must admit {entries} distinct keys"
    );
    let mut taken: HashSet<u32> = HashSet::with_capacity(entries);
    let weights: Vec<(u32, f64)> = (0..entries)
        .map(|i| {
            let mut key = (noise::mix(&[seed, i as u64]) % universe) as u32;
            while !taken.insert(key) {
                key = ((u64::from(key) + 1) % universe) as u32;
            }
            let w = 1.0 + noise::uniform(&[seed, 0xF00D, i as u64]) * 9.0;
            (key, w)
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "weights are drawn from [1, 10], always positive"
    )]
    RatioMap::from_weights(weights).expect("positive weights")
}

/// A batch of synthetic ratio maps for clustering/selection benches.
pub fn synthetic_maps(count: usize, entries: usize, universe: u64) -> Vec<(usize, RatioMap<u32>)> {
    (0..count)
        .map(|i| (i, synthetic_map(i as u64, entries, universe)))
        .collect()
}

/// A small but fully real world: scenario + 6 hours of observations.
pub fn observed_scenario(
    seed: u64,
    candidates: usize,
    clients: usize,
) -> (Scenario, CrpService<HostId, ReplicaId>, SimTime) {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        candidate_servers: candidates,
        clients,
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
    (scenario, service, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_maps_are_valid_and_deterministic() {
        let a = synthetic_map(5, 8, 100);
        let b = synthetic_map(5, 8, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn synthetic_map_cardinality_survives_collisions() {
        // A tight universe forces key collisions; the probe must still
        // deliver exactly the requested cardinality.
        for (entries, universe) in [(64usize, 64u64), (50, 53), (8, 8)] {
            for seed in 0..5u64 {
                let m = synthetic_map(seed, entries, universe);
                assert_eq!(m.len(), entries, "seed {seed} ({entries}/{universe})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must admit")]
    fn synthetic_map_rejects_unsatisfiable_universe() {
        let _ = synthetic_map(0, 10, 9);
    }

    #[test]
    fn observed_scenario_is_usable() {
        let (scenario, service, _end) = observed_scenario(1, 4, 2);
        assert_eq!(scenario.candidates().len(), 4);
        assert!(service.node_count() > 0);
    }
}
