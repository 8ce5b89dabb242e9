//! The timing guard for the kernels no paper-scale workload measures.
//!
//! `bench_all` times three rows with [`harness`]: cosine similarity,
//! all similarity metrics, and one Meridian closest-node query — the
//! probing cost CRP avoids. `bench_check` gates their medians against
//! the newest committed `BENCH_pr<N>.json`. Every other layer is timed
//! at paper scale by `e2e_bench`'s per-layer metrics, and allocation
//! counts are pinned exactly by `tests/hot_path_allocs.rs`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod harness;

use crp_core::RatioMap;
use crp_netsim::noise;
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
}
