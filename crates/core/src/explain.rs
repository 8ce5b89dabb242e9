//! Opt-in decision provenance: *why* did CRP score, rank, or cluster
//! the way it did?
//!
//! The similarity, selection, and clustering paths answer positioning
//! queries with a single number or an ordering; when a recommendation
//! turns out wrong (a rank inversion against ground-truth RTT, a node in
//! a surprising cluster) the number alone cannot explain it. This module
//! records the *decision rationale* as structured records:
//!
//! * [`SimilarityRecord`] — the per-replica contributions behind one
//!   cosine (or other metric) score;
//! * [`RankingRecord`] — the winner, runner-up, and margin of one
//!   closest-node ranking;
//! * [`AssignmentRecord`] — the best-center similarity and threshold
//!   comparison behind one SMF join/no-join decision;
//! * [`InversionRecord`] — a selection that disagreed with ground-truth
//!   RTT, annotated by the evaluation harness with whether the error is
//!   explained (no shared replicas, weak signal).
//!
//! The layer follows the same contract as `debug_invariant!` and the
//! telemetry gates: **zero cost when disabled**. Every hook site checks
//! [`enabled`] — one relaxed atomic load — before formatting anything,
//! so production paths and disabled experiment runs pay nothing, and the
//! recording itself never feeds back into any decision, preserving the
//! workspace determinism contract (experiment outputs are byte-identical
//! with provenance on or off; `tests/telemetry_determinism.rs` proves
//! it).
//!
//! Hot-path volume is bounded: each record kind is capped at
//! [`MAX_RECORDS_PER_KIND`]; further records increment a drop counter
//! instead of growing the log, so an SMF run over thousands of nodes
//! (O(n²) comparisons) cannot exhaust memory.
//!
//! Every `record_*` hook also returns at once while recording is off,
//! so a call that skipped the [`enabled`] check still costs one branch
//! and no allocation (`tests/hot_path_allocs.rs` pins this).

use crate::ratio::RatioMap;
use crate::similarity::SimilarityMetric;
use crp_telemetry::stage;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

/// Cap per record kind; past it, records are counted as dropped.
pub const MAX_RECORDS_PER_KIND: usize = 4096;

/// Contributions kept per similarity record (strongest first).
pub const MAX_CONTRIBUTIONS: usize = 8;

/// One replica's share of a similarity score.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Contribution {
    /// Replica key, Debug-formatted.
    pub key: String,
    /// The first map's ratio for this replica.
    pub weight_a: f64,
    /// The second map's ratio for this replica.
    pub weight_b: f64,
    /// This replica's additive share of the final score.
    pub share: f64,
}

/// Provenance of one similarity computation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimilarityRecord {
    /// Metric name (`cosine`, `jaccard`, `weighted-overlap`).
    pub metric: String,
    /// The score returned.
    pub score: f64,
    /// Strongest per-replica contributions, up to
    /// [`MAX_CONTRIBUTIONS`].
    pub contributions: Vec<Contribution>,
}

/// Provenance of one closest-node ranking.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankingRecord {
    /// Candidates ranked.
    pub candidates: u64,
    /// Winning candidate, Debug-formatted.
    pub top: String,
    /// The winner's similarity score.
    pub top_score: f64,
    /// Second-placed candidate (empty for single-candidate rankings).
    pub runner_up: String,
    /// Score margin between winner and runner-up.
    pub margin: f64,
}

/// Provenance of one SMF cluster-assignment decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AssignmentRecord {
    /// The node being placed, Debug-formatted.
    pub node: String,
    /// The most similar active center (empty when none existed yet).
    pub best_center: String,
    /// Similarity to that center.
    pub similarity: f64,
    /// The join threshold in effect.
    pub threshold: f64,
    /// Whether the node joined (`similarity > threshold`).
    pub joined: bool,
}

/// A selection that disagreed with the ground-truth RTT ordering,
/// recorded by the evaluation harness (the library has no RTT truth).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InversionRecord {
    /// Client host, Debug-formatted.
    pub client: String,
    /// The candidate CRP selected.
    pub selected: String,
    /// Rank of the selection in the RTT ordering (0 = optimal).
    pub selected_rank: u64,
    /// The truly closest candidate.
    pub optimal: String,
    /// The selection's similarity score.
    pub top_score: f64,
    /// Whether the error has a structural explanation.
    pub explained: bool,
    /// The explanation (`no_signal`, `weak_signal`, ...); empty when
    /// unexplained.
    pub reason: String,
}

/// The accumulated provenance of one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExplainLog {
    /// Similarity computations, capped.
    pub similarities: Vec<SimilarityRecord>,
    /// Closest-node rankings, capped.
    pub rankings: Vec<RankingRecord>,
    /// SMF assignment decisions, capped.
    pub assignments: Vec<AssignmentRecord>,
    /// Ground-truth rank inversions, capped.
    pub inversions: Vec<InversionRecord>,
    /// Similarity records dropped past the cap.
    pub dropped_similarities: u64,
    /// Ranking records dropped past the cap.
    pub dropped_rankings: u64,
    /// Assignment records dropped past the cap.
    pub dropped_assignments: u64,
    /// Inversion records dropped past the cap.
    pub dropped_inversions: u64,
}

impl ExplainLog {
    fn new() -> Self {
        ExplainLog {
            similarities: Vec::new(),
            rankings: Vec::new(),
            assignments: Vec::new(),
            inversions: Vec::new(),
            dropped_similarities: 0,
            dropped_rankings: 0,
            dropped_assignments: 0,
            dropped_inversions: 0,
        }
    }

    /// Total records kept across all kinds.
    pub fn len(&self) -> usize {
        self.similarities.len()
            + self.rankings.len()
            + self.assignments.len()
            + self.inversions.len()
    }

    /// Whether no record of any kind was kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records dropped past the caps.
    pub fn dropped(&self) -> u64 {
        self.dropped_similarities
            + self.dropped_rankings
            + self.dropped_assignments
            + self.dropped_inversions
    }
}

static LOG: Mutex<Option<ExplainLog>> = Mutex::new(None);

fn log_slot() -> MutexGuard<'static, Option<ExplainLog>> {
    LOG.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether provenance recording is active. Hook sites must check this
/// (one relaxed atomic load) before formatting any record content.
#[inline]
pub fn enabled() -> bool {
    stage::armed(stage::EXPLAIN)
}

/// Starts a fresh provenance log, discarding any previous one.
pub fn start() {
    let mut slot = log_slot();
    *slot = Some(ExplainLog::new());
    stage::arm(stage::EXPLAIN);
}

/// Stops recording and returns the accumulated log, or `None` if
/// [`start`] was never called.
pub fn finish() -> Option<ExplainLog> {
    let mut slot = log_slot();
    stage::disarm(stage::EXPLAIN);
    slot.take()
}

/// Pushes into `records` respecting the per-kind cap, counting overflow
/// in `dropped`.
fn push_capped<T>(records: &mut Vec<T>, dropped: &mut u64, record: T) {
    if records.len() < MAX_RECORDS_PER_KIND {
        records.push(record);
    } else {
        *dropped += 1;
    }
}

/// Records the provenance of one similarity computation. Returns at
/// once unless [`enabled`].
pub fn record_similarity<K: Ord + Clone + Debug>(
    metric: SimilarityMetric,
    a: &RatioMap<K>,
    b: &RatioMap<K>,
    score: f64,
) {
    if !enabled() {
        return;
    }
    let contributions: Vec<Contribution> = a
        .cosine_contributions(b)
        .into_iter()
        .take(MAX_CONTRIBUTIONS)
        .map(|(k, share)| Contribution {
            key: format!("{k:?}"),
            weight_a: a.get(k),
            weight_b: b.get(k),
            share,
        })
        .collect();
    let record = SimilarityRecord {
        metric: metric.to_string(),
        score,
        contributions,
    };
    if let Some(log) = log_slot().as_mut() {
        push_capped(&mut log.similarities, &mut log.dropped_similarities, record);
    }
}

/// Records the provenance of one closest-node ranking. Returns at once
/// unless [`enabled`].
pub fn record_ranking<N: Ord + Debug>(entries: &[(N, f64)]) {
    if !enabled() {
        return;
    }
    let Some((top, top_score)) = entries.first() else {
        return;
    };
    let (runner_up, margin) = match entries.get(1) {
        Some((n, s)) => (format!("{n:?}"), top_score - s),
        None => (String::new(), 0.0),
    };
    let record = RankingRecord {
        candidates: entries.len() as u64,
        top: format!("{top:?}"),
        top_score: *top_score,
        runner_up,
        margin,
    };
    if let Some(log) = log_slot().as_mut() {
        push_capped(&mut log.rankings, &mut log.dropped_rankings, record);
    }
}

/// Records the provenance of one SMF assignment decision. Returns at
/// once unless [`enabled`].
pub fn record_assignment<N: Ord + Debug>(
    node: &N,
    best_center: Option<&N>,
    similarity: f64,
    threshold: f64,
    joined: bool,
) {
    if !enabled() {
        return;
    }
    let record = AssignmentRecord {
        node: format!("{node:?}"),
        best_center: best_center.map(|c| format!("{c:?}")).unwrap_or_default(),
        similarity,
        threshold,
        joined,
    };
    if let Some(log) = log_slot().as_mut() {
        push_capped(&mut log.assignments, &mut log.dropped_assignments, record);
    }
}

/// Records a ground-truth rank inversion, from the evaluation harness.
/// Returns at once unless [`enabled`].
pub fn record_inversion(record: InversionRecord) {
    if !enabled() {
        return;
    }
    if let Some(log) = log_slot().as_mut() {
        push_capped(&mut log.inversions, &mut log.dropped_inversions, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    // One test drives the whole lifecycle: the log is process-global, so
    // parallel test threads must not share it.
    #[test]
    fn lifecycle_and_capping() {
        // Disabled by default; finish without start yields nothing.
        assert!(!enabled());
        assert!(finish().is_none());

        start();
        assert!(enabled());
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("x", 0.6), ("y", 0.4)]);
        record_similarity(SimilarityMetric::Cosine, &a, &b, a.cosine_similarity(&b));
        record_ranking(&[("C", 0.99), ("B", 0.74)]);
        record_assignment(&"B", Some(&"C"), 0.8, 0.1, true);
        record_assignment::<&str>(&"D", None, 0.0, 0.1, false);
        record_inversion(InversionRecord {
            client: "h1".to_owned(),
            selected: "c7".to_owned(),
            selected_rank: 3,
            optimal: "c2".to_owned(),
            top_score: 0.4,
            explained: true,
            reason: "weak_signal".to_owned(),
        });
        let log = finish().expect("log was started");
        assert!(!enabled());
        assert_eq!(log.similarities.len(), 1);
        assert_eq!(log.rankings.len(), 1);
        assert_eq!(log.assignments.len(), 2);
        assert_eq!(log.inversions.len(), 1);
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert_eq!(log.dropped(), 0);

        // Contributions decompose the score: shares sum to it.
        let rec = &log.similarities[0];
        let total: f64 = rec.contributions.iter().map(|c| c.share).sum();
        assert!((total - rec.score).abs() < 1e-9);
        assert_eq!(log.rankings[0].top, "\"C\"");
        assert!((log.rankings[0].margin - 0.25).abs() < 1e-12);
        assert!(log.assignments[0].joined);
        assert!(!log.assignments[1].joined);
        assert!(log.assignments[1].best_center.is_empty());

        // Capping: the per-kind cap holds and drops are counted.
        start();
        for _ in 0..(MAX_RECORDS_PER_KIND + 10) {
            record_ranking(&[("only", 1.0)]);
        }
        let log = finish().expect("log was started");
        assert_eq!(log.rankings.len(), MAX_RECORDS_PER_KIND);
        assert_eq!(log.dropped_rankings, 10);
        assert_eq!(log.dropped(), 10);

        // A restart discards prior state.
        start();
        let log = finish().expect("fresh log");
        assert!(log.is_empty());
    }

    #[test]
    fn log_serializes_round_trip() {
        let log = ExplainLog {
            similarities: vec![SimilarityRecord {
                metric: "cosine".to_owned(),
                score: 0.9,
                contributions: vec![Contribution {
                    key: "r1".to_owned(),
                    weight_a: 0.5,
                    weight_b: 0.6,
                    share: 0.4,
                }],
            }],
            rankings: Vec::new(),
            assignments: Vec::new(),
            inversions: Vec::new(),
            dropped_similarities: 0,
            dropped_rankings: 0,
            dropped_assignments: 0,
            dropped_inversions: 0,
        };
        let text = serde_json::to_string(&log).expect("serialize");
        let value = serde_json::parse(&text).expect("parse");
        let back = ExplainLog::from_value(&value).expect("shape");
        assert_eq!(back, log);
    }
}
