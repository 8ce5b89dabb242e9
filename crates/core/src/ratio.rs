//! Ratio maps: a host's redirection history as normalized frequencies.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A node's redirection ratio map: for each replica server seen, the
/// fraction of redirections that pointed at it (§III-B of the paper).
///
/// Invariants, enforced at construction:
///
/// * at least one entry,
/// * every ratio is strictly positive and finite,
/// * the ratios sum to 1 (within floating-point tolerance).
///
/// `K` is the replica-server key — a replica id when driven by the
/// simulated CDN, or anything `Ord + Clone` in tests.
///
/// # Example
///
/// ```
/// use crp_core::RatioMap;
///
/// // Node A was redirected to r1 30% of the time and r2 70% of the time.
/// let map = RatioMap::from_counts([("r1", 3u64), ("r2", 7u64)])?;
/// assert!((map.get(&"r1") - 0.3).abs() < 1e-12);
/// assert_eq!(map.get(&"absent"), 0.0);
/// # Ok::<(), crp_core::RatioMapError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatioMap<K: Ord> {
    entries: BTreeMap<K, f64>,
}

impl<K: Ord + Clone> RatioMap<K> {
    /// Builds a ratio map from raw redirection counts.
    ///
    /// Zero-count entries are dropped; duplicate keys accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`RatioMapError::Empty`] if no key has a positive count.
    pub fn from_counts<I>(counts: I) -> Result<Self, RatioMapError>
    where
        I: IntoIterator<Item = (K, u64)>,
    {
        Self::from_weights(counts.into_iter().map(|(k, c)| (k, c as f64)))
    }

    /// Builds a ratio map from arbitrary non-negative weights, which are
    /// normalized to sum to 1.
    ///
    /// Zero-weight entries are dropped; duplicate keys accumulate.
    ///
    /// # Errors
    ///
    /// * [`RatioMapError::InvalidWeight`] if any weight is negative, NaN
    ///   or infinite.
    /// * [`RatioMapError::Empty`] if the total weight is zero.
    pub fn from_weights<I>(weights: I) -> Result<Self, RatioMapError>
    where
        I: IntoIterator<Item = (K, f64)>,
    {
        let mut entries: BTreeMap<K, f64> = BTreeMap::new();
        for (k, w) in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(RatioMapError::InvalidWeight { weight: w });
            }
            if w > 0.0 {
                *entries.entry(k).or_insert(0.0) += w;
            }
        }
        let total: f64 = entries.values().sum();
        if total <= 0.0 || entries.is_empty() {
            return Err(RatioMapError::Empty);
        }
        for v in entries.values_mut() {
            *v /= total;
        }
        crate::debug_invariant!(
            crate::invariant::check_ratio_distribution(entries.values()),
            "RatioMap::from_weights ({} entries)",
            entries.len()
        );
        Ok(RatioMap { entries })
    }

    /// The ratio for `key`, or 0 if the node was never redirected there.
    pub fn get(&self, key: &K) -> f64 {
        self.entries.get(key).copied().unwrap_or(0.0)
    }

    /// Number of distinct replica servers in the map.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: an empty ratio map cannot be constructed. Provided
    /// for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over `(replica, ratio)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, f64)> {
        self.entries.iter().map(|(k, v)| (k, *v))
    }

    /// The replica keys, in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// The entry with the largest ratio, breaking ties toward the
    /// smaller key. This is a node's *strongest mapping*, the quantity
    /// the SMF clustering algorithm orders by.
    pub fn strongest(&self) -> (&K, f64) {
        #[expect(
            clippy::expect_used,
            reason = "construction guarantees at least one entry"
        )]
        self.entries
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(k, v)| (k, *v))
            .expect("ratio maps are non-empty")
    }

    /// The Euclidean norm of the ratio vector.
    pub fn l2_norm(&self) -> f64 {
        self.entries.values().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The dot product with another map (sum over common replicas).
    pub fn dot(&self, other: &RatioMap<K>) -> f64 {
        // Iterate the smaller map and probe the larger one.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.entries.iter().map(|(k, v)| v * large.get(k)).sum()
    }

    /// The cosine similarity with another map, in `[0, 1]` (§III-B).
    ///
    /// 1 means identical redirection behavior; 0 means no replica in
    /// common — the case where the paper says CRP can only report that
    /// the nodes are unlikely to be near one another.
    pub fn cosine_similarity(&self, other: &RatioMap<K>) -> f64 {
        let denom = self.l2_norm() * other.l2_norm();
        // Norms are strictly positive by the construction invariant.
        let score = (self.dot(other) / denom).clamp(0.0, 1.0);
        crate::debug_invariant!(
            crate::invariant::check_unit_interval(score),
            "RatioMap::cosine_similarity"
        );
        score
    }

    /// The L1 (Manhattan) distance to `other` over the union of replica
    /// keys, in `[0, 2]`. 0 means identical redirection behavior; 2
    /// means fully disjoint replica sets. This is the drift metric the
    /// audit layer compares consecutive ratio-map snapshots with.
    pub fn l1_distance(&self, other: &RatioMap<K>) -> f64 {
        let mut sum: f64 = self.iter().map(|(k, v)| (v - other.get(k)).abs()).sum();
        sum += other
            .entries
            .iter()
            .filter(|(k, _)| !self.entries.contains_key(k))
            .map(|(_, v)| v)
            .sum::<f64>();
        sum
    }

    /// Whether the two maps share any replica server. When false, CRP
    /// cannot position the pair (dot product is zero).
    pub fn overlaps(&self, other: &RatioMap<K>) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.entries.keys().any(|k| large.entries.contains_key(k))
    }

    /// The `n` largest entries as `(replica, ratio)`, strongest first.
    pub fn top_entries(&self, n: usize) -> Vec<(&K, f64)> {
        let mut all: Vec<(&K, f64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        all.truncate(n);
        all
    }
}

impl<K: Ord + Clone + fmt::Display> fmt::Display for RatioMap<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} => {v:.3}")?;
        }
        write!(f, ">")
    }
}

/// Error constructing a [`RatioMap`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RatioMapError {
    /// No entry had positive weight: the node has observed no
    /// redirections (yet), so it has no position information.
    Empty,
    /// A weight was negative, NaN or infinite.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
}

impl fmt::Display for RatioMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatioMapError::Empty => write!(f, "ratio map has no redirection observations"),
            RatioMapError::InvalidWeight { weight } => {
                write!(
                    f,
                    "ratio weight {weight} is not a finite non-negative number"
                )
            }
        }
    }
}

impl Error for RatioMapError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    #[test]
    fn ratios_sum_to_one() {
        let m = map(&[("a", 3.0), ("b", 1.0), ("c", 4.0)]);
        let sum: f64 = m.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_keys_accumulate() {
        let m = RatioMap::from_counts([("a", 1u64), ("a", 2), ("b", 1)]).unwrap();
        assert!((m.get(&"a") - 0.75).abs() < 1e-12);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_weights_are_dropped() {
        let m = map(&[("a", 1.0), ("ghost", 0.0)]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&"ghost"), 0.0);
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(
            RatioMap::<&str>::from_counts(std::iter::empty()),
            Err(RatioMapError::Empty)
        );
        assert_eq!(
            RatioMap::from_counts([("a", 0u64)]),
            Err(RatioMapError::Empty)
        );
    }

    #[test]
    fn invalid_weights_are_rejected() {
        assert!(matches!(
            RatioMap::from_weights([("a", -0.5)]),
            Err(RatioMapError::InvalidWeight { .. })
        ));
        assert!(matches!(
            RatioMap::from_weights([("a", f64::NAN)]),
            Err(RatioMapError::InvalidWeight { .. })
        ));
        assert!(matches!(
            RatioMap::from_weights([("a", f64::INFINITY)]),
            Err(RatioMapError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn paper_worked_example() {
        // §IV-A: ν_A = <x: 0.2, y: 0.8>, ν_B = <x: 0.6, y: 0.4>,
        // ν_C = <x: 0.1, y: 0.9> — cos(A,B) = 0.740, cos(A,C) = 0.991.
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("x", 0.6), ("y", 0.4)]);
        let c = map(&[("x", 0.1), ("y", 0.9)]);
        assert!((a.cosine_similarity(&b) - 0.7399).abs() < 1e-3);
        assert!((a.cosine_similarity(&c) - 0.9915).abs() < 1e-3);
    }

    #[test]
    fn identical_maps_have_similarity_one() {
        let a = map(&[("x", 0.5), ("y", 0.3), ("z", 0.2)]);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_maps_have_similarity_zero() {
        let a = map(&[("x", 1.0)]);
        let b = map(&[("y", 1.0)]);
        assert_eq!(a.cosine_similarity(&b), 0.0);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("y", 0.5), ("z", 0.5)]);
        assert_eq!(a.cosine_similarity(&b), b.cosine_similarity(&a));
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn strongest_mapping_with_tie_break() {
        let m = map(&[("b", 0.4), ("a", 0.4), ("c", 0.2)]);
        let (k, v) = m.strongest();
        assert_eq!(*k, "a");
        assert!((v - 0.4).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_bounds_and_symmetry() {
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("x", 0.6), ("y", 0.4)]);
        assert_eq!(a.l1_distance(&a), 0.0);
        assert!((a.l1_distance(&b) - 0.8).abs() < 1e-12);
        assert_eq!(a.l1_distance(&b), b.l1_distance(&a));
        // Fully disjoint maps are at the maximum distance of 2.
        let d = map(&[("q", 1.0)]);
        assert!((a.l1_distance(&d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn top_entries_ordering() {
        let m = map(&[("a", 0.1), ("b", 0.6), ("c", 0.3)]);
        let top: Vec<&str> = m.top_entries(2).into_iter().map(|(k, _)| *k).collect();
        assert_eq!(top, vec!["b", "c"]);
    }

    #[test]
    fn display_shows_entries() {
        let m = map(&[("x", 0.25), ("y", 0.75)]);
        assert_eq!(m.to_string(), "<x => 0.250, y => 0.750>");
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!RatioMapError::Empty.to_string().is_empty());
        assert!(!RatioMapError::InvalidWeight { weight: -1.0 }
            .to_string()
            .is_empty());
    }
}
