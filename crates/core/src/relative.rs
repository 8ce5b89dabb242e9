//! The primitive relative-position query (§III-B).
//!
//! "To determine the relative position of two hosts A and B with respect
//! to a third host C, we can simply compute the cosine similarity of
//! their respective redirection maps. In particular, if
//! cos_sim(A, C) < cos_sim(B, C), then host B is the closer to C."
//!
//! This module makes that three-point query a first-class, honest API:
//! the answer carries the margin, and degenerate cases (no overlap with
//! either host) are reported as [`RelativeOrder::Indeterminate`] rather
//! than a coin flip — the paper is explicit that zero-overlap pairs are
//! outside CRP's competence.

use crate::ratio::RatioMap;
use crate::similarity::SimilarityMetric;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The answer to "which of A, B is closer to C?".
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RelativeOrder {
    /// A is closer to the reference than B.
    CloserA {
        /// Similarity margin `sim(A,C) − sim(B,C)`, in `(0, 1]`.
        margin: f64,
    },
    /// B is closer to the reference than A.
    CloserB {
        /// Similarity margin `sim(B,C) − sim(A,C)`, in `(0, 1]`.
        margin: f64,
    },
    /// CRP cannot order the pair: neither shares a replica with the
    /// reference, or the similarities tie exactly.
    Indeterminate,
}

impl RelativeOrder {
    /// Whether the query produced an ordering.
    pub fn is_determinate(self) -> bool {
        !matches!(self, RelativeOrder::Indeterminate)
    }
}

impl fmt::Display for RelativeOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelativeOrder::CloserA { margin } => write!(f, "A closer (margin {margin:.3})"),
            RelativeOrder::CloserB { margin } => write!(f, "B closer (margin {margin:.3})"),
            RelativeOrder::Indeterminate => write!(f, "indeterminate"),
        }
    }
}

/// Orders hosts A and B relative to reference C by ratio-map similarity.
///
/// # Example
///
/// The paper's worked example — relative to A, host C beats host B:
///
/// ```
/// use crp_core::relative::{relative_position, RelativeOrder};
/// use crp_core::{RatioMap, SimilarityMetric};
///
/// let a = RatioMap::from_weights([("x", 0.2), ("y", 0.8)])?;
/// let b = RatioMap::from_weights([("x", 0.6), ("y", 0.4)])?;
/// let c = RatioMap::from_weights([("x", 0.1), ("y", 0.9)])?;
/// // Which of B, C is closer to A?
/// let order = relative_position(&b, &c, &a, SimilarityMetric::Cosine);
/// assert!(matches!(order, RelativeOrder::CloserB { .. })); // C wins
/// # Ok::<(), crp_core::RatioMapError>(())
/// ```
pub fn relative_position<K: Ord + Clone>(
    a: &RatioMap<K>,
    b: &RatioMap<K>,
    reference: &RatioMap<K>,
    metric: SimilarityMetric,
) -> RelativeOrder {
    let sa = metric.compare(a, reference);
    let sb = metric.compare(b, reference);
    if sa == 0.0 && sb == 0.0 {
        return RelativeOrder::Indeterminate;
    }
    if sa > sb {
        RelativeOrder::CloserA { margin: sa - sb }
    } else if sb > sa {
        RelativeOrder::CloserB { margin: sb - sa }
    } else {
        RelativeOrder::Indeterminate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&'static str, f64)]) -> RatioMap<&'static str> {
        RatioMap::from_weights(entries.iter().copied()).unwrap()
    }

    #[test]
    fn paper_example_orders_c_before_b() {
        let a = map(&[("x", 0.2), ("y", 0.8)]);
        let b = map(&[("x", 0.6), ("y", 0.4)]);
        let c = map(&[("x", 0.1), ("y", 0.9)]);
        match relative_position(&b, &c, &a, SimilarityMetric::Cosine) {
            RelativeOrder::CloserB { margin } => {
                assert!((margin - (0.9915 - 0.7399)).abs() < 1e-3)
            }
            other => panic!("expected CloserB, got {other}"),
        }
    }

    #[test]
    fn symmetric_query_flips_the_answer() {
        let a = map(&[("x", 1.0)]);
        let b = map(&[("y", 1.0)]);
        let c = map(&[("x", 0.5), ("y", 0.5)]);
        let ab = relative_position(&a, &b, &c, SimilarityMetric::Cosine);
        let ba = relative_position(&b, &a, &c, SimilarityMetric::Cosine);
        match (ab, ba) {
            (RelativeOrder::CloserA { margin: m1 }, RelativeOrder::CloserB { margin: m2 })
            | (RelativeOrder::CloserB { margin: m1 }, RelativeOrder::CloserA { margin: m2 }) => {
                assert!((m1 - m2).abs() < 1e-12)
            }
            (RelativeOrder::Indeterminate, RelativeOrder::Indeterminate) => {}
            other => panic!("asymmetric answers: {other:?}"),
        }
    }

    #[test]
    fn no_overlap_with_reference_is_indeterminate() {
        let a = map(&[("p", 1.0)]);
        let b = map(&[("q", 1.0)]);
        let c = map(&[("z", 1.0)]);
        assert_eq!(
            relative_position(&a, &b, &c, SimilarityMetric::Cosine),
            RelativeOrder::Indeterminate
        );
        assert!(!RelativeOrder::Indeterminate.is_determinate());
    }

    #[test]
    fn exact_tie_is_indeterminate() {
        let a = map(&[("x", 1.0)]);
        let c = map(&[("x", 0.5), ("y", 0.5)]);
        assert_eq!(
            relative_position(&a, &a.clone(), &c, SimilarityMetric::Cosine),
            RelativeOrder::Indeterminate
        );
    }

    #[test]
    fn one_sided_overlap_is_decisive() {
        let a = map(&[("x", 1.0)]);
        let b = map(&[("q", 1.0)]);
        let c = map(&[("x", 0.5), ("y", 0.5)]);
        let order = relative_position(&a, &b, &c, SimilarityMetric::Cosine);
        assert!(matches!(order, RelativeOrder::CloserA { .. }));
    }

    #[test]
    fn display_forms() {
        assert_eq!(RelativeOrder::Indeterminate.to_string(), "indeterminate");
        assert!(RelativeOrder::CloserA { margin: 0.25 }
            .to_string()
            .contains("0.250"));
    }
}
