//! CDN-based Relative network Positioning (CRP) — core algorithms.
//!
//! This crate is the paper's contribution: given streams of CDN
//! redirections observed by a set of hosts, estimate the hosts' *relative*
//! network positions with zero direct probing.
//!
//! * [`RatioMap`] — a host's redirection history compressed to
//!   (replica → frequency) ratios (§III-B);
//! * [`similarity`] — cosine similarity between ratio maps, the paper's
//!   proximity metric, plus alternatives used by ablations;
//! * [`RedirectionTracker`] — the per-host observation window, with the
//!   window policies studied in Figs. 8–9;
//! * [`select`] — closest-node selection by similarity ranking (§IV-A,
//!   evaluated in Figs. 4–5);
//! * [`cluster`] — the Strongest-Mappings-First clustering algorithm
//!   (§IV-B / §V-B, Table I, Figs. 6–7);
//! * [`quality`] — intra-/inter-cluster distance metrics and the "good
//!   cluster" criterion of Fig. 6;
//! * [`CrpService`] — a façade tying the pieces into the stand-alone
//!   service the paper sketches;
//! * [`explain`] — opt-in decision provenance: per-replica similarity
//!   contributions, ranking margins and SMF assignment rationales,
//!   recorded only when explicitly enabled.
//!
//! The algorithms are generic over the replica-server key type `K` and
//! the node identifier type `N`, so they run identically against the
//! simulated CDN substrate, hand-built observation streams in tests, or
//! (in principle) real `dig` output.
//!
//! # Example
//!
//! The worked example from §IV-A of the paper:
//!
//! ```
//! use crp_core::RatioMap;
//!
//! let a = RatioMap::from_weights([("x", 0.2), ("y", 0.8)])?;
//! let b = RatioMap::from_weights([("x", 0.6), ("y", 0.4)])?;
//! let c = RatioMap::from_weights([("x", 0.1), ("y", 0.9)])?;
//! assert!((a.cosine_similarity(&b) - 0.740).abs() < 0.001);
//! assert!((a.cosine_similarity(&c) - 0.991).abs() < 0.001);
//! // A is relatively closer to C than to B.
//! assert!(a.cosine_similarity(&c) > a.cosine_similarity(&b));
//! # Ok::<(), crp_core::RatioMapError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::iter_over_hash_type
)]

pub mod cluster;
pub mod counting;
pub mod explain;
pub mod invariant;
pub mod observation;
pub mod quality;
pub mod ratio;
pub mod relative;
pub mod select;
pub mod service;
pub mod similarity;
pub mod snapshot;
pub mod tracker;

pub use cluster::{CenterStrategy, Cluster, Clustering, SmfConfig};
pub use counting::CountingTracker;
pub use explain::ExplainLog;
pub use observation::{Observation, ObservationSource};
pub use quality::{ClusterQuality, QualityReport};
pub use ratio::{RatioMap, RatioMapError};
pub use relative::{relative_position, RelativeOrder};
pub use select::Ranking;
pub use service::CrpService;
pub use similarity::SimilarityMetric;
pub use snapshot::ServiceSnapshot;
pub use tracker::{RedirectionTracker, WindowPolicy};
