//! # CRP — CDN-based Relative network Positioning
//!
//! A full reproduction of *"Relative Network Positioning via CDN
//! Redirections"* (Su, Choffnes, Bustamante & Kuzmanovic, IEEE ICDCS
//! 2008) as a Rust workspace.
//!
//! CRP estimates the **relative** network positions of Internet hosts
//! with *zero* direct probing: each host records which replica servers a
//! large CDN redirects it to over time, summarizes them as a ratio map,
//! and compares maps by cosine similarity. Two hosts redirected to the
//! same nearby replicas are, with high probability, close to each other.
//!
//! This façade crate re-exports the workspace and provides the glue
//! between the algorithm crate and the simulated substrates:
//!
//! * [`CdnProbe`] — an observation source that performs recursive DNS
//!   lookups against the simulated CDN, exactly as a deployed CRP client
//!   would run `dig` against Akamai-accelerated names;
//! * [`Scenario`] — a reproducible experiment harness that assembles the
//!   synthetic Internet, the CDN, and the paper's host populations, and
//!   collects redirection observations into a [`crp_core::CrpService`].
//!
//! ## Workspace layout
//!
//! | Crate | Role |
//! |-------|------|
//! | [`crp_core`] | the paper's contribution: ratio maps, similarity, selection, SMF clustering |
//! | [`crp_netsim`] | synthetic Internet: geography, AS topology, time-varying RTTs, King |
//! | [`crp_dns`] | DNS substrate: names, records, TTL cache, recursive resolution |
//! | [`crp_cdn`] | Akamai-like CDN: replica fleet, latency-driven redirection, coverage model |
//! | [`crp_meridian`] | Meridian baseline with the paper's deployment fault modes |
//! | [`crp_baselines`] | ASN clustering and Vivaldi coordinates |
//!
//! ## Quickstart
//!
//! ```
//! use crp::{Scenario, ScenarioConfig};
//! use crp_core::{SimilarityMetric, SmfConfig, WindowPolicy};
//! use crp_netsim::{SimDuration, SimTime};
//!
//! // A small world: 12 candidate servers, 6 clients, a scaled-down CDN.
//! let scenario = Scenario::build(ScenarioConfig {
//!     seed: 42,
//!     candidate_servers: 12,
//!     clients: 6,
//!     cdn_scale: 0.3,
//!     ..ScenarioConfig::default()
//! });
//!
//! // Let every host observe CDN redirections for 6 hours, one probe
//! // every 10 minutes (the paper's cadence).
//! let service = scenario.observe_all(
//!     SimTime::ZERO,
//!     SimTime::from_hours(6),
//!     SimDuration::from_mins(10),
//!     WindowPolicy::LastProbes(10),
//!     SimilarityMetric::Cosine,
//! );
//!
//! // Closest-candidate query for the first client.
//! let now = SimTime::from_hours(6);
//! let ranking = service
//!     .closest(&scenario.clients()[0], scenario.candidates().to_vec(), now)?;
//! assert!(!ranking.is_empty());
//!
//! // Cluster the clients.
//! let clustering = service.cluster(&SmfConfig::paper(0.1), now);
//! assert!(clustering.total_nodes() > 0);
//! # Ok::<(), crp_core::RatioMapError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod detour;
pub mod names;
pub mod passive;
pub mod probe;
pub mod scenario;

pub use detour::{DetourFinder, DetourOutcome};
pub use names::{NameAssessment, NameEvaluator};
pub use passive::PassiveMonitor;
pub use probe::CdnProbe;
pub use scenario::{Scenario, ScenarioConfig};

// Re-export the member crates under their natural names.
pub use crp_baselines as baselines;
pub use crp_cdn as cdn;
pub use crp_core as core;
pub use crp_dns as dns;
pub use crp_meridian as meridian;
pub use crp_netsim as netsim;
