//! Synthetic wide-area network substrate for the CRP reproduction.
//!
//! The ICDCS 2008 evaluation of CRP ran against the live Internet:
//! PlanetLab nodes, ~1,000 DNS servers drawn from the King data set, and
//! the Akamai CDN. This crate replaces the Internet with a deterministic,
//! seedable model that preserves the properties CRP depends on:
//!
//! * **Geography + AS structure** — hosts live at geographic locations and
//!   attach to autonomous systems; AS-level paths inflate latency, so
//!   "network distance" correlates with, but is not identical to,
//!   geographic distance (triangle-inequality violations included).
//! * **Time-varying latency** — diurnal congestion, slow random drift and
//!   route-change epochs make old observations go stale, which drives the
//!   probe-interval and window-size experiments (Figs. 8–9 of the paper).
//! * **Measurement error** — the paper's "ground truth" RTTs came from the
//!   King technique, which has a documented error distribution; the
//!   [`king`] module models it.
//!
//! Everything in this crate is a pure function of `(seed, entities, time)`
//! so experiments are reproducible bit-for-bit and RTTs can be queried at
//! arbitrary simulated times without running a global event loop.
//!
//! # Example
//!
//! ```
//! use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
//!
//! let mut net = NetworkBuilder::new(42).build();
//! let hosts = net.add_population(&PopulationSpec::dns_servers(10));
//! let rtt = net.rtt(hosts[0], hosts[1], SimTime::ZERO);
//! assert!(rtt.millis() > 0.0);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::iter_over_hash_type
)]

pub mod describe;
pub mod diagnostics;
pub mod geo;
pub mod king;
pub mod latency;
pub mod noise;
pub mod population;
pub mod rtt;
pub mod time;
pub mod topology;

pub use describe::WorldDescription;
pub use diagnostics::{RttExplanation, WorldSummary};
pub use geo::{GeoPoint, Region};
pub use king::{KingConfig, KingEstimator};
pub use latency::LatencyConfig;
pub use population::{HostProfile, PopulationSpec};
pub use rtt::Rtt;
pub use time::{SimDuration, SimTime};
pub use topology::{AsId, AsTier, AutonomousSystem, Host, HostId, Network, NetworkBuilder};
