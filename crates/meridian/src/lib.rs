//! Meridian baseline for the CRP reproduction.
//!
//! The paper compares CRP's closest-node selection against a deployed
//! Meridian service (Wong, Slivkins & Sirer, SIGCOMM 2005). Meridian is
//! a direct-measurement system: each node keeps a small set of peers
//! organized into concentric latency rings, discovers peers by gossip,
//! and answers "closest node to target T" queries by measuring T and
//! greedily forwarding the query to ring members that are closer.
//!
//! The ICDCS 2008 evaluation found Meridian's accuracy dominated not by
//! the algorithm but by deployment pathologies: freshly-restarted nodes
//! recommending themselves, nodes that never joined the overlay, and
//! site-isolated nodes that only knew their colocated twin. The
//! [`faults`] module injects exactly those pathologies so the comparison
//! (Figs. 4–5 and the error forensics) can be reproduced.
//!
//! # Example
//!
//! ```
//! use crp_meridian::{FaultPlan, MeridianConfig, MeridianOverlay};
//! use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
//!
//! let mut net = NetworkBuilder::new(3).build();
//! let members = net.add_population(&PopulationSpec::planetlab(16));
//! let clients = net.add_population(&PopulationSpec::dns_servers(2));
//! let overlay = MeridianOverlay::build(
//!     &net, &members, MeridianConfig::default(), FaultPlan::none(),
//! );
//! let result = overlay.closest_node_query(&net, members[0], clients[0], SimTime::ZERO);
//! assert!(members.contains(&result.selected));
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod faults;
pub mod overlay;
pub mod rings;

pub use faults::FaultPlan;
pub use overlay::{MeridianConfig, MeridianOverlay, QueryResult};
pub use rings::RingSet;
