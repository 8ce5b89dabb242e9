//! An Akamai-like CDN substrate for the CRP reproduction.
//!
//! The paper drives CRP with redirections observed from the Akamai CDN:
//! thousands of replica servers deployed with very uneven regional
//! density, a DNS mapping system that directs each *resolver* to nearby
//! replicas based on the CDN's own latency measurements, low answer TTLs
//! (~20 s), and load balancing that rotates answers among the top few
//! candidates. All of those properties matter to CRP:
//!
//! * latency-driven redirection is the paper's core premise ("CDN
//!   redirections are primarily driven by network conditions", their
//!   SIGCOMM'06 study);
//! * answer rotation is what makes *ratio maps* informative rather than a
//!   single constant;
//! * uneven coverage creates the poorly-served clients in the tails of
//!   Fig. 4 (e.g. the New Zealand DNS server redirected to replicas in
//!   Massachusetts, Tennessee and Japan);
//! * distant "CDN-owned" fallback answers motivate the §VI filtering
//!   rule.
//!
//! [`Cdn`] implements [`crp_dns::AuthoritativeServer`], so a
//! [`crp_dns::RecursiveResolver`] can be pointed straight at it.
//!
//! # Example
//!
//! ```
//! use crp_cdn::{Cdn, DeploymentSpec, MappingConfig};
//! use crp_dns::{AuthoritativeServer, RecursiveResolver};
//! use crp_netsim::{NetworkBuilder, PopulationSpec, SimTime};
//!
//! let mut net = NetworkBuilder::new(7).build();
//! let clients = net.add_population(&PopulationSpec::dns_servers(3));
//! let mut cdn = Cdn::deploy(net, &DeploymentSpec::akamai_like(0.5), MappingConfig::default());
//! let yahoo = cdn.add_customer("us.i1.yimg.com")?;
//!
//! let mut resolver = RecursiveResolver::new(clients[0]);
//! let resp = resolver.resolve(&yahoo, &cdn, SimTime::ZERO)?;
//! assert!(!resp.a_addresses().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod cdn;
pub mod customer;
pub mod deployment;
pub mod events;
pub mod mapping;
pub mod replica;

pub use cdn::{Cdn, CdnStats};
pub use customer::Customer;
pub use deployment::DeploymentSpec;
pub use events::{EventClass, EventKind, EventLog, EventRecord, EventScript, EventSpec};
pub use mapping::MappingConfig;
pub use replica::{ReplicaId, ReplicaServer};
