//! Simplified DNS substrate for the CRP reproduction.
//!
//! CRP's only interface to the CDN is DNS: a host issues a recursive
//! lookup for a CDN-accelerated name (the paper used the Yahoo image
//! server and `www.foxnews.com`) and records which replica-server
//! addresses come back. This crate models exactly that interface —
//! domain names, resource records with TTLs, a TTL-respecting cache, and
//! a recursive resolver that consults an authoritative server — without
//! wire-format packets (the paper's measurement client used `dig`; it
//! never parsed raw DNS either).
//!
//! The essential Akamai behavior is captured by the
//! [`resolver::AuthoritativeServer`] trait: answers may depend on *which
//! resolver is asking* (LDNS-based redirection) and on *when* (mapping
//! updates, low TTLs).
//!
//! # Example
//!
//! ```
//! use crp_dns::{DomainName, RecordData, ResourceRecord, SimIp};
//! use crp_netsim::SimDuration;
//!
//! let name: DomainName = "us.i1.yimg.com".parse()?;
//! let rr = ResourceRecord::new(name, SimDuration::from_secs(20), RecordData::A(SimIp::from_index(7)));
//! assert_eq!(rr.ttl(), SimDuration::from_secs(20));
//! # Ok::<(), crp_dns::ParseNameError>(())
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::indexing_slicing,
    clippy::panic
)]

pub mod cache;
pub mod king;
pub mod name;
pub mod record;
pub mod resolver;
pub mod zones;

pub use cache::TtlCache;
pub use king::DnsKing;
pub use name::{DomainName, ParseNameError};
pub use record::{DnsResponse, RecordData, ResourceRecord, SimIp};
pub use resolver::{AuthoritativeServer, RecursiveResolver, ResolveError};
pub use zones::{IterativeOutcome, ZoneRegistry};
