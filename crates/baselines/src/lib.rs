//! Baseline positioning techniques the paper compares CRP against.
//!
//! * [`asn`] — ASN-based clustering: group hosts by autonomous system
//!   (the paper's Table I / Fig. 7 baseline, built from RouteViews data
//!   in the original; here the AS assignment comes from the synthetic
//!   topology).
//! * [`binning`] — landmark binning (Ratnasamy et al., INFOCOM 2002),
//!   *the* relative-positioning scheme the paper says CRP replaces
//!   "without requiring landmark selection or additional measurements".
//! * [`gnp`] — Global Network Positioning (Ng & Zhang, INFOCOM 2002),
//!   the landmark-based coordinate system leading the related work.
//! * [`vivaldi`] — Vivaldi network coordinates (Dabek et al., SIGCOMM
//!   2004), the decentralized coordinate system among those the paper
//!   cites. Meridian had been shown to beat Vivaldi/GNP; implementing
//!   them lets the ablation benches close that loop inside the
//!   reproduction.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod asn;
pub mod binning;
pub mod gnp;
pub mod vivaldi;

pub use asn::asn_clustering;
pub use binning::{bin_of, binning_clustering, Bin, BinningConfig};
pub use gnp::{Gnp, GnpConfig};
pub use vivaldi::{Vivaldi, VivaldiConfig};
