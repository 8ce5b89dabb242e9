//! Experiment harness for the CRP reproduction.
//!
//! One binary per table/figure of the ICDCS 2008 evaluation, plus
//! ablations. The binaries share the kernels in [`closest`] and
//! [`clusterexp`], parse a common set of command-line flags ([`cli`]),
//! and emit both human-readable tables on stdout and CSV series under
//! `results/` ([`output`]).
//!
//! Run everything at paper scale with:
//!
//! ```text
//! cargo run --release -p crp-eval --bin run_all
//! ```
//!
//! Every binary accepts `--seed N` and scale flags so the experiments
//! can be re-run cheaply (`--clients 200 --candidates 60`) or at full
//! paper scale (the defaults).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "the experiment harness writes the result files"
)]

/// Every binary linking this crate (the experiment bins and `run_all`)
/// gets the counting global allocator, so `--observe` attribution
/// reports real numbers. Disarmed cost is one relaxed counter bump and
/// one relaxed load per allocation; the attribution tax only applies
/// while `--observe` is in effect.
#[global_allocator]
static ALLOC: crp_telemetry::profile::CountingAllocator = crp_telemetry::profile::CountingAllocator;

pub mod audit;
pub mod changedetect;
pub mod cli;
pub mod closest;
pub mod clusterexp;
pub mod output;
pub mod telemetry;

pub use cli::EvalArgs;
pub use closest::{run_closest, ClientOutcome, ClosestConfig};
pub use clusterexp::{run_clustering, ClusterExpConfig, ClusterExpData};
