//! Paper-scale end-to-end benchmark for the CRP reproduction.
//!
//! [`workloads`] holds the four workloads and the closed loop that runs them,
//! [`trace`] the per-scope aggregates of the traced run, and [`stats`] the order
//! statistics and run-set comparison. The `bench_e2e` binary turns an
//! [`workloads::Outcome`] into the metrics named in `BENCHMARK.json`.

pub mod stats;
pub mod trace;
pub mod workloads;
