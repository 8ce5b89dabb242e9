//! Domain observability for CRP: change detection and run-health
//! verdicts.
//!
//! crp-telemetry answers "what did the pipeline *do*" — counters,
//! histograms, time series. This crate answers the domain questions those
//! primitives cannot: **did the CDN remap clients mid-run**, **how fast
//! are ratio maps drifting**, and **is the clustering churning** — the
//! silent failure modes §V of the paper warns about (probe-interval and
//! window-size sensitivity) and that YouLighter detects in the wild from
//! clustering snapshots alone.
//!
//! Two modules:
//!
//! * [`detect`] — re-interprets a [`CrpService`]'s observation history
//!   at a ladder of SimTimes *after* the campaign. Each window records
//!   per-scope movement (mean L1, drifted hosts, strongest-replica
//!   changes, support, fresh replicas) and the YouLighter-style
//!   clustering distance, and a streaming [`ChangeDetector`] turns those
//!   windows into localized [`DetectedChange`] records (onset SimTime,
//!   affected region/replica set, change-class taxonomy) with EWMA
//!   baselines, warmup, and cooldowns for false-alarm control. The
//!   [`detect::scan`] driver returns both as one serializable
//!   [`DetectionReport`].
//! * [`report`] — the run-health verdicts ([`HealthVerdict`]) that
//!   crp-eval's `report` binary and `run_all` compute over an observed
//!   run's manifests and write into `run_report.json`.
//!
//! Everything here is an observer over an already-recorded history:
//! the scan never mutates the service and is keyed exclusively by
//! [`SimTime`](crp_netsim::SimTime), so the audit layer can never
//! perturb seeded experiment outputs (the workspace determinism tests
//! prove it).
//!
//! [`CrpService`]: crp_core::CrpService
//! [`ChangeDetector`]: detect::ChangeDetector
//! [`DetectedChange`]: detect::DetectedChange
//! [`DetectionReport`]: detect::DetectionReport
//! [`HealthVerdict`]: report::HealthVerdict

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::iter_over_hash_type
)]

pub mod detect;
pub mod report;

pub use detect::{
    ChangeClass, ChangeDetector, DetectConfig, DetectWindow, DetectedChange, DetectionReport,
    GroupWindow,
};
pub use report::HealthVerdict;
