//! Domain observability for CRP: drift detection and run-health
//! verdicts.
//!
//! crp-telemetry (PR 2) answers "what did the pipeline *do*" — counters,
//! events, histograms. This crate answers the domain questions those
//! primitives cannot: **did the CDN remap clients mid-run**, **how fast
//! are ratio maps drifting**, and **is the clustering churning** — the
//! silent failure modes §V of the paper warns about (probe-interval and
//! window-size sensitivity) and that YouLighter detects in the wild from
//! clustering snapshots alone.
//!
//! Three modules:
//!
//! * [`drift`] — re-interprets a [`CrpService`]'s observation history at
//!   a ladder of SimTimes *after* the campaign, diffing consecutive
//!   snapshots: per-host L1 / cosine distance between ratio maps,
//!   strongest-replica changes (remap events), and YouLighter-style
//!   clustering distance. Emits `drift.*` telemetry events and returns a
//!   serializable [`DriftTimeline`].
//! * [`detect`] — the online layer above [`drift`]: a streaming
//!   [`ChangeDetector`] that turns per-window, per-scope drift signals
//!   into localized [`DetectedChange`] records (onset SimTime, affected
//!   region/replica set, change-class taxonomy) with EWMA baselines,
//!   warmup, and cooldowns for false-alarm control. The [`detect::scan`]
//!   driver replays a recorded history through the detector and feeds
//!   `detect.*` series to the crp-telemetry alert engine.
//! * [`report`] — the run-health verdicts ([`HealthVerdict`]) that
//!   crp-eval's `report` binary and `run_all` compute over an observed
//!   run's manifests and write into `run_report.json`.
//!
//! Everything here is an observer over an already-recorded history:
//! drift scanning never mutates the service and is keyed exclusively by
//! [`SimTime`](crp_netsim::SimTime), so the audit layer can never
//! perturb seeded experiment outputs (the workspace determinism tests
//! prove it).
//!
//! [`CrpService`]: crp_core::CrpService
//! [`DriftTimeline`]: drift::DriftTimeline
//! [`ChangeDetector`]: detect::ChangeDetector
//! [`DetectedChange`]: detect::DetectedChange
//! [`HealthVerdict`]: report::HealthVerdict

pub mod detect;
pub mod drift;
pub mod report;

pub use detect::{
    ChangeClass, ChangeDetector, DetectConfig, DetectWindow, DetectedChange, DetectionReport,
    GroupWindow,
};
pub use drift::{DriftConfig, DriftTimeline, DriftWindow, RemapEvent};
pub use report::HealthVerdict;
